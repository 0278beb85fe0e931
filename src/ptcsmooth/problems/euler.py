"""Quasi-1D Euler nozzle: compressible flow through a variable-area duct.

Finite-volume discretization with a Rusanov (local Lax-Friedrichs) flux.
The residual is second order via van Albada limited linear reconstruction of
primitive variables; ``first_order_blocks`` comes from the unreconstructed
scheme with frozen wave speeds, so the preconditioner is deliberately inexact
while ``jacobian_vector`` differentiates the true residual by hand.

Subsonic characteristic-count boundaries: density and velocity are imposed at
the inflow with pressure taken from the interior, and static pressure is
imposed at the outflow with density and velocity extrapolated.

States with nonpositive density or pressure (cell or reconstructed face
values) raise InadmissibleStateError, which the line search and smoother
treat as a soft rejection signal.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core import (BlockLayout, BlockVector, FirstOrderBlocks,
                    InadmissibleStateError, NonlinearSystem, require_finite)

_SLOPE_EPS = 1e-7   # van Albada regularization; primitives are O(1) here, so
                    # this keeps the limiter smooth at FD-probe scale while
                    # damping resolved slopes by well under a percent


def default_nozzle_area(x):
    """Converging-diverging profile on [0, 1]: throat area 1 at x = 0.5."""
    return 1.0 + 0.4 * (2.0 * np.asarray(x) - 1.0) ** 2


def _van_albada(dq, ddq=None):
    """Smooth limited slopes from the backward/forward differences
    ``dq[:-1]``/``dq[1:]``, and their tangent along ``ddq`` (else None)."""
    a, b = dq[:-1], dq[1:]
    num = a * a * b + a * b * b
    den = a * a + b * b + _SLOPE_EPS
    if ddq is None:
        return num / den, None
    da, db = ddq[:-1], ddq[1:]
    dnum = (2.0 * a * b + b * b) * da + (a * a + 2.0 * a * b) * db
    dden = 2.0 * a * da + 2.0 * b * db
    return num / den, (dnum * den - num * dden) / den ** 2


class Quasi1dEulerProblem(NonlinearSystem):

    def __init__(self, n_cells: int, area: Optional[Callable] = None,
                 rho_in: float = 1.0, u_in: float = 0.3,
                 p_exit: float = 1.0 / 1.4, gamma: float = 1.4,
                 length: float = 1.0):
        if n_cells < 16:
            raise ValueError("need at least 16 cells")
        require_finite(rho_in=rho_in, u_in=u_in, p_exit=p_exit, gamma=gamma,
                       length=length)
        if rho_in <= 0.0 or p_exit <= 0.0 or length <= 0.0:
            raise ValueError("rho_in, p_exit and length must be positive")
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        self.n = n_cells
        self.gamma = float(gamma)
        self.rho_in = float(rho_in)
        self.u_in = float(u_in)
        self.p_exit = float(p_exit)
        self.area = area if area is not None else default_nozzle_area

        self.dx = length / n_cells
        self.x_faces = np.linspace(0.0, length, n_cells + 1)
        self.x_centers = 0.5 * (self.x_faces[:-1] + self.x_faces[1:])
        self.a_faces = np.asarray(self.area(self.x_faces), dtype=float)
        self.a_centers = np.asarray(self.area(self.x_centers), dtype=float)
        areas = np.concatenate((self.a_faces, self.a_centers))
        if not np.all(np.isfinite(areas) & (areas > 0.0)):
            raise ValueError("nozzle area must be positive and finite")
        self.da = self.a_faces[1:] - self.a_faces[:-1]

        self._layout = BlockLayout(n_cells, 3)
        self.cell_measures = self.a_centers * self.dx

    @property
    def layout(self) -> BlockLayout:
        return self._layout

    # -- state handling -------------------------------------------------------

    def _decode(self, values: np.ndarray):
        """Conserved (rho, rho u, E) -> primitive (rho, u, p); validates."""
        U = values.reshape(self.n, 3)
        if not np.all(np.isfinite(U)):
            raise InadmissibleStateError("non-finite conserved state")
        rho = U[:, 0]
        if np.any(rho <= 0.0):
            raise InadmissibleStateError("nonpositive density")
        u = U[:, 1] / rho
        p = (self.gamma - 1.0) * (U[:, 2] - 0.5 * rho * u * u)
        if np.any(p <= 0.0):
            raise InadmissibleStateError("nonpositive pressure")
        return rho, u, p

    def is_admissible(self, w: BlockVector) -> bool:
        try:
            self._decode(w.values)
        except InadmissibleStateError:
            return False
        return True

    @staticmethod
    def conserved(rho, u, p, gamma=1.4) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        e_total = p / (gamma - 1.0) + 0.5 * rho * u * u
        return np.stack([rho, rho * u, e_total], axis=-1)

    def initial_state(self) -> BlockVector:
        # Impulsive uniform field at inflow density/velocity and exit pressure;
        # the area variation makes this far from steady.
        U = self.conserved(np.full(self.n, self.rho_in),
                           np.full(self.n, self.u_in),
                           np.full(self.n, self.p_exit), self.gamma)
        return BlockVector(self._layout, U.ravel())

    # -- residual and exact jacobian-vector product ---------------------------

    def _face_states(self, rho, u, p, tangents=None):
        """Limited reconstruction of primitives to both sides of every face.

        Returns (qL, qR, dqL, dqR): the face states, shape (n_faces, 3) in
        (rho, u, p) order, and their tangents along ``tangents`` (None when
        it is not given). Face 0 carries the inflow ghost on its left, face n
        the outflow ghost on its right.
        """
        prim = np.stack([rho, u, p], axis=1)
        ghost_in = np.array([self.rho_in, self.u_in, p[0]])
        ghost_out = np.array([rho[-1], u[-1], self.p_exit])
        dq = np.diff(np.vstack([ghost_in, prim, ghost_out]), axis=0)  # (n+1, 3)
        ddq = None
        if tangents is not None:
            drho, du, dp = tangents
            dprim = np.stack([drho, du, dp], axis=1)
            dghost_in = np.array([0.0, 0.0, dp[0]])
            dghost_out = np.array([drho[-1], du[-1], 0.0])
            ddq = np.diff(np.vstack([dghost_in, dprim, dghost_out]), axis=0)

        sigma, dsigma = _van_albada(dq, ddq)
        qL = np.vstack([ghost_in, prim + 0.5 * sigma])
        qR = np.vstack([prim - 0.5 * sigma, ghost_out])
        if ddq is None:
            return qL, qR, None, None
        dqL = np.vstack([dghost_in, dprim + 0.5 * dsigma])
        dqR = np.vstack([dprim - 0.5 * dsigma, dghost_out])
        return qL, qR, dqL, dqR

    def _flux_terms(self, q, dq=None):
        """Conserved state, physical flux and wave speed of face states."""
        gm = self.gamma
        rho, u, p = q[:, 0], q[:, 1], q[:, 2]
        if np.any(rho <= 0.0) or np.any(p <= 0.0) or not np.all(np.isfinite(q)):
            raise InadmissibleStateError("inadmissible reconstructed face state")
        e_total = p / (gm - 1.0) + 0.5 * rho * u * u
        U = np.stack([rho, rho * u, e_total], axis=1)
        F = np.stack([rho * u, rho * u * u + p, u * (e_total + p)], axis=1)
        c = np.sqrt(gm * p / rho)
        s = np.abs(u) + c
        if dq is None:
            return U, F, s, None, None, None
        drho, du, dp = dq[:, 0], dq[:, 1], dq[:, 2]
        de = dp / (gm - 1.0) + 0.5 * u * u * drho + rho * u * du
        dU = np.stack([drho, rho * du + u * drho, de], axis=1)
        dF = np.stack([
            rho * du + u * drho,
            u * u * drho + 2.0 * rho * u * du + dp,
            du * (e_total + p) + u * (de + dp),
        ], axis=1)
        dc = 0.5 * c * (dp / p - drho / rho)
        ds = np.sign(u) * du + dc
        return U, F, s, dU, dF, ds

    def _assemble(self, values: np.ndarray, tangent: Optional[np.ndarray] = None):
        """Face fluxes (n+1, 3) and source terms (n, 3) at ``values``, or
        their tangents along ``tangent``."""
        gm = self.gamma
        rho, u, p = self._decode(values)

        tangents = None
        if tangent is not None:
            V = tangent.reshape(self.n, 3)
            drho = V[:, 0]
            du = (V[:, 1] - u * drho) / rho
            dp = (gm - 1.0) * (V[:, 2] - u * V[:, 1] + 0.5 * u * u * drho)
            tangents = (drho, du, dp)

        qL, qR, dqL, dqR = self._face_states(rho, u, p, tangents)
        UL, FL, sL, dUL, dFL, dsL = self._flux_terms(qL, dqL)
        UR, FR, sR, dUR, dFR, dsR = self._flux_terms(qR, dqR)
        s = np.maximum(sL, sR)
        half_area = 0.5 * self.a_faces[:, None]
        source = np.zeros((self.n, 3))

        if tangent is None:
            source[:, 1] = p * self.da
            return half_area * (FL + FR - s[:, None] * (UR - UL)), source

        # max() tangent: side of the larger speed, averaged at exact ties so
        # the product matches central differences everywhere.
        ds = np.where(sL > sR, dsL, dsR)
        tie = sL == sR
        ds[tie] = 0.5 * (dsL[tie] + dsR[tie])
        source[:, 1] = dp * self.da
        return half_area * (dFL + dFR - ds[:, None] * (UR - UL)
                            - s[:, None] * (dUR - dUL)), source

    def residual(self, w: BlockVector) -> np.ndarray:
        flux, source = self._assemble(w.values)
        return (flux[1:] - flux[:-1] - source).ravel()

    def residual_parts(self, w: BlockVector):
        """Face fluxes (n+1, 3) and source terms (n, 3) for diagnostics."""
        return self._assemble(w.values)

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        dflux, dsource = self._assemble(w.values, v)
        return (dflux[1:] - dflux[:-1] - dsource).ravel()

    # -- first-order preconditioner blocks ------------------------------------

    def _flux_jacobian(self, rho, u, p):
        """Analytic dF/dU, shape (n, 3, 3)."""
        gm = self.gamma
        e_total = p / (gm - 1.0) + 0.5 * rho * u * u
        H = (e_total + p) / rho
        A = np.zeros((len(rho), 3, 3))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = 0.5 * (gm - 3.0) * u * u
        A[:, 1, 1] = (3.0 - gm) * u
        A[:, 1, 2] = gm - 1.0
        A[:, 2, 0] = u * (0.5 * (gm - 1.0) * u * u - H)
        A[:, 2, 1] = H - (gm - 1.0) * u * u
        A[:, 2, 2] = gm * u
        return A

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        gm = self.gamma
        rho, u, p = self._decode(w.values)
        A = self._flux_jacobian(rho, u, p)
        sc = np.abs(u) + np.sqrt(gm * p / rho)
        # Per-face frozen wave speed; boundary faces use the interior cell.
        s_face = np.empty(self.n + 1)
        s_face[1:-1] = np.maximum(sc[:-1], sc[1:])
        s_face[0] = sc[0]
        s_face[-1] = sc[-1]

        eye = np.eye(3)
        af = self.a_faces
        # dp/dU for the area source (only the momentum row is nonzero).
        dp_dU = (gm - 1.0) * np.stack(
            [0.5 * u * u, -u, np.ones_like(u)], axis=1)
        diag = (0.5 * (af[1:] - af[:-1])[:, None, None] * A
                + 0.5 * (af[1:] * s_face[1:]
                         + af[:-1] * s_face[:-1])[:, None, None] * eye)
        diag[:, 1, :] -= self.da[:, None] * dp_dU

        # Boundary-ghost sensitivity: the inflow ghost carries the first
        # cell's pressure, the outflow ghost the last cell's density and
        # velocity, and both feed back through the boundary fluxes.
        g_in = np.zeros((3, 3))
        g_in[2] = [0.5 * u[0] * u[0], -u[0], 1.0]        # dE_ghost/dU_0
        rho_g, u_g = self.rho_in, self.u_in
        p_g = p[0]
        A_gin = self._flux_jacobian(np.array([rho_g]), np.array([u_g]),
                                    np.array([p_g]))[0]
        diag[0] -= 0.5 * af[0] * (A_gin + s_face[0] * eye) @ g_in
        g_out = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [-0.5 * u[-1] * u[-1], u[-1], 0.0]])
        A_gout = self._flux_jacobian(np.array([rho[-1]]), np.array([u[-1]]),
                                     np.array([self.p_exit]))[0]
        diag[-1] += 0.5 * af[-1] * (A_gout - s_face[-1] * eye) @ g_out

        idx = np.arange(self.n - 1)
        edges = np.column_stack((idx, idx + 1))
        af_int = af[1:-1][:, None, None]
        s_int = s_face[1:-1][:, None, None]
        off_ij = 0.5 * af_int * (A[1:] - s_int * eye)       # dR_i/dU_{i+1}
        off_ji = -0.5 * af_int * (A[:-1] + s_int * eye)     # dR_{i+1}/dU_i
        return FirstOrderBlocks(diag, edges, off_ij, off_ji)

    # -- misc contract pieces --------------------------------------------------

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        rho, u, p = self._decode(w.values)
        return self.dx / (np.abs(u) + np.sqrt(self.gamma * p / rho))

    def mach(self, w: BlockVector) -> np.ndarray:
        rho, u, p = self._decode(w.values)
        return u / np.sqrt(self.gamma * p / rho)

    def functional(self, w: BlockVector) -> float:
        """Exit Mach number."""
        return float(self.mach(w)[-1])


make_quasi1d_euler = Quasi1dEulerProblem
