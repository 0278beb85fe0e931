"""Quasi-1D Euler nozzle: compressible flow through a variable-area duct.

Finite-volume discretization with a Rusanov (local Lax-Friedrichs) flux.
The residual is second order via van Albada limited linear reconstruction of
primitive variables; ``first_order_blocks`` comes from the unreconstructed
scheme with frozen wave speeds, so the preconditioner is deliberately inexact
while ``jacobian_vector`` differentiates the true residual by hand.

A problem keeps the primal quantities of the last state it evaluated, found
again by the state's bytes, so the Jacobian-vector products of one Krylov
solve evaluate only the tangent. A problem instance is therefore not safe to
share between threads.

Subsonic characteristic-count boundaries: density and velocity are imposed at
the inflow with pressure taken from the interior, and static pressure is
imposed at the outflow with density and velocity extrapolated.

States with nonpositive density or pressure (cell or reconstructed face
values) raise InadmissibleStateError from ``residual``, which
``trial_residual`` turns into a soft rejection for the line search and the
smoother.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from ..core import (BlockLayout, BlockVector, FirstOrderBlocks,
                    InadmissibleStateError, NonlinearSystem, require_count,
                    require_finite)

_SLOPE_EPS = 1e-7   # van Albada regularization; primitives are O(1) here, so
                    # this keeps the limiter smooth at FD-probe scale while
                    # damping resolved slopes by well under a percent


def default_nozzle_area(x):
    """Converging-diverging profile on [0, 1]: throat area 1 at x = 0.5."""
    return 1.0 + 0.4 * (2.0 * np.asarray(x) - 1.0) ** 2


class Quasi1dEulerProblem(NonlinearSystem):

    def __init__(self, n_cells: int, area: Optional[Callable] = None,
                 rho_in: float = 1.0, u_in: float = 0.3,
                 p_exit: float = 1.0 / 1.4, gamma: float = 1.4,
                 length: float = 1.0):
        require_count("n_cells", n_cells, 1)
        if n_cells < 16:
            raise ValueError("need at least 16 cells")
        require_finite(rho_in=rho_in, u_in=u_in, p_exit=p_exit, gamma=gamma,
                       length=length)
        if rho_in <= 0.0 or p_exit <= 0.0 or length <= 0.0:
            raise ValueError("rho_in, p_exit and length must be positive")
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        with np.errstate(over="ignore", invalid="ignore"):
            inflow = self.conserved(rho_in, u_in, p_exit, gamma)
        if not np.all(np.isfinite(inflow)):
            raise ValueError(
                "rho_in, u_in, p_exit and gamma give an initial state that "
                "overflows")
        self.n = n_cells
        self.gamma = float(gamma)
        self.rho_in = float(rho_in)
        self.u_in = float(u_in)
        self.p_exit = float(p_exit)
        self.area = area if area is not None else default_nozzle_area

        self.dx = length / n_cells
        self.x_faces = np.linspace(0.0, length, n_cells + 1)
        self.x_centers = 0.5 * (self.x_faces[:-1] + self.x_faces[1:])
        # A long nozzle's area or cell measures may overflow: refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            self.a_faces = np.asarray(self.area(self.x_faces), dtype=float)
            self.a_centers = np.asarray(self.area(self.x_centers),
                                        dtype=float)
            self.cell_measures = self.a_centers * self.dx
        if (self.a_faces.shape != self.x_faces.shape
                or self.a_centers.shape != self.x_centers.shape):
            raise ValueError("nozzle area must return one value per point")
        areas = np.concatenate((self.a_faces, self.a_centers))
        if not np.all(np.isfinite(areas) & (areas > 0.0)):
            raise ValueError("nozzle area must be positive and finite")
        if not np.all(np.isfinite(self.cell_measures)):
            raise ValueError("length and nozzle area give cell measures "
                             "that overflow")
        self.da = self.a_faces[1:] - self.a_faces[:-1]
        self._half_area = 0.5 * self.a_faces

        self.layout = BlockLayout(n_cells, 3)
        self.edges = np.arange(n_cells - 1)[:, None] + [0, 1]
        self._state_key = None
        self._evaluation = None

    # -- state handling -------------------------------------------------------

    def _decode(self, values: np.ndarray):
        """Conserved (rho, rho u, E) -> primitive (rho, u, p); validates."""
        U = values.reshape(self.n, 3)
        if not np.isfinite(U).all():
            raise InadmissibleStateError("non-finite conserved state")
        rho = U[:, 0]
        if (rho <= 0.0).any():
            raise InadmissibleStateError("nonpositive density")
        u = U[:, 1] / rho
        p = (self.gamma - 1.0) * (U[:, 2] - 0.5 * rho * u * u)
        if (p <= 0.0).any():
            raise InadmissibleStateError("nonpositive pressure")
        return rho, u, p

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
        return BlockVector(self.layout, U.ravel())

    # -- residual and exact jacobian-vector product ---------------------------

    def _evaluate(self, values: np.ndarray) -> "_Evaluation":
        """The scheme at ``values``, kept for the last state evaluated.

        The state is compared by its bytes, not by identity: callers edit
        states in place and Python reuses ids. A state that raises is never
        kept, so it raises again on every call.
        """
        key = values.tobytes()
        if key != self._state_key:
            self._evaluation = _Evaluation(self, values)
            self._state_key = key
        return self._evaluation

    def residual(self, w: BlockVector) -> np.ndarray:
        return self._evaluate(w.values).residual.copy()

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        return self._evaluate(w.values).jacobian_vector(v)

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
        # The cells' flux Jacobians, then the inflow and outflow ghosts'.
        A_all = self._flux_jacobian(
            np.concatenate((rho, (self.rho_in, rho[-1]))),
            np.concatenate((u, (self.u_in, u[-1]))),
            np.concatenate((p, (p[0], self.p_exit))))
        A, A_gin, A_gout = A_all[:-2], A_all[-2], A_all[-1]
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
        diag[0] -= 0.5 * af[0] * (A_gin + s_face[0] * eye) @ g_in
        g_out = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [-0.5 * u[-1] * u[-1], u[-1], 0.0]])
        diag[-1] += 0.5 * af[-1] * (A_gout - s_face[-1] * eye) @ g_out

        af_int = af[1:-1][:, None, None]
        s_int = s_face[1:-1][:, None, None]
        off_ij = 0.5 * af_int * (A[1:] - s_int * eye)       # dR_i/dU_{i+1}
        off_ji = -0.5 * af_int * (A[:-1] + s_int * eye)     # dR_{i+1}/dU_i
        return FirstOrderBlocks(diag, off_ij, off_ji)

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


def _face_states(padded: np.ndarray, half_slope: np.ndarray) -> np.ndarray:
    """Linear reconstruction to both sides of every face, shape (3, 2, n+1),
    from ghost-padded cell values (3, n+2) and half slopes (3, n). Linear in
    its inputs, so it maps the primal and the tangent alike."""
    q = np.empty((3, 2, padded.shape[1] - 1))
    q[:, 0, 0] = padded[:, 0]
    np.add(padded[:, 1:-1], half_slope, out=q[:, 0, 1:])
    np.subtract(padded[:, 1:-1], half_slope, out=q[:, 1, :-1])
    q[:, 1, -1] = padded[:, -1]
    return q


class _Evaluation:
    """The scheme at one state, and its exact tangent along any direction.

    The primal pass (decoding, limited reconstruction, face fluxes and wave
    speeds) runs once, at construction; the primal factors that only the
    tangent reads are formed on the first ``jacobian_vector`` call. Each
    tangent then repeats every floating-point operation of differentiating
    the scheme in the same order, so it is bitwise reproducible.

    Arrays are component-major: the first index is the primitive (rho, u, p)
    or conserved (rho, rho u, E) component, face arrays then the side (0
    left, 1 right) and the face. Column 0 of the padded primitives is the
    inflow ghost and column n + 1 the outflow ghost.
    """

    def __init__(self, problem: Quasi1dEulerProblem, values: np.ndarray):
        gm = problem.gamma
        n = problem.n
        rho, u, p = problem._decode(values)
        prim = np.empty((3, n + 2))
        prim[:, 1:-1] = rho, u, p
        prim[:, 0] = problem.rho_in, problem.u_in, p[0]
        prim[:, -1] = rho[-1], u[-1], problem.p_exit

        # van Albada limited slopes from the backward/forward differences.
        dq = prim[:, 1:] - prim[:, :-1]
        a, b = dq[:, :-1], dq[:, 1:]
        aa, bb = a * a, b * b
        num = aa * b + a * b * b
        den = aa + bb + _SLOPE_EPS
        q = _face_states(prim, 0.5 * (num / den))
        rho_f, u_f, p_f = q
        if ((rho_f <= 0.0).any() or (p_f <= 0.0).any()
                or not np.isfinite(q).all()):
            raise InadmissibleStateError("inadmissible reconstructed face state")

        e_total = p_f / (gm - 1.0) + 0.5 * rho_f * u_f * u_f
        rho_u = rho_f * u_f
        e_plus_p = e_total + p_f
        c = np.sqrt(gm * p_f / rho_f)
        speed = np.abs(u_f) + c
        s = np.maximum(speed[0], speed[1])
        cons = np.array((rho_f, rho_u, e_total))
        phys = np.array((rho_u, rho_u * u_f + p_f, u_f * e_plus_p))
        jump = cons[:, 1] - cons[:, 0]
        self.flux = problem._half_area * (phys[:, 0] + phys[:, 1] - s * jump)
        self.source = p * problem.da      # momentum equation only
        res = self.flux[:, 1:] - self.flux[:, :-1]
        res[1] -= self.source
        self.residual = res.T.ravel()

        self.problem = problem
        # Only arrays computed here are kept: the decoded density is a view
        # of the caller's state, which the caller may edit.
        self.rho, self.u = prim[0, 1:-1], u
        self.a, self.b, self.aa, self.bb = a, b, aa, bb
        self.num, self.den = num, den
        self.rho_f, self.u_f, self.p_f = rho_f, u_f, p_f
        self.rho_u, self.e_plus_p, self.c, self.speed = rho_u, e_plus_p, c, speed
        self.s, self.jump = s, jump
        self._factors = None

    def _tangent_factors(self):
        """Primal prefixes of the tangent's products, left-associated as the
        tangent evaluates them."""
        a2, b2 = 2.0 * self.a, 2.0 * self.b
        a2b = a2 * self.b
        speed = self.speed
        tie = speed[0] == speed[1]
        u_f = self.u_f
        return SimpleNamespace(
            a2=a2, b2=b2,
            dnum_da=a2b + self.bb, dnum_db=self.aa + a2b, den2=self.den ** 2,
            half_u2_cell=0.5 * self.u * self.u,
            half_u2=0.5 * u_f * u_f, u2=u_f * u_f,
            two_rho_u=2.0 * self.rho_f * u_f,
            half_c=0.5 * self.c, sign_u=np.sign(u_f),
            left_faster=speed[0] > speed[1],
            # At an exact tie the max() tangent is the two sides' average, so
            # the product matches central differences everywhere.
            tie=tie if tie.any() else None)

    def jacobian_vector(self, v: np.ndarray) -> np.ndarray:
        if self._factors is None:
            self._factors = self._tangent_factors()
        t = self._factors
        problem = self.problem
        gm = problem.gamma
        n = problem.n
        u = self.u
        V = v.reshape(n, 3)
        drho = V[:, 0]
        dprim = np.empty((3, n + 2))
        dprim[0, 1:-1] = drho
        np.divide(V[:, 1] - u * drho, self.rho, out=dprim[1, 1:-1])
        dp = np.multiply(gm - 1.0,
                         V[:, 2] - u * V[:, 1] + t.half_u2_cell * drho,
                         out=dprim[2, 1:-1])
        # The inflow ghost varies with the first cell's pressure only, the
        # outflow ghost with the last cell's density and velocity.
        dprim[:2, 0] = 0.0
        dprim[2, 0] = dp[0]
        dprim[:2, -1] = dprim[:2, -2]
        dprim[2, -1] = 0.0

        ddq = dprim[:, 1:] - dprim[:, :-1]
        da, db = ddq[:, :-1], ddq[:, 1:]
        dnum = t.dnum_da * da + t.dnum_db * db
        dden = t.a2 * da + t.b2 * db
        drho_f, du_f, dp_f = _face_states(
            dprim, 0.5 * ((dnum * self.den - self.num * dden) / t.den2))

        rho_f, u_f = self.rho_f, self.u_f
        de = dp_f / (gm - 1.0) + t.half_u2 * drho_f + self.rho_u * du_f
        dm = rho_f * du_f + u_f * drho_f
        dcons = np.array((drho_f, dm, de))
        dphys = np.array((dm, t.u2 * drho_f + t.two_rho_u * du_f + dp_f,
                          du_f * self.e_plus_p + u_f * (de + dp_f)))
        dc = t.half_c * (dp_f / self.p_f - drho_f / rho_f)
        dspeed = t.sign_u * du_f + dc
        ds = np.where(t.left_faster, dspeed[0], dspeed[1])
        if t.tie is not None:
            ds[t.tie] = 0.5 * (dspeed[0][t.tie] + dspeed[1][t.tie])

        dflux = problem._half_area * (dphys[:, 0] + dphys[:, 1] - ds * self.jump
                                     - self.s * (dcons[:, 1] - dcons[:, 0]))
        jv = dflux[:, 1:] - dflux[:, :-1]
        jv[1] -= dp * problem.da
        return jv.T.ravel()


make_quasi1d_euler = Quasi1dEulerProblem
