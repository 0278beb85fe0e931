"""Anisotropic nonlinear convection-diffusion on a stretched tensor grid.

    -eps * lap(u) + v . grad(u) + sigma * u * |u| = f    on (0,1) x (0,ly)

with Dirichlet data and forcing manufactured from a smooth exact solution.
The y spacing contracts geometrically toward the wall at y = 0 (contraction
up to ~1e3), which is what stresses the line machinery: near-wall cells
couple ~1e6 times more strongly in y than in x.

The residual uses central convection; the first-order blocks use upwind
convection, reproducing the usual inexact-preconditioner split. The exact
Jacobian-vector product belongs to the central-difference residual.

Only the pointwise reaction depends on the state, so the constructor
assembles the rest once: the central stencil that the residual and its
Jacobian-vector product share, a right-hand side holding ``vol * f`` and the
Dirichlet traces, the upwind blocks and the explicit time step's rate.
"""

from __future__ import annotations

import numpy as np

from ..core import (BlockLayout, BlockVector, FirstOrderBlocks,
                    NonlinearSystem, require_count, require_finite)


def _nonuniform_coeffs(d_minus: np.ndarray, d_plus: np.ndarray):
    """3-point second- and first-derivative weights for unequal spacings."""
    span = d_minus + d_plus
    lap_m = 2.0 / (d_minus * span)
    lap_p = 2.0 / (d_plus * span)
    lap_0 = -2.0 / (d_minus * d_plus)
    grad_m = -d_plus / (d_minus * span)
    grad_p = d_minus / (d_plus * span)
    grad_0 = (d_plus - d_minus) / (d_minus * d_plus)
    return (lap_m, lap_0, lap_p), (grad_m, grad_0, grad_p)


class AnisoConvDiffProblem(NonlinearSystem):

    def __init__(self, nx: int, ny: int, stretching_ratio: float = 1.0,
                 eps: float = 0.01, velocity=(1.0, 0.5), sigma: float = 1.0,
                 ly: float = 1.0, amplitude: float = 0.5):
        require_count("nx", nx, 1)
        require_count("ny", ny, 1)
        if nx < 4 or ny < 4:
            raise ValueError("need at least 4 cells per direction")
        if np.shape(velocity) != (2,):
            raise ValueError(f"velocity must have 2 components: {velocity!r}")
        require_finite(stretching_ratio=stretching_ratio, eps=eps,
                       velocity=velocity, sigma=sigma, ly=ly,
                       amplitude=amplitude)
        if stretching_ratio < 1.0:
            raise ValueError("stretching_ratio must be at least 1")
        if ly <= 0.0:
            raise ValueError("ly must be positive")
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        if not sigma >= 0.0:
            raise ValueError("sigma must be nonnegative")
        self.nx, self.ny = nx, ny
        self.eps = float(eps)
        self.vx, self.vy = float(velocity[0]), float(velocity[1])
        self.sigma = float(sigma)
        self.ly = float(ly)
        self.stretching_ratio = float(stretching_ratio)
        self.amplitude = float(amplitude)  # 0 gives a constant exact solution

        self.hx = 1.0 / nx
        self.xc = (np.arange(nx) + 0.5) * self.hx
        # Geometric y spacing, finest at the wall y = 0. A ratio within
        # round-off of 1 gives g == 1: the uniform grid, not 0 / 0.
        g = stretching_ratio ** (1.0 / (ny - 1))
        if g == 1.0:
            self.hy = np.full(ny, self.ly / ny)
        else:
            try:
                h0 = self.ly * (g - 1.0) / (g ** ny - 1.0)
            except OverflowError:   # g ** ny beyond the float range
                h0 = 0.0            # zero spacings: rejected below
            self.hy = h0 * g ** np.arange(ny)
        # On a tall grid the faces may overflow: refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            faces = np.concatenate(([0.0], np.cumsum(self.hy)))
            self.yc = 0.5 * (faces[:-1] + faces[1:])

        self.layout = BlockLayout(nx * ny, 1)
        # Edges in row-major order, x-edges before y-edges (line extraction
        # breaks ties by this order).
        cell = np.arange(nx * ny).reshape(ny, nx)
        self.edges = np.concatenate((
            np.column_stack((cell[:, :-1].ravel(), cell[:, 1:].ravel())),
            np.column_stack((cell[:-1, :].ravel(), cell[1:, :].ravel()))))
        self.cell_measures = np.outer(self.hy, np.full(nx, self.hx)).ravel()
        self._vol = vol = self.cell_measures.reshape(ny, nx)

        # Center-to-center spacings; boundary values sit on the faces.
        dx = np.concatenate(([self.hx / 2.0], np.full(nx - 1, self.hx),
                             [self.hx / 2.0]))
        dxm, dxp = dx[:-1], dx[1:]
        (lxm, lx0, lxp), (gxm, gx0, gxp) = _nonuniform_coeffs(dxm, dxp)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dy = np.concatenate(([self.hy[0] / 2.0], np.diff(self.yc),
                                 [self.hy[-1] / 2.0]))
            dym, dyp = dy[:-1], dy[1:]
            (lym, ly0, lyp), (gym, gy0, gyp) = _nonuniform_coeffs(dym, dyp)
        if not np.all(np.isfinite([self.hy, self.yc, lym, ly0, lyp, gym, gy0,
                                   gyp])):
            raise ValueError(
                f"stretching_ratio {stretching_ratio:g} is too large for "
                f"{ny} cells of ly {ly:g}: the y spacings or their weights "
                "overflow")

        with np.errstate(over="ignore", invalid="ignore"):
            forcing = self._manufactured_forcing()
        if not np.all(np.isfinite(forcing)):
            raise ValueError(
                "eps, velocity, sigma and amplitude give a manufactured "
                "forcing that overflows")

        eps, vx, vy = self.eps, self.vx, self.vy
        with np.errstate(over="ignore", invalid="ignore"):
            # Central scheme, volume-weighted: a cell's own coefficient and
            # those of its west, east, south and north neighbors.
            diffusion = -eps * (lx0[None, :] + ly0[:, None])
            centre = vol * (diffusion + vx * gx0[None, :] + vy * gy0[:, None])
            west = vol * (-eps * lxm + vx * gxm)[None, :]
            east = vol * (-eps * lxp + vx * gxp)[None, :]
            south = vol * (-eps * lym + vy * gym)[:, None]
            north = vol * (-eps * lyp + vy * gyp)[:, None]
            self._stencil = (centre, west[:, 1:], east[:, :-1], south[1:],
                             north[:-1])
            # Boundary neighbors hold the Dirichlet traces on the faces.
            self._rhs = rhs = vol * forcing
            rhs[:, 0] -= west[:, 0] * self.exact(0.0, self.yc)
            rhs[:, -1] -= east[:, -1] * self.exact(1.0, self.yc)
            rhs[0] -= south[0] * self.exact(self.xc, 0.0)
            rhs[-1] -= north[-1] * self.exact(self.xc, self.ly)
            self._sigma_vol = self.sigma * vol

            # First-order blocks (preconditioner only): upwind convection
            # enters the neighbor coupling on the upstream side only. The
            # diagonal is kept unweighted; off_ij couples a cell to its east
            # or north neighbor and off_ji the reverse, in ``edges`` order.
            self._upwind_diag = (diffusion
                                 + abs(vx) / (dxm if vx >= 0 else dxp)[None, :]
                                 + abs(vy) / (dym if vy >= 0 else dyp)[:, None])
            up_e = vol * (-eps * lxp + min(vx, 0.0) / dxp)[None, :]
            up_w = vol * (-eps * lxm - max(vx, 0.0) / dxm)[None, :]
            up_n = vol * (-eps * lyp + min(vy, 0.0) / dyp)[:, None]
            up_s = vol * (-eps * lym - max(vy, 0.0) / dym)[:, None]
            self._couplings = np.stack((
                np.concatenate((up_e[:, :-1].ravel(), up_n[:-1].ravel())),
                np.concatenate((up_w[:, 1:].ravel(), up_s[1:].ravel()))
            )).reshape(2, -1, 1, 1)
            self._couplings.flags.writeable = False

            # The inverse explicit time step without its reaction term.
            self._dt_rate = (
                2.0 * eps * (1.0 / (dxm * dxp)[None, :]
                             + 1.0 / (dym * dyp)[:, None])
                + ((abs(vx) / self.hx) + abs(vy) / self.hy[:, None]))
        if not all(np.all(np.isfinite(a)) for a in (
                centre, west, east, south, north, rhs, self._upwind_diag,
                self._couplings, self._dt_rate)):
            raise ValueError("eps, velocity, amplitude and the y spacings give "
                             "boundary terms or stencil weights that overflow")

    # -- manufactured solution ------------------------------------------------

    def exact(self, x, y) -> np.ndarray:
        return 1.0 + self.amplitude * np.sin(np.pi * x) * np.cos(np.pi * y / self.ly)

    def _manufactured_forcing(self) -> np.ndarray:
        a = self.amplitude
        x = self.xc[None, :]
        y = self.yc[:, None]
        s = np.sin(np.pi * x) * np.cos(np.pi * y / self.ly)
        u = 1.0 + a * s
        ux = a * np.pi * np.cos(np.pi * x) * np.cos(np.pi * y / self.ly)
        uy = -a * (np.pi / self.ly) * np.sin(np.pi * x) * np.sin(np.pi * y / self.ly)
        uxx = -a * np.pi ** 2 * s
        uyy = -a * (np.pi / self.ly) ** 2 * s
        return (-self.eps * (uxx + uyy) + self.vx * ux + self.vy * uy
                + self.sigma * u * np.abs(u))

    # -- discrete operators ---------------------------------------------------

    def _central(self, u: np.ndarray) -> np.ndarray:
        """The central stencil applied to u, zero on the boundary."""
        centre, west, east, south, north = self._stencil
        out = centre * u
        out[:, 1:] += west * u[:, :-1]
        out[:, :-1] += east * u[:, 1:]
        out[1:] += south * u[:-1]
        out[:-1] += north * u[1:]
        return out

    def residual(self, w: BlockVector) -> np.ndarray:
        u = w.values.reshape(self.ny, self.nx)
        r = self._central(u) + self._sigma_vol * u * np.abs(u) - self._rhs
        return r.ravel()

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        u = w.values.reshape(self.ny, self.nx)
        vv = v.reshape(self.ny, self.nx)
        jv = self._central(vv) + 2.0 * self._sigma_vol * np.abs(u) * vv
        return jv.ravel()

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        u = np.abs(w.values.reshape(self.ny, self.nx))
        diag = self._vol * (self._upwind_diag + 2.0 * self.sigma * u)
        return FirstOrderBlocks(diag.reshape(-1, 1, 1), *self._couplings)

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        u = np.abs(w.values.reshape(self.ny, self.nx))
        return (1.0 / (self._dt_rate + 2.0 * self.sigma * u)).ravel()

    def initial_state(self) -> BlockVector:
        # Impulsive start: zero field violating the boundary data.
        return BlockVector(self.layout)

    def exact_on_grid(self) -> BlockVector:
        vals = self.exact(self.xc[None, :], self.yc[:, None])
        return BlockVector(self.layout, vals.ravel())


make_aniso_convdiff = AnisoConvDiffProblem
