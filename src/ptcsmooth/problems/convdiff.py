"""Anisotropic nonlinear convection-diffusion on a stretched tensor grid.

    -eps * lap(u) + v . grad(u) + sigma * u * |u| = f    on (0,1) x (0,ly)

with Dirichlet data and forcing manufactured from a smooth exact solution.
The y spacing contracts geometrically toward the wall at y = 0 (contraction
up to ~1e3), which is what stresses the line machinery: near-wall cells
couple ~1e6 times more strongly in y than in x.

The residual uses central convection; the first-order blocks use upwind
convection, reproducing the usual inexact-preconditioner split. The exact
Jacobian-vector product belongs to the central-difference residual.
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
        self._vol2d = self.cell_measures.reshape(ny, nx)

        # Center-to-center spacings; boundary values sit on the faces.
        dxm = np.full(nx, self.hx)
        dxm[0] = self.hx / 2.0
        dxp = np.full(nx, self.hx)
        dxp[-1] = self.hx / 2.0
        dym = np.empty(ny)
        dym[0] = self.hy[0] / 2.0
        dym[1:] = self.yc[1:] - self.yc[:-1]
        dyp = np.empty(ny)
        dyp[-1] = self.hy[-1] / 2.0
        dyp[:-1] = self.yc[1:] - self.yc[:-1]
        self._dxm, self._dxp, self._dym, self._dyp = dxm, dxp, dym, dyp
        self._lap_x, self._grad_x = _nonuniform_coeffs(dxm, dxp)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self._lap_y, self._grad_y = _nonuniform_coeffs(dym, dyp)
        if not np.all(np.isfinite([self.hy, *self._lap_y, *self._grad_y])):
            raise ValueError(
                f"stretching_ratio {stretching_ratio:g} is too large for "
                f"{ny} cells: the y spacings or their weights overflow")

        # Dirichlet traces of the manufactured solution.
        self._west = self.exact(0.0, self.yc)
        self._east = self.exact(1.0, self.yc)
        self._south = self.exact(self.xc, 0.0)
        self._north = self.exact(self.xc, self.ly)
        with np.errstate(over="ignore", invalid="ignore"):
            self._forcing = self._manufactured_forcing()
        if not np.all(np.isfinite(self._forcing)):
            raise ValueError(
                "eps, velocity, sigma and amplitude give a manufactured "
                "forcing that overflows")

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

    def _padded(self, u2d: np.ndarray, with_boundary: bool) -> np.ndarray:
        p = np.zeros((self.ny + 2, self.nx + 2))
        p[1:-1, 1:-1] = u2d
        if with_boundary:
            p[1:-1, 0] = self._west
            p[1:-1, -1] = self._east
            p[0, 1:-1] = self._south
            p[-1, 1:-1] = self._north
        return p

    def _lap_and_grad(self, u2d: np.ndarray, with_boundary: bool):
        p = self._padded(u2d, with_boundary)
        west, center, east = p[1:-1, :-2], p[1:-1, 1:-1], p[1:-1, 2:]
        south, north = p[:-2, 1:-1], p[2:, 1:-1]
        lxm, lx0, lxp = self._lap_x
        lym, ly0, lyp = self._lap_y
        gxm, gx0, gxp = self._grad_x
        gym, gy0, gyp = self._grad_y
        lap = (lxm[None, :] * west + lxp[None, :] * east
               + lym[:, None] * south + lyp[:, None] * north
               + (lx0[None, :] + ly0[:, None]) * center)
        gx = gxm[None, :] * west + gx0[None, :] * center + gxp[None, :] * east
        gy = gym[:, None] * south + gy0[:, None] * center + gyp[:, None] * north
        return lap, gx, gy

    def residual(self, w: BlockVector) -> np.ndarray:
        u = w.values.reshape(self.ny, self.nx)
        lap, gx, gy = self._lap_and_grad(u, with_boundary=True)
        r = self._vol2d * (-self.eps * lap + self.vx * gx + self.vy * gy
                           + self.sigma * u * np.abs(u) - self._forcing)
        return r.ravel()

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        u = w.values.reshape(self.ny, self.nx)
        vv = v.reshape(self.ny, self.nx)
        lap, gx, gy = self._lap_and_grad(vv, with_boundary=False)
        jv = self._vol2d * (-self.eps * lap + self.vx * gx + self.vy * gy
                            + 2.0 * self.sigma * np.abs(u) * vv)
        return jv.ravel()

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        nx, ny = self.nx, self.ny
        u = np.abs(w.values.reshape(ny, nx))
        lxm, lx0, lxp = self._lap_x
        lym, ly0, lyp = self._lap_y

        # Upwind convection increments (first-order, preconditioner only).
        up_x_diag = abs(self.vx) / (self._dxm if self.vx >= 0 else self._dxp)
        up_y_diag = abs(self.vy) / (self._dym if self.vy >= 0 else self._dyp)
        diag2d = self._vol2d * (-self.eps * (lx0[None, :] + ly0[:, None])
                                + up_x_diag[None, :] + up_y_diag[:, None]
                                + 2.0 * self.sigma * u)
        diag = diag2d.ravel().reshape(-1, 1, 1)

        # In the order of ``edges``, off_ij couples a cell to its east or
        # north neighbor, off_ji the reverse; upwind convection enters the
        # neighbor coupling on the upstream side only.
        vol = self._vol2d
        east = -self.eps * lxp[:-1] + (self.vx / self._dxp[:-1] if self.vx < 0 else 0.0)
        west = -self.eps * lxm[1:] + (-self.vx / self._dxm[1:] if self.vx >= 0 else 0.0)
        north = -self.eps * lyp[:-1] + (self.vy / self._dyp[:-1] if self.vy < 0 else 0.0)
        south = -self.eps * lym[1:] + (-self.vy / self._dym[1:] if self.vy >= 0 else 0.0)
        off_ij = np.concatenate(((vol[:, :-1] * east).ravel(),
                                 (vol[:-1, :] * north[:, None]).ravel()))
        off_ji = np.concatenate(((vol[:, 1:] * west).ravel(),
                                 (vol[1:, :] * south[:, None]).ravel()))
        return FirstOrderBlocks(diag, off_ij.reshape(-1, 1, 1),
                                off_ji.reshape(-1, 1, 1))

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        u = np.abs(w.values.reshape(self.ny, self.nx))
        diff = 2.0 * self.eps * (1.0 / (self._dxm * self._dxp)[None, :]
                                 + 1.0 / (self._dym * self._dyp)[:, None])
        conv = (abs(self.vx) / self.hx) + abs(self.vy) / self.hy[:, None]
        react = 2.0 * self.sigma * u
        return (1.0 / (diff + conv + react)).ravel()

    def initial_state(self) -> BlockVector:
        # Impulsive start: zero field violating the boundary data.
        return BlockVector(self.layout)

    def exact_on_grid(self) -> BlockVector:
        vals = self.exact(self.xc[None, :], self.yc[:, None])
        return BlockVector(self.layout, vals.ravel())


make_aniso_convdiff = AnisoConvDiffProblem
