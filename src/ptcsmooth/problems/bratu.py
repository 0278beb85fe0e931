"""1D Bratu problem: -u'' = lambda * exp(u) on (0, 1), u(0) = u(1) = 0.

Scalar testbed with an exact tridiagonal Jacobian; mildly nonlinear below the
fold point (lambda ~ 3.51), which makes it the clean fixture for checking
quadratic convergence of the Newton limit.
"""

from __future__ import annotations

import numpy as np

from ..core import (BlockLayout, BlockVector, FirstOrderBlocks,
                    NonlinearSystem, require_count, require_finite)


class BratuProblem(NonlinearSystem):

    def __init__(self, n_cells: int, lam: float = 1.0):
        require_count("n_cells", n_cells, 1)
        if n_cells < 3:
            raise ValueError("need at least 3 cells")
        require_finite(lam=lam)
        self.n_cells = n_cells
        self.lam = float(lam)
        self.h = 1.0 / (n_cells + 1)
        self.layout = BlockLayout(n_cells, 1)
        self.edges = np.arange(n_cells - 1)[:, None] + [0, 1]
        self.cell_measures = np.full(n_cells, self.h)
        # Cell centers; boundary values sit at x = 0 and x = 1.
        self.x = (np.arange(n_cells) + 1) * self.h

    def _second_difference(self, u: np.ndarray) -> np.ndarray:
        padded = np.concatenate(([0.0], u, [0.0]))  # homogeneous Dirichlet
        return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / self.h ** 2

    def residual(self, w: BlockVector) -> np.ndarray:
        u = w.values
        return -self._second_difference(u) - self.lam * np.exp(u)

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        return -self._second_difference(v) - self.lam * np.exp(w.values) * v

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        n = self.n_cells
        diag = (2.0 / self.h ** 2 - self.lam * np.exp(w.values)).reshape(n, 1, 1)
        off = np.full((n - 1, 1, 1), -1.0 / self.h ** 2)
        return FirstOrderBlocks(diag, off, off.copy())

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        # Diffusive stability estimate.
        return np.full(self.n_cells, self.h ** 2 / 4.0)

    def initial_state(self) -> BlockVector:
        return BlockVector(self.layout)

    def functional(self, w: BlockVector) -> float:
        return float(np.max(w.values))


make_bratu = BratuProblem
