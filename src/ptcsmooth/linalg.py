"""Matrix-free right-preconditioned GMRES and block-structured direct kernels.

The GMRES here deliberately has no restart cycles: the continuation driver
hands it a fixed Krylov budget and treats running out of budget as a failure
for the CFL controller to act on, so restarts would only blur the cost
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Tuple

import numpy as np

from .core import BlockLayout, BlockVector, ContractViolationError
from .lines import LineSet

# Ratio test threshold for one re-orthogonalization pass in modified
# Gram-Schmidt (Brown/Hindmarsh style).
_REORTH_RATIO = 0.7


@dataclass
class LinearOperator:
    """Matrix-free linear operator on block vectors."""

    layout: BlockLayout
    matvec: Callable[[np.ndarray], np.ndarray]

    def apply(self, v: BlockVector) -> BlockVector:
        return BlockVector(self.layout, self.matvec(v.values))


def identity_operator(layout: BlockLayout) -> LinearOperator:
    return LinearOperator(layout, lambda x: x.copy())


@dataclass
class GmresStats:
    iterations: int
    achieved_reduction: float
    converged: bool
    # Givens-recurrence residual norms, starting from ||b||; one entry per
    # Arnoldi vector built.
    recurrence_norms: list = None


class SingularPivotError(np.linalg.LinAlgError):
    """A pivot block in the block-Thomas factorization is (near) singular."""


def gmres_right_preconditioned(A: LinearOperator, precon: LinearOperator,
                               b: BlockVector, rel_tol: float,
                               max_vectors: int) -> Tuple[BlockVector, GmresStats]:
    """Solve ``A x = b`` with right preconditioning, single Arnoldi build.

    Returns the best iterate found and stats; non-convergence within
    ``max_vectors`` is reported through ``stats.converged``, not raised.
    The residual norm is tracked through the Givens recurrence, so the
    convergence test is relative reduction of that recurrence norm.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if max_vectors < 1:
        raise ValueError("max_vectors must be at least 1")
    if not b.is_finite():
        raise ContractViolationError("right-hand side contains non-finite entries")

    n = b.layout.n_dofs
    b_norm = float(np.linalg.norm(b.values))
    if b_norm == 0.0:
        return BlockVector.zeros(b.layout), GmresStats(0, 0.0, True, [0.0])

    m = min(max_vectors, n)
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)

    V[0] = b.values / b_norm
    g[0] = b_norm
    tol_abs = rel_tol * b_norm
    breakdown_tol = np.finfo(float).eps * b_norm

    k = 0
    residual = b_norm
    norms = [b_norm]
    converged = False
    for j in range(m):
        w = A.matvec(precon.matvec(V[j]))
        if not np.all(np.isfinite(w)):
            raise ContractViolationError("operator produced non-finite output")

        norm_before = np.linalg.norm(w)
        for i in range(j + 1):
            h = np.dot(V[i], w)
            H[i, j] += h
            w -= h * V[i]
        # One re-orthogonalization pass when cancellation is severe.
        if np.linalg.norm(w) < _REORTH_RATIO * norm_before:
            for i in range(j + 1):
                h = np.dot(V[i], w)
                H[i, j] += h
                w -= h * V[i]
        H[j + 1, j] = np.linalg.norm(w)

        # Apply accumulated Givens rotations to the new column.
        for i in range(j):
            hij = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = hij
        denom = np.hypot(H[j, j], H[j + 1, j])
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        k = j + 1
        residual = abs(g[j + 1])
        norms.append(residual)
        if residual <= tol_abs:
            converged = True
            break
        if H[j, j] == 0.0 or np.linalg.norm(w) <= breakdown_tol:
            # Arnoldi breakdown: the Krylov space is invariant, the current
            # least-squares solution is exact up to round-off.
            converged = residual <= tol_abs or residual <= breakdown_tol * 10
            break
        V[j + 1] = w / np.linalg.norm(w)

    # Back-substitute H y = g over the k columns built.
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
    x = precon.matvec(V[:k].T @ y)

    stats = GmresStats(k, residual / b_norm, converged, norms)
    return BlockVector(b.layout, x), stats


# ---------------------------------------------------------------------------
# Block-tridiagonal (Thomas) kernels
# ---------------------------------------------------------------------------

@dataclass
class _LineFactor:
    cells: np.ndarray     # cell indices along the line
    binv: np.ndarray      # (k, b, b) inverted pivot blocks
    gamma: np.ndarray     # (k-1, b, b) back-substitution blocks
    sub: np.ndarray       # (k-1, b, b) original sub-diagonal blocks


@dataclass
class BlockTridiagFactorization:
    """Pivot-free block LU of the line-structured operator.

    Cells on multi-cell lines couple through their retained off-diagonal
    blocks; singleton lines degenerate to standalone block inversions.
    Immutable after construction and safe to share read-only.
    """

    layout: BlockLayout
    line_factors: list

    def solve(self, r: BlockVector) -> BlockVector:
        """Forward/backward substitution per line; independent lines independent."""
        if r.layout != self.layout:
            raise ContractViolationError(
                "right-hand side layout does not match factorization")
        return BlockVector(self.layout, self.solve_values(r.values))

    def solve_values(self, r: np.ndarray) -> np.ndarray:
        b = self.layout.block_size
        x = np.empty_like(r)
        rc = r.reshape(self.layout.n_cells, b)
        xc = x.reshape(self.layout.n_cells, b)
        for lf in self.line_factors:
            k = len(lf.cells)
            y = np.empty((k, b))
            y[0] = lf.binv[0] @ rc[lf.cells[0]]
            for m in range(1, k):
                y[m] = lf.binv[m] @ (rc[lf.cells[m]] - lf.sub[m - 1] @ y[m - 1])
            xc[lf.cells[k - 1]] = y[k - 1]
            for m in range(k - 2, -1, -1):
                xc[lf.cells[m]] = y[m] - lf.gamma[m] @ xc[lf.cells[m + 1]]
        return x

    def as_operator(self) -> LinearOperator:
        return LinearOperator(self.layout, self.solve_values)


def _invert_pivot(block: np.ndarray, line_idx: int, pos: int) -> np.ndarray:
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError as exc:
        raise SingularPivotError(
            f"singular pivot block on line {line_idx} at position {pos}"
        ) from exc
    if not np.all(np.isfinite(inv)):
        raise SingularPivotError(
            f"non-finite pivot inverse on line {line_idx} at position {pos}"
        )
    return inv


def factor_block_tridiag(lines: LineSet, diag_blocks: np.ndarray,
                         off_blocks: Mapping[tuple, np.ndarray]) -> BlockTridiagFactorization:
    """Block Thomas factorization along each line of ``lines``.

    ``diag_blocks`` is (n_cells, b, b); ``off_blocks`` maps directed cell
    pairs (row, col) to b x b coupling blocks for consecutive in-line pairs.
    Missing pairs are treated as zero coupling.
    """
    diag_blocks = np.asarray(diag_blocks, dtype=float)
    n_cells, b, b2 = diag_blocks.shape
    if b != b2 or n_cells != lines.n_cells:
        raise ContractViolationError("diagonal block array shape mismatch")
    layout = BlockLayout(n_cells, b)

    zero = np.zeros((b, b))
    factors = []
    for li, cells in enumerate(lines.lines):
        cells = np.asarray(cells, dtype=int)
        k = len(cells)
        binv = np.empty((k, b, b))
        gamma = np.empty((max(k - 1, 0), b, b))
        sub = np.empty((max(k - 1, 0), b, b))
        pivot = diag_blocks[cells[0]].copy()
        binv[0] = _invert_pivot(pivot, li, 0)
        for m in range(1, k):
            up = off_blocks.get((int(cells[m - 1]), int(cells[m])), zero)
            lo = off_blocks.get((int(cells[m]), int(cells[m - 1])), zero)
            gamma[m - 1] = binv[m - 1] @ up
            sub[m - 1] = lo
            pivot = diag_blocks[cells[m]] - lo @ gamma[m - 1]
            binv[m] = _invert_pivot(pivot, li, m)
        factors.append(_LineFactor(cells, binv, gamma, sub))
    return BlockTridiagFactorization(layout, factors)

