"""Matrix-free right-preconditioned GMRES and block-structured direct kernels.

The GMRES here deliberately has no restart cycles: the continuation driver
hands it a fixed Krylov budget and treats running out of budget as a failure
for the CFL controller to act on, so restarts would only blur the cost
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import BlockLayout, ContractViolationError
from .lines import LineSet

Operator = Callable[[np.ndarray], np.ndarray]

# Ratio test threshold for a second (re-orthogonalization) pass of modified
# Gram-Schmidt (Brown/Hindmarsh style).
_REORTH_RATIO = 0.7


@dataclass
class GmresStats:
    iterations: int
    achieved_reduction: float
    converged: bool


class SingularPivotError(np.linalg.LinAlgError):
    """A pivot block in the block-Thomas factorization is (near) singular."""


def gmres_right_preconditioned(A: Operator, precon: Operator, b: np.ndarray,
                               rel_tol: float, max_vectors: int
                               ) -> Tuple[np.ndarray, GmresStats]:
    """Solve ``A x = b`` with right preconditioning, single Arnoldi build.

    ``A`` and ``precon`` map a flat array to a new flat array of the same
    length. Returns the best iterate found and stats; non-convergence within
    ``max_vectors`` is reported through ``stats.converged``, not raised, and
    so is a zero Arnoldi column (``A precon`` singular on the Krylov space),
    which ends the solve with the iterate from the columns before it.
    A right-hand side or an operator output that is not finite or whose
    norm overflows raises ``ContractViolationError``; the operator is
    applied with overflow silenced, so that check is its only verdict.
    ``stats.iterations`` counts applications of ``A``.
    The residual norm is tracked through the Givens recurrence, so the
    convergence test is relative reduction of that recurrence norm.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if max_vectors < 1:
        raise ValueError("max_vectors must be at least 1")

    n = len(b)
    with np.errstate(over="ignore", invalid="ignore"):
        b_norm = float(np.linalg.norm(b))
    if not np.isfinite(b_norm):
        raise ContractViolationError(
            "right-hand side is not finite or its norm overflows")
    if b_norm == 0.0:
        return np.zeros(n), GmresStats(0, 0.0, True)

    m = min(max_vectors, n)
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    # The rotations and the rotated right-hand side are Python floats: they
    # round exactly as float64 scalars do, without numpy's indexing cost.
    cs, sn = [], []
    g = [b_norm]

    V[0] = b / b_norm
    rows = list(V)
    tol_abs = rel_tol * b_norm
    breakdown_tol = np.finfo(float).eps * b_norm

    k = 0
    residual = b_norm
    converged = False
    for j in range(m):
        basis = rows[:j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            w = A(precon(rows[j]))
            norm_before = np.linalg.norm(w)
        if not np.isfinite(norm_before):
            raise ContractViolationError(
                "operator output is not finite or its norm overflows")

        col = [0.0] * (j + 2)
        # Modified Gram-Schmidt; a second pass only when cancellation is
        # severe.
        for _ in range(2):
            for i, v in enumerate(basis):
                h = float(np.dot(v, w))
                col[i] += h
                w -= h * v
            w_norm = np.linalg.norm(w)
            if w_norm >= _REORTH_RATIO * norm_before:
                break
        col[j + 1] = float(w_norm)

        # Apply accumulated Givens rotations to the new column.
        for i, (c, s) in enumerate(zip(cs, sn)):
            top, bottom = col[i], col[i + 1]
            col[i] = c * top + s * bottom
            col[i + 1] = -s * top + c * bottom
        denom = float(np.hypot(col[j], col[j + 1]))
        if denom == 0.0:
            # The rotated column is zero: it cannot be rotated and cannot
            # reduce the least-squares residual. Stop with the iterate from
            # the columns before it.
            break
        cs.append(col[j] / denom)
        sn.append(col[j + 1] / denom)
        col[j] = denom
        col[j + 1] = 0.0
        H[:j + 2, j] = col
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]

        k = j + 1
        residual = abs(g[j + 1])
        if residual <= tol_abs:
            converged = True
            break
        if w_norm <= breakdown_tol:
            # Arnoldi breakdown: the Krylov space is invariant, the current
            # least-squares solution is exact up to round-off.
            converged = residual <= breakdown_tol * 10
            break
        V[j + 1] = w / w_norm

    # Back-substitute H y = g over the k columns built.
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
    x = precon(V[:k].T @ y)
    # j + 1 operator applications; k < j + 1 only after a zero column.
    return x, GmresStats(j + 1, residual / b_norm, converged)


# ---------------------------------------------------------------------------
# Block-tridiagonal (Thomas) kernels
# ---------------------------------------------------------------------------

@dataclass
class BlockTridiagFactorization:
    """Pivot-free block LU of the line-structured operator.

    Cells on multi-cell lines couple through their retained off-diagonal
    blocks; singleton lines degenerate to standalone block inversions. The
    arrays follow the padded layout of ``lines.index`` (see ``LineBlocks``),
    whose padded slots hold identity pivots and zero couplings, so one sweep
    over line position serves every line.
    Immutable after construction and safe to share read-only.
    """

    layout: BlockLayout
    lines: LineSet
    binv: np.ndarray     # (k_max, n_lines, b, b) inverted pivot blocks
    gamma: np.ndarray    # (k_max - 1, n_lines, b, b) back-substitution blocks
    lower: np.ndarray    # (k_max - 1, n_lines, b, b) sub-diagonal blocks dR_q/dw_p

    def solve_values(self, r: np.ndarray) -> np.ndarray:
        """Forward/backward substitution over line position, all lines at once."""
        if r.shape != (self.layout.n_dofs,):
            raise ContractViolationError(
                f"right-hand side shape {r.shape} does not match the "
                f"factorization's {self.layout.n_dofs} unknowns")
        n, b = self.layout.n_cells, self.layout.block_size
        index = self.lines.index
        padded = np.zeros((n + 1, b))    # row n: the dummy cell
        padded[:n] = r.reshape(n, b)
        y = padded[index][..., None]     # (k_max, n_lines, b, 1), in place
        binv, gamma, lower = self.binv, self.gamma, self.lower
        y[0] = binv[0] @ y[0]
        for m in range(1, len(y)):
            y[m] = binv[m] @ (y[m] - lower[m - 1] @ y[m - 1])
        for m in range(len(y) - 2, -1, -1):
            y[m] -= gamma[m] @ y[m + 1]
        padded[index] = y[..., 0]
        return padded[:n].reshape(-1)


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


def _invert_pivots(pivots: np.ndarray, pos: int) -> np.ndarray:
    """Invert every line's pivot at position ``pos`` in one call. A failure
    names its line: the first failing position, then the lowest line."""
    try:
        inv = np.linalg.inv(pivots)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.all(np.isfinite(inv)):
        inv = np.array([_invert_pivot(block, li, pos)
                        for li, block in enumerate(pivots)])
    return inv


def factor_block_tridiag(lines: LineSet, diag_blocks: np.ndarray,
                         upper: np.ndarray,
                         lower: np.ndarray) -> BlockTridiagFactorization:
    """Block Thomas factorization of every line of ``lines`` at once.

    ``diag_blocks`` is (n_cells, b, b); ``upper`` and ``lower`` are the
    padded couplings of ``LineBlocks``, (k_max - 1, n_lines, b, b).
    """
    diag_blocks = np.asarray(diag_blocks, dtype=float)
    n_cells, b, b2 = diag_blocks.shape
    if b != b2 or n_cells != lines.n_cells:
        raise ContractViolationError("diagonal block array shape mismatch")
    layout = BlockLayout(n_cells, b)
    pair_shape = lines.index[1:].shape + (b, b)
    if upper.shape != pair_shape or lower.shape != pair_shape:
        raise ContractViolationError(
            f"coupling arrays {upper.shape} and {lower.shape} do not match "
            f"the line pairs {pair_shape}")

    # The dummy cell's identity pivot keeps padded slots inert.
    diag = np.concatenate([diag_blocks, np.eye(b)[None]])[lines.index]
    binv = np.empty(diag.shape)
    gamma = np.empty(pair_shape)
    binv[0] = _invert_pivots(diag[0], 0)
    for m in range(1, len(diag)):
        gamma[m - 1] = binv[m - 1] @ upper[m - 1]
        binv[m] = _invert_pivots(diag[m] - lower[m - 1] @ gamma[m - 1], m)
    return BlockTridiagFactorization(layout, lines, binv, gamma, lower)
