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

from .core import ContractViolationError
from .lines import LineSet

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GmresStats:
    iterations: int
    achieved_reduction: float
    converged: bool


class SingularPivotError(np.linalg.LinAlgError):
    """A pivot block of the line factorization is singular, or its inverse
    is not finite. The message names the line and the cell position on it.
    Cyclic reduction pivots on reduced blocks, so the position is the one the
    reduced row holds on the original line, and the first failing level wins
    over a lower position on a later one."""


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
    Each new Krylov vector is orthogonalized by classical Gram-Schmidt
    against the whole basis and then again (CGS2): four matrix-vector
    products, and a basis as orthogonal as modified Gram-Schmidt with
    re-orthogonalization gives (Giraud, Langou & Rozloznik, Numer. Math.
    101, 2005).
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
        with np.errstate(over="ignore", invalid="ignore"):
            w = A(precon(rows[j]))
            w_norm = np.linalg.norm(w)
        if not np.isfinite(w_norm):
            raise ContractViolationError(
                "operator output is not finite or its norm overflows")

        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        w_norm = float(np.linalg.norm(w))
        col = (h + h2).tolist() + [w_norm]

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
# Block-tridiagonal (cyclic reduction) kernels
# ---------------------------------------------------------------------------

@dataclass
class BlockTridiagFactorization:
    """Pivot-free block cyclic reduction of the line-structured operator.

    Cells on multi-cell lines couple through their retained off-diagonal
    blocks; singleton lines degenerate to standalone block inversions. The
    rows are the 2^L - 1 positions of ``lines.index``; a slot past a line's
    end holds an identity pivot and zero couplings. Each level eliminates the
    even rows of what remains and folds them into the odd rows, leaving
    2^(L-1) - 1; after L - 1 levels one row per line is left, the root at
    position 2^(L-1) - 1. Every line reduces at once, so a factor or solve
    makes a few batched calls per level rather than one pass per position.
    With 1x1 blocks every block product is elementwise, which has the value
    of ``@`` except for the sign of an exactly zero product; larger blocks
    use ``@``.
    Immutable after construction and safe to share read-only.
    """

    lines: LineSet
    # Per level, over its P + 1 even rows (eliminated) and the P odd rows
    # between them, each array (rows, n_lines, b, b): dinv, the P + 1
    # inverted even pivots; left and right, each odd row's coupling to the
    # even row before and after it; dinv_lower, dinv times the coupling of
    # even rows 1..P to the odd row before; dinv_upper, dinv times the
    # coupling of even rows 0..P-1 to the odd row after.
    levels: Tuple[Tuple[np.ndarray, ...], ...]
    root: np.ndarray     # (n_lines, b, b) inverted root pivots

    def solve_values(self, r: np.ndarray) -> np.ndarray:
        """Reduction, root solve and back-substitution, all lines at once."""
        n, b = self.lines.n_cells, self.root.shape[-1]
        if r.shape != (n * b,):
            raise ContractViolationError(
                f"right-hand side shape {r.shape} does not match the "
                f"factorization's {n * b} unknowns")
        padded = np.zeros((n + 1, b))    # row n: the dummy cell
        padded[:n] = r.reshape(n, b)
        index = self.lines.index
        y = padded[index][..., None]   # (2^L - 1, n_lines, b, 1)
        mul = np.multiply if b == 1 else np.matmul
        # Level l's rows sit every s = 2^l positions from s - 1: the even
        # rows it eliminates, then the odd rows it keeps.
        s = 1
        for dinv, left, right, _, _ in self.levels:
            even, odd = y[s - 1::2 * s], y[2 * s - 1::2 * s]
            even[...] = mul(dinv, even)
            odd -= mul(left, even[:-1]) + mul(right, even[1:])
            s *= 2
        y[s - 1] = mul(self.root, y[s - 1])
        for _, _, _, dinv_lower, dinv_upper in reversed(self.levels):
            s //= 2
            even, odd = y[s - 1::2 * s], y[2 * s - 1::2 * s]
            even[1:] -= mul(dinv_lower, odd)
            even[:-1] -= mul(dinv_upper, odd)
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


def _invert_pivots(pivots: np.ndarray, positions: range) -> np.ndarray:
    """Invert one level's pivots, (len(positions), n_lines, b, b), in one
    call; ``positions`` holds their original positions on the lines. A
    failure names its line: the lowest position, then the lowest line.
    A 1x1 block's inverse is its reciprocal, bit for bit what
    ``np.linalg.inv`` returns, without a LAPACK call per block."""
    if pivots.shape[-1] == 1:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / pivots
    else:
        try:
            inv = np.linalg.inv(pivots)
        except np.linalg.LinAlgError:
            inv = None
    if inv is None or not np.all(np.isfinite(inv)):
        inv = np.array([[_invert_pivot(block, li, pos)
                         for li, block in enumerate(row)]
                        for pos, row in zip(positions, pivots)])
    return inv


def factor_block_tridiag(lines: LineSet, diag_blocks: np.ndarray,
                         upper: np.ndarray,
                         lower: np.ndarray) -> BlockTridiagFactorization:
    """Block cyclic reduction of every line of ``lines`` at once.

    ``diag_blocks`` is (n_cells, b, b); ``upper`` and ``lower`` are the
    couplings of ``LineBlocks``, shaped ``lines.index[1:].shape + (b, b)``,
    with zero blocks past each line's end (else ``ContractViolationError``).
    The layout of ``lines.index`` is the one reduced. A singular or
    non-finite pivot raises ``SingularPivotError`` naming a line and the
    original position of the reduced row: the first failing level, then the
    lowest position, then the lowest line.
    """
    diag_blocks = np.asarray(diag_blocks, dtype=float)
    n_cells, b, b2 = diag_blocks.shape
    if b != b2 or n_cells != lines.n_cells:
        raise ContractViolationError("diagonal block array shape mismatch")
    pair_shape = lines.index[1:].shape + (b, b)
    if upper.shape != pair_shape or lower.shape != pair_shape:
        raise ContractViolationError(
            f"coupling arrays {upper.shape} and {lower.shape} do not match "
            f"the line pairs {pair_shape}")
    past_end = (lines.index[1:] == n_cells)[..., None, None]
    if np.any(past_end & ((upper != 0.0) | (lower != 0.0))):
        raise ContractViolationError("nonzero coupling past a line's end")

    size = len(lines.index)
    # The dummy cell's identity pivot keeps padded slots inert.
    diag = np.concatenate([diag_blocks, np.eye(b)[None]])[lines.index]
    mul = np.multiply if b == 1 else np.matmul
    levels = []
    stride = 1    # this level's rows sit at positions stride - 1 + j * stride
    while len(diag) > 1:
        dinv = _invert_pivots(diag[0::2], range(stride - 1, size, 2 * stride))
        left, right = lower[0::2], upper[1::2]
        dinv_lower = mul(dinv[1:], lower[1::2])
        dinv_upper = mul(dinv[:-1], upper[0::2])
        diag = diag[1::2] - mul(left, dinv_upper) - mul(right, dinv_lower)
        upper = -mul(right[:-1], dinv_upper[1:])
        lower = -mul(left[1:], dinv_lower[:-1])
        levels.append((dinv, left, right, dinv_lower, dinv_upper))
        stride *= 2
    root = _invert_pivots(diag, range(stride - 1, size, 2 * stride))[0]
    return BlockTridiagFactorization(lines, tuple(levels), root)
