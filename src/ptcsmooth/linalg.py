"""Matrix-free right-preconditioned GMRES and block-structured direct kernels.

The GMRES here deliberately has no restart cycles: the continuation driver
hands it a fixed Krylov budget and treats running out of budget as a failure
for the CFL controller to act on, so restarts would only blur the cost
accounting.

The line kernels factor and solve every line of a ``LineSet`` at once by
block cyclic reduction over its packed layout. Packing changes no byte of a
line's pivots, and nothing another line holds changes a byte of its
solution; the solve applies its last levels as one dense operator per
column, so a line's solution rounds with the height of its column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ContractViolationError, FirstOrderBlocks, _norm
from .lines import LineSet

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GmresStats:
    iterations: int
    achieved_reduction: float
    converged: bool


class SingularPivotError(np.linalg.LinAlgError):
    """A pivot block of the line factorization is singular or not finite,
    or its inverse is not finite. The message names the line and the cell
    position on it. Cyclic reduction pivots on reduced blocks, so the
    position is the one the reduced row holds on the original line, and the
    first failing level wins over a lower position on a later one."""


def gmres_right_preconditioned(A: Operator, precon: Operator, b: np.ndarray,
                               rel_tol: float, max_vectors: int
                               ) -> Tuple[np.ndarray, GmresStats]:
    """Solve ``A x = b`` with right preconditioning, single Arnoldi build.

    ``A`` and ``precon`` map a flat array to a new flat array of the same
    length. Returns the best iterate found and stats. Two exits end the
    Arnoldi loop before ``max_vectors``: convergence, a residual at most
    ``rel_tol * |b|`` (an exact breakdown makes it 0), and a zero rotated
    column (``A precon`` singular on the Krylov space), unconverged, with
    the iterate from the columns before it. No other test scales with
    ``|b|``. Running out of vectors is reported through ``stats.converged``,
    not raised.
    A right-hand side or an operator output that is not finite or whose
    norm overflows raises ``ContractViolationError``; the Arnoldi loop runs
    with overflow silenced, so that check is the operator's only verdict.
    ``stats.iterations`` counts applications of ``A``.
    Each new Krylov vector is orthogonalized by classical Gram-Schmidt
    against the whole basis and then again (CGS2): four matrix-vector
    products, and a basis as orthogonal as modified Gram-Schmidt with
    re-orthogonalization gives (Giraud, Langou & Rozloznik, Numer. Math.
    101, 2005).
    The residual norm is tracked through the Givens recurrence, so the
    convergence test is relative reduction of that recurrence norm.
    What a call costs beyond its vectors does not grow with
    ``max_vectors``: the basis is allocated unset, the rotated Hessenberg
    columns are kept as Python floats, and a k x k array over the k columns
    built is filled only for back-substitution. Norms are ``core._norm``'s,
    ``np.linalg.norm``'s value for a flat array, bit for bit.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if max_vectors < 1:
        raise ValueError("max_vectors must be at least 1")

    n = len(b)
    with np.errstate(over="ignore", invalid="ignore"):
        b_norm = _norm(b)
    if not math.isfinite(b_norm):
        raise ContractViolationError(
            "right-hand side is not finite or its norm overflows")
    if b_norm == 0.0:
        return np.zeros(n), GmresStats(0, 0.0, True)

    # Every row of the basis is written before it is read, so it starts
    # unset: a call that stops after a few vectors touches only their rows.
    m = min(max_vectors, n)
    V = np.empty((m + 1, n))
    # The rotated Hessenberg columns, the rotations and the rotated
    # right-hand side are Python floats: they round exactly as float64
    # scalars do, without numpy's indexing cost.
    columns = []
    cs, sn = [], []
    g = [b_norm]

    V[0] = b / b_norm
    tol_abs = rel_tol * b_norm

    k = 0
    residual = b_norm
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            w = A(precon(V[j]))
            if not math.isfinite(_norm(w)):
                raise ContractViolationError(
                    "operator output is not finite or its norm overflows")

            basis = V[:j + 1]
            h = basis @ w
            w -= h @ basis
            h2 = basis @ w
            w -= h2 @ basis
            w_norm = _norm(w)
            col = (h + h2).tolist() + [w_norm]

            # Apply accumulated Givens rotations to the new column.
            for i, (c, s) in enumerate(zip(cs, sn)):
                top, bottom = col[i], col[i + 1]
                col[i] = c * top + s * bottom
                col[i + 1] = -s * top + c * bottom
            denom = float(np.hypot(col[j], col[j + 1]))
            if denom == 0.0:
                # The rotated column is zero: it cannot be rotated and
                # cannot reduce the least-squares residual. Stop with the
                # iterate from the columns before it.
                break
            cs.append(col[j] / denom)
            sn.append(col[j + 1] / denom)
            col[j] = denom
            columns.append(col[:j + 1])
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]

            k = j + 1
            residual = abs(g[j + 1])
            if residual <= tol_abs:
                converged = True
                break
            np.divide(w, w_norm, out=V[j + 1])

    # Back-substitute H y = g over the k columns built.
    H = np.zeros((k, k))
    for i, col in enumerate(columns):
        H[:i + 1, i] = col
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
    x = precon(V[:k].T @ y)
    # j + 1 operator applications; k < j + 1 only after a zero column.
    return x, GmresStats(j + 1, residual / b_norm, converged)


# ---------------------------------------------------------------------------
# Block-tridiagonal (cyclic reduction) kernels
# ---------------------------------------------------------------------------

# The last levels of the reduction, which with the root start from at most
# 2^(TOP_LEVELS + 1) - 1 = 31 rows per column (16 where the layout's height
# is a power of two, as the nozzle's is), are applied as one dense
# operator: on that few rows a level's batched calls cost about what their
# dispatch costs. The fourth level costs each factor more than it saves a
# solve; it pays once a factor serves about 2-8 solves (nozzle to convdiff),
# and the smoother's serves 15, GMRES's 5-23. A layout of one column and at
# most 2^(TOP_LEVELS + 1) rows (one line of up to 32 cells) puts every level
# in the top, so its solve is a gather, one matmul and a scatter: on
# nozzle32 (a 2-vCPU Xeon host, one BLAS thread) a solve went from about
# 18 to 6 us, and a factor cost about 40 us more with one shift and 65 us
# more stacked, repaid within 3 and 5 solves.
TOP_LEVELS = 4


def _top_levels(lines: LineSet, n_levels: int) -> int:
    """How many of the ``n_levels`` levels of ``lines``' layout the dense
    top holds: every one for a single column of at most 2^(TOP_LEVELS + 1)
    rows, else the last ``TOP_LEVELS``."""
    rows, n_columns = lines.index.shape
    if n_columns == 1 and rows <= 2 ** (TOP_LEVELS + 1):
        return n_levels
    return min(n_levels, TOP_LEVELS)


def _eliminate(level: Tuple[np.ndarray, ...], even: np.ndarray,
               odd: np.ndarray, mul: Callable) -> Tuple[np.ndarray,
                                                          np.ndarray]:
    """One level of the reduction: its even rows solved by their pivots,
    and its odd rows with them folded in, each a new array. At an even row
    count the last odd row has no even row after it."""
    dinv, left, right, _, _ = level
    even = mul(dinv, even)
    if len(even) > len(odd):
        return even, odd - (mul(left, even[:-1]) + mul(right, even[1:]))
    folded = mul(left, even)
    folded[:-1] += mul(right, even[1:])
    return even, odd - folded


def _substitute(level: Tuple[np.ndarray, ...], even: np.ndarray,
                odd: np.ndarray, mul: Callable) -> None:
    """One level of back-substitution: ``even``, from ``_eliminate``, less
    its couplings to the solved ``odd`` rows, in place."""
    _, _, _, dinv_lower, dinv_upper = level
    if len(even) > len(odd):
        even[1:] -= mul(dinv_lower, odd)
        even[:-1] -= mul(dinv_upper, odd)
    else:
        even[1:] -= mul(dinv_lower, odd[:-1])
        even -= mul(dinv_upper, odd)


def _cyclic_solve(levels: Sequence[Tuple[np.ndarray, ...]],
                  middle: Operator, y: np.ndarray) -> np.ndarray:
    """Reduce ``y``, (rows, n_columns, b, k): k right-hand sides per column,
    over ``levels``; apply ``middle`` to the rows that remain; then
    back-substitute. Each level reads its even and odd rows as strided
    views of the rows before it; back-substitution interleaves them
    again."""
    mul = np.multiply if y.shape[2] == 1 else np.matmul
    evens = []
    for level in levels:
        even, y = _eliminate(level, y[0::2], y[1::2], mul)
        evens.append(even)
    y = middle(y)
    for level, even in zip(reversed(levels), reversed(evens)):
        _substitute(level, even, y, mul)
        rows = np.empty((len(even) + len(y),) + y.shape[1:])
        rows[0::2], rows[1::2] = even, y
        y = rows
    return y


@dataclass
class BlockTridiagFactorization:
    """Pivot-free block cyclic reduction of the line-structured operator.

    The rows are those of the packed layout ``lines.index``, N of them,
    2^(L-1) <= N <= 2^L - 1, each column holding one or more lines; a slot
    no line holds has an identity pivot and zero couplings, and so has the
    pair of two lines that meet in a column. Each level eliminates the even
    rows of what remains and folds them into the odd rows, leaving
    floor(N / 2); at an even count the last odd row has no even row after
    it and folds in only the one before, while an odd count runs the
    expressions a padded layout would. After L - 1 levels one row per column
    is left, the root at row 2^(L-1) - 1. Every line starts at a
    multiple of 2^B, B the bit length of its cell count, so each of its rows
    meets the levels and in-line partners it would meet in a column of its
    own, and every term from another line is a product with an exact zero:
    sharing a column changes no byte of a line's pivots, and no entry of
    another line changes a byte of its solution. The last ``TOP_LEVELS``
    levels and the root are also held as ``top``, one dense operator per
    column on the rows those levels start from, and the solve applies it
    in their place; its products sum over the whole column's rows, so a
    line's solution rounds as the column's height has it, not as a column
    of its own would. A layout of one column and at most
    2^(TOP_LEVELS + 1) rows holds every level in ``top``, which is then the
    inverse of the whole operator: on nozzle32 a factor costs about a fifth
    more and a solve about a third as much, so the factor's extra cost is
    repaid within 3-5 solves. Every column reduces at once, so a factor or
    solve makes a few batched calls per level rather than one pass per
    position.
    With 1x1 blocks every block product of a level is elementwise, which
    has the value of ``@`` except for the sign of an exactly zero product;
    larger blocks, and ``top``, use ``@``.
    Immutable after construction and safe to share read-only.
    """

    lines: LineSet
    # Per level, over its P + 1 even rows (eliminated) and the P odd rows
    # between them, each a contiguous array (rows, n_columns, b, b): dinv,
    # the P + 1 inverted even pivots; left and right, each odd row's
    # coupling to the even row before and after it; dinv_lower, dinv times
    # the coupling of even rows 1..P to the odd row before; dinv_upper,
    # dinv times the coupling of even rows 0..P-1 to the odd row after. At
    # an even count, P even rows and P odd rows, the last odd row has no
    # even row after it: right and dinv_lower hold P - 1 rows, dinv_upper
    # P.
    levels: Tuple[Tuple[np.ndarray, ...], ...]
    root: np.ndarray     # (n_columns, b, b) inverted root pivots
    # (n_columns, R b, R b): the inverse of each column's reduced operator
    # on the R = floor(N / 2^(L - 1 - l)) rows left before its last l
    # levels (``_top_levels``: every level of one column of at most 32 rows,
    # else min(L - 1, TOP_LEVELS)), unknowns ordered row-major (row,
    # component).
    top: np.ndarray
    # The levels below the top, the only ones the solve reduces.
    below: Tuple[Tuple[np.ndarray, ...], ...] = field(init=False,
                                                      repr=False)

    def __post_init__(self):
        self.below = self.levels[:len(self.levels) - _top_levels(
            self.lines, len(self.levels))]

    def solve_values(self, r: np.ndarray) -> np.ndarray:
        """Reduction below the top, one batched ``top @ y``, and
        back-substitution, all columns at once.

        ``r`` enters the packed layout through one ``take`` of the line
        set's gather plan, with a zero block appended for the slots no line
        holds, and the solution leaves it through one ``take`` of the
        scatter plan (``LineSet.solve_plans``). Below the top, the gather
        delivers the layout's even rows, then its odd rows, so the largest
        level reads and writes contiguous rows; the scatter reads its
        solution in that order, and the levels above read strided views.
        A non-finite entry of ``r`` may spread to every cell of its column
        (through 0 * inf on a coupling between two lines); callers pass a
        finite ``r``."""
        n, b = self.lines.n_cells, self.root.shape[-1]
        if r.shape != (n * b,):
            raise ContractViolationError(
                f"right-hand side shape {r.shape} does not match the "
                f"factorization's {n * b} unknowns")
        below = self.below
        gather, scatter = self.lines.solve_plans(b, split=bool(below))
        y = np.concatenate((r, np.zeros(b))).take(gather)
        if not below:
            return self._apply_top(y).take(scatter)
        mul = np.multiply if b == 1 else np.matmul
        first, half = below[0], len(below[0][0])
        even, odd = _eliminate(first, y[:half], y[half:], mul)
        odd = _cyclic_solve(below[1:], self._apply_top, odd)
        _substitute(first, even, odd, mul)
        return np.concatenate((even, odd)).take(scatter)

    def _apply_top(self, y: np.ndarray) -> np.ndarray:
        """``top`` applied to the (R, n_columns, b, 1) rows left."""
        rows, n_columns, b, _ = y.shape
        x = self.top @ y.swapaxes(0, 1).reshape(n_columns, rows * b, 1)
        return x.reshape(n_columns, rows, b, 1).swapaxes(0, 1)


def _inverse(pivots: np.ndarray, halves: int = 1) -> np.ndarray:
    """Each pivot block's inverse, unchecked. A 1x1 block's inverse is its
    reciprocal, bit for bit what ``np.linalg.inv`` returns, without a LAPACK
    call per block. If LAPACK finds a larger block singular, each of
    ``halves`` equal groups of columns is inverted apart, and one holding a
    singular block reads NaN throughout: columns never mix, so every other
    group's inverse is what it would be alone."""
    if pivots.shape[-1] == 1:
        return 1.0 / pivots
    try:
        return np.linalg.inv(pivots)
    except np.linalg.LinAlgError:
        if halves == 1:
            return np.full_like(pivots, np.nan)
        return np.concatenate([_inverse(part) for part in
                               np.split(pivots, halves, axis=1)], axis=1)


def _pivot_failure(block: np.ndarray) -> Optional[str]:
    """Why one pivot block cannot be inverted, or None if it can."""
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return "singular pivot block"
    if not np.all(np.isfinite(inv)):
        return "non-finite pivot inverse"
    return None if np.all(np.isfinite(block)) else "non-finite pivot block"


@np.errstate(all="ignore")
def _check_pivots(pivots: Sequence[np.ndarray], lines: LineSet,
                  cols: slice) -> None:
    """Raise ``SingularPivotError`` if a pivot of the reduction, or its
    inverse, fails on the columns ``cols`` of its levels' ``pivots``, each
    (rows, n_columns, b, b) over the layout ``lines.index`` laid side by
    side. Levels are checked in order, and the error names the line and the
    position on it of a failing pivot of the first failing level: the
    lowest position, then the lowest line."""
    for level, level_pivots in enumerate(pivots):
        level_pivots = level_pivots[:, cols]
        if (np.isfinite(_inverse(level_pivots)).all()
                and np.isfinite(level_pivots).all()):
            continue
        # Level l pivots on the rows from 2^l - 1 every 2^(l + 1); the root
        # is the last level.
        cells = lines.index[2 ** level - 1::2 ** (level + 1)]
        where = {cell: (pos, li) for li, line in enumerate(lines.lines)
                 for pos, cell in enumerate(line)}
        failures = [(where[cell], reason)
                    for row_cells, row_pivots in zip(cells.tolist(),
                                                     level_pivots)
                    for cell, block in zip(row_cells, row_pivots)
                    if (reason := _pivot_failure(block)) is not None]
        (pos, li), reason = min(failures)
        raise SingularPivotError(f"{reason} on line {li} at position {pos}")


def factor_block_tridiag(
        lines: LineSet, blocks: FirstOrderBlocks,
        shifts: Sequence[Optional[np.ndarray]]
) -> Tuple[Union[BlockTridiagFactorization, SingularPivotError], ...]:
    """Block cyclic reduction of the first-order ``blocks``, over the
    stencil ``lines.edges``, along every line of ``lines`` at once.

    One reduction factors one diagonal per entry of ``shifts`` over the same
    couplings: for each entry, the blocks with each cell's diagonal block
    shifted by its entry of that per-cell array times the identity (None: no
    shift). Each shifted diagonal is taken into the layout, and the copies are
    reduced side by side, as len(shifts) * n_columns columns of one reduction
    with one ``top``. Columns never mix, so each factorization returned, one
    per shift in order, is bitwise the one its shifted blocks would give alone;
    its levels below the top are copied out contiguous (the solve reads only
    those), its top levels, ``root`` and ``top`` are column slices. The first
    shift's failure raises, as a factor of its own would; a later shift whose
    pivots fail gives, in its place, the ``SingularPivotError`` its factor
    alone would raise.

    Each in-line pair's couplings are gathered with one ``take`` through
    ``lines.coupling_plan`` into the packed layout of ``lines.index``, the one
    reduced. Blocks of another shape (lines without a pair fit any stencil), a
    shift that is not one value per cell, or a non-finite coupling named by its
    pair, raise ``ContractViolationError`` before any reduction. A singular or
    non-finite pivot raises ``SingularPivotError`` naming a line and the
    position on it of the reduced row: the first failing level, then the lowest
    position, then the lowest line. That is the pivot a column of the line's
    own would fail on, unless a block product overflowed first: 0 * inf then
    carries NaN across to the other lines of its column.

    The levels and the root run with every floating-point warning
    silenced, their pivots inverted unchecked (a shift whose block LAPACK
    finds singular reads NaN from that level on), and one finiteness check
    over all pivots and inverses follows. Only if it fails are each
    shift's levels checked one by one, in order, on its own columns; the
    levels before its first failing one are what a factor stopping there
    would have computed, so the error is the same, and no warning escapes.

    A slot no line holds never fails. A cross coupling (between two lines,
    or touching such a slot) starts as zero and each level forms it as a
    product with one, so it is zero or NaN. Until a pivot fails, a NaN one
    has at an end a line row with a non-finite pivot (by induction over the
    levels): its NaN comes from a non-finite coupling on its path, or an
    even pivot's inverse times an in-line coupling that overflowed, and the
    odd row at that end takes the same factor into its pivot, which is
    refused when inverted. A slot's pivot takes in a NaN only from an even
    row beside it, a line row so refused at that level.
    """
    diag_blocks = np.asarray(blocks.diag, dtype=float)
    n_cells, b, b2 = diag_blocks.shape
    if b != b2 or n_cells != lines.n_cells:
        raise ContractViolationError("diagonal block array shape mismatch")
    pair_mask = lines.pair_mask
    off_shape = (len(lines.edges if pair_mask.any() else blocks.off_ij), b, b)
    if not blocks.off_ij.shape == blocks.off_ji.shape == off_shape:
        raise ContractViolationError(
            f"coupling arrays are not {off_shape}: one block per stencil edge")
    zero = np.zeros((1, b, b))
    couplings = np.concatenate((blocks.off_ij, blocks.off_ji, zero)).take(
        lines.coupling_plan, axis=0)
    if not np.isfinite(couplings).all():
        gathered = couplings[:, pair_mask]
        i = np.argmin(np.isfinite(gathered).all(axis=(0, 2, 3)))
        p = lines.index[:-1][pair_mask][i]
        q = lines.index[1:][pair_mask][i]
        raise ContractViolationError(
            f"line pair {(int(p), int(q))} has a non-finite coupling")

    # The dummy cell's identity pivot keeps unused slots inert; it takes
    # no shift.
    eye = np.eye(b)

    def taken(shift):
        if shift is not None and np.shape(shift) != (n_cells,):
            raise ContractViolationError(
                f"a diagonal shift is not one value per cell ({n_cells})")
        diag = diag_blocks if shift is None else blocks.shifted(shift).diag
        return np.concatenate([diag, eye[None]]).take(lines.index, axis=0)

    k, n_columns = len(shifts), lines.index.shape[1]
    if k == 1:
        diag = taken(shifts[0])
    else:
        diag = np.concatenate([taken(shift) for shift in shifts], axis=1)
        couplings = np.concatenate((couplings,) * k, axis=2)
    upper, lower = couplings
    mul = np.multiply if b == 1 else np.matmul
    levels, pivots = [], []
    with np.errstate(all="ignore"):
        while len(diag) > 1:
            pivots.append(diag[0::2])
            dinv = _inverse(pivots[-1], k)
            left = np.ascontiguousarray(lower[0::2])
            right = np.ascontiguousarray(upper[1::2])
            dinv_lower = mul(dinv[1:], lower[1::2])
            if len(diag) % 2:
                dinv_upper = mul(dinv[:-1], upper[0::2])
                diag = (diag[1::2] - mul(left, dinv_upper)
                        - mul(right, dinv_lower))
                upper = -mul(right[:-1], dinv_upper[1:])
                lower = -mul(left[1:], dinv_lower[:-1])
            else:
                # The last odd row has no even row after it.
                dinv_upper = mul(dinv, upper[0::2])
                diag = diag[1::2] - mul(left, dinv_upper)
                diag[:-1] -= mul(right, dinv_lower)
                upper = -mul(right, dinv_upper[1:])
                lower = -mul(left[1:], dinv_lower)
            levels.append((dinv, left, right, dinv_lower, dinv_upper))
        pivots.append(diag)
        root = _inverse(diag, k)[0]
        finite = np.isfinite(np.concatenate(
            pivots + [level[0] for level in levels] + [root],
            axis=None)).all()
        # The top: the last levels and the root solve unit right-hand
        # sides, one per unknown of the rows those levels start from.
        top_levels = levels[len(levels) - _top_levels(lines, len(levels)):]
        rows = len(lines.index) >> (len(levels) - len(top_levels))
        unit = np.eye(rows * b).reshape(rows, 1, b, rows * b)
        x = _cyclic_solve(top_levels, lambda y: mul(root, y), unit)
    top = x.swapaxes(0, 1).reshape(len(root), rows * b, rows * b)

    factors = []
    for h in range(k):
        cols = slice(h * n_columns, (h + 1) * n_columns)
        try:
            if not finite:
                _check_pivots(pivots, lines, cols)
        except SingularPivotError as exc:
            if h == 0:
                raise
            factors.append(exc)
            continue
        # One shift holds every column: its levels as reduced, with no
        # slicing call per array.
        own = tuple(levels) if k == 1 else (
            tuple(tuple(np.ascontiguousarray(a[:, cols]) for a in level)
                  for level in levels[:len(levels) - len(top_levels)])
            + tuple(tuple(a[:, cols] for a in level) for level in top_levels))
        factors.append(
            BlockTridiagFactorization(lines, own, root[cols], top[cols]))
    return tuple(factors)
