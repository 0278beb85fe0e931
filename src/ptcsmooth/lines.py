"""Extraction of solver lines from the cell-coupling graph.

Lines are vertex-disjoint simple paths of the first-order Jacobian's coupling
graph. When that graph is a union of paths (every 1D problem), each component
is one line, so the line preconditioner inverts the first-order Jacobian
exactly. Otherwise lines follow the strongest couplings greedily. Anisotropy
is measured from block norms rather than cell geometry, so strongly-coupled
directions of any origin (mesh stretching, convection, coefficients) are
picked up the same way, and every cell not reached by a path becomes a
singleton line: where all are singletons, the preconditioner is block-diagonal.

A ``LineSet`` also packs its lines into the layout the cyclic-reduction kernels
reduce: columns of at most 2^L - 1 rows, ending at the last row a line holds,
each line contiguous down one column from a row that is a multiple of 2^B (B
the bit length of its cell count), so that short lines and singletons share
columns without changing a bit of any pivot; a
line's solution changes only in rounding, with the height of its column, and
nothing another line holds changes a bit of it. The plans through which the
line kernels gather and scatter are built once per line set: the couplings' at
construction, the solve's on first use for each block size and row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from .core import (ContractViolationError, FirstOrderBlocks,
                   InadmissibleStateError)

# A seed needs at least this anisotropy, and a path only follows an edge
# within this factor of its endpoint's strongest.
ANISOTROPY_THRESHOLD = 4.0


@dataclass
class LineSet:
    """Partition of cells into simple paths (singletons included), and the
    packed layout the line kernels reduce.

    Lines are placed longest first (ties in line order), each in the first
    column with room for it: a line of k cells starts at the first multiple
    of 2^k.bit_length() past the column's last occupied row, and must end
    within 2^L - 1 rows, L = k_max.bit_length(); else it opens a new column.
    That alignment puts every cell at the same cyclic-reduction level,
    against the same in-line neighbours, as a column of its own would, so
    short lines and singletons share columns without changing a bit of any
    pivot. The layout ends at the last row any line holds, between k_max
    and 2^L - 1 rows, so a line of 2^m cells alone is 2^m rows: a level of
    even row count has no even row after its last odd row, and the
    reduction needs no padding past it. The solve's dense top
    (``BlockTridiagFactorization.top``) sums over a column's rows, so a
    line's solution rounds with the column's height, but nothing another
    line holds changes a bit of it. An in-line pair missing from the
    stencil ``edges`` is a ``ContractViolationError``.

    The kernels move values in and out of the layout with one ``take`` each,
    through plans built once: ``coupling_plan`` and ``solve_plans(b)``.
    """

    n_cells: int
    lines: List[List[int]]
    # The stencil the lines were built over; ``slots`` index its pairs.
    edges: np.ndarray = field(repr=False, compare=False)
    # (rows, n_columns), rows up to the last one a line holds: the cell in
    # each row of each column, and the dummy index n_cells in every slot no
    # line holds.
    index: np.ndarray = field(init=False, repr=False, compare=False)
    # index[1:].shape: True where rows m and m + 1 of a column hold
    # consecutive cells of one line.
    pair_mask: np.ndarray = field(init=False, repr=False, compare=False)
    # (2, n_pairs): each in-line pair's upper and lower block slots, in
    # ``pair_mask`` order, among ``(off_ij, off_ji)`` stacked; a pair p -> q
    # along its edge takes off_ij as upper, against it off_ji.
    slots: np.ndarray = field(init=False, repr=False, compare=False)
    # pair_mask.shape stacked twice: each row pair's upper and lower block
    # among ``(off_ij, off_ji, zero block)`` stacked, ``slots`` where
    # ``pair_mask`` is set and the zero block (-1) elsewhere.
    coupling_plan: np.ndarray = field(init=False, repr=False, compare=False)
    _solve_plans: Dict[Tuple[int, bool],
                       Tuple[np.ndarray, np.ndarray]] = field(
        init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        flat = np.array(list(chain.from_iterable(self.lines)))
        if not (all(self.lines)
                and np.array_equal(np.sort(flat), np.arange(self.n_cells))):
            raise ContractViolationError(
                f"lines must partition the {self.n_cells} cells into "
                "nonempty paths")
        # Placement stays within 2^L - 1 rows; the layout ends at max(tops).
        size = 2 ** max(map(len, self.lines), default=0).bit_length() - 1
        tops: List[int] = []    # each column's first row past its lines
        placement = [(0, 0)] * len(self.lines)   # each line's column, offset
        for li in sorted(range(len(self.lines)),
                         key=lambda li: -len(self.lines[li])):
            k = len(self.lines[li])
            align = 2 ** k.bit_length()
            for col, top in enumerate(tops):
                offset = -(-top // align) * align
                if offset + k <= size:
                    break
            else:
                col, offset = len(tops), 0
                tops.append(0)
            tops[col] = offset + k
            placement[li] = col, offset
        # One scatter of the flattened cells: flat position i of a line
        # whose cells start at flat position start sits at row
        # offset + i - start of the line's column.
        lengths = np.array([len(line) for line in self.lines], dtype=int)
        col, offset = np.array(placement, dtype=int).reshape(-1, 2).T
        ends = np.cumsum(lengths)
        rows = np.arange(len(flat)) + np.repeat(offset - (ends - lengths),
                                                lengths)
        cols = np.repeat(col, lengths)
        self.index = np.full((max(tops, default=0), len(tops)), self.n_cells,
                             dtype=int)
        self.index[rows, cols] = flat
        self.pair_mask = np.zeros(self.index[1:].shape, dtype=bool)
        inner = np.ones(len(flat), dtype=bool)   # not the last of its line
        inner[ends - 1] = False
        self.pair_mask[rows[inner], cols[inner]] = True

        n, edges = self.n_cells, self.edges
        p = self.index[:-1][self.pair_mask]
        q = self.index[1:][self.pair_mask]
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        keys = edges[:, 0] * n + edges[:, 1]
        order = np.argsort(keys)
        wanted = lo * n + hi
        pos = np.searchsorted(keys[order], wanted)
        missing = np.append(keys[order], -1)[pos] != wanted   # -1: past the end
        if np.any(missing):
            i = np.argmax(missing)
            raise ContractViolationError(
                f"line pair {(int(lo[i]), int(hi[i]))} has no stencil edge")
        k = order[pos]
        against = np.where(p < q, 0, len(edges))
        self.slots = np.stack((k + against, k + len(edges) - against))
        self.coupling_plan = np.full((2,) + self.pair_mask.shape, -1)
        self.coupling_plan[:, self.pair_mask] = self.slots

    def solve_plans(self, b: int, split: bool = False
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The line solve's gather and scatter for ``b`` unknowns per cell,
        indices of unknowns (cell * b + component): ``gather``,
        (rows, n_columns, b, 1), takes each slot's unknowns from the
        right-hand side with one zero block appended, the block every slot
        no line holds reads; ``scatter``, (n_cells * b,), takes each
        unknown back from the packed solution of that shape. With
        ``split``, the gather's rows are the layout's even rows, then its
        odd rows: the rows the first cyclic-reduction level eliminates and
        those it keeps, each contiguous. The scatter reads the solution in
        that order."""
        plans = self._solve_plans.get((b, split))
        if plans is None:
            gather = self.index[..., None] * b + np.arange(b)
            if split:
                gather = np.concatenate((gather[0::2], gather[1::2]))
            scatter = np.empty((self.n_cells + 1) * b, dtype=int)
            scatter[gather.ravel()] = np.arange(gather.size)
            plans = self._solve_plans[(b, split)] = (
                gather[..., None], scatter[:self.n_cells * b])
        return plans

    def multi_cell_lines(self) -> List[List[int]]:
        return [line for line in self.lines if len(line) > 1]

    def covered_by_multi(self) -> int:
        return sum(len(line) for line in self.multi_cell_lines())

    def to_text(self) -> str:
        """One line per row, cell indices space-separated."""
        return "\n".join(" ".join(str(c) for c in line) for line in self.lines) + "\n"


def singleton_lines(n_cells: int) -> LineSet:
    return LineSet(n_cells, [[c] for c in range(n_cells)],
                   np.empty((0, 2), dtype=int))


def extract_lines(blocks: FirstOrderBlocks, edges: np.ndarray) -> LineSet:
    """Lines grown along the strongest couplings by one rule, from one of
    two seed sets.

    The coupling graph has one edge per pair of the stencil ``edges`` (the
    system's, which ``blocks`` are over), weighted by the larger Frobenius
    norm of the pair's two off-diagonal blocks; a non-finite weight (an
    overflowing norm included) raises ``InadmissibleStateError``. Each
    cell's edges are sorted once, strongest first, lower neighbor first on
    ties. From each unvisited seed in turn, a path grows forward, then
    backward, each step to the first unvisited neighbor in the end cell's
    order while that edge carries at least ``threshold`` times the end
    cell's strongest weight.

    If every cell has at most two edges, the seeds are the cells of fewer
    than two edges in index order, at threshold 0: each component of a
    union of paths is one line, walked from its lower-index end, whatever
    the weights. A cell left unvisited lies on a cycle, and then, as on
    any graph with a cell of three or more edges (a 2D grid), the seeds are
    the cells whose anisotropy (strongest over weakest weight; 1 with fewer
    than two edges) is at least ``ANISOTROPY_THRESHOLD``, in descending
    anisotropy then index order, at threshold ``1/ANISOTROPY_THRESHOLD``;
    unreached cells become singletons.
    """
    n_cells, b = blocks.diag.shape[:2]
    shape = (len(edges), b * b)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.maximum(
            np.linalg.norm(blocks.off_ij.reshape(shape), axis=1),
            np.linalg.norm(blocks.off_ji.reshape(shape), axis=1))
    if not np.all(np.isfinite(weights)):
        raise InadmissibleStateError("coupling weights must be finite")
    # Cell c's edges, strongest first and lower neighbor first on ties, are
    # entries bounds[c] to bounds[c + 1] of the flat lists weight and nbr;
    # every edge appears once from each end.
    cell = edges.T.ravel()
    nbr = edges[:, ::-1].T.ravel()
    w = np.concatenate((weights, weights))
    order = np.lexsort((nbr, -w, cell))
    w, nbr = w[order], nbr[order]
    bounds = np.searchsorted(cell[order], np.arange(n_cells + 1))
    degree = np.diff(bounds)
    weight, nbr, bound = w.tolist(), nbr.tolist(), bounds.tolist()

    def walk(seeds, threshold: float):
        """The paths grown from ``seeds``, and which cells they visit."""
        visited = [False] * n_cells

        def grow(end: int) -> List[int]:
            """The cells a path grows through past ``end``, in order."""
            grown = []
            while True:
                first = bound[end]
                for i in range(first, bound[end + 1]):
                    if not visited[nbr[i]]:
                        break
                else:
                    return grown
                if weight[i] < threshold * weight[first]:
                    return grown
                end = nbr[i]
                visited[end] = True
                grown.append(end)

        paths: List[List[int]] = []
        for seed in seeds:
            if not visited[seed]:
                visited[seed] = True
                forward = grow(seed)
                paths.append(grow(seed)[::-1] + [seed] + forward)
        return paths, visited

    if degree.max(initial=0) <= 2:
        lines, visited = walk(np.flatnonzero(degree < 2).tolist(), 0.0)
        if all(visited):
            return LineSet(n_cells, lines, edges)

    # A zero weakest weight is infinitely anisotropic unless every weight
    # is zero.
    many = degree >= 2
    strongest, weakest = w[bounds[:-1][many]], w[bounds[1:][many] - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = strongest / weakest
    aniso = np.ones(n_cells)
    aniso[many] = np.where(weakest > 0.0, ratio,
                           np.where(strongest > 0.0, np.inf, 1.0))
    candidates = np.flatnonzero(aniso >= ANISOTROPY_THRESHOLD)
    seeds = candidates[np.argsort(-aniso[candidates], kind="stable")]
    lines, visited = walk(seeds.tolist(), 1.0 / ANISOTROPY_THRESHOLD)
    return LineSet(n_cells, lines + [[c] for c in range(n_cells)
                                     if not visited[c]], edges)
