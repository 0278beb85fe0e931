"""Greedy extraction of solver lines from the cell-coupling graph.

Lines are vertex-disjoint simple paths following the strongest couplings of
the first-order Jacobian. Anisotropy is measured from block norms rather than
cell geometry, so strongly-coupled directions of any origin (mesh stretching,
convection, coefficients) are picked up the same way. Every cell not reached
by a path becomes a singleton line, which later degenerates the line
preconditioner to block-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core import ContractViolationError, FirstOrderBlocks

# The anisotropy threshold the solver extracts its lines with.
ANISOTROPY_THRESHOLD = 4.0


@dataclass
class LineSet:
    """Partition of cells into simple paths (singletons included)."""

    n_cells: int
    lines: List[List[int]]
    # (k_max, n_lines): the cell at each position of each line, position
    # first; a line shorter than the longest is padded with the dummy index
    # n_cells. Built once, since a line set is frozen for a solve.
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = sorted(c for line in self.lines for c in line)
        if cells != list(range(self.n_cells)) or not all(self.lines):
            raise ContractViolationError(
                f"lines must partition the {self.n_cells} cells into "
                "nonempty paths")
        k_max = max(map(len, self.lines), default=0)
        self.index = np.full((k_max, len(self.lines)), self.n_cells, dtype=int)
        for li, line in enumerate(self.lines):
            self.index[:len(line), li] = line

    def multi_cell_lines(self) -> List[List[int]]:
        return [line for line in self.lines if len(line) > 1]

    def covered_by_multi(self) -> int:
        return sum(len(line) for line in self.multi_cell_lines())

    def to_text(self) -> str:
        """One line per row, cell indices space-separated."""
        return "\n".join(" ".join(str(c) for c in line) for line in self.lines) + "\n"


@dataclass(frozen=True)
class LineBlocks:
    """First-order Jacobian blocks restricted to a line set: every diagonal
    block, and the couplings of consecutive in-line cells in the padded
    layout of ``lines.index``. For p = index[m, li] and q = index[m + 1, li],
    ``upper[m, li]`` is dR_p/dw_q and ``lower[m, li]`` is dR_q/dw_p; a slot
    whose q is the dummy index holds zero blocks."""

    lines: LineSet
    diag: np.ndarray    # (n_cells, b, b)
    upper: np.ndarray   # (k_max - 1, n_lines, b, b)
    lower: np.ndarray   # (k_max - 1, n_lines, b, b)


def assemble_line_blocks(blocks: FirstOrderBlocks,
                         lines: LineSet) -> LineBlocks:
    """Gather the couplings of consecutive in-line cells into the padded
    layout, found among the stencil edges (i < j) by a sorted search rather
    than a walk over every edge; a pair that runs against its edge takes the
    edge's blocks swapped."""
    n = lines.n_cells
    p, q = lines.index[:-1], lines.index[1:]
    real = q < n
    p, q = p[real], q[real]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    keys = blocks.edges[:, 0] * n + blocks.edges[:, 1]
    order = np.argsort(keys)
    wanted = lo * n + hi
    pos = np.searchsorted(keys[order], wanted)
    missing = np.append(keys[order], -1)[pos] != wanted   # -1: past the end
    if np.any(missing):
        i = np.argmax(missing)
        raise ContractViolationError(
            f"line pair {(int(lo[i]), int(hi[i]))} has no stencil edge")
    k = order[pos]
    forward = (p < q)[:, None, None]
    b = blocks.diag.shape[1]
    upper = np.zeros(real.shape + (b, b))
    lower = np.zeros(real.shape + (b, b))
    upper[real] = np.where(forward, blocks.off_ij[k], blocks.off_ji[k])
    lower[real] = np.where(forward, blocks.off_ji[k], blocks.off_ij[k])
    return LineBlocks(lines, blocks.diag, upper, lower)


def singleton_lines(n_cells: int) -> LineSet:
    return LineSet(n_cells, [[c] for c in range(n_cells)])


def _anisotropy(adj: List[List[tuple]]) -> np.ndarray:
    a = np.ones(len(adj))
    for c, inc in enumerate(adj):
        if len(inc) < 2:
            continue
        ws = [w for w, _ in inc]
        wmin = min(ws)
        wmax = max(ws)
        if wmin <= 0.0:
            a[c] = np.inf if wmax > 0.0 else 1.0
        else:
            a[c] = wmax / wmin
    return a


def extract_lines(blocks: FirstOrderBlocks,
                  anisotropy_threshold: float = ANISOTROPY_THRESHOLD) -> LineSet:
    """Greedy strongest-coupling path growth seeded at anisotropic cells.

    The coupling graph has one edge per stencil pair, weighted by the larger
    Frobenius norm of the pair's two off-diagonal blocks. Seeds are visited
    in descending anisotropy ratio (ties broken by lower cell index). A path
    extends from its endpoints along the strongest edge to an unvisited
    neighbor as long as that edge carries at least ``1/threshold`` of the
    endpoint's strongest incident weight; growth runs in both directions
    from the seed. Unreached cells become singletons.
    """
    if not anisotropy_threshold > 1.0:   # NaN included
        raise ValueError("anisotropy_threshold must exceed 1")

    n_cells, n_edges = len(blocks.diag), len(blocks.edges)
    weights = np.maximum(
        np.linalg.norm(blocks.off_ij.reshape(n_edges, -1), axis=1),
        np.linalg.norm(blocks.off_ji.reshape(n_edges, -1), axis=1))
    if not np.all(np.isfinite(weights)):
        raise ValueError("coupling weights must be finite")
    adj: List[List[tuple]] = [[] for _ in range(n_cells)]  # (weight, neighbor)
    for (i, j), w in zip(blocks.edges.tolist(), weights.tolist()):
        adj[i].append((w, j))
        adj[j].append((w, i))

    aniso = _anisotropy(adj)
    order = sorted(range(n_cells), key=lambda c: (-aniso[c], c))
    visited = np.zeros(n_cells, dtype=bool)
    lines: List[List[int]] = []

    def grow(endpoint: int) -> int:
        """Extend one step from endpoint; return new endpoint or -1 to stop."""
        inc = adj[endpoint]
        if not inc:
            return -1
        w_local_max = max(w for w, _ in inc)
        candidates = [(w, nb) for w, nb in inc if not visited[nb]]
        if not candidates:
            return -1
        # Strongest first; lower index wins ties.
        w_best, nb_best = max(candidates, key=lambda wn: (wn[0], -wn[1]))
        if w_best < w_local_max / anisotropy_threshold:
            return -1
        return nb_best

    for seed in order:
        if visited[seed] or aniso[seed] < anisotropy_threshold:
            continue
        visited[seed] = True
        path = [seed]
        # Grow forward from the seed, then backward from it.
        for attach in (path.append, lambda c: path.insert(0, c)):
            end = seed
            while (end := grow(end)) >= 0:
                visited[end] = True
                attach(end)
        lines.append(path)

    for c in range(n_cells):
        if not visited[c]:
            lines.append([c])

    return LineSet(n_cells, lines)
