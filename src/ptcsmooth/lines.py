"""Coupling-graph construction and greedy extraction of solver lines.

Lines are vertex-disjoint simple paths following the strongest couplings of
the first-order Jacobian. Anisotropy is measured from block norms rather than
cell geometry, so strongly-coupled directions of any origin (mesh stretching,
convection, coefficients) are picked up the same way. Every cell not reached
by a path becomes a singleton line, which later degenerates the line
preconditioner to block-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import BlockVector, ContractViolationError, NonlinearSystem


@dataclass
class CouplingGraph:
    """Undirected cell-coupling graph with one weighted edge per stencil pair."""

    n_cells: int
    edges: np.ndarray    # (n_edges, 2) int with i < j
    weights: np.ndarray  # (n_edges,) nonnegative

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.edges) != len(self.weights):
            raise ValueError("edge and weight counts differ")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("edge weights must be finite and nonnegative")

    def incident(self) -> List[List[tuple]]:
        """Adjacency: per cell, list of (weight, neighbor) pairs."""
        adj = [[] for _ in range(self.n_cells)]
        for (i, j), w in zip(self.edges, self.weights):
            adj[int(i)].append((float(w), int(j)))
            adj[int(j)].append((float(w), int(i)))
        return adj


@dataclass
class LineSet:
    """Partition of cells into simple paths (singletons included)."""

    n_cells: int
    lines: List[List[int]]

    def is_partition(self) -> bool:
        seen = sorted(c for line in self.lines for c in line)
        return seen == list(range(self.n_cells))

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
    block, and in ``off`` the (row, col) -> block couplings of consecutive
    in-line pairs, the form ``factor_block_tridiag`` takes."""

    lines: LineSet
    diag: np.ndarray   # (n_cells, b, b)
    off: dict


def assemble_line_blocks(system: NonlinearSystem, w: BlockVector,
                         lines: LineSet) -> LineBlocks:
    """Evaluate the first-order blocks at ``w`` once and gather the couplings
    of consecutive in-line pairs, found among the stencil edges by a sorted
    search rather than a walk over every edge."""
    blocks = system.first_order_blocks(w)
    pairs = np.sort(np.array([pq for line in lines.lines
                              for pq in zip(line[:-1], line[1:])],
                             dtype=int).reshape(-1, 2), axis=1)
    n = lines.n_cells
    keys = blocks.edges[:, 0] * n + blocks.edges[:, 1]
    order = np.argsort(keys)
    wanted = pairs[:, 0] * n + pairs[:, 1]
    pos = np.searchsorted(keys[order], wanted)
    missing = np.append(keys[order], -1)[pos] != wanted   # -1: past the end
    if np.any(missing):
        raise ContractViolationError(
            f"line pair {tuple(pairs[np.argmax(missing)].tolist())} "
            "has no stencil edge")
    k = order[pos]
    off = dict(zip(map(tuple, pairs.tolist()), blocks.off_ij[k]))
    off.update(zip(map(tuple, pairs[:, ::-1].tolist()), blocks.off_ji[k]))
    return LineBlocks(lines, blocks.diag, off)


def singleton_lines(n_cells: int) -> LineSet:
    return LineSet(n_cells, [[c] for c in range(n_cells)])


def build_coupling_graph(system: NonlinearSystem, w: BlockVector) -> CouplingGraph:
    """Edge weights are the larger Frobenius norm of the two first-order
    off-diagonal blocks joining a cell pair."""
    blocks = system.first_order_blocks(w)
    w_ij = np.linalg.norm(blocks.off_ij.reshape(len(blocks.edges), -1), axis=1)
    w_ji = np.linalg.norm(blocks.off_ji.reshape(len(blocks.edges), -1), axis=1)
    return CouplingGraph(system.layout.n_cells, blocks.edges, np.maximum(w_ij, w_ji))


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


def extract_lines(graph: CouplingGraph, anisotropy_threshold: float) -> LineSet:
    """Greedy strongest-coupling path growth seeded at anisotropic cells.

    Seeds are visited in descending anisotropy ratio (ties broken by lower
    cell index). A path extends from its endpoints along the strongest edge
    to an unvisited neighbor as long as that edge carries at least
    ``1/threshold`` of the endpoint's strongest incident weight; growth runs
    in both directions from the seed. Unreached cells become singletons.
    """
    if anisotropy_threshold <= 1.0:
        raise ValueError("anisotropy_threshold must exceed 1")

    adj = graph.incident()
    aniso = _anisotropy(adj)
    order = sorted(range(graph.n_cells), key=lambda c: (-aniso[c], c))
    visited = np.zeros(graph.n_cells, dtype=bool)
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
        end = seed
        while True:
            nxt = grow(end)
            if nxt < 0:
                break
            visited[nxt] = True
            path.append(nxt)
            end = nxt
        end = seed
        while True:
            nxt = grow(end)
            if nxt < 0:
                break
            visited[nxt] = True
            path.insert(0, nxt)
            end = nxt
        lines.append(path)

    for c in range(graph.n_cells):
        if not visited[c]:
            lines.append([c])

    return LineSet(graph.n_cells, lines)
