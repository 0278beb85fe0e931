"""Shared fixtures: a linear block-structured system, dense oracles and a
finite-difference check of a system's Jacobian-vector product."""

import warnings

import numpy as np
import pytest

from ptcsmooth.core import (BlockLayout, BlockVector, ContractViolationError,
                            FirstOrderBlocks, NonlinearSystem, l2_norm,
                            trial_residual)
from ptcsmooth.lines import LineSet


class LinearChainSystem(NonlinearSystem):
    """R(w) = A w - rhs with A block-tridiagonal along a 1D chain.

    The exact first-order blocks ARE the Jacobian, so with a full-chain line
    the line preconditioner equals A and smoother/Newton behavior has closed
    forms.
    """

    def __init__(self, diag, off_up, off_lo, rhs, measures=None):
        self.diag = np.asarray(diag, dtype=float)
        self.off_up = np.asarray(off_up, dtype=float)  # dR_i/dw_{i+1}
        self.off_lo = np.asarray(off_lo, dtype=float)  # dR_{i+1}/dw_i
        n, b, _ = self.diag.shape
        self.layout = BlockLayout(n, b)
        self.edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        self.rhs = np.asarray(rhs, dtype=float)
        if measures is None:
            measures = np.ones(n)
        self.cell_measures = np.asarray(measures, dtype=float)
        self.A = self.dense()

    def dense(self):
        n, b = self.layout.n_cells, self.layout.block_size
        A = np.zeros((n * b, n * b))
        for i in range(n):
            A[i * b:(i + 1) * b, i * b:(i + 1) * b] = self.diag[i]
        for i in range(n - 1):
            A[i * b:(i + 1) * b, (i + 1) * b:(i + 2) * b] = self.off_up[i]
            A[(i + 1) * b:(i + 2) * b, i * b:(i + 1) * b] = self.off_lo[i]
        return A

    def solution(self):
        return BlockVector(self.layout, np.linalg.solve(self.A, self.rhs))

    def residual(self, w):
        return self.A @ w.values - self.rhs

    def jacobian_vector(self, w, v):
        return self.A @ v

    def first_order_blocks(self, w):
        return FirstOrderBlocks(self.diag.copy(), self.off_up.copy(),
                                self.off_lo.copy())

    def explicit_dt(self, w):
        return np.ones(self.layout.n_cells)

    def initial_state(self):
        return BlockVector(self.layout)


def diffusion_chain(n=8, b=1, seed=None):
    """Scalar (or random-block) diagonally dominant chain system."""
    if b == 1:
        diag = np.full((n, 1, 1), 2.0)
        off = np.full((n - 1, 1, 1), -1.0)
        rng = np.random.default_rng(0 if seed is None else seed)
        rhs = rng.standard_normal(n)
        return LinearChainSystem(diag, off, off.copy(), rhs)
    rng = np.random.default_rng(0 if seed is None else seed)
    off_up = 0.3 * rng.standard_normal((n - 1, b, b))
    off_lo = 0.3 * rng.standard_normal((n - 1, b, b))
    diag = rng.standard_normal((n, b, b))
    for i in range(n):
        # Force block-diagonal dominance.
        diag[i] += (2.0 * b) * np.eye(b)
    rhs = rng.standard_normal(n * b)
    return LinearChainSystem(diag, off_up, off_lo, rhs)


def kernel_lines(n, lines):
    """A ``LineSet`` whose stencil is its lines' own consecutive pairs, for
    tests of the line kernels alone."""
    edges = [sorted(pair) for line in lines for pair in zip(line, line[1:])]
    return LineSet(n, lines, np.array(edges, dtype=int).reshape(-1, 2))


def full_chain_lines(n):
    return kernel_lines(n, [list(range(n))])


def random_couplings(rng, line_set, b, scale):
    """Per-edge ``off_ij`` and ``off_ji`` over ``kernel_lines``' stencil,
    drawn pair by pair in line order: for a pair (p, q), first its upper
    block dR_p/dw_q, then its lower block dR_q/dw_p."""
    off_ij = np.zeros((len(line_set.edges), b, b))
    off_ji = np.zeros_like(off_ij)
    pairs = [pair for line in line_set.lines for pair in zip(line, line[1:])]
    for k, (p, q) in enumerate(pairs):
        assert sorted((p, q)) == line_set.edges[k].tolist()
        upper = scale * rng.standard_normal((b, b))
        lower = scale * rng.standard_normal((b, b))
        off_ij[k], off_ji[k] = (upper, lower) if p < q else (lower, upper)
    return off_ij, off_ji


def line_couplings(line_set, blocks):
    """Each line's consecutive pairs (p, q), each with its blocks dR_p/dw_q
    and dR_q/dw_p, looked up in ``blocks`` over ``line_set.edges``."""
    edge = {}
    for k, (i, j) in enumerate(line_set.edges.tolist()):
        edge[i, j] = blocks.off_ij[k], blocks.off_ji[k]
        edge[j, i] = blocks.off_ji[k], blocks.off_ij[k]
    return [[(p, q, *edge[p, q]) for p, q in zip(line, line[1:])]
            for line in line_set.lines]


def dense_from_lines(line_set, blocks):
    """Assemble the first-order ``blocks`` restricted to the lines densely
    (test oracle): every diagonal block, and the two blocks of each
    consecutive in-line pair."""
    n, b, _ = blocks.diag.shape
    A = np.zeros((n * b, n * b))
    for i in range(n):
        A[i * b:(i + 1) * b, i * b:(i + 1) * b] = blocks.diag[i]
    for line in line_couplings(line_set, blocks):
        for p, q, upper, lower in line:
            A[p * b:(p + 1) * b, q * b:(q + 1) * b] = upper
            A[q * b:(q + 1) * b, p * b:(p + 1) * b] = lower
    return A


@pytest.fixture
def scalar_chain():
    return diffusion_chain(n=8, b=1)


def validate_jacobian(system: NonlinearSystem, w: BlockVector,
                      n_probes: int = 5, seed: int = 0) -> float:
    """Compare jacobian_vector against central differences of the residual.

    Probes ``n_probes`` random unit directions with step
    ``eps = sqrt(machine eps) * (1 + ||w||)`` and returns the maximum relative
    discrepancy. A probe whose perturbed state is not usable (see
    ``trial_residual``) is skipped with a warning.
    """
    rng = np.random.default_rng(seed)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + l2_norm(w.values))
    worst = 0.0
    n_ok = 0
    for k in range(n_probes):
        direction = rng.standard_normal(w.layout.n_dofs)
        direction /= np.linalg.norm(direction)
        r_plus = trial_residual(
            system, BlockVector(w.layout, w.values + eps * direction))
        r_minus = trial_residual(
            system, BlockVector(w.layout, w.values + (-eps) * direction))
        if r_plus is None or r_minus is None:
            warnings.warn(f"jacobian probe {k} skipped: unusable state")
            continue
        fd = (r_plus - r_minus) / (2.0 * eps)
        jv = system.jacobian_vector(w, direction)
        scale = max(np.linalg.norm(jv), np.linalg.norm(fd), 1e-300)
        worst = max(worst, float(np.linalg.norm(jv - fd) / scale))
        n_ok += 1
    if n_ok == 0:
        raise ContractViolationError("all jacobian probes failed to evaluate")
    return worst
