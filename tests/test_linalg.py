import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsmooth.core import BlockLayout, BlockVector, ContractViolationError
from ptcsmooth.linalg import (LinearOperator, SingularPivotError,
                              factor_block_tridiag,
                              gmres_right_preconditioned, identity_operator)
from ptcsmooth.lines import LineSet, singleton_lines

from conftest import dense_from_lines


def _dense_operator(A):
    n = A.shape[0]
    return LinearOperator(BlockLayout(n, 1), lambda x: A @ x)


def test_gmres_identity():
    layout = BlockLayout(5, 1)
    b = BlockVector(layout, [1.0, -2.0, 3.0, 0.5, 4.0])
    ident = identity_operator(layout)
    x, stats = gmres_right_preconditioned(ident, ident, b, 1e-2, 10)
    assert stats.converged
    assert stats.iterations == 1
    assert np.allclose(x.values, b.values, rtol=1e-14)


def test_gmres_diagonal_system():
    A = np.diag([1.0, 2.0, 4.0])
    b = BlockVector(BlockLayout(3, 1), [1.0, 2.0, 4.0])
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), identity_operator(b.layout), b, 1e-6, 10)
    assert stats.converged
    assert np.allclose(x.values, [1.0, 1.0, 1.0], atol=1e-6)


def test_gmres_matches_dense_solve():
    rng = np.random.default_rng(42)
    A = np.eye(20) + 0.2 * rng.standard_normal((20, 20))
    rhs = rng.standard_normal(20)
    x_ref = np.linalg.solve(A, rhs)
    b = BlockVector(BlockLayout(20, 1), rhs)
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), identity_operator(b.layout), b, 1e-10, 20)
    assert stats.converged
    assert np.linalg.norm(x.values - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_gmres_recurrence_monotone():
    rng = np.random.default_rng(7)
    A = np.eye(30) + 0.5 * rng.standard_normal((30, 30))
    b = BlockVector(BlockLayout(30, 1), rng.standard_normal(30))
    _, stats = gmres_right_preconditioned(
        _dense_operator(A), identity_operator(b.layout), b, 1e-12, 30)
    norms = np.asarray(stats.recurrence_norms)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_gmres_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(3)
    A = np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    Ainv = np.linalg.inv(A)
    b = BlockVector(BlockLayout(12, 1), rng.standard_normal(12))
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _dense_operator(Ainv), b, 1e-10, 12)
    assert stats.converged
    assert stats.iterations == 1
    assert np.allclose(A @ x.values, b.values, rtol=1e-10, atol=1e-12)


def test_gmres_zero_rhs():
    layout = BlockLayout(4, 1)
    x, stats = gmres_right_preconditioned(
        identity_operator(layout), identity_operator(layout),
        BlockVector.zeros(layout), 1e-2, 5)
    assert stats.converged
    assert stats.iterations == 0
    assert np.all(x.values == 0.0)


def test_gmres_budget_failure_reported_not_raised():
    # Strongly nonnormal system, tiny budget: must report converged=False.
    rng = np.random.default_rng(11)
    A = np.eye(40) + 2.0 * rng.standard_normal((40, 40))
    b = BlockVector(BlockLayout(40, 1), rng.standard_normal(40))
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), identity_operator(b.layout), b, 1e-10, 5)
    assert not stats.converged
    assert stats.iterations == 5
    assert x.is_finite()


def test_gmres_nan_operator_raises():
    layout = BlockLayout(3, 1)
    bad = LinearOperator(layout, lambda x: x * np.nan)
    b = BlockVector(layout, [1.0, 1.0, 1.0])
    with pytest.raises(ContractViolationError):
        gmres_right_preconditioned(bad, identity_operator(layout), b, 1e-2, 3)


def test_gmres_parameter_validation():
    layout = BlockLayout(2, 1)
    ident = identity_operator(layout)
    b = BlockVector(layout, [1.0, 2.0])
    with pytest.raises(ValueError):
        gmres_right_preconditioned(ident, ident, b, 1.5, 5)
    with pytest.raises(ValueError):
        gmres_right_preconditioned(ident, ident, b, 1e-2, 0)


# ---------------------------------------------------------------------------
# Block-tridiagonal kernels
# ---------------------------------------------------------------------------

def test_identity_factorization_is_identity():
    n, b = 6, 2
    lines = singleton_lines(n)
    diag = np.broadcast_to(np.eye(b), (n, b, b)).copy()
    fact = factor_block_tridiag(lines, diag, {})
    r = BlockVector(BlockLayout(n, b), np.arange(float(n * b)))
    assert np.allclose(fact.solve(r).values, r.values)


def test_scalar_poisson_line_matches_dense():
    n = 5
    lines = LineSet(n, [list(range(n))])
    diag = np.full((n, 1, 1), 2.0)
    off = {}
    for i in range(n - 1):
        off[(i, i + 1)] = np.array([[-1.0]])
        off[(i + 1, i)] = np.array([[-1.0]])
    fact = factor_block_tridiag(lines, diag, off)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(n)
    A = dense_from_lines(lines, diag, off)
    x = fact.solve(BlockVector(BlockLayout(n, 1), r))
    assert np.linalg.norm(x.values - np.linalg.solve(A, r)) <= 1e-12


def test_block2_line_matches_dense():
    rng = np.random.default_rng(8)
    n, b = 3, 2
    lines = LineSet(n, [[0, 1, 2]])
    diag = rng.standard_normal((n, b, b)) + 4.0 * np.eye(b)
    off = {}
    for i in range(n - 1):
        off[(i, i + 1)] = 0.5 * rng.standard_normal((b, b))
        off[(i + 1, i)] = 0.5 * rng.standard_normal((b, b))
    fact = factor_block_tridiag(lines, diag, off)
    r = rng.standard_normal(n * b)
    A = dense_from_lines(lines, diag, off)
    x = fact.solve(BlockVector(BlockLayout(n, b), r))
    assert np.linalg.norm(x.values - np.linalg.solve(A, r)) <= 1e-10


def test_independent_lines_do_not_couple():
    n = 6
    lines = LineSet(n, [[0, 1, 2], [3, 4, 5]])
    diag = np.full((n, 1, 1), 3.0)
    off = {}
    for p, q in ((0, 1), (1, 2), (3, 4), (4, 5)):
        off[(p, q)] = np.array([[-1.0]])
        off[(q, p)] = np.array([[-1.0]])
    fact = factor_block_tridiag(lines, diag, off)
    r = np.zeros(n)
    r[:3] = [1.0, 2.0, 3.0]
    x = fact.solve(BlockVector(BlockLayout(n, 1), r))
    assert np.all(x.values[3:] == 0.0)
    assert np.any(x.values[:3] != 0.0)


def test_factor_solve_roundtrip():
    rng = np.random.default_rng(19)
    n, b = 7, 3
    lines = LineSet(n, [list(range(n))])
    diag = rng.standard_normal((n, b, b)) + 5.0 * np.eye(b)
    off = {}
    for i in range(n - 1):
        off[(i, i + 1)] = 0.4 * rng.standard_normal((b, b))
        off[(i + 1, i)] = 0.4 * rng.standard_normal((b, b))
    fact = factor_block_tridiag(lines, diag, off)
    A = dense_from_lines(lines, diag, off)
    r = rng.standard_normal(n * b)
    x = fact.solve_values(r)
    assert np.linalg.norm(A @ x - r) <= 1e-10 * np.linalg.norm(r)


def test_singular_pivot_names_line_and_position():
    lines = LineSet(2, [[0, 1]])
    diag = np.zeros((2, 1, 1))
    diag[0, 0, 0] = 1.0  # second pivot is singular
    off = {(0, 1): np.array([[0.0]]), (1, 0): np.array([[0.0]])}
    with pytest.raises(SingularPivotError, match="line 0 at position 1"):
        factor_block_tridiag(lines, diag, off)


def test_layout_mismatch_rejected():
    lines = singleton_lines(3)
    fact = factor_block_tridiag(lines, np.ones((3, 1, 1)), {})
    with pytest.raises(ContractViolationError):
        fact.solve(BlockVector(BlockLayout(3, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_line_solve_matches_dense_property(length, b, seed):
    rng = np.random.default_rng(seed)
    lines = LineSet(length, [list(range(length))])
    diag = rng.standard_normal((length, b, b)) + (3.0 * b) * np.eye(b)
    off = {}
    for i in range(length - 1):
        off[(i, i + 1)] = 0.5 * rng.standard_normal((b, b))
        off[(i + 1, i)] = 0.5 * rng.standard_normal((b, b))
    fact = factor_block_tridiag(lines, diag, off)
    A = dense_from_lines(lines, diag, off)
    r = rng.standard_normal(length * b)
    x = fact.solve_values(r)
    ref = np.linalg.solve(A, r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
