import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsmooth.core import ContractViolationError
from ptcsmooth.linalg import (GmresStats, SingularPivotError,
                              factor_block_tridiag,
                              gmres_right_preconditioned)
from ptcsmooth.lines import LineSet, singleton_lines

from conftest import dense_from_lines, random_couplings


def _dense_operator(A):
    return lambda x: A @ x


def _identity(x):
    return x.copy()


def test_gmres_identity():
    b = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    x, stats = gmres_right_preconditioned(_identity, _identity, b, 1e-2, 10)
    assert stats.converged
    assert stats.iterations == 1
    assert np.allclose(x, b, rtol=1e-14)


def test_gmres_diagonal_system():
    A = np.diag([1.0, 2.0, 4.0])
    b = np.array([1.0, 2.0, 4.0])
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _identity, b, 1e-6, 10)
    assert stats.converged
    assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-6)


def test_gmres_matches_dense_solve():
    rng = np.random.default_rng(42)
    A = np.eye(20) + 0.2 * rng.standard_normal((20, 20))
    rhs = rng.standard_normal(20)
    x_ref = np.linalg.solve(A, rhs)
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _identity, rhs, 1e-10, 20)
    assert stats.converged
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_gmres_recurrence_monotone():
    rng = np.random.default_rng(7)
    A = np.eye(30) + 0.5 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    # The Arnoldi build is the same for every budget up to its end, so the
    # reductions over budgets 1..30 trace the Givens-recurrence norms, which
    # start at 1 before any vector is built.
    reductions = np.array([1.0] + [
        gmres_right_preconditioned(_dense_operator(A), _identity, b, 1e-12,
                                   budget)[1].achieved_reduction
        for budget in range(1, 31)])
    assert np.all(np.diff(reductions) <= 1e-12)


def test_gmres_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(3)
    A = np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    Ainv = np.linalg.inv(A)
    b = rng.standard_normal(12)
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _dense_operator(Ainv), b, 1e-10, 12)
    assert stats.converged
    assert stats.iterations == 1
    assert np.allclose(A @ x, b, rtol=1e-10, atol=1e-12)


def test_gmres_zero_rhs():
    x, stats = gmres_right_preconditioned(_identity, _identity, np.zeros(4),
                                          1e-2, 5)
    assert stats.converged
    assert stats.iterations == 0
    assert x.shape == (4,) and np.all(x == 0.0)


def test_gmres_budget_failure_reported_not_raised():
    # Strongly nonnormal system, tiny budget: must report converged=False.
    rng = np.random.default_rng(11)
    A = np.eye(40) + 2.0 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _identity, b, 1e-10, 5)
    assert not stats.converged
    assert stats.iterations == 5
    assert np.all(np.isfinite(x))


def test_gmres_nan_operator_raises():
    b = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ContractViolationError):
        gmres_right_preconditioned(lambda x: x * np.nan, _identity, b, 1e-2, 3)


@pytest.mark.parametrize("operator, b, iterations", [
    (lambda x: 0.0 * x, np.ones(4), 1),
    # Annihilates b (the constants) but not the space.
    (lambda x: x - np.mean(x), np.ones(4), 1),
    # Maps e0 to e1 and e1 to 0: the second column is the zero one.
    (lambda x: np.array([0.0, x[0]]), np.array([1.0, 0.0]), 2),
], ids=["zero", "annihilates_b", "zero_second_column"])
def test_gmres_zero_column_stops_with_finite_iterate(operator, b, iterations):
    x, stats = gmres_right_preconditioned(operator, _identity, b, 1e-2, 10)
    assert stats == GmresStats(iterations, 1.0, False)
    assert x.shape == b.shape and np.all(x == 0.0)


def _reference_gmres(A, precon, b, rel_tol, max_vectors):
    """The MGS/Givens loop with every scalar read and written through numpy
    arrays: the reference GMRES must match bit for bit. Also returns how
    many re-orthogonalization passes ran."""
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    m = min(max_vectors, n)
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    V[0] = b / b_norm
    g[0] = b_norm
    tol_abs = rel_tol * b_norm
    breakdown_tol = np.finfo(float).eps * b_norm
    k, residual, converged, reorth = 0, b_norm, False, 0
    for j in range(m):
        w = A(precon(V[j]))
        norm_before = np.linalg.norm(w)
        for i in range(j + 1):
            h = np.dot(V[i], w)
            H[i, j] += h
            w -= h * V[i]
        w_norm = np.linalg.norm(w)
        if w_norm < 0.7 * norm_before:
            reorth += 1
            for i in range(j + 1):
                h = np.dot(V[i], w)
                H[i, j] += h
                w -= h * V[i]
            w_norm = np.linalg.norm(w)
        H[j + 1, j] = w_norm
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
        if residual <= tol_abs:
            converged = True
            break
        if H[j, j] == 0.0 or w_norm <= breakdown_tol:
            converged = residual <= breakdown_tol * 10
            break
        V[j + 1] = w / w_norm
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
    x = precon(V[:k].T @ y)
    return x, GmresStats(k, residual / b_norm, converged), reorth


def _gmres_bytes(x, stats):
    return (x.tobytes(), stats.iterations,
            np.float64(stats.achieved_reduction).tobytes(), stats.converged)


def _check_gmres_matches_reference(n, coupling, budget, rel_tol, seed):
    """Byte-compare GMRES with the reference on a random nonsymmetric
    system (A = I + coupling * noise) with a random diagonal right
    preconditioner; returns the reference's stats and re-orthogonalizations."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + coupling * rng.standard_normal((n, n))
    scale = rng.uniform(0.5, 2.0, n)
    b = rng.standard_normal(n)
    args = (_dense_operator(A), lambda x: scale * x, b, rel_tol, budget)
    x_ref, stats_ref, reorth = _reference_gmres(*args)
    assert _gmres_bytes(*gmres_right_preconditioned(*args)) == \
        _gmres_bytes(x_ref, stats_ref)
    return stats_ref, reorth


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
       st.integers(min_value=1, max_value=45),
       st.sampled_from([1e-12, 1e-6, 1e-2, 0.5]),
       st.integers(min_value=0, max_value=10_000))
def test_gmres_matches_reference_property(n, coupling, budget, rel_tol, seed):
    _check_gmres_matches_reference(n, coupling, budget, rel_tol, seed)


def test_gmres_reference_cases_cover_reorthogonalization_and_budget():
    # Near-identity: each new direction is mostly in the span already built,
    # so every step re-orthogonalizes.
    stats, reorth = _check_gmres_matches_reference(30, 1e-3, 30, 1e-12, 0)
    assert stats.converged and reorth > 0
    # Strongly nonnormal with a small budget: the budget runs out.
    stats, reorth = _check_gmres_matches_reference(40, 2.0, 8, 1e-12, 1)
    assert not stats.converged and stats.iterations == 8


def test_gmres_parameter_validation():
    b = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        gmres_right_preconditioned(_identity, _identity, b, 1.5, 5)
    with pytest.raises(ValueError):
        gmres_right_preconditioned(_identity, _identity, b, 1e-2, 0)


# ---------------------------------------------------------------------------
# Block-tridiagonal kernels
# ---------------------------------------------------------------------------

def test_identity_factorization_is_identity():
    n, b = 6, 2
    lines = singleton_lines(n)
    diag = np.broadcast_to(np.eye(b), (n, b, b)).copy()
    none = np.zeros((0, n, b, b))
    fact = factor_block_tridiag(lines, diag, none, none)
    r = np.arange(float(n * b))
    assert np.allclose(fact.solve_values(r), r)


def test_scalar_poisson_line_matches_dense():
    n = 5
    lines = LineSet(n, [list(range(n))])
    diag = np.full((n, 1, 1), 2.0)
    off = np.full((n - 1, 1, 1, 1), -1.0)
    fact = factor_block_tridiag(lines, diag, off, off)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(n)
    A = dense_from_lines(lines, diag, off, off)
    x = fact.solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-12


def test_block2_line_matches_dense():
    rng = np.random.default_rng(8)
    n, b = 3, 2
    lines = LineSet(n, [[0, 1, 2]])
    diag = rng.standard_normal((n, b, b)) + 4.0 * np.eye(b)
    upper, lower = random_couplings(rng, lines, b, 0.5)
    fact = factor_block_tridiag(lines, diag, upper, lower)
    r = rng.standard_normal(n * b)
    A = dense_from_lines(lines, diag, upper, lower)
    x = fact.solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-10


def test_independent_lines_do_not_couple():
    n = 6
    lines = LineSet(n, [[0, 1, 2], [3, 4, 5]])
    diag = np.full((n, 1, 1), 3.0)
    off = np.full((2, 2, 1, 1), -1.0)
    fact = factor_block_tridiag(lines, diag, off, off)
    r = np.zeros(n)
    r[:3] = [1.0, 2.0, 3.0]
    x = fact.solve_values(r)
    assert np.all(x[3:] == 0.0)
    assert np.any(x[:3] != 0.0)


def test_factor_solve_roundtrip():
    rng = np.random.default_rng(19)
    n, b = 7, 3
    lines = LineSet(n, [list(range(n))])
    diag = rng.standard_normal((n, b, b)) + 5.0 * np.eye(b)
    upper, lower = random_couplings(rng, lines, b, 0.4)
    fact = factor_block_tridiag(lines, diag, upper, lower)
    A = dense_from_lines(lines, diag, upper, lower)
    r = rng.standard_normal(n * b)
    x = fact.solve_values(r)
    assert np.linalg.norm(A @ x - r) <= 1e-10 * np.linalg.norm(r)


def test_singular_pivot_names_line_and_position():
    lines = LineSet(2, [[0, 1]])
    diag = np.zeros((2, 1, 1))
    diag[0, 0, 0] = 1.0  # second pivot is singular
    off = np.zeros((1, 1, 1, 1))
    with pytest.raises(SingularPivotError, match="line 0 at position 1"):
        factor_block_tridiag(lines, diag, off, off)


@pytest.mark.parametrize("zero_cells, message", [
    ([4], "line 1 at position 2"),
    ([1, 3], "line 0 at position 1"),      # same position: the lowest line
    ([4, 5], "line 2 at position 0"),      # the first position wins
])
def test_singular_pivot_on_later_line(zero_cells, message):
    lines = LineSet(6, [[0, 1], [2, 3, 4], [5]])
    diag = np.ones((6, 1, 1))
    diag[zero_cells] = 0.0
    off = np.zeros((2, 3, 1, 1))
    with pytest.raises(SingularPivotError,
                       match=f"singular pivot block on {message}$"):
        factor_block_tridiag(lines, diag, off, off)


def test_overflowing_pivot_inverse_names_line_and_position():
    lines = LineSet(5, [[0, 1], [2, 3, 4]])
    diag = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    diag[3] = 1e-310 * np.eye(2)    # invertible, but 1/1e-310 overflows
    off = np.zeros((2, 2, 2, 2))
    with pytest.raises(SingularPivotError,
                       match="non-finite pivot inverse on line 1 at position 1$"):
        factor_block_tridiag(lines, diag, off, off)


@pytest.mark.parametrize("upper_shape, lower_shape", [
    ((1, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 2), (1, 2, 2, 2)),
    ((3, 2, 2, 2), (3, 2, 2, 2)), ((2, 2, 1, 1), (2, 2, 1, 1)),
    ((2, 1, 2, 2), (2, 1, 2, 2)),
], ids=["upper_missing_pair", "lower_missing_pair", "extra_pair",
        "block_size", "missing_line"])
def test_coupling_shape_must_match_line_pairs(upper_shape, lower_shape):
    # The longest line has three cells, so two pair positions over the two
    # lines; nothing stands in for a missing one.
    lines = LineSet(4, [[0, 1, 2], [3]])
    diag = np.broadcast_to(4.0 * np.eye(2), (4, 2, 2)).copy()
    with pytest.raises(ContractViolationError, match="line pairs"):
        factor_block_tridiag(lines, diag, np.zeros(upper_shape),
                             np.zeros(lower_shape))


def test_layout_mismatch_rejected():
    lines = singleton_lines(3)
    none = np.zeros((0, 3, 1, 1))
    fact = factor_block_tridiag(lines, np.ones((3, 1, 1)), none, none)
    with pytest.raises(ContractViolationError):
        fact.solve_values(np.zeros(6))   # a layout of 3 cells x 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_line_solve_matches_dense_property(length, b, seed):
    rng = np.random.default_rng(seed)
    lines = LineSet(length, [list(range(length))])
    diag = rng.standard_normal((length, b, b)) + (3.0 * b) * np.eye(b)
    upper, lower = random_couplings(rng, lines, b, 0.5)
    fact = factor_block_tridiag(lines, diag, upper, lower)
    A = dense_from_lines(lines, diag, upper, lower)
    r = rng.standard_normal(length * b)
    x = fact.solve_values(r)
    ref = np.linalg.solve(A, r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def _loop_solve(lines, diag, upper, lower, r):
    """Reference block Thomas solve, one line and one cell at a time, with
    the batched kernel's arithmetic on each block."""
    b = diag.shape[1]
    x = np.empty_like(r).reshape(-1, b)
    rc = r.reshape(-1, b)
    for li, cells in enumerate(lines.lines):
        k = len(cells)
        binv = [np.linalg.inv(diag[cells[0]])]
        gamma = []
        for m in range(1, k):
            gamma.append(binv[m - 1] @ upper[m - 1, li])
            binv.append(np.linalg.inv(
                diag[cells[m]] - lower[m - 1, li] @ gamma[m - 1]))
        y = [binv[0] @ rc[cells[0]]]
        for m in range(1, k):
            y.append(binv[m] @ (rc[cells[m]] - lower[m - 1, li] @ y[m - 1]))
        x[cells[k - 1]] = y[k - 1]
        for m in range(k - 2, -1, -1):
            x[cells[m]] = y[m] - gamma[m] @ x[cells[m + 1]]
    return x.reshape(-1)


@st.composite
def mixed_lines(draw):
    """A partition of 1-30 cells into lines of mixed length (singletons
    included), each line's cells in random order."""
    n = draw(st.integers(min_value=1, max_value=30))
    cells = draw(st.permutations(range(n)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1))
                if n > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), n]
    return LineSet(n, [cells[i:j] for i, j in zip(bounds[:-1], bounds[1:])])


@settings(max_examples=60, deadline=None)
@given(mixed_lines(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_mixed_length_lines_match_dense_property(lines, b, seed):
    rng = np.random.default_rng(seed)
    n = lines.n_cells
    diag = rng.standard_normal((n, b, b)) + (3.0 * b) * np.eye(b)
    upper, lower = random_couplings(rng, lines, b, 0.5)
    fact = factor_block_tridiag(lines, diag, upper, lower)
    A = dense_from_lines(lines, diag, upper, lower)
    r = rng.standard_normal(n * b)
    x = fact.solve_values(r)
    ref = np.linalg.solve(A, r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
    assert np.array_equal(fact.solve_values(r), x)
    assert x.tobytes() == _loop_solve(lines, diag, upper, lower, r).tobytes()
