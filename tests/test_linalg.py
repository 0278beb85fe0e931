import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ptcsmooth.core import ContractViolationError, FirstOrderBlocks
from ptcsmooth.linalg import (GmresStats, SingularPivotError,
                              factor_block_tridiag,
                              gmres_right_preconditioned)
from ptcsmooth.lines import LineSet, extract_lines, singleton_lines
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import (dense_from_lines, diffusion_chain, kernel_lines,
                      line_couplings, random_couplings)


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


def test_gmres_overflowing_rhs_norm_raises():
    # Finite entries whose norm overflows: no basis can be normalised.
    with pytest.raises(ContractViolationError, match="norm overflows"):
        gmres_right_preconditioned(_identity, _identity, np.full(3, 1e300),
                                   1e-2, 5)


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
    assert _gmres_bytes(x, stats) == _gmres_bytes(
        *_reference_gmres(operator, _identity, b, 1e-2, 10))


@pytest.mark.parametrize("t", [1.0, 1e10, 1e17])
def test_gmres_converges_on_a_right_hand_side_far_above_the_operator(t):
    # |b| / |A| reaches 1e17: a bound of eps * |b| on each new vector's
    # norm, taken for an Arnoldi breakdown, would end the solve after one
    # vector with reduction 0.48, unconverged.
    A = np.diag(np.arange(1.0, 21.0))
    A[0, 1] = 0.5
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), _identity, t * np.ones(20), 1e-8, 100)
    assert stats.converged and stats.iterations == 20
    assert np.allclose(A @ x, t * np.ones(20), rtol=1e-7)


def _reference_gmres(A, precon, b, rel_tol, max_vectors):
    """The CGS2/Givens loop with every scalar read and written through numpy
    arrays: the reference GMRES must match bit for bit. Its exits are the
    convergence test and the zero rotated column, which keeps the iterate
    of the columns before it."""
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
    k, residual, converged = 0, b_norm, False
    for j in range(m):
        w = A(precon(V[j]))
        for _ in range(2):
            h = V[:j + 1] @ w
            H[:j + 1, j] += h
            w -= h @ V[:j + 1]
        w_norm = np.linalg.norm(w)
        H[j + 1, j] = w_norm
        for i in range(j):
            hij = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = hij
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            break
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
        V[j + 1] = w / w_norm
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.dot(H[i, i + 1:k], y[i + 1:k])) / H[i, i]
    x = precon(V[:k].T @ y)
    return x, GmresStats(j + 1, residual / b_norm, converged)


def _gmres_bytes(x, stats):
    return (x.tobytes(), stats.iterations,
            np.float64(stats.achieved_reduction).tobytes(), stats.converged)


def _random_system(n, coupling, seed):
    """A random nonsymmetric operator (A = I + coupling * noise), a random
    diagonal right preconditioner and a random right-hand side."""
    rng = np.random.default_rng(seed)
    A = np.eye(n) + coupling * rng.standard_normal((n, n))
    scale = rng.uniform(0.5, 2.0, n)
    return _dense_operator(A), lambda x: scale * x, rng.standard_normal(n)


def _check_gmres_matches_reference(n, coupling, budget, rel_tol, seed):
    """Byte-compare GMRES with the reference on ``_random_system``;
    returns the reference's stats."""
    args = (*_random_system(n, coupling, seed), rel_tol, budget)
    x_ref, stats_ref = _reference_gmres(*args)
    assert _gmres_bytes(*gmres_right_preconditioned(*args)) == \
        _gmres_bytes(x_ref, stats_ref)
    return stats_ref


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
       st.integers(min_value=1, max_value=45),
       st.sampled_from([1e-12, 1e-6, 1e-2, 0.5]),
       st.integers(min_value=0, max_value=10_000))
def test_gmres_matches_reference_property(n, coupling, budget, rel_tol, seed):
    _check_gmres_matches_reference(n, coupling, budget, rel_tol, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
       st.integers(min_value=1, max_value=45),
       st.sampled_from([1e-12, 1e-6, 1e-2, 0.5]),
       st.integers(min_value=0, max_value=10_000))
def test_gmres_is_exact_under_power_of_two_scaling_property(
        n, coupling, budget, rel_tol, seed):
    """Only the convergence test scales with |b|, so b times 2^k gives the
    same stats and the iterate times 2^k, bit for bit."""
    A, precon, b = _random_system(n, coupling, seed)
    x, stats = gmres_right_preconditioned(A, precon, b, rel_tol, budget)
    for k in (-200, -100, -40, 40, 100, 200):
        x_k, stats_k = gmres_right_preconditioned(
            A, precon, np.ldexp(b, k), rel_tol, budget)
        assert _gmres_bytes(x_k, stats_k) == \
            _gmres_bytes(np.ldexp(x, k), stats)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=101, max_value=600),
       st.sampled_from([1e-3, 1e-2]),
       st.sampled_from([1e-12, 1e-6, 1e-2]),
       st.integers(min_value=0, max_value=10_000))
def test_gmres_matches_reference_with_most_basis_rows_unset_property(
        n, coupling, rel_tol, seed):
    """With n above the budget of 100 and convergence after a few vectors,
    most rows of the basis are never written. An array of NaN the basis'
    size is freed first, so that the basis, allocated unset, most likely
    reuses its memory: a read of a row not written would show."""
    np.full((101, n), np.nan)
    stats = _check_gmres_matches_reference(n, coupling, 100, rel_tol, seed)
    assert stats.converged and stats.iterations < 50


def test_gmres_reference_cases_cover_cancellation_and_budget():
    # Near-identity: each new direction is mostly in the span already built,
    # so the first pass cancels nearly all of it.
    stats = _check_gmres_matches_reference(30, 1e-3, 30, 1e-12, 0)
    assert stats.converged
    # Strongly nonnormal with a small budget: the budget runs out.
    stats = _check_gmres_matches_reference(40, 2.0, 8, 1e-12, 1)
    assert not stats.converged and stats.iterations == 8


def test_gmres_basis_stays_orthonormal_on_ill_conditioned_operator():
    # Eigenvalues over ten decades: one Gram-Schmidt pass loses
    # orthogonality to about 4e-9 here, the second pass brings it back to
    # round-off. With the identity preconditioner the operator sees V[j].
    rng = np.random.default_rng(0)
    n = 60
    A = np.diag(np.logspace(0, 10, n)) + 1e-2 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    basis = []

    def recording_operator(x):
        basis.append(x.copy())
        return A @ x

    _, stats = gmres_right_preconditioned(recording_operator, _identity, b,
                                          1e-14, 40)
    assert stats.iterations == 40
    V = np.array(basis)
    assert np.linalg.norm(V @ V.T - np.eye(40)) <= 1e-12


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
    none = np.zeros((0, b, b))
    fact = factor_block_tridiag(lines, FirstOrderBlocks(diag, none, none))
    r = np.arange(float(n * b))
    assert np.allclose(fact.solve_values(r), r)


def test_scalar_poisson_line_matches_dense():
    n = 5
    lines = kernel_lines(n, [list(range(n))])
    off = np.full((n - 1, 1, 1), -1.0)
    blocks = FirstOrderBlocks(np.full((n, 1, 1), 2.0), off, off)
    fact = factor_block_tridiag(lines, blocks)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(n)
    A = dense_from_lines(lines, blocks)
    x = fact.solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-12


def test_block2_line_matches_dense():
    rng = np.random.default_rng(8)
    n, b = 3, 2
    lines = kernel_lines(n, [[0, 1, 2]])
    diag = rng.standard_normal((n, b, b)) + 4.0 * np.eye(b)
    blocks = FirstOrderBlocks(diag, *random_couplings(rng, lines, b, 0.5))
    fact = factor_block_tridiag(lines, blocks)
    r = rng.standard_normal(n * b)
    A = dense_from_lines(lines, blocks)
    x = fact.solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-10


@pytest.mark.parametrize("build", [
    lambda: make_aniso_convdiff(16, 24, 1000.0),
    lambda: make_quasi1d_euler(128),
    lambda: make_bratu(64, 1.0),
], ids=["convdiff16x24", "nozzle128", "bratu64"])
def test_line_factor_is_exact_under_power_of_two_scaling(build):
    # The factor tests no pivot against a fixed scale: every block times
    # 2^k solves to the solution times 2^-k, bit for bit.
    p = build()
    blocks = p.first_order_blocks(p.initial_state())
    lines = extract_lines(blocks, p.edges)
    r = np.random.default_rng(0).standard_normal(p.layout.n_dofs)
    x = factor_block_tridiag(lines, blocks).solve_values(r)
    for k in (-300, -60, 60, 300):
        scaled = FirstOrderBlocks(*(np.ldexp(a, k) for a in (
            blocks.diag, blocks.off_ij, blocks.off_ji)))
        x_k = factor_block_tridiag(lines, scaled).solve_values(r)
        assert x_k.tobytes() == np.ldexp(x, -k).tobytes()


def test_independent_lines_do_not_couple():
    n = 6
    lines = kernel_lines(n, [[0, 1, 2], [3, 4, 5]])
    off = np.full((4, 1, 1), -1.0)
    fact = factor_block_tridiag(
        lines, FirstOrderBlocks(np.full((n, 1, 1), 3.0), off, off))
    r = np.zeros(n)
    r[:3] = [1.0, 2.0, 3.0]
    x = fact.solve_values(r)
    assert np.all(x[3:] == 0.0)
    assert np.any(x[:3] != 0.0)


def test_factor_solve_roundtrip():
    rng = np.random.default_rng(19)
    n, b = 7, 3
    lines = kernel_lines(n, [list(range(n))])
    diag = rng.standard_normal((n, b, b)) + 5.0 * np.eye(b)
    blocks = FirstOrderBlocks(diag, *random_couplings(rng, lines, b, 0.4))
    fact = factor_block_tridiag(lines, blocks)
    A = dense_from_lines(lines, blocks)
    r = rng.standard_normal(n * b)
    x = fact.solve_values(r)
    assert np.linalg.norm(A @ x - r) <= 1e-10 * np.linalg.norm(r)


def test_singular_pivot_names_line_and_position():
    lines = kernel_lines(2, [[0, 1]])
    diag = np.zeros((2, 1, 1))
    diag[0, 0, 0] = 1.0  # second pivot is singular
    off = np.zeros((1, 1, 1))
    with pytest.raises(SingularPivotError, match="line 0 at position 1"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off, off))


def test_singular_reduced_pivot_names_its_original_position():
    # Every pivot of the line is 1, but the level-1 pivot of position 1 is
    # 1 - 0.5 * 1 - 1 * 0.5 = 0 exactly.
    lines = kernel_lines(3, [[0, 1, 2]])
    blocks = FirstOrderBlocks(np.ones((3, 1, 1)), np.ones((2, 1, 1)),
                              np.full((2, 1, 1), 0.5))
    with pytest.raises(SingularPivotError,
                       match="singular pivot block on line 0 at position 1$"):
        factor_block_tridiag(lines, blocks)


@pytest.mark.parametrize("zero_cells, message", [
    ([4], "line 1 at position 2"),
    ([1, 3], "line 0 at position 1"),      # same position: the lowest line
    ([4, 5], "line 2 at position 0"),      # the first position wins
])
def test_singular_pivot_on_later_line(zero_cells, message):
    # [2, 3, 4] fills column 0; [0, 1] and [5] share column 1, [5] at row 2.
    lines = kernel_lines(6, [[0, 1], [2, 3, 4], [5]])
    assert lines.index.tolist() == [[2, 0], [3, 1], [4, 5]]
    diag = np.ones((6, 1, 1))
    diag[zero_cells] = 0.0
    off = np.zeros((3, 1, 1))
    with pytest.raises(SingularPivotError,
                       match=f"singular pivot block on {message}$"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off, off))


def test_overflowing_pivot_inverse_names_line_and_position():
    lines = kernel_lines(5, [[0, 1], [2, 3, 4]])
    diag = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    diag[3] = 1e-310 * np.eye(2)    # invertible, but 1/1e-310 overflows
    off = np.zeros((3, 2, 2))
    with pytest.raises(SingularPivotError,
                       match="non-finite pivot inverse on line 1 at position 1$"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off, off))


def test_overflowing_scalar_pivot_reciprocal_names_line_and_position():
    # 1x1 pivots are inverted as reciprocals; an overflow there is named as
    # LAPACK's would be, without a floating-point warning.
    lines = kernel_lines(5, [[0, 1], [2, 3, 4]])
    diag = np.ones((5, 1, 1))
    diag[3] = 1e-310
    off = np.zeros((3, 1, 1))
    with pytest.raises(SingularPivotError,
                       match="non-finite pivot inverse on line 1 at position 1$"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off, off))


@pytest.mark.parametrize("n, line_cells", [
    (3, [[0, 1, 2]]),
    # [0, 1, 2] sits alone in column 1 of an 8-row layout: the overflow
    # also reaches the slot past its end, as 0 * inf = NaN, one level after
    # the line's own pivot fails.
    (8, [[0, 1, 2], [3, 4, 5, 6, 7]]),
], ids=["lone_line", "slot_past_line_end"])
def test_infinite_reduced_pivot_names_the_lines_own_pivot(n, line_cells):
    # Cell 2's pivot inverts to 1e200, so the level-1 pivot of position 1
    # is 1 - 1 * 1e200 * 1e200 = -inf, whose reciprocal -0 is finite: the
    # pivot itself must be refused, or the solve returns NaN.
    lines = kernel_lines(n, line_cells)
    diag = np.ones((n, 1, 1))
    diag[2] = 1e-200
    off_ij, off_ji = np.zeros((2, len(lines.edges), 1, 1))
    off_ij[1], off_ji[1] = 1.0, 1e200     # dR_1/dw_2, dR_2/dw_1
    with pytest.raises(SingularPivotError,
                       match="non-finite pivot block on line 0 at position 1$"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off_ij, off_ji))


def test_overflowing_reduction_is_refused_without_a_warning():
    # Every pivot is 1, but the level-1 pivot of position 1 is
    # 1 - 1e200 * 1e200 - 1e200 * 1e200 = -inf: refused by name, and the
    # overflow on the way leaks no warning.
    lines = kernel_lines(3, [[0, 1, 2]])
    big = np.full((2, 1, 1), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularPivotError,
                           match="^non-finite pivot block on line 0 at "
                                 "position 1$"):
            factor_block_tridiag(lines, FirstOrderBlocks(
                np.ones((3, 1, 1)), big, big.copy()))


# Entries whose products and reciprocals underflow, overflow and cancel.
PIVOT_ENTRIES = [0.0] + [sign * m for sign in (1.0, -1.0)
                         for m in (0.5, 1.0, 1e150, 1e-150, 1e200, 1e-200,
                                   1e300)]


@st.composite
def pivot_naming_cases(draw):
    """1-5 lines of 1-16 cells, cells in random order across lines, with
    1x1 or 2x2 blocks whose entries are drawn from ``PIVOT_ENTRIES``."""
    lengths = draw(st.lists(st.integers(1, 16), min_size=1, max_size=5))
    n = sum(lengths)
    cells = draw(st.permutations(range(n)))
    bounds = np.cumsum([0] + lengths).tolist()
    lines = kernel_lines(n, [cells[i:j]
                             for i, j in zip(bounds[:-1], bounds[1:])])
    b = draw(st.sampled_from([1, 2]))
    entries = st.sampled_from(PIVOT_ENTRIES)
    diag, off_ij, off_ji = (
        draw(arrays(float, (count, b, b), elements=entries))
        for count in (n, len(lines.edges), len(lines.edges)))
    return lines, FirstOrderBlocks(diag, off_ij, off_ji)


@settings(max_examples=300, deadline=None)
@given(pivot_naming_cases())
def test_failing_pivot_is_named_on_a_line_property(case):
    """Whatever fails, the message names an existing line and a position
    on it: a slot no line holds is never the one named."""
    lines, blocks = case
    try:
        with np.errstate(all="ignore"):
            factor_block_tridiag(lines, blocks)
    except SingularPivotError as exc:
        found = re.fullmatch(r"(singular pivot block|non-finite pivot "
                             r"(inverse|block)) on line (\d+) at position "
                             r"(\d+)", str(exc))
        assert found, str(exc)
        li, pos = int(found[3]), int(found[4])
        assert li < len(lines.lines) and pos < len(lines.lines[li])


@pytest.mark.parametrize("ij_shape, ji_shape", [
    ((2, 2, 2), (3, 2, 2)), ((3, 2, 2), (2, 2, 2)),
    ((4, 2, 2), (4, 2, 2)), ((3, 1, 1), (3, 1, 1)),
    ((2, 2, 2), (2, 2, 2)),
], ids=["upper_missing_pair", "lower_missing_pair", "extra_pair",
        "block_size", "missing_line"])
def test_coupling_shape_must_match_line_pairs(ij_shape, ji_shape):
    # The stencil is the three in-line pairs, one block each; nothing
    # stands in for a missing one, and the second line's pair is the last.
    lines = kernel_lines(5, [[0, 1, 2], [3, 4]])
    diag = np.broadcast_to(4.0 * np.eye(2), (5, 2, 2)).copy()
    with pytest.raises(ContractViolationError,
                       match=r"not \(3, 2, 2\): one block per stencil edge"):
        factor_block_tridiag(lines, FirstOrderBlocks(
            diag, np.zeros(ij_shape), np.zeros(ji_shape)))


def test_line_walked_against_its_edges_matches_dense():
    # Every pair (p, q) of the line has p > q, so its edge is (q, p): the
    # upper block dR_p/dw_q is that edge's off_ji, the lower its off_ij.
    rng = np.random.default_rng(12)
    n, b = 6, 2
    lines = kernel_lines(n, [[5, 4, 3], [2, 1, 0]])
    assert lines.edges.tolist() == [[4, 5], [3, 4], [1, 2], [0, 1]]
    blocks = FirstOrderBlocks(rng.standard_normal((n, b, b)) + 4.0 * np.eye(b),
                              rng.standard_normal((4, b, b)),
                              rng.standard_normal((4, b, b)))
    A = dense_from_lines(lines, blocks)
    assert np.array_equal(A[10:12, 8:10], blocks.off_ji[0])   # dR_5/dw_4
    assert np.array_equal(A[8:10, 10:12], blocks.off_ij[0])   # dR_4/dw_5
    r = rng.standard_normal(n * b)
    x = factor_block_tridiag(lines, blocks).solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-12
    swapped = FirstOrderBlocks(blocks.diag, blocks.off_ji, blocks.off_ij)
    assert np.linalg.norm(x - np.linalg.solve(
        dense_from_lines(lines, swapped), r)) > 1e-3


def test_layout_mismatch_rejected():
    lines = singleton_lines(3)
    none = np.zeros((0, 1, 1))
    fact = factor_block_tridiag(
        lines, FirstOrderBlocks(np.ones((3, 1, 1)), none, none))
    with pytest.raises(ContractViolationError):
        fact.solve_values(np.zeros(6))   # a layout of 3 cells x 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=33),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_line_solve_matches_dense_property(length, b, seed):
    rng = np.random.default_rng(seed)
    lines = kernel_lines(length, [list(range(length))])
    diag = rng.standard_normal((length, b, b)) + (3.0 * b) * np.eye(b)
    blocks = FirstOrderBlocks(diag, *random_couplings(rng, lines, b, 0.5))
    fact = factor_block_tridiag(lines, blocks)
    A = dense_from_lines(lines, blocks)
    r = rng.standard_normal(length * b)
    x = fact.solve_values(r)
    ref = np.linalg.solve(A, r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def _loop_solve(lines, blocks, r):
    """Reference block Thomas solve, one line and one cell at a time. On
    singleton lines its arithmetic is the batched kernel's."""
    diag = blocks.diag
    b = diag.shape[1]
    x = np.empty_like(r).reshape(-1, b)
    rc = r.reshape(-1, b)
    for cells, pairs in zip(lines.lines, line_couplings(lines, blocks)):
        k = len(cells)
        binv = [np.linalg.inv(diag[cells[0]])]
        gamma = []
        for m, (_, _, upper, lower) in enumerate(pairs, start=1):
            gamma.append(binv[m - 1] @ upper)
            binv.append(np.linalg.inv(diag[cells[m]] - lower @ gamma[m - 1]))
        y = [binv[0] @ rc[cells[0]]]
        for m, (_, _, _, lower) in enumerate(pairs, start=1):
            y.append(binv[m] @ (rc[cells[m]] - lower @ y[m - 1]))
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
    return kernel_lines(n, [cells[i:j]
                            for i, j in zip(bounds[:-1], bounds[1:])])


@settings(max_examples=60, deadline=None)
@given(mixed_lines(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_mixed_length_lines_match_dense_property(lines, b, seed):
    rng = np.random.default_rng(seed)
    n = lines.n_cells
    # The layout cyclic reduction runs on: 2^L - 1 rows; each line's cells
    # in order down one column from a multiple of 2^bit_length(len), the
    # dummy index n in every other slot; the pair mask marks exactly the
    # in-line pairs.
    k_max = max(map(len, lines.lines))
    assert len(lines.index) == 2 ** k_max.bit_length() - 1
    expected = np.full_like(lines.index, n)
    mask = np.zeros(lines.pair_mask.shape, dtype=bool)
    for line in lines.lines:
        # The cells of a line sit at rows offset..offset+k of one column.
        (offset,), (col,) = np.nonzero(lines.index == line[0])
        assert lines.index[offset:offset + len(line), col].tolist() == line
        assert offset % 2 ** len(line).bit_length() == 0
        assert np.all(expected[offset:offset + len(line), col] == n)
        expected[offset:offset + len(line), col] = line
        mask[offset:offset + len(line) - 1, col] = True
    assert np.array_equal(lines.index, expected)
    assert np.array_equal(lines.pair_mask, mask)
    # A chain problem's blocks, along lines of the same lengths laid on the
    # chain, factor in a layout of the same shape.
    starts = np.cumsum([0] + [len(line) for line in lines.lines]).tolist()
    system = diffusion_chain(n, b, seed)
    chain = LineSet(n, [list(range(lo, hi))
                        for lo, hi in zip(starts[:-1], starts[1:])],
                    system.edges)
    assert chain.index.shape == lines.index.shape
    chain_blocks = system.first_order_blocks(system.initial_state())
    r = rng.standard_normal(n * b)
    x = factor_block_tridiag(chain, chain_blocks).solve_values(r)
    ref = np.linalg.solve(dense_from_lines(chain, chain_blocks), r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
    diag = rng.standard_normal((n, b, b)) + (3.0 * b) * np.eye(b)
    blocks = FirstOrderBlocks(diag, *random_couplings(rng, lines, b, 0.5))
    fact = factor_block_tridiag(lines, blocks)
    A = dense_from_lines(lines, blocks)
    r = rng.standard_normal(n * b)
    x = fact.solve_values(r)
    ref = np.linalg.solve(A, r)
    assert np.linalg.norm(x - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
    assert np.array_equal(fact.solve_values(r), x)
    # Singleton lines take Thomas's arithmetic exactly; cyclic reduction
    # rounds differently on longer lines, which the dense check covers.
    if len(lines.index) == 1:
        assert x.tobytes() == _loop_solve(lines, blocks, r).tobytes()


@settings(max_examples=60, deadline=None)
@given(mixed_lines(), st.integers(min_value=0, max_value=10_000))
def test_scalar_lines_match_their_2x2_embedding_property(lines, seed):
    """1x1 blocks multiply elementwise and 2x2 blocks through ``@``. With
    every scalar block as the top-left entry of a 2x2 block, whose other
    entries are 0 (and 1 on the pivot diagonal), the two paths do the same
    operations in the same order, so every level array, the root and the
    top of the scalar factorization equal the embedded one's first
    components bit for bit. The solves agree to round-off: ``top @ y``
    sums R terms on one side and 2R on the other."""
    rng = np.random.default_rng(seed)
    n = lines.n_cells
    diag = rng.standard_normal((n, 1, 1)) + 3.0
    off_ij, off_ji = random_couplings(rng, lines, 1, 0.5)
    r = rng.standard_normal(n)
    scalar = factor_block_tridiag(lines,
                                  FirstOrderBlocks(diag, off_ij, off_ji))

    def embed(blocks, unit):
        out = np.zeros(blocks.shape[:-2] + (2, 2))
        out[..., 0, 0] = blocks[..., 0, 0]
        out[..., 1, 1] = unit
        return out

    block = factor_block_tridiag(lines, FirstOrderBlocks(
        embed(diag, 1.0), embed(off_ij, 0.0), embed(off_ji, 0.0)))
    for level, embedded in zip(scalar.levels, block.levels):
        for a, e in zip(level, embedded):
            assert np.array_equal(a, e[..., :1, :1])
    assert np.array_equal(scalar.root, block.root[..., :1, :1])
    assert np.array_equal(scalar.top, block.top[:, 0::2, 0::2])
    r2 = np.column_stack([r, rng.standard_normal(n)]).reshape(-1)
    x = scalar.solve_values(r)
    assert (np.linalg.norm(x - block.solve_values(r2)[0::2])
            <= 1e-13 * np.linalg.norm(x))


def test_stencil_edges_between_lines_sharing_a_column_are_not_gathered():
    # [4, 5, 6, 7] and [0, 1, 2] share column 0 (rows 0-3 and 4-6), so
    # cells 7 and 0 sit in adjacent rows; [3] and [8] share column 1 (rows
    # 0 and 2). Stencil edges (0, 7) and (3, 8) join cells of different
    # lines: their blocks, however large, are not gathered.
    inner = kernel_lines(9, [[0, 1, 2], [3], [4, 5, 6, 7], [8]])
    assert inner.index.tolist() == [[4, 3], [5, 9], [6, 8], [7, 9],
                                    [0, 9], [1, 9], [2, 9]]
    edges = np.vstack((inner.edges, [[0, 7], [3, 8]]))
    lines = LineSet(9, inner.lines, edges)
    diag = np.full((9, 1, 1), 4.0)
    off_ij, off_ji = random_couplings(np.random.default_rng(1), inner, 1, 0.5)
    r = np.random.default_rng(2).standard_normal(9)
    x = factor_block_tridiag(
        inner, FirstOrderBlocks(diag, off_ij, off_ji)).solve_values(r)
    big = np.full((2, 1, 1), 1e300)
    wide = FirstOrderBlocks(diag, np.concatenate((off_ij, big)),
                            np.concatenate((off_ji, big)))
    assert factor_block_tridiag(lines, wide).solve_values(r).tobytes() \
        == x.tobytes()


def test_singular_pivot_at_nonzero_offset_names_its_own_position():
    # The 8-cell line fills rows 0-7 of the 15-row column; [8, 9, 10] sits
    # at rows 8-10. Its pivots are all 1, but the level-1 pivot of its
    # position 1 (row 9) is 1 - 0.5 * 1 - 1 * 0.5 = 0 exactly.
    lines = kernel_lines(11, [list(range(8)), [8, 9, 10]])
    assert lines.index.T.tolist() == [list(range(11)) + [11] * 4]
    diag = np.full((11, 1, 1), 4.0)
    diag[8:] = 1.0
    off_ij, off_ji = random_couplings(np.random.default_rng(2), lines, 1, 0.5)
    off_ij[7:], off_ji[7:] = 1.0, 0.5    # the pairs (8, 9) and (9, 10)
    with pytest.raises(SingularPivotError,
                       match="singular pivot block on line 1 at position 1$"):
        factor_block_tridiag(lines, FirstOrderBlocks(diag, off_ij, off_ji))


def _pivot_inverses(fact):
    """Each row's inverted pivot, (rows, n_columns, b, b): level l inverts
    the rows from 2^l - 1 every 2^(l+1), the root is row 2^(L-1) - 1."""
    size = len(fact.lines.index)
    out = np.empty((size,) + fact.root.shape)
    for level, (dinv, *_) in enumerate(fact.levels):
        out[2 ** level - 1::2 ** (level + 1)] = dinv
    out[size // 2] = fact.root
    return out


@st.composite
def packed_lines(draw):
    """Lines of 1, 2^j - 1, 2^j and 2^j + 1 cells (j = 1..4), cells in
    random order across lines."""
    lengths = draw(st.lists(
        st.builds(lambda j, d: max(1, 2 ** j + d),
                  st.integers(1, 4), st.sampled_from([-2 ** 4, -1, 0, 1])),
        min_size=1, max_size=8))
    n = sum(lengths)
    cells = draw(st.permutations(range(n)))
    bounds = np.cumsum([0] + lengths).tolist()
    return kernel_lines(n, [cells[i:j]
                            for i, j in zip(bounds[:-1], bounds[1:])])


@settings(max_examples=80, deadline=None)
@given(packed_lines(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_packed_lines_match_each_line_alone_bitwise_property(lines, b, seed):
    """Sharing a column changes no byte of a line's pivots: factoring each
    line in a layout of its own gives the same bytes. Nothing the other
    lines hold changes a byte of its solution: redrawing their blocks and
    right-hand side leaves it as it was. The solution matches the line's
    own to the dense tolerance; ``top`` sums over its column's rows, whose
    count follows the column's height, so the two round differently."""
    rng = np.random.default_rng(seed)
    n = lines.n_cells

    def draw():
        diag = rng.standard_normal((n, b, b)) + (3.0 * b) * np.eye(b)
        return (FirstOrderBlocks(diag, *random_couplings(rng, lines, b, 0.5)),
                rng.standard_normal((n, b)))

    blocks, r = draw()
    fact = factor_block_tridiag(lines, blocks)
    x = fact.solve_values(r.reshape(-1)).reshape(n, b)
    pivots = _pivot_inverses(fact)
    for line, pairs in zip(lines.lines, line_couplings(lines, blocks)):
        k = len(line)
        (offset,), (col,) = np.nonzero(lines.index == line[0])
        assert lines.index[offset:offset + k, col].tolist() == line
        alone = kernel_lines(k, [list(range(k))])
        # The line's cells renumbered 0..k-1 in line order: each pair's
        # upper block is its edge's off_ij.
        own_blocks = np.zeros((2, k - 1, b, b))
        for m, (_, _, upper, lower) in enumerate(pairs):
            own_blocks[:, m] = upper, lower
        own = factor_block_tridiag(alone,
                                   FirstOrderBlocks(blocks.diag[line],
                                                    *own_blocks))
        assert (pivots[offset:offset + k, col].tobytes()
                == _pivot_inverses(own)[:k, 0].tobytes())
        ref = own.solve_values(r[line].reshape(-1))
        assert (np.linalg.norm(x[line].reshape(-1) - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref)))
        others, r_others = draw()
        mine = np.isin(lines.edges[:, 0], line)
        others.diag[line] = blocks.diag[line]
        others.off_ij[mine] = blocks.off_ij[mine]
        others.off_ji[mine] = blocks.off_ji[mine]
        r_others[line] = r[line]
        x_others = factor_block_tridiag(lines, others).solve_values(
            r_others.reshape(-1)).reshape(n, b)
        assert x_others[line].tobytes() == x[line].tobytes()


@settings(max_examples=80, deadline=None)
@given(packed_lines(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_gather_plans_property(lines, b, seed):
    """The solve's gather puts each cell's unknowns in its slot and the
    appended zero block in every slot no line holds, and its scatter takes
    them back unchanged. The split gather holds the same rows, the even
    ones first, and its scatter takes them back unchanged too. The
    coupling plan picks ``slots`` where ``pair_mask`` is set and the
    appended zero block elsewhere."""
    rng = np.random.default_rng(seed)
    n = lines.n_cells
    r = np.concatenate((rng.standard_normal(n * b), np.zeros(b)))
    gather, scatter = lines.solve_plans(b)
    packed = r.take(gather)
    assert packed.shape == lines.index.shape + (b, 1)
    held = lines.index < n
    assert packed[held][..., 0].tobytes() \
        == r.reshape(n + 1, b)[lines.index[held]].tobytes()
    assert (gather[~held][..., 0] == n * b + np.arange(b)).all()
    assert packed.take(scatter).tobytes() == r[:-b].tobytes()

    # The split plans: the even rows, then the odd rows, and back.
    split_gather, split_scatter = lines.solve_plans(b, split=True)
    half = (len(lines.index) + 1) // 2
    assert split_gather[:half].tobytes() == gather[0::2].tobytes()
    assert split_gather[half:].tobytes() == gather[1::2].tobytes()
    assert r.take(split_gather).take(split_scatter).tobytes() \
        == r[:-b].tobytes()

    off_ij, off_ji = rng.standard_normal((2, len(lines.edges), b, b))
    stacked = np.concatenate((off_ij, off_ji))
    couplings = np.concatenate((stacked, np.zeros((1, b, b)))).take(
        lines.coupling_plan, axis=0)
    assert couplings.shape == (2,) + lines.pair_mask.shape + (b, b)
    assert couplings[:, lines.pair_mask].tobytes() \
        == stacked[lines.slots].tobytes()
    assert not couplings[:, ~lines.pair_mask].any()
