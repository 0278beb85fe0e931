import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsmooth.core import (BlockLayout, BlockVector, ContractViolationError,
                            cellwise_scale, l2_norm, validate_jacobian)
from ptcsmooth.problems import make_bratu

from conftest import diffusion_chain


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(0, 1)
    with pytest.raises(ValueError):
        BlockLayout(4, 0)
    assert BlockLayout(5, 3).n_dofs == 15


def test_l2_norm_zero_vector():
    for layout in (BlockLayout(1, 1), BlockLayout(7, 3)):
        assert l2_norm(BlockVector.zeros(layout)) == 0.0


def test_l2_norm_single_entry():
    v = BlockVector(BlockLayout(1, 1), [3.0])
    assert l2_norm(v) == 3.0


def test_l2_norm_345():
    v = BlockVector(BlockLayout(2, 1), [3.0, 4.0])
    assert l2_norm(v) == pytest.approx(5.0, abs=0.0)


def test_l2_norm_rejects_nonfinite():
    v = BlockVector(BlockLayout(2, 1), [1.0, np.nan])
    with pytest.raises(ContractViolationError):
        l2_norm(v)
    v.values[1] = np.inf
    with pytest.raises(ContractViolationError):
        l2_norm(v)


def test_blockvector_wrong_length():
    with pytest.raises(ContractViolationError):
        BlockVector(BlockLayout(3, 2), [1.0, 2.0])


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=4, max_size=4),
       st.lists(finite_floats, min_size=4, max_size=4),
       finite_floats)
def test_vector_space_axioms(xs, ys, a):
    layout = BlockLayout(2, 2)
    x = BlockVector(layout, xs)
    y = BlockVector(layout, ys)
    assert np.array_equal((x + y).values, (y + x).values)
    assert np.all((x - x).values == 0.0)
    lhs = (a * (x + y)).values
    rhs = (a * x + a * y).values
    # Round-off bound for distributivity: a few ulps of the term magnitudes.
    bound = 8 * np.finfo(float).eps * (np.abs(a * x.values)
                                       + np.abs(a * y.values)) + 1e-300
    assert np.all(np.abs(lhs - rhs) <= bound)


def test_mass_commutes_with_scaling():
    layout = BlockLayout(3, 2)
    measures = np.array([0.3, 1.7, 2.9])
    v = BlockVector(layout, np.arange(1.0, 7.0))

    def mass(x):
        return cellwise_scale(x, measures)

    # Power-of-two scaling is exact in floating point.
    for a in (2.0, 0.5, -4.0):
        assert np.array_equal(mass(a * v).values, (a * mass(v)).values)
    assert np.allclose(mass(1.3 * v).values, (1.3 * mass(v)).values,
                       rtol=1e-15)


def test_mass_scales_cellwise():
    layout = BlockLayout(2, 3)
    v = BlockVector(layout, np.ones(6))
    assert np.array_equal(cellwise_scale(v, np.array([2.0, 5.0])).values,
                          [2, 2, 2, 5, 5, 5])


def test_cellwise_scale_length_check():
    layout = BlockLayout(2, 2)
    with pytest.raises(ContractViolationError):
        cellwise_scale(BlockVector.zeros(layout), np.ones(3))


def test_validate_jacobian_linear_system():
    sys = diffusion_chain(n=10, b=2, seed=3)
    # Central differences are exact for a linear residual. The 1e-10 bound is
    # only meaningful where the FD intermediates scale with eps (homogeneous
    # case); at generic states subtractive cancellation costs ~eps_mach/eps.
    sys.rhs = np.zeros(20)
    assert validate_jacobian(sys, BlockVector.zeros(sys.layout),
                             n_probes=5) <= 1e-10
    sys2 = diffusion_chain(n=10, b=2, seed=3)
    w = BlockVector(sys2.layout, np.random.default_rng(1).standard_normal(20))
    assert validate_jacobian(sys2, w, n_probes=5) <= 1e-6


def test_validate_jacobian_bratu_at_zero():
    p = make_bratu(32, 1.0)
    assert validate_jacobian(p, p.initial_state()) <= 1e-6


def test_jacobian_vector_linearity():
    p = make_bratu(32, 1.0)
    rng = np.random.default_rng(5)
    w = BlockVector(p.layout, 0.1 * rng.standard_normal(32))
    v1 = BlockVector(p.layout, rng.standard_normal(32))
    v2 = BlockVector(p.layout, rng.standard_normal(32))
    a = 1.7
    lhs = p.jacobian_vector(w, a * v1 + v2)
    rhs = a * p.jacobian_vector(w, v1) + p.jacobian_vector(w, v2)
    assert np.allclose(lhs.values, rhs.values, rtol=1e-12)
