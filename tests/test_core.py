import numpy as np
import pytest

from ptcsmooth.core import (BlockLayout, BlockVector, ContractViolationError,
                            l2_norm)
from ptcsmooth.problems import make_bratu
from ptcsmooth.ptc import PtcConfig
from ptcsmooth.smoother import RkSchedule
from ptcsmooth.timestepping import UnsteadyConfig

from conftest import diffusion_chain, validate_jacobian


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(0, 1)
    with pytest.raises(ValueError):
        BlockLayout(4, 0)
    with pytest.raises(ValueError, match="n_cells must be an integer >= 1"):
        BlockLayout(2.5, 1)
    with pytest.raises(ValueError, match="block_size must be an integer >= 1"):
        BlockLayout(4, 1.0)
    assert BlockLayout(5, 3).n_dofs == 15


@pytest.mark.parametrize("build, name", [
    (lambda b: PtcConfig(max_krylov=b), "max_krylov"),
    (lambda b: PtcConfig(max_newton_steps=b), "max_newton_steps"),
    (lambda b: RkSchedule(n_cycles=b), "n_cycles"),
    (lambda b: UnsteadyConfig(0.1, b, PtcConfig()), "n_steps"),
    (lambda b: BlockLayout(b, 1), "n_cells"),
    (lambda b: BlockLayout(4, b), "block_size"),
], ids=["max_krylov", "max_newton_steps", "n_cycles", "n_steps", "n_cells",
        "block_size"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_count(build, name, flag):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        build(flag)


def test_l2_norm_zero_vector():
    for layout in (BlockLayout(1, 1), BlockLayout(7, 3)):
        assert l2_norm(BlockVector(layout).values) == 0.0


def test_l2_norm_single_entry():
    v = np.array([3.0])
    assert l2_norm(v) == 3.0


def test_l2_norm_345():
    v = np.array([3.0, 4.0])
    assert l2_norm(v) == pytest.approx(5.0, abs=0.0)


def test_l2_norm_rejects_nonfinite():
    v = np.array([1.0, np.nan])
    with pytest.raises(ContractViolationError):
        l2_norm(v)
    v[1] = np.inf
    with pytest.raises(ContractViolationError):
        l2_norm(v)


def test_blockvector_wrong_length():
    with pytest.raises(ContractViolationError):
        BlockVector(BlockLayout(3, 2), [1.0, 2.0])


def test_validate_jacobian_linear_system():
    sys = diffusion_chain(n=10, b=2, seed=3)
    # Central differences are exact for a linear residual. The 1e-10 bound is
    # only meaningful where the FD intermediates scale with eps (homogeneous
    # case); at generic states subtractive cancellation costs ~eps_mach/eps.
    sys.rhs = np.zeros(20)
    assert validate_jacobian(sys, BlockVector(sys.layout),
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
    v1 = rng.standard_normal(32)
    v2 = rng.standard_normal(32)
    a = 1.7
    lhs = p.jacobian_vector(w, a * v1 + v2)
    rhs = a * p.jacobian_vector(w, v1) + p.jacobian_vector(w, v2)
    assert np.allclose(lhs, rhs, rtol=1e-12)
