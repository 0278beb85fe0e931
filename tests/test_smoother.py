import warnings

import numpy as np
import pytest

from ptcsmooth.core import BlockVector, InadmissibleStateError, l2_norm
from ptcsmooth.lines import extract_lines, singleton_lines
from ptcsmooth.ptc import PtcConfig, mass_over_dtau, newton_step
from ptcsmooth.smoother import RkSchedule, build_smoother, rk_smooth
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import LinearChainSystem, diffusion_chain, full_chain_lines


def test_schedule_validation():
    with pytest.raises(ValueError, match="at least one stage"):
        RkSchedule(())
    with pytest.raises(ValueError):
        RkSchedule((0.15, 0.4, 0.9))     # last stage must be 1
    with pytest.raises(ValueError):
        RkSchedule((0.0, 1.0))           # coefficients in (0, 1]
    with pytest.raises(ValueError):
        RkSchedule((float("nan"), 1.0))  # NaN is not in (0, 1]
    with pytest.raises(ValueError):
        RkSchedule((1.0,), n_cycles=-1)
    with pytest.raises(ValueError):
        RkSchedule((1.0,), n_cycles=2.5)
    assert RkSchedule((1.0,), n_cycles=0).n_cycles == 0


def test_default_schedule_matches_protocol():
    s = RkSchedule()
    assert s.stage_coefficients == (0.15, 0.4, 1.0)
    assert s.n_cycles == 5


def test_singleton_lines_give_block_diagonal_preconditioner():
    sys = diffusion_chain(n=6, b=1)
    lines = singleton_lines(6)
    precon = build_smoother(lines, sys.first_order_blocks(sys.initial_state()))
    r = np.zeros(6)
    r[2] = 1.0
    x = precon.solve_values(r)
    assert np.count_nonzero(x) == 1  # no coupling without line edges


def test_full_chain_line_gives_exact_newton_step(scalar_chain):
    sys = scalar_chain
    lines = full_chain_lines(sys.layout.n_cells)
    precon = build_smoother(lines, sys.first_order_blocks(sys.initial_state()))
    w0 = sys.initial_state()
    r = sys.residual(w0)
    step = precon.solve_values(r)
    ref = np.linalg.solve(sys.A, r)
    assert np.allclose(step, ref, rtol=1e-12)


def test_rebuild_changes_values_not_structure():
    p = make_bratu(16, 1.0)
    lines = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
    precon1 = build_smoother(lines, p.first_order_blocks(p.initial_state()))
    w2 = BlockVector(p.layout, 0.1 * np.ones(16))
    precon2 = build_smoother(lines, p.first_order_blocks(w2))
    cells1 = precon1.lines.lines
    cells2 = precon2.lines.lines
    assert cells1 == cells2
    r = np.ones(16)
    assert not np.allclose(precon1.solve_values(r), precon2.solve_values(r))


def test_fixed_point_returns_zero_update(scalar_chain):
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    precon = build_smoother(lines, sys.first_order_blocks(w_star))
    out = rk_smooth(sys, precon, RkSchedule(), w_star, sys.residual(w_star))
    assert l2_norm(out.delta_w) <= 1e-12 * max(1.0, l2_norm(w_star.values))
    assert np.allclose(w_star.values + out.delta_w, w_star.values)


def test_linear_contraction_single_cycle(scalar_chain):
    # With exact P on a linear residual, one (0.15, 0.4, 1.0) cycle contracts
    # the error by exactly alpha2 * (1 - alpha1) = 0.34.
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    sched = RkSchedule((0.15, 0.4, 1.0), n_cycles=1)
    precon = build_smoother(lines, sys.first_order_blocks(w_star))
    rng = np.random.default_rng(2)
    e0 = rng.standard_normal(sys.layout.n_dofs)
    w0 = BlockVector(sys.layout, w_star.values + e0)
    out = rk_smooth(sys, precon, sched, w0, sys.residual(w0))
    e_end = w0.values + out.delta_w - w_star.values
    assert np.allclose(e_end, 0.34 * e0, rtol=1e-12, atol=1e-13)


def test_linear_contraction_two_cycles(scalar_chain):
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    sched = RkSchedule((0.15, 0.4, 1.0), n_cycles=2)
    precon = build_smoother(lines, sys.first_order_blocks(w_star))
    rng = np.random.default_rng(4)
    e0 = rng.standard_normal(sys.layout.n_dofs)
    w0 = BlockVector(sys.layout, w_star.values + e0)
    out = rk_smooth(sys, precon, sched, w0, sys.residual(w0))
    e_end = w0.values + out.delta_w - w_star.values
    assert np.allclose(e_end, 0.34 ** 2 * e0, rtol=1e-11, atol=1e-13)


def test_update_vanishes_at_converged_state(scalar_chain):
    sys = scalar_chain
    w_star = sys.solution()
    r_init = l2_norm(sys.residual(sys.initial_state()))
    # Perturb so the residual sits at ~1e-13 of the impulsive level.
    rng = np.random.default_rng(9)
    d = rng.standard_normal(sys.layout.n_dofs)
    d *= 1e-13 * r_init / np.linalg.norm(sys.A @ d)
    w0 = BlockVector(sys.layout, w_star.values + d)
    assert l2_norm(sys.residual(w0)) <= 1e-12 * r_init
    lines = full_chain_lines(sys.layout.n_cells)
    precon = build_smoother(lines, sys.first_order_blocks(w0))
    out = rk_smooth(sys, precon, RkSchedule(), w0, sys.residual(w0))
    assert l2_norm(out.delta_w) <= 1e-9 * l2_norm(w0.values)


# The smoothing source (M/dtau) dw_smooth, as newton_step forms it: the
# per-unknown M/dtau times the update.

def test_smoothing_source_zero_update():
    measures = np.array([1.0, 2.0, 3.0])
    s = (measures / np.ones(3)) * np.zeros(3)
    assert np.all(s == 0.0)


def test_smoothing_source_single_cell_arithmetic():
    s = (np.array([2.0]) / np.array([0.5])) * np.array([3.0])
    assert s[0] == pytest.approx(12.0)


def test_smoothing_source_vanishes_for_large_dtau():
    measures = np.array([1.0, 2.0, 0.5, 1.5])
    delta = np.arange(1.0, 9.0)
    s = np.repeat(measures / np.full(4, 1e12), 2) * delta
    m_delta = np.repeat(measures, 2) * delta
    # The bound holds with equality: s = M delta / dtau exactly.
    assert l2_norm(s) <= 1e-12 * l2_norm(m_delta) * (1 + 1e-12)
    assert l2_norm(s) == pytest.approx(1e-12 * l2_norm(m_delta))


def test_smoothing_source_scaling_laws():
    measures = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(1)
    delta = rng.standard_normal(6)
    dtau = np.array([0.25, 1.0, 4.0])
    m = np.repeat(measures / dtau, 2)
    s = m * delta
    # Linear in the update (powers of two are exact in floating point).
    s2 = m * (2.0 * delta)
    assert np.array_equal(s2, 2.0 * s)
    # Homogeneous of degree -1 in dtau.
    s_half = np.repeat(measures / (2.0 * dtau), 2) * delta
    assert np.array_equal(s_half, 0.5 * s)


def test_smoothing_source_rejects_nonpositive_dtau():
    # M/dtau comes from mass_over_dtau, which refuses a zero local step.
    sys = diffusion_chain(n=2)
    sys.explicit_dt = lambda w: np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        mass_over_dtau(sys, sys.initial_state(), 1.0)


@pytest.mark.parametrize("problem", [
    make_bratu(32, 1.0),
    make_aniso_convdiff(8, 8, stretching_ratio=100.0),
    make_quasi1d_euler(32),
], ids=["bratu", "convdiff", "euler"])
def test_smoother_reduces_residual_from_impulsive_start(problem):
    w0 = problem.initial_state()
    lines = extract_lines(problem.first_order_blocks(w0), problem.edges)
    precon = build_smoother(lines, problem.first_order_blocks(w0))
    out = rk_smooth(problem, precon, RkSchedule(), w0,
                    problem.residual(w0))
    w_end = BlockVector(w0.layout, w0.values + out.delta_w)
    assert l2_norm(problem.residual(w_end)) < l2_norm(problem.residual(w0))


def _admit_only(sys, admissible):
    """Shadow ``sys.residual`` so that it raises at every state whose values
    fail ``admissible``."""
    residual = sys.residual

    def guarded(w):
        if not admissible(w.values):
            raise InadmissibleStateError("outside the test's admissible set")
        return residual(w)

    sys.residual = guarded


def _chain_smoother(sys):
    lines = full_chain_lines(sys.layout.n_cells)
    return build_smoother(lines, sys.first_order_blocks(sys.initial_state()))


def test_degraded_cycle_keeps_last_admissible_output():
    sys = diffusion_chain(n=6, b=1)
    # Any stage update leaves the admissible set.
    _admit_only(sys, lambda values: np.all(np.abs(values) <= 1e-3))
    precon = _chain_smoother(sys)
    sched = RkSchedule(n_cycles=3)
    w0 = sys.initial_state()
    out = rk_smooth(sys, precon, sched, w0, sys.residual(w0))
    assert out.degraded
    assert np.all(out.delta_w == 0.0)  # first cycle abandoned


def test_final_stage_output_is_judged_by_its_residual():
    # One stage, one cycle: the only residual after w0 is the verdict on the
    # cycle output, which must not be handed on when it is rejected.
    sys = diffusion_chain(n=6, b=1)
    w0 = sys.initial_state()
    _admit_only(sys, lambda values: np.array_equal(values, w0.values))
    out = rk_smooth(sys, _chain_smoother(sys), RkSchedule((1.0,), n_cycles=1),
                    w0, sys.residual(w0))
    assert out.degraded
    assert np.all(out.delta_w == 0.0)
    assert np.array_equal(w0.values + out.delta_w, w0.values)


def test_overflowing_stage_update_degrades_without_a_warning():
    # Cell 0's pivot inverts to 1e300, and its residual is -1e10: the first
    # stage's line solve overflows to -inf, and trial_residual rejects the
    # stage. Under "error" a leaked overflow warning would raise instead.
    diag = np.array([1e-300, 1.0, 1.0, 1.0]).reshape(4, 1, 1)
    off = np.zeros((3, 1, 1))
    sys = LinearChainSystem(diag, off, off.copy(), [1e10, 1.0, 1.0, 1.0])
    w = sys.initial_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ns = newton_step(sys, w, mass_over_dtau(sys, w, 10.0),
                         PtcConfig(smoothing=RkSchedule()), singleton_lines(4),
                         sys.residual(w), sys.first_order_blocks(w))
    assert ns.smoother_degraded
