import numpy as np
import pytest

from ptcsmooth.core import (BlockLayout, BlockVector, InadmissibleStateError,
                            MassMatrix, l2_norm)
from ptcsmooth.lines import (assemble_line_blocks, build_coupling_graph,
                             extract_lines, singleton_lines)
from ptcsmooth.ptc import PtcConfig
from ptcsmooth.smoother import (RkSchedule, build_smoother, rk_smooth,
                                smoothing_source)
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import diffusion_chain, full_chain_lines


def test_schedule_validation():
    with pytest.raises(ValueError):
        RkSchedule((0.15, 0.4, 0.9))     # last stage must be 1
    with pytest.raises(ValueError):
        RkSchedule((0.0, 1.0))           # coefficients in (0, 1]
    with pytest.raises(ValueError):
        RkSchedule((1.0,), n_cycles=-1)
    assert RkSchedule((1.0,), n_cycles=0).n_cycles == 0


def test_default_schedule_matches_protocol():
    s = RkSchedule()
    assert s.stage_coefficients == (0.15, 0.4, 1.0)
    assert s.n_cycles == 5


def test_singleton_lines_give_block_diagonal_preconditioner():
    sys = diffusion_chain(n=6, b=1)
    lines = singleton_lines(6)
    ctx = build_smoother(assemble_line_blocks(sys, sys.initial_state(), lines),
                         RkSchedule())
    r = np.zeros(6)
    r[2] = 1.0
    x = ctx.preconditioner.solve_values(r)
    assert np.count_nonzero(x) == 1  # no coupling without line edges


def test_full_chain_line_gives_exact_newton_step(scalar_chain):
    sys = scalar_chain
    lines = full_chain_lines(sys.layout.n_cells)
    ctx = build_smoother(assemble_line_blocks(sys, sys.initial_state(), lines),
                         RkSchedule())
    w0 = sys.initial_state()
    r = sys.residual(w0)
    step = ctx.preconditioner.solve(r)
    ref = np.linalg.solve(sys.A, r.values)
    assert np.allclose(step.values, ref, rtol=1e-12)


def test_rebuild_changes_values_not_structure():
    p = make_bratu(16, 1.0)
    lines = extract_lines(build_coupling_graph(p, p.initial_state()), 4.0)
    ctx1 = build_smoother(assemble_line_blocks(p, p.initial_state(), lines),
                          RkSchedule())
    w2 = BlockVector(p.layout, 0.1 * np.ones(16))
    ctx2 = build_smoother(assemble_line_blocks(p, w2, lines), RkSchedule())
    cells1 = [lf.cells.tolist() for lf in ctx1.preconditioner.line_factors]
    cells2 = [lf.cells.tolist() for lf in ctx2.preconditioner.line_factors]
    assert cells1 == cells2
    assert not np.allclose(ctx1.preconditioner.line_factors[0].binv,
                           ctx2.preconditioner.line_factors[0].binv)


def test_fixed_point_returns_zero_update(scalar_chain):
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    ctx = build_smoother(assemble_line_blocks(sys, w_star, lines), RkSchedule())
    out = rk_smooth(sys, ctx, w_star)
    assert l2_norm(out.delta_w) <= 1e-12 * max(1.0, l2_norm(w_star))
    assert np.allclose(out.w_end.values, w_star.values)


def test_linear_contraction_single_cycle(scalar_chain):
    # With exact P on a linear residual, one (0.15, 0.4, 1.0) cycle contracts
    # the error by exactly alpha2 * (1 - alpha1) = 0.34.
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    sched = RkSchedule((0.15, 0.4, 1.0), n_cycles=1)
    ctx = build_smoother(assemble_line_blocks(sys, w_star, lines), sched)
    rng = np.random.default_rng(2)
    e0 = rng.standard_normal(sys.layout.n_dofs)
    w0 = BlockVector(sys.layout, w_star.values + e0)
    out = rk_smooth(sys, ctx, w0)
    e_end = out.w_end.values - w_star.values
    assert np.allclose(e_end, 0.34 * e0, rtol=1e-12, atol=1e-13)


def test_linear_contraction_two_cycles(scalar_chain):
    sys = scalar_chain
    w_star = sys.solution()
    lines = full_chain_lines(sys.layout.n_cells)
    sched = RkSchedule((0.15, 0.4, 1.0), n_cycles=2)
    ctx = build_smoother(assemble_line_blocks(sys, w_star, lines), sched)
    rng = np.random.default_rng(4)
    e0 = rng.standard_normal(sys.layout.n_dofs)
    w0 = BlockVector(sys.layout, w_star.values + e0)
    out = rk_smooth(sys, ctx, w0)
    e_end = out.w_end.values - w_star.values
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
    ctx = build_smoother(assemble_line_blocks(sys, w0, lines), RkSchedule())
    out = rk_smooth(sys, ctx, w0)
    assert l2_norm(out.delta_w) <= 1e-9 * l2_norm(w0)


def test_smoothing_source_zero_update():
    layout = BlockLayout(3, 1)
    mass = MassMatrix(layout, [1.0, 2.0, 3.0])
    s = smoothing_source(BlockVector.zeros(layout), mass, np.ones(3))
    assert np.all(s.values == 0.0)


def test_smoothing_source_single_cell_arithmetic():
    layout = BlockLayout(1, 1)
    mass = MassMatrix(layout, [2.0])
    s = smoothing_source(BlockVector(layout, [3.0]), mass, np.array([0.5]))
    assert s.values[0] == pytest.approx(12.0)


def test_smoothing_source_vanishes_for_large_dtau():
    layout = BlockLayout(4, 2)
    mass = MassMatrix(layout, [1.0, 2.0, 0.5, 1.5])
    delta = BlockVector(layout, np.arange(1.0, 9.0))
    s = smoothing_source(delta, mass, np.full(4, 1e12))
    # The bound holds with equality: s = M delta / dtau exactly.
    assert l2_norm(s) <= 1e-12 * l2_norm(mass.apply(delta)) * (1 + 1e-12)
    assert l2_norm(s) == pytest.approx(1e-12 * l2_norm(mass.apply(delta)))


def test_smoothing_source_scaling_laws():
    layout = BlockLayout(3, 2)
    mass = MassMatrix(layout, [1.0, 2.0, 3.0])
    rng = np.random.default_rng(1)
    delta = BlockVector(layout, rng.standard_normal(6))
    dtau = np.array([0.25, 1.0, 4.0])
    s = smoothing_source(delta, mass, dtau)
    # Linear in the update (powers of two are exact in floating point).
    s2 = smoothing_source(2.0 * delta, mass, dtau)
    assert np.array_equal(s2.values, 2.0 * s.values)
    # Homogeneous of degree -1 in dtau.
    s_half = smoothing_source(delta, mass, 2.0 * dtau)
    assert np.array_equal(s_half.values, 0.5 * s.values)


def test_smoothing_source_rejects_nonpositive_dtau():
    layout = BlockLayout(2, 1)
    mass = MassMatrix(layout, [1.0, 1.0])
    with pytest.raises(ValueError):
        smoothing_source(BlockVector.zeros(layout), mass, np.array([1.0, 0.0]))


@pytest.mark.parametrize("problem", [
    make_bratu(32, 1.0),
    make_aniso_convdiff(8, 8, stretching_ratio=100.0),
    make_quasi1d_euler(32),
], ids=["bratu", "convdiff", "euler"])
def test_smoother_reduces_residual_from_impulsive_start(problem):
    w0 = problem.initial_state()
    cfg = PtcConfig()
    lines = extract_lines(build_coupling_graph(problem, w0),
                          cfg.anisotropy_threshold)
    ctx = build_smoother(assemble_line_blocks(problem, w0, lines),
                         RkSchedule())
    out = rk_smooth(problem, ctx, w0)
    assert l2_norm(problem.residual(out.w_end)) < l2_norm(problem.residual(w0))


def test_degraded_cycle_keeps_last_admissible_output():
    sys = diffusion_chain(n=6, b=1)
    # Shadow the admissibility check so any stage update violates it.
    sys.is_admissible = lambda w: bool(np.all(np.abs(w.values) <= 1e-3))
    try:
        lines = full_chain_lines(6)
        ctx = build_smoother(
            assemble_line_blocks(sys, sys.initial_state(), lines),
            RkSchedule(n_cycles=3))
        out = rk_smooth(sys, ctx, sys.initial_state())
        assert out.degraded
        assert np.all(out.delta_w.values == 0.0)  # first cycle abandoned
        with pytest.raises(InadmissibleStateError):
            rk_smooth(sys, ctx, BlockVector(sys.layout, np.full(6, 10.0)))
    finally:
        del sys.is_admissible
