import numpy as np
import pytest

from ptcsmooth.core import BlockVector, FirstOrderBlocks, l2_norm
from ptcsmooth.lines import (assemble_line_blocks, build_coupling_graph,
                             extract_lines)
from ptcsmooth.ptc import (PtcConfig, SolveOutcome, cfl_update, line_search,
                           local_pseudo_timesteps, newton_step, ptc_operator,
                           solve_steady)
from ptcsmooth.smoother import RkSchedule, build_smoother, rk_smooth
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)




def _lines_for(problem, config=None):
    threshold = (config or PtcConfig()).anisotropy_threshold
    return extract_lines(build_coupling_graph(problem, problem.initial_state()),
                         threshold)


# ---------------------------------------------------------------------------
# local_pseudo_timesteps
# ---------------------------------------------------------------------------

def test_timesteps_cfl_one_is_explicit_estimate():
    p = make_bratu(16, 1.0)
    w = p.initial_state()
    assert np.array_equal(local_pseudo_timesteps(p, w, 1.0), p.explicit_dt(w))


def test_timesteps_scale_linearly_with_cfl():
    p = make_aniso_convdiff(6, 6)
    w = p.initial_state()
    assert np.array_equal(local_pseudo_timesteps(p, w, 2.0),
                          2.0 * local_pseudo_timesteps(p, w, 1.0))


def test_timesteps_euler_hand_value():
    # Dimensional check: u = 100 m/s, c = 340 m/s, dx = 0.01 m, CFL = 10.
    n = 16
    rho = 1.2
    c = 340.0
    p_static = c * c * rho / 1.4
    e = make_quasi1d_euler(n, area=lambda x: np.ones_like(np.asarray(x), dtype=float),
                           rho_in=rho, u_in=100.0, p_exit=p_static,
                           length=0.01 * n)
    w = e.initial_state()
    dtau = local_pseudo_timesteps(e, w, 10.0)
    assert np.allclose(dtau, 10.0 * 0.01 / 440.0, rtol=1e-12)


def test_timesteps_validation():
    p = make_bratu(8, 1.0)
    with pytest.raises(ValueError):
        local_pseudo_timesteps(p, p.initial_state(), 0.0)


# ---------------------------------------------------------------------------
# ptc_operator limits
# ---------------------------------------------------------------------------

def test_operator_large_dtau_approaches_jacobian():
    p = make_bratu(24, 1.0)
    w = p.initial_state()
    v = BlockVector(p.layout, np.random.default_rng(0).standard_normal(24))
    dtau = np.full(24, 1e12)
    a = ptc_operator(p, w, dtau).apply(v)
    jv = p.jacobian_vector(w, v)
    assert l2_norm(a - jv) <= 1e-9 * l2_norm(jv)


def test_operator_small_dtau_mass_dominates():
    from ptcsmooth.core import cellwise_scale
    p = make_bratu(24, 1.0)
    w = p.initial_state()
    v = BlockVector(p.layout, np.random.default_rng(1).standard_normal(24))
    dtau = np.full(24, 1e-12)
    a = ptc_operator(p, w, dtau).apply(v)
    mass_term = cellwise_scale(v, p.mass().over_dtau(dtau))
    # The leftover is exactly the Jacobian product, a vanishing fraction.
    assert l2_norm(a - mass_term) <= 1e-6 * l2_norm(mass_term)


def test_operator_zero_input():
    p = make_bratu(8, 1.0)
    w = p.initial_state()
    out = ptc_operator(p, w, np.ones(8)).apply(BlockVector.zeros(p.layout))
    assert np.all(out.values == 0.0)


# ---------------------------------------------------------------------------
# newton_step
# ---------------------------------------------------------------------------

def test_zero_cycle_schedule_is_bitwise_unsmoothed():
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    cfg = PtcConfig()
    lines = _lines_for(p)
    dtau = local_pseudo_timesteps(p, w, cfg.cfl_init)
    plain = newton_step(p, w, dtau, cfg, lines)
    zero_cycle = newton_step(p, w, dtau,
                             PtcConfig(smoothing=RkSchedule(n_cycles=0)), lines)
    assert np.array_equal(plain.delta_w.values, zero_cycle.delta_w.values)
    assert np.all(zero_cycle.source.values == 0.0)


def test_small_dtau_step_matches_smoother_update():
    p = make_bratu(64, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    lines = _lines_for(p)
    dtau = local_pseudo_timesteps(p, w, 1e-10)
    ctx = build_smoother(assemble_line_blocks(p, w, lines), cfg.smoothing)
    delta_smooth = rk_smooth(p, ctx, w).delta_w
    ns = newton_step(p, w, dtau, cfg, lines)
    assert l2_norm(ns.delta_w - delta_smooth) <= 1e-6 * l2_norm(delta_smooth)
    # The line search takes the full step, so the accepted update is the
    # smoother update itself: the scheme reverts to the local solver.
    res = line_search(p, w, ns.delta_w, dtau, ns.source)
    assert res.alpha == 1.0
    accepted_update = res.alpha * ns.delta_w
    assert l2_norm(accepted_update - delta_smooth) <= 1e-6 * l2_norm(delta_smooth)


def test_large_dtau_step_matches_pure_newton():
    p = make_bratu(48, 1.0)
    # Near-converged state.
    pre = solve_steady(p, PtcConfig(target_residual_reduction=1e-3))
    w = pre.final_state
    cfg = PtcConfig(linear_rel_tol=1e-12, max_krylov=200)
    lines = _lines_for(p)
    dtau = local_pseudo_timesteps(p, w, 1e12)
    ns = newton_step(p, w, dtau, cfg, lines)
    # Dense Newton oracle: assemble J column by column from exact products.
    n = p.layout.n_dofs
    J = np.zeros((n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = 1.0
        J[:, k] = p.jacobian_vector(w, BlockVector(p.layout, ek)).values
    ref = np.linalg.solve(J, -p.residual(w).values)
    assert np.linalg.norm(ns.delta_w.values - ref) <= 1e-6 * np.linalg.norm(ref)


def test_gmres_failure_is_reported_not_raised():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    cfg = PtcConfig(max_krylov=2, linear_rel_tol=1e-10)
    lines = _lines_for(p)
    w = p.initial_state()
    dtau = local_pseudo_timesteps(p, w, cfg.cfl_init)
    ns = newton_step(p, w, dtau, cfg, lines)
    assert not ns.stats.converged


# ---------------------------------------------------------------------------
# line_search
# ---------------------------------------------------------------------------

def test_line_search_linear_exact_solve_takes_full_step(scalar_chain):
    sys = scalar_chain
    w = sys.initial_state()
    dtau = np.full(sys.layout.n_cells, 1e12)
    delta = BlockVector(sys.layout,
                        np.linalg.solve(sys.A, -sys.residual(w).values))
    res = line_search(sys, w, delta, dtau, BlockVector.zeros(sys.layout))
    assert res.alpha == 1.0
    assert res.f_alpha <= 1e-10 * res.f0


def test_line_search_accepted_alpha_decreases_objective():
    p = make_bratu(32, 2.0)
    cfg = PtcConfig()
    lines = _lines_for(p)
    w = p.initial_state()
    dtau = local_pseudo_timesteps(p, w, cfg.cfl_init)
    ns = newton_step(p, w, dtau, cfg, lines)
    res = line_search(p, w, ns.delta_w, dtau, ns.source)
    assert res.alpha > 0.0
    assert res.f_alpha < res.f0


def test_line_search_descent_direction_derivative():
    # One-sided derivative of F^2 at alpha = 0 is negative for a fully
    # converged linear solve (checked at alpha = 1e-6).
    p = make_bratu(32, 1.0)
    cfg = PtcConfig(linear_rel_tol=1e-13, max_krylov=200)
    lines = _lines_for(p)
    w = p.initial_state()
    dtau = local_pseudo_timesteps(p, w, cfg.cfl_init)
    ns = newton_step(p, w, dtau, cfg, lines)
    coeffs = p.mass().over_dtau(dtau)

    def f_squared(alpha):
        trial = w + alpha * ns.delta_w
        vals = (np.repeat(coeffs, 1) * (alpha * ns.delta_w.values)
                + p.residual(trial).values - ns.source.values)
        return float(vals @ vals)

    assert f_squared(1e-6) < f_squared(0.0)


def test_line_search_rejects_ascent_direction(scalar_chain):
    sys = scalar_chain
    w = sys.initial_state()
    dtau = np.full(sys.layout.n_cells, 1e12)
    ascent = BlockVector(sys.layout,
                         np.linalg.solve(sys.A, sys.residual(w).values))
    res = line_search(sys, w, ascent, dtau, BlockVector.zeros(sys.layout))
    assert res.alpha == 0.0
    assert res.f_alpha == res.f0


def test_line_search_inadmissible_trials_scored_infinite():
    e = make_quasi1d_euler(32)
    w = e.initial_state()
    dtau = local_pseudo_timesteps(e, w, 10.0)
    # A huge negative-density direction makes every candidate inadmissible.
    bad = BlockVector(e.layout, np.zeros(e.layout.n_dofs))
    bad.values[0::3] = -1e6
    res = line_search(e, w, bad, dtau, BlockVector.zeros(e.layout))
    assert res.alpha == 0.0
    assert all(np.isinf(f) for f in res.f_values[1:])


# ---------------------------------------------------------------------------
# cfl_update controller truth table
# ---------------------------------------------------------------------------

def test_cfl_update_truth_table():
    cfg = PtcConfig()
    assert cfl_update(10.0, 1.0, True, cfg) == (15.0, True)
    assert cfl_update(10.0, 0.05, True, cfg) == (pytest.approx(1.0), False)
    assert cfl_update(10.0, 0.5, True, cfg) == (10.0, True)


def test_cfl_update_linear_failure_rejects():
    cfg = PtcConfig()
    new_cfl, accepted = cfl_update(10.0, 1.0, False, cfg)
    assert not accepted
    assert new_cfl == pytest.approx(1.0)


def test_cfl_update_band_boundaries():
    cfg = PtcConfig()
    assert cfl_update(10.0, 0.75, True, cfg) == (15.0, True)   # grow at 0.75
    assert cfl_update(10.0, 0.1, True, cfg)[1] is False        # reject at 0.1
    assert cfl_update(10.0, 0.11, True, cfg) == (10.0, True)


def test_cfl_update_caps_at_max():
    cfg = PtcConfig(cfl_max=12.0)
    assert cfl_update(10.0, 1.0, True, cfg) == (12.0, True)


def test_config_validation():
    with pytest.raises(ValueError):
        PtcConfig(cfl_growth=1.0)
    with pytest.raises(ValueError):
        PtcConfig(cfl_cut=1.5)
    with pytest.raises(ValueError):
        PtcConfig(alpha_reject_threshold=0.8, alpha_grow_threshold=0.75)


# ---------------------------------------------------------------------------
# solve_steady
# ---------------------------------------------------------------------------

def test_already_converged_initial_state():
    # lambda = 0 makes u = 0 the exact solution, so R(w0) = 0.
    p = make_bratu(16, 0.0)
    rep = solve_steady(p, PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.newton_steps == 0
    assert rep.cumulative_krylov == 0


def test_bratu_unsmoothed_converges_within_budget():
    p = make_bratu(64, 1.0)
    rep = solve_steady(p, PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.newton_steps <= 30
    assert rep.final_residual_l2 <= 1e-8 * rep.initial_residual_l2


def test_smoothed_beats_unsmoothed_on_aniso_convdiff():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0)
    plain = solve_steady(p, PtcConfig(max_newton_steps=300))
    smooth = solve_steady(p, PtcConfig(max_newton_steps=300,
                                       smoothing=RkSchedule()))
    assert plain.outcome == SolveOutcome.CONVERGED
    assert smooth.outcome == SolveOutcome.CONVERGED
    assert smooth.cumulative_krylov < plain.cumulative_krylov


def test_rejected_step_leaves_state_and_residual_unchanged():
    # A 3-vector Krylov budget cannot converge, so step 1 must be rejected
    # and the recorded residual must equal the initial one bit for bit.
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    cfg = PtcConfig(max_krylov=3, max_newton_steps=3)
    rep = solve_steady(p, cfg)
    assert not rep.history[0].accepted
    assert rep.history[0].alpha == 0.0
    assert rep.history[0].residual_l2 == rep.initial_residual_l2


def test_stagnation_outcome_on_persistent_linear_failure():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    cfg = PtcConfig(max_krylov=1, linear_rel_tol=1e-12, max_newton_steps=50)
    rep = solve_steady(p, cfg)
    assert rep.outcome == SolveOutcome.STAGNATED
    assert all(not r.accepted for r in rep.history)
    # CFL falls by beta2 each rejection until the stagnation floor.
    assert rep.history[-1].cfl < 1e-5


def _nan_diagonal_blocks(p):
    original = p.first_order_blocks

    def blocks(w):
        fob = original(w)
        return FirstOrderBlocks(fob.layout, np.full_like(fob.diag, np.nan),
                                fob.edges, fob.off_ij, fob.off_ji)
    return blocks


def _nan_jacobian_vector(p):
    return lambda w, v: BlockVector(p.layout, np.full(p.layout.n_dofs, np.nan))


@pytest.mark.parametrize("patch", [("first_order_blocks", _nan_diagonal_blocks),
                                   ("jacobian_vector", _nan_jacobian_vector)],
                         ids=["singular_preconditioner", "nonfinite_operator"])
def test_failed_linear_setup_becomes_rejected_step(patch):
    # A preconditioner that cannot be factored and an operator that returns
    # NaN are rejections with a CFL cut, never an exception.
    name, make = patch
    p = make_bratu(16, 1.0)
    setattr(p, name, make(p))
    rep = solve_steady(p, PtcConfig(max_newton_steps=50))
    assert rep.outcome == SolveOutcome.STAGNATED
    assert all(not r.accepted and r.krylov_count == 0 for r in rep.history)
    assert all(b.cfl < a.cfl for a, b in zip(rep.history, rep.history[1:]))
    assert rep.cumulative_krylov == 0
    assert np.array_equal(rep.final_state.values, p.initial_state().values)


def test_step_budget_exhaustion_outcome():
    p = make_bratu(64, 1.0)
    rep = solve_steady(p, PtcConfig(max_newton_steps=2))
    assert rep.outcome == SolveOutcome.STEP_BUDGET_EXHAUSTED
    assert rep.newton_steps == 2


def test_monotone_cumulative_krylov():
    p = make_aniso_convdiff(12, 16, stretching_ratio=1000.0)
    rep = solve_steady(p, PtcConfig(max_newton_steps=100))
    cums = [r.cumulative_krylov for r in rep.history]
    assert all(b > a for a, b in zip(cums, cums[1:]))
    assert cums[0] == rep.history[0].krylov_count


def test_no_divergence_across_problems_and_variants():
    cases = [
        (make_bratu(48, 1.0), {}),
        (make_aniso_convdiff(12, 16, stretching_ratio=1000.0), {}),
        (make_quasi1d_euler(32), {"max_newton_steps": 100}),
    ]
    for problem, extra in cases:
        for sched in (None, RkSchedule()):
            rep = solve_steady(problem, PtcConfig(smoothing=sched, **extra))
            assert rep.outcome == SolveOutcome.CONVERGED
            accepted = [r.residual_l2 for r in rep.history if r.accepted]
            assert max(accepted) <= 10.0 * rep.initial_residual_l2


def test_accepted_steps_decrease_pseudo_unsteady_residual():
    p = make_quasi1d_euler(32, u_in=0.45)
    rep = solve_steady(p, PtcConfig(max_newton_steps=100))
    assert rep.outcome == SolveOutcome.CONVERGED
    # Descent is asserted inside the driver; here we sanity check that the
    # recorded pseudo-unsteady residual at accepted steps is finite and that
    # rejections never advanced the residual.
    for rec in rep.history:
        assert np.isfinite(rec.ptc_residual_l2)
    # Rejections carry either the failed-solver alpha = 0 or a line-search
    # alpha at or below the rejection band.
    cfg = PtcConfig()
    for rec in (r for r in rep.history if not r.accepted):
        assert rec.alpha <= cfg.alpha_reject_threshold


def test_solve_accepts_explicit_start_state():
    p = make_bratu(32, 1.0)
    pre = solve_steady(p, PtcConfig(target_residual_reduction=1e-4))
    rep = solve_steady(p, PtcConfig(), w0=pre.final_state)
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.initial_residual_l2 == pytest.approx(pre.final_residual_l2)
