import inspect
import re
import warnings
from unittest import mock

import numpy as np
import pytest

import ptcsmooth.ptc
from ptcsmooth.core import (BlockLayout, BlockVector, ContractViolationError,
                            FirstOrderBlocks, InadmissibleStateError, l2_norm)
from ptcsmooth.linalg import (GmresStats, SingularPivotError,
                              factor_block_tridiag)
from ptcsmooth.lines import extract_lines, singleton_lines
from ptcsmooth.ptc import (ALPHA_REJECT_THRESHOLD, CFL_CUT, CFL_MAX,
                           SOURCE_SKIP_FRACTION, PtcConfig, SolveOutcome,
                           build_ptc_preconditioner, cfl_update, line_search,
                           mass_over_dtau, newton_step, ptc_operator,
                           solve_steady)
from ptcsmooth.smoother import (RkSchedule, SmoothResult, build_smoother,
                                rk_smooth)
from ptcsmooth.timestepping import UnsteadyConfig, advance_unsteady
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import (LinearChainSystem, dense_from_lines, kernel_lines,
                      random_couplings)


def _lines_for(problem):
    return extract_lines(problem.first_order_blocks(problem.initial_state()),
                         problem.edges)


# ---------------------------------------------------------------------------
# mass_over_dtau
# ---------------------------------------------------------------------------

def test_timesteps_cfl_one_is_explicit_estimate():
    p = make_bratu(16, 1.0)
    w = p.initial_state()
    assert np.array_equal(mass_over_dtau(p, w, 1.0),
                          p.cell_measures / p.explicit_dt(w))


def test_timesteps_scale_linearly_with_cfl():
    p = make_aniso_convdiff(6, 6)
    w = p.initial_state()
    # Powers of two are exact in floating point.
    assert np.array_equal(mass_over_dtau(p, w, 2.0),
                          0.5 * mass_over_dtau(p, w, 1.0))


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
    m = mass_over_dtau(e, w, 10.0)
    # One coefficient per unknown: each cell's repeated over its 3 equations.
    assert m.shape == (3 * n,)
    assert np.array_equal(m, np.repeat(m[::3], 3))
    dtau = e.cell_measures / m[::3]
    assert np.allclose(dtau, 10.0 * 0.01 / 440.0, rtol=1e-12)
    # The default nozzle's cells differ, so the order of the repeat shows.
    d = make_quasi1d_euler(n)
    wd = d.initial_state()
    per_cell = d.cell_measures / (10.0 * d.explicit_dt(wd))
    assert np.array_equal(mass_over_dtau(d, wd, 10.0), np.repeat(per_cell, 3))


def test_timesteps_validation():
    p = make_bratu(8, 1.0)
    with pytest.raises(ValueError):
        mass_over_dtau(p, p.initial_state(), 0.0)


@pytest.mark.parametrize("length", [1e300, 1e305])
@pytest.mark.parametrize("smoothing", [None, RkSchedule()],
                         ids=["plain", "smoothed"])
def test_overflowing_pseudo_time_step_is_the_exact_newton_limit(smoothing,
                                                                length):
    # A legal nozzle whose cells are so long that cfl * explicit_dt
    # overflows at CFL 1e12: dtau is infinite and M/dtau zero, the exact
    # Newton limit, and the solve converges instead of raising.
    p = make_quasi1d_euler(
        16, area=lambda x: 1 + 0.4 * (2 * x / length - 1) ** 2, length=length)
    w = p.initial_state()
    assert np.all(np.isfinite(p.cell_measures))
    assert np.all(np.isfinite(p.explicit_dt(w)))
    assert not mass_over_dtau(p, w, 1e12).any()
    rep = solve_steady(p, PtcConfig(cfl_init=1e12, smoothing=smoothing))
    assert rep.outcome == SolveOutcome.CONVERGED
    assert (rep.newton_steps, rep.rejection_count) == (8, 0)


# ---------------------------------------------------------------------------
# ptc_operator limits
# ---------------------------------------------------------------------------

def test_operator_large_dtau_approaches_jacobian():
    p = make_bratu(24, 1.0)
    w = p.initial_state()
    v = np.random.default_rng(0).standard_normal(24)
    dtau = np.full(24, 1e12)
    a = ptc_operator(p, w, p.cell_measures / dtau)(v)
    jv = p.jacobian_vector(w, v)
    assert np.linalg.norm(a - jv) <= 1e-9 * l2_norm(jv)


def test_operator_small_dtau_mass_dominates():
    p = make_bratu(24, 1.0)
    w = p.initial_state()
    v = np.random.default_rng(1).standard_normal(24)
    dtau = np.full(24, 1e-12)
    a = ptc_operator(p, w, p.cell_measures / dtau)(v)
    mass_term = (p.cell_measures / dtau) * v
    # The leftover is exactly the Jacobian product, a vanishing fraction.
    assert np.linalg.norm(a - mass_term) <= 1e-6 * l2_norm(mass_term)


def test_operator_zero_input():
    p = make_bratu(8, 1.0)
    w = p.initial_state()
    out = ptc_operator(p, w, p.cell_measures / np.ones(8))(np.zeros(8))
    assert np.all(out == 0.0)


# ---------------------------------------------------------------------------
# newton_step
# ---------------------------------------------------------------------------

def test_zero_cycle_schedule_is_bitwise_unsmoothed():
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    cfg = PtcConfig()
    lines = _lines_for(p)
    m_dtau = mass_over_dtau(p, w, cfg.cfl_init)
    r, blocks = p.residual(w), p.first_order_blocks(w)
    plain = newton_step(p, w, m_dtau, cfg, lines, r, blocks)
    zero_cycle = newton_step(p, w, m_dtau,
                             PtcConfig(smoothing=RkSchedule(n_cycles=0)), lines,
                             r, blocks, schedule=RkSchedule(n_cycles=0))
    assert np.array_equal(plain.delta_w, zero_cycle.delta_w)
    assert np.all(zero_cycle.source == 0.0)


def _recorded_smooths(monkeypatch):
    """The arguments and ``SmoothResult`` of each ``rk_smooth`` call."""
    smooth, calls = ptcsmooth.ptc.rk_smooth, []

    def recorded(*args):
        calls.append((args, smooth(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ptcsmooth.ptc, "rk_smooth", recorded)
    return calls


def _residuals_per_smoothed_step(cfl, monkeypatch):
    """The residuals a smoothed bratu step at ``cfl`` evaluates, and the
    cycles its smoother ran."""
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    r, blocks = p.residual(w), p.first_order_blocks(w)
    calls = []
    residual = p.residual
    monkeypatch.setattr(p, "residual", lambda v: calls.append(v) or residual(v))
    smooths = _recorded_smooths(monkeypatch)
    ns = newton_step(p, w, mass_over_dtau(p, w, cfl), cfg, _lines_for(p), r,
                     blocks, schedule=cfg.smoothing)
    assert not ns.smoother_degraded and ns.smoothed
    ((_, sm),) = smooths
    return len(calls), sm.cycles


def test_smoothed_step_evaluates_one_residual_per_stage(monkeypatch):
    # The smoother starts from the R(w) the step is given, so it evaluates
    # one residual per stage of the cycles it runs and none more. At CFL 10
    # every cycle runs.
    residuals, cycles = _residuals_per_smoothed_step(10.0, monkeypatch)
    assert cycles == RkSchedule().n_cycles
    assert residuals == 3 * cycles == 15


@pytest.mark.parametrize("cfl, cycles", [(1e3, 4), (1e6, 1)])
def test_a_stopped_step_evaluates_one_residual_per_stage_run(cfl, cycles,
                                                            monkeypatch):
    # At larger CFLs the source floor stops the cycles early, and the
    # stages not run evaluate no residual.
    assert _residuals_per_smoothed_step(cfl, monkeypatch) == \
        (3 * cycles, cycles)


def test_small_dtau_step_matches_smoother_update():
    p = make_bratu(64, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    lines = _lines_for(p)
    m_dtau = mass_over_dtau(p, w, 1e-10)
    (precon,) = factor_block_tridiag(lines, p.first_order_blocks(w), (None,))
    # At small dtau M/dtau is huge, so no cycle falls below the step's
    # source floor, and every cycle runs.
    floor = SOURCE_SKIP_FRACTION * cfg.linear_rel_tol * l2_norm(p.residual(w))
    sm = rk_smooth(p, precon, cfg.smoothing, w, p.residual(w), m_dtau, floor)
    assert sm.cycles == cfg.smoothing.n_cycles == 5 and not sm.degraded
    delta_smooth = sm.delta_w
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w), schedule=cfg.smoothing)
    assert l2_norm(ns.delta_w - delta_smooth) <= 1e-6 * l2_norm(delta_smooth)
    # The line search takes the full step, so the accepted update is the
    # smoother update itself: the scheme reverts to the local solver.
    res = line_search(p, w, ns.delta_w, m_dtau, ns.source, p.residual(w))
    assert res.alpha == 1.0
    accepted_update = res.alpha * ns.delta_w
    assert l2_norm(accepted_update - delta_smooth) <= 1e-6 * l2_norm(delta_smooth)


def test_a_step_stops_after_the_first_cycle_below_the_floor(monkeypatch):
    # At CFL 1000 the fourth cycle's scaled update is the first below the
    # floor, so the step runs four cycles, and its source is that of a
    # four-cycle schedule run to the end.
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    r, m_dtau = p.residual(w), mass_over_dtau(p, w, 1e3)
    smooths = _recorded_smooths(monkeypatch)
    ns = newton_step(p, w, m_dtau, cfg, _lines_for(p), r,
                     p.first_order_blocks(w), schedule=cfg.smoothing)
    ((args, sm),) = smooths
    precon, floor = args[1], args[6]
    assert args[5] is m_dtau
    assert floor == SOURCE_SKIP_FRACTION * cfg.linear_rel_tol * l2_norm(r)
    ends = [rk_smooth(p, precon, RkSchedule(n_cycles=n), w, r, m_dtau,
                      0.0).delta_w for n in range(6)]
    scores = [l2_norm(m_dtau * (b - a)) for a, b in zip(ends, ends[1:])]
    assert min(scores[:3]) >= floor > scores[3]
    assert (sm.cycles, sm.degraded, ns.smoothed) == (4, False, True)
    assert sm.delta_w.tobytes() == ends[4].tobytes()
    assert ns.source.tobytes() == (m_dtau * ends[4]).tobytes()


@pytest.mark.parametrize("cfl", [10.0, 100.0])
def test_a_step_whose_cycles_stay_above_the_floor_is_bitwise_unstopped(
        cfl, monkeypatch):
    # With a floor of 0 every cycle runs, as before the floor existed; a
    # step whose cycles all stay above the floor is that step, bit for bit.
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    args = (p, w, mass_over_dtau(p, w, cfl), cfg, _lines_for(p),
            p.residual(w), p.first_order_blocks(w))
    smooths = _recorded_smooths(monkeypatch)
    floored = newton_step(*args, schedule=cfg.smoothing)
    monkeypatch.setattr(ptcsmooth.ptc, "SOURCE_SKIP_FRACTION", 0.0)
    unfloored = newton_step(*args, schedule=cfg.smoothing)
    assert [(call[6] > 0.0, sm.cycles) for call, sm in smooths] == \
        [(True, 5), (False, 5)]
    assert floored.delta_w.tobytes() == unfloored.delta_w.tobytes()
    assert floored.source.tobytes() == unfloored.source.tobytes()
    assert floored.stats == unfloored.stats and floored.stats.converged


def test_large_dtau_step_matches_pure_newton():
    p = make_bratu(48, 1.0)
    # Near-converged state.
    pre = solve_steady(p, PtcConfig(target_residual_reduction=1e-3))
    w = pre.final_state
    cfg = PtcConfig(linear_rel_tol=1e-12, max_krylov=200)
    lines = _lines_for(p)
    m_dtau = mass_over_dtau(p, w, 1e12)
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w))
    # Dense Newton oracle: assemble J column by column from exact products.
    n = p.layout.n_dofs
    J = np.zeros((n, n))
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = 1.0
        J[:, k] = p.jacobian_vector(w, ek)
    ref = np.linalg.solve(J, -p.residual(w))
    assert np.linalg.norm(ns.delta_w - ref) <= 1e-6 * np.linalg.norm(ref)


def test_gmres_failure_is_reported_not_raised():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    cfg = PtcConfig(max_krylov=2, linear_rel_tol=1e-10)
    lines = _lines_for(p)
    w = p.initial_state()
    m_dtau = mass_over_dtau(p, w, cfg.cfl_init)
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w))
    assert not ns.stats.converged


def test_singular_smoother_runs_the_step_unsmoothed(caplog):
    # Cell 2's J1 pivot is exactly 0, so the smoother cannot be factored on
    # singleton lines; J1 + M/dtau, its pivot 0.1 at CFL 10, can.
    diag = np.full((6, 1, 1), 4.0)
    diag[2] = 0.0
    off = np.full((5, 1, 1), -1.0)
    sys = LinearChainSystem(diag, off, off.copy(), np.ones(6))
    w, lines = sys.initial_state(), singleton_lines(6)
    r, blocks = sys.residual(w), sys.first_order_blocks(w)
    m_dtau = mass_over_dtau(sys, w, 10.0)
    plain = newton_step(sys, w, m_dtau, PtcConfig(), lines, r, blocks)
    with caplog.at_level("WARNING", logger="ptcsmooth"):
        smoothed = newton_step(sys, w, m_dtau,
                               PtcConfig(smoothing=RkSchedule()), lines, r,
                               blocks, schedule=RkSchedule())
    assert "smoother build failed" in caplog.text
    assert np.all(smoothed.source == 0.0)
    assert smoothed.delta_w.tobytes() == plain.delta_w.tobytes()
    assert smoothed.stats == plain.stats and plain.stats.converged


@pytest.mark.parametrize("smoothing", [None, RkSchedule()],
                         ids=["plain", "smoothed"])
def test_non_finite_diagonal_rejects_the_step_as_futile(smoothing, caplog):
    # Cell 2's diagonal block is NaN, so J1 + M/dtau fails at every CFL:
    # the step is rejected with no Krylov vector and marked futile, and the
    # log names the PTC preconditioner, never the smoother.
    diag = np.full((6, 1, 1), 4.0)
    diag[2] = np.nan
    off = np.full((5, 1, 1), -1.0)
    sys = LinearChainSystem(diag, off, off.copy(), np.ones(6))
    w = sys.initial_state()
    with caplog.at_level("WARNING", logger="ptcsmooth.ptc"):
        ns = newton_step(sys, w, mass_over_dtau(sys, w, 10.0),
                         PtcConfig(smoothing=smoothing), singleton_lines(6),
                         np.ones(6), sys.first_order_blocks(w),
                         schedule=smoothing)
    assert ns.futile and not ns.smoother_degraded
    assert (ns.stats.iterations, ns.stats.achieved_reduction,
            ns.stats.converged) == (0, 1.0, False)
    assert not ns.delta_w.any() and not ns.source.any()
    assert [r.getMessage() for r in caplog.records] == [
        "PTC preconditioner failed (non-finite pivot inverse on line 2 at "
        "position 0); rejecting the step"]


def _chain_on_singletons(pivot):
    # A scalar chain whose cell 2 has diagonal ``pivot``, on singleton
    # lines; M/dtau is 0.1 in every cell at CFL 10.
    diag = np.full((6, 1, 1), 4.0)
    diag[2] = pivot
    off = np.full((5, 1, 1), -1.0)
    return LinearChainSystem(diag, off, off.copy(), np.ones(6)), \
        singleton_lines(6)


def _bratu16():
    p = make_bratu(16, 1.0)
    return p, _lines_for(p)


@pytest.mark.parametrize("build, smoothing, verdict, logged", [
    (_bratu16, None, (True, False, False), []),
    (_bratu16, RkSchedule(), (True, True, False), []),
    # J1's pivot is 0, J1 + M/dtau's 0.1: the step runs unsmoothed.
    (lambda: _chain_on_singletons(0.0), RkSchedule(), (True, False, False),
     ["smoother build failed (singular pivot block on line 2 at position "
      "0); running unsmoothed step"]),
    # J1's pivot is -0.1, J1 + M/dtau's 0: the step is rejected.
    (lambda: _chain_on_singletons(-0.1), RkSchedule(), (False, False, False),
     ["PTC preconditioner failed (singular pivot block on line 2 at "
      "position 0); rejecting the step"]),
    (lambda: _chain_on_singletons(np.nan), RkSchedule(), (False, False, True),
     ["PTC preconditioner failed (non-finite pivot inverse on line 2 at "
      "position 0); rejecting the step"]),
], ids=["plain", "smoothed", "singular_smoother", "singular_precon",
        "non_finite_diagonal"])
def test_each_factor_builder_makes_one_factor_call(build, smoothing, verdict,
                                                   logged, caplog):
    # A Newton step handed no earlier factor makes one factor call, in
    # build_ptc_preconditioner; on a smoothed step it stacks J1 + M/dtau
    # and J1, decides every failure without a second call, and
    # build_smoother is handed J1's entry and factors nothing. The traced
    # benchmark's guard checks this as factor = precon_build. The verdict
    # is (GMRES converged, smoothing source applied, futile).
    p, lines = build()
    w = p.initial_state()
    calls = {"factor": 0, "precon": 0, "smoother": 0}
    factored, handed = [], []

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def factor(*args):
        factored.append(counting("factor", factor_block_tridiag)(*args))
        return factored[-1]

    def smoother(j1):
        before = calls["factor"]
        handed.append(j1)
        out = counting("smoother", build_smoother)(j1)
        assert calls["factor"] == before, "build_smoother made a factor call"
        return out

    with mock.patch.object(ptcsmooth.ptc, "factor_block_tridiag", factor), \
            mock.patch.object(ptcsmooth.ptc, "build_ptc_preconditioner",
                              counting("precon", build_ptc_preconditioner)), \
            mock.patch.object(ptcsmooth.ptc, "build_smoother", smoother), \
            caplog.at_level("WARNING", logger="ptcsmooth"):
        ns = newton_step(p, w, mass_over_dtau(p, w, 10.0),
                         PtcConfig(smoothing=smoothing), lines,
                         p.residual(w), p.first_order_blocks(w),
                         schedule=smoothing)
    assert (ns.stats.converged, bool(ns.source.any()), ns.futile) == verdict
    assert [r.getMessage() for r in caplog.records] == logged
    # A factor call that raises reaches no smoother build.
    built = smoothing is not None and bool(factored)
    assert calls == {"factor": 1, "precon": 1, "smoother": int(built)}
    assert handed == ([factored[0][1]] if built else [])


# ---------------------------------------------------------------------------
# smoothing steps aside in the Newton limit
# ---------------------------------------------------------------------------

# [shifts factored, rk_smooth calls]
SMOOTHED, ASIDE, REUSED = [2, 1], [1, 0], [0, 0]


def _trace_steps(monkeypatch):
    """Per call of ``ptcsmooth.ptc.newton_step``, [shifts factored,
    rk_smooth calls]: a step makes at most one factor call, and its
    smoother runs after it."""
    steps = []
    step = ptcsmooth.ptc.newton_step
    factor = ptcsmooth.ptc.factor_block_tridiag
    smooth = ptcsmooth.ptc.rk_smooth

    def counted_step(*args, **kwargs):
        steps.append([0, 0])
        return step(*args, **kwargs)

    def counted_factor(lines, blocks, shifts):
        steps[-1][0] = len(shifts)
        return factor(lines, blocks, shifts)

    def counted_smooth(*args):
        steps[-1][1] += 1
        return smooth(*args)

    monkeypatch.setattr(ptcsmooth.ptc, "newton_step", counted_step)
    monkeypatch.setattr(ptcsmooth.ptc, "factor_block_tridiag", counted_factor)
    monkeypatch.setattr(ptcsmooth.ptc, "rk_smooth", counted_smooth)
    return steps


def _bdf3_convdiff(smoothing):
    # The benchmark's unsteady case: its third physical step steps
    # smoothing aside from its second Newton step on, and every other
    # stepped-aside step reuses the factor of the step before it.
    history = advance_unsteady(
        make_aniso_convdiff(16, 24, 1000.0),
        UnsteadyConfig(0.05, 3, PtcConfig(smoothing=smoothing,
                                          max_newton_steps=200,
                                          target_residual_reduction=1e-12)))
    assert not history.aborted
    return history


def _per_solve(steps, history):
    out = []
    for report in history.reports:
        out.append(steps[:report.newton_steps])
        steps = steps[report.newton_steps:]
    assert not steps
    return out


def test_first_step_of_every_solve_smooths(monkeypatch):
    steps = _trace_steps(monkeypatch)
    history = _bdf3_convdiff(RkSchedule())
    per_solve = _per_solve(steps, history)
    assert [solve[0] for solve in per_solve] == [SMOOTHED] * 3
    assert per_solve[2] == [SMOOTHED] + [REUSED, ASIDE] * 2 + [REUSED]
    assert per_solve[:2] == [[SMOOTHED] * 7, [SMOOTHED] * 6]
    # Stepping aside and reusing a factor move no count of this run.
    assert [(r.newton_steps, r.cumulative_krylov, r.rejection_count)
            for r in history.reports] == [(7, 36, 0), (6, 28, 0), (6, 28, 0)]


def test_stepped_aside_step_is_bitwise_the_unsmoothed_step(monkeypatch):
    p = make_bratu(32, 1.0)
    w = p.initial_state()
    lines = _lines_for(p)
    m_dtau = mass_over_dtau(p, w, 10.0)
    r, blocks = p.residual(w), p.first_order_blocks(w)
    plain = newton_step(p, w, m_dtau, PtcConfig(), lines, r, blocks)
    steps = _trace_steps(monkeypatch)
    aside = ptcsmooth.ptc.newton_step(
        p, w, m_dtau, PtcConfig(smoothing=RkSchedule()), lines, r, blocks)
    assert steps == [ASIDE]
    assert not aside.source.any() and not aside.smoothed
    assert aside.delta_w.tobytes() == plain.delta_w.tobytes()
    assert aside.source.tobytes() == plain.source.tobytes()
    assert (aside.stats, aside.smoother_degraded, aside.futile) == \
        (plain.stats, plain.smoother_degraded, plain.futile)
    assert plain.stats.converged


def test_a_rejection_brings_smoothing_back(monkeypatch):
    # Fail GMRES on the first stepped-aside step, which reuses the
    # smoothed step's factor: the CFL cut raises the predicted ratio
    # tenfold, over the threshold here, so the next step smooths. Smoothing
    # then stays until the remembered source, the one its stopped RK cycles
    # gave, predicts a ratio below the threshold again: here on the last
    # step, which steps aside and reuses the factor of the step before it.
    steps = _trace_steps(monkeypatch)
    gmres, forced = ptcsmooth.ptc.gmres_right_preconditioned, []

    def failing_once(operator, precon, b, *args):
        if steps[-1] == REUSED and not forced:
            forced.append(len(steps) - 1)
            return np.zeros_like(b), GmresStats(0, 1.0, False)
        return gmres(operator, precon, b, *args)

    monkeypatch.setattr(ptcsmooth.ptc, "gmres_right_preconditioned",
                        failing_once)
    history = _bdf3_convdiff(RkSchedule())
    rows = [row for r in history.reports for row in r.history]
    (k,) = forced
    assert not rows[k].accepted and rows[k + 1].cfl == rows[k].cfl * CFL_CUT
    assert steps[k + 1:] == [SMOOTHED] * 4 + [REUSED]
    assert [(r.newton_steps, r.cumulative_krylov, r.rejection_count)
            for r in history.reports] == [(7, 36, 0), (6, 28, 0), (7, 28, 1)]


def test_a_retried_step_runs_its_rk_stages_again(monkeypatch):
    # Fail GMRES on step 1, which smooths: the retry runs at the same w, R
    # and blocks, and takes the one smoothed path again, both shifts
    # factored and the RK stages run. Step 3 runs at a new state.
    steps = _trace_steps(monkeypatch)
    gmres = ptcsmooth.ptc.gmres_right_preconditioned
    smooth, starts = ptcsmooth.ptc.rk_smooth, []

    def failing_once(operator, precon, b, *args):
        if len(steps) == 1:
            return np.zeros_like(b), GmresStats(0, 1.0, False)
        return gmres(operator, precon, b, *args)

    def recorded(system, precon, schedule, w0, r0, m_dtau, floor):
        starts.append(w0.values.tobytes())
        return smooth(system, precon, schedule, w0, r0, m_dtau, floor)

    monkeypatch.setattr(ptcsmooth.ptc, "gmres_right_preconditioned",
                        failing_once)
    monkeypatch.setattr(ptcsmooth.ptc, "rk_smooth", recorded)
    rep = solve_steady(make_bratu(64, 1.0), PtcConfig(smoothing=RkSchedule()))
    assert rep.outcome == SolveOutcome.CONVERGED
    assert [row.accepted for row in rep.history[:3]] == [False, True, True]
    assert steps[:3] == [SMOOTHED] * 3
    assert starts[0] == starts[1] != starts[2]
    assert "kept" not in inspect.signature(newton_step).parameters


def _singular_j1_on_step_1(monkeypatch):
    factor, calls = ptcsmooth.ptc.factor_block_tridiag, []

    def factor_j1_fails_once(lines, blocks, shifts):
        calls.append(shifts)
        precon, *j1 = factor(lines, blocks, shifts)
        if len(calls) == 1:
            j1 = [SingularPivotError("J1 patched to fail")]
        return [precon, *j1]

    monkeypatch.setattr(ptcsmooth.ptc, "factor_block_tridiag",
                        factor_j1_fails_once)
    return [2, 0]       # both shifts factored, no RK stage


def _no_cycle_completes_on_step_1(monkeypatch):
    smooth, calls = ptcsmooth.ptc.rk_smooth, []

    def degraded_once(system, precon, schedule, w0, r0, m_dtau, floor):
        calls.append(w0)
        if len(calls) == 1:
            return SmoothResult(np.zeros(w0.layout.n_dofs), True, 0)
        return smooth(system, precon, schedule, w0, r0, m_dtau, floor)

    monkeypatch.setattr(ptcsmooth.ptc, "rk_smooth", degraded_once)
    return SMOOTHED


@pytest.mark.parametrize("patch", [_singular_j1_on_step_1,
                                   _no_cycle_completes_on_step_1],
                         ids=["singular_j1", "degraded"])
def test_a_zero_source_does_not_switch_smoothing_off(patch, monkeypatch):
    # Step 1's source is zero, its ratio 0; if it were remembered, every
    # later step's prediction would be 0 and every one would step aside.
    first = patch(monkeypatch)
    steps = _trace_steps(monkeypatch)
    rep = solve_steady(make_bratu(64, 1.0), PtcConfig(smoothing=RkSchedule()))
    assert rep.outcome == SolveOutcome.CONVERGED and rep.newton_steps > 2
    assert steps == [first] + [SMOOTHED] * (rep.newton_steps - 1)


@pytest.mark.parametrize("smoothing", [None, RkSchedule(n_cycles=0)],
                         ids=["plain", "zero_cycles"])
def test_unsmoothed_solves_never_smooth_nor_step_aside(smoothing, monkeypatch,
                                                       caplog):
    # Each solve's first step factors afresh, and then every accepted fresh
    # factor serves the next step too. The zero-cycle run is bitwise the
    # plain one, row for row.
    plain = _bdf3_convdiff(None)
    steps = _trace_steps(monkeypatch)
    with caplog.at_level("DEBUG", logger="ptcsmooth.ptc"):
        run = _bdf3_convdiff(smoothing)
    assert _per_solve(steps, run) == [
        ([[1, 0], REUSED] * n)[:n] for n in (13, 6, 6)]
    assert "aside" not in caplog.text
    for ours, theirs in zip(run.reports, plain.reports, strict=True):
        assert ours.history == theirs.history
        assert ours.final_state.values.tobytes() == \
            theirs.final_state.values.tobytes()


def test_a_stepped_aside_step_logs_one_debug_line(monkeypatch, caplog):
    steps = _trace_steps(monkeypatch)
    with caplog.at_level("DEBUG", logger="ptcsmooth.ptc"):
        history = _bdf3_convdiff(RkSchedule())
    threshold = SOURCE_SKIP_FRACTION * PtcConfig().linear_rel_tol
    pattern = re.compile(r"step (\d+) steps smoothing aside: predicted "
                         r"\|source\|/\|R\| (\S+) < (\S+)")
    logged = [pattern.fullmatch(rec.getMessage()) for rec in caplog.records
              if rec.name == "ptcsmooth.ptc" and "aside" in rec.getMessage()]
    assert all(logged) and len(logged) == 5
    aside = [k + 1 for k, step in enumerate(_per_solve(steps, history)[2])
             if step in (ASIDE, REUSED)]
    assert [int(m[1]) for m in logged] == aside
    assert all(float(m[2]) < float(m[3]) == pytest.approx(threshold)
               for m in logged)


def test_a_smoothed_step_logs_its_rk_cycles(monkeypatch, caplog):
    # One DEBUG line per smoothed step: the cycles run of the five
    # scheduled, and whether the source floor stopped them. On the
    # benchmark's BDF run the cycles fall as the CFL grows.
    steps = _trace_steps(monkeypatch)
    with caplog.at_level("DEBUG", logger="ptcsmooth.ptc"):
        _bdf3_convdiff(RkSchedule())
    pattern = re.compile(r"smoothed step ran (\d) of (\d) RK cycles, stopped "
                         r"by the source floor: (True|False)")
    logged = [pattern.fullmatch(rec.getMessage()) for rec in caplog.records
              if rec.name == "ptcsmooth.ptc" and "RK" in rec.getMessage()]
    assert all(logged) and len(logged) == steps.count(SMOOTHED)
    cycles = [int(m[1]) for m in logged]
    assert cycles == [5] * 7 + [4, 3, 3, 2, 2, 1, 1] and sum(cycles) == 51
    assert all(m[2] == "5" and m[3] == str(int(m[1]) < 5) for m in logged)


# ---------------------------------------------------------------------------
# an unsmoothed step reuses the fresh line factor of the step before it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("smoothing, reused", [
    (None, [(k, k - 1) for n in (13, 6, 6) for k in range(2, n + 1, 2)]),
    (RkSchedule(), [(2, 1), (4, 3), (6, 5)]),
], ids=["plain", "smoothed"])
def test_a_reused_step_logs_one_debug_line(smoothing, reused, monkeypatch,
                                           caplog):
    steps = _trace_steps(monkeypatch)
    with caplog.at_level("DEBUG", logger="ptcsmooth.ptc"):
        history = _bdf3_convdiff(smoothing)
    logged = [re.fullmatch(r"step (\d+) reuses step (\d+)'s line factor",
                           rec.getMessage())
              for rec in caplog.records if rec.name == "ptcsmooth.ptc"
              and "reuses" in rec.getMessage()]
    assert all(logged)
    assert [(int(m[1]), int(m[2])) for m in logged] == reused
    assert [k + 1 for solve in _per_solve(steps, history)
            for k, step in enumerate(solve) if step == REUSED] == \
        [k for k, _ in reused]


def test_a_smoothed_step_never_reuses(monkeypatch):
    # The smoothed run hands no step both a schedule and a factor: each
    # step handed a schedule factors both shifts afresh, and none reads
    # [0, 1], RK stages on a reused factor.
    steps = _trace_steps(monkeypatch)
    traced, schedules = ptcsmooth.ptc.newton_step, []

    def planned(*args, **kwargs):
        schedules.append(kwargs["schedule"])
        return traced(*args, **kwargs)

    monkeypatch.setattr(ptcsmooth.ptc, "newton_step", planned)
    _bdf3_convdiff(RkSchedule())
    assert [0, 1] not in steps and REUSED in steps
    assert [step == SMOOTHED for step in steps] == \
        [schedule is not None for schedule in schedules]


@pytest.mark.parametrize("failing", [1, 2], ids=["fresh", "reused"])
def test_a_step_after_a_rejection_factors_afresh(failing, monkeypatch):
    # Fail GMRES on step 1, which factors afresh, or step 2, which reuses
    # step 1's factor: the retry at the same state factors afresh, and the
    # step after it, once accepted, lends its factor to the next step.
    steps = _trace_steps(monkeypatch)
    gmres, forced = ptcsmooth.ptc.gmres_right_preconditioned, []

    def failing_once(operator, precon, b, *args):
        if len(steps) == failing and not forced:
            forced.append(list(steps[-1]))
            return np.zeros_like(b), GmresStats(0, 1.0, False)
        return gmres(operator, precon, b, *args)

    monkeypatch.setattr(ptcsmooth.ptc, "gmres_right_preconditioned",
                        failing_once)
    rep = solve_steady(make_bratu(64, 1.0), PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    assert [row.accepted for row in rep.history[:failing + 1]] == \
        [True] * (failing - 1) + [False, True]
    assert forced == [[[1, 0], REUSED][failing - 1]]
    assert steps[:failing + 3] == \
        [[1, 0], REUSED][:failing] + [[1, 0], REUSED, [1, 0]]


def test_a_reused_step_is_bitwise_the_step_handed_that_factor(monkeypatch):
    # Every reused step is handed the factor the step before it made
    # afresh, and runs the step newton_step gives with that factor; the
    # lagged factor is not the one the step would factor itself.
    calls, step = [], ptcsmooth.ptc.newton_step

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, step(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(ptcsmooth.ptc, "newton_step", recorded)
    p = make_quasi1d_euler(32)
    rep = solve_steady(p, PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    reused = [k for k, (_, kwargs, _) in enumerate(calls) if kwargs["lagged"]]
    assert reused == list(range(1, rep.newton_steps, 2))
    for k in reused:
        args, kwargs, ns = calls[k]
        assert kwargs["lagged"] is calls[k - 1][2].precon is ns.precon
        again = step(*args, **kwargs)
        # A reused step is handed no blocks: the fresh factor needs its own.
        fresh = step(*args[:6], p.first_order_blocks(args[1]),
                     **{**kwargs, "lagged": None})
        assert again.delta_w.tobytes() == ns.delta_w.tobytes()
        assert again.stats == ns.stats
        assert fresh.delta_w.tobytes() != ns.delta_w.tobytes()


# ---------------------------------------------------------------------------
# line_search
# ---------------------------------------------------------------------------

def test_line_search_linear_exact_solve_takes_full_step(scalar_chain):
    sys = scalar_chain
    w = sys.initial_state()
    dtau = np.full(sys.layout.n_cells, 1e12)
    delta = np.linalg.solve(sys.A, -sys.residual(w))
    res = line_search(sys, w, delta, sys.cell_measures / dtau,
                      np.zeros(sys.layout.n_dofs), sys.residual(w))
    assert res.alpha == 1.0
    assert res.f_alpha <= 1e-10 * res.f0


def test_line_search_accepted_alpha_decreases_objective():
    p = make_bratu(32, 2.0)
    cfg = PtcConfig()
    lines = _lines_for(p)
    w = p.initial_state()
    m_dtau = mass_over_dtau(p, w, cfg.cfl_init)
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w))
    res = line_search(p, w, ns.delta_w, m_dtau, ns.source, p.residual(w))
    assert res.alpha > 0.0
    assert res.f_alpha < res.f0


def test_line_search_descent_direction_derivative():
    # One-sided derivative of F^2 at alpha = 0 is negative for a fully
    # converged linear solve (checked at alpha = 1e-6).
    p = make_bratu(32, 1.0)
    cfg = PtcConfig(linear_rel_tol=1e-13, max_krylov=200)
    lines = _lines_for(p)
    w = p.initial_state()
    m_dtau = mass_over_dtau(p, w, cfg.cfl_init)
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w))

    def f_squared(alpha):
        trial = BlockVector(w.layout, w.values + alpha * ns.delta_w)
        vals = (np.repeat(m_dtau, 1) * (alpha * ns.delta_w)
                + p.residual(trial) - ns.source)
        return float(vals @ vals)

    assert f_squared(1e-6) < f_squared(0.0)


def test_line_search_rejects_ascent_direction(scalar_chain):
    sys = scalar_chain
    w = sys.initial_state()
    dtau = np.full(sys.layout.n_cells, 1e12)
    ascent = np.linalg.solve(sys.A, sys.residual(w))
    res = line_search(sys, w, ascent, sys.cell_measures / dtau,
                      np.zeros(sys.layout.n_dofs), sys.residual(w))
    assert res.alpha == 0.0
    assert res.f_alpha == res.f0


def test_line_search_inadmissible_trials_scored_infinite():
    e = make_quasi1d_euler(32)
    w = e.initial_state()
    m_dtau = mass_over_dtau(e, w, 10.0)
    # A huge negative-density direction makes every candidate inadmissible.
    bad = np.zeros(e.layout.n_dofs)
    bad[0::3] = -1e6
    res = line_search(e, w, bad, m_dtau, np.zeros(e.layout.n_dofs),
                      e.residual(w))
    assert res.alpha == 0.0
    assert all(np.isinf(f) for f in res.f_values[1:])


def test_line_search_overflowing_objective_scored_infinite(scalar_chain):
    # The trial states are usable, but M/dtau * alpha dw overflows: every
    # candidate scores +inf and the step is rejected without a warning.
    sys = scalar_chain
    w = sys.initial_state()
    huge = np.full(sys.layout.n_dofs, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = line_search(sys, w, huge, np.full(sys.layout.n_cells, 1e300),
                          np.zeros(sys.layout.n_dofs), sys.residual(w))
    assert res.alpha == 0.0
    assert all(np.isinf(f) for f in res.f_values[1:])
    assert res.f_alpha == res.f0 == l2_norm(sys.residual(w))


# ---------------------------------------------------------------------------
# cfl_update controller truth table
# ---------------------------------------------------------------------------

def test_cfl_update_truth_table():
    cfg = PtcConfig()
    assert cfl_update(10.0, 1.0, cfg) == (15.0, True)
    assert cfl_update(10.0, 0.05, cfg) == (pytest.approx(1.0), False)
    assert cfl_update(10.0, 0.5, cfg) == (10.0, True)


def test_cfl_update_linear_failure_rejects():
    cfg = PtcConfig()
    # A failed linear solve reaches the controller as a zero step.
    new_cfl, accepted = cfl_update(10.0, 0.0, cfg)
    assert not accepted
    assert new_cfl == pytest.approx(1.0)


def test_cfl_update_band_boundaries():
    cfg = PtcConfig()
    assert cfl_update(10.0, 0.75, cfg) == (15.0, True)   # grow at 0.75
    assert cfl_update(10.0, 0.1, cfg)[1] is False        # reject at 0.1
    assert cfl_update(10.0, 0.11, cfg) == (10.0, True)


def test_cfl_update_caps_at_max():
    cfg = PtcConfig()
    assert cfl_update(CFL_MAX / 1.2, 1.0, cfg) == (CFL_MAX, True)


@pytest.mark.parametrize("alpha", [-0.25, 1.5, float("nan")])
def test_cfl_update_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha must lie in"):
        cfl_update(10.0, alpha, PtcConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        PtcConfig(beta_cfl1=1.0)
    for bad in ({"max_krylov": 0}, {"linear_rel_tol": 1.5},
                {"cfl_init": -1.0},
                {"cfl_init": float("nan")}, {"cfl_init": 1e-7},
                {"cfl_init": 1e-320}, {"beta_cfl1": float("nan")},
                {"beta_cfl1": float("inf")},
                {"target_residual_reduction": 0.0},
                {"target_residual_reduction": 1.0},
                {"target_residual_reduction": float("nan")},
                {"target_residual_absolute": 0.0},
                {"target_residual_absolute": float("nan")},
                {"target_residual_absolute": float("inf")},
                {"cfl_init": 1e13}, {"cfl_init": float("inf")},
                {"cfl_init": 1e308},
                {"max_newton_steps": 0}, {"max_newton_steps": 2.5},
                {"max_krylov": 2.5}):
        with pytest.raises(ValueError):
            PtcConfig(**bad)


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
    assert rep.final_cfl == PtcConfig().cfl_init


def test_bratu_unsmoothed_converges_within_budget():
    p = make_bratu(64, 1.0)
    rep = solve_steady(p, PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.newton_steps <= 30
    assert rep.final_residual_l2 <= 1e-8 * rep.initial_residual_l2


@pytest.mark.parametrize("build", [lambda: make_bratu(1024, 1.0),
                                   lambda: make_quasi1d_euler(128)],
                         ids=["bratu1024", "nozzle128"])
@pytest.mark.parametrize("smoothing", [None, RkSchedule()],
                         ids=["unsmoothed", "smoothed"])
def test_one_dimensional_problems_converge_on_whole_path_line(build, smoothing):
    # On singleton lines both exhaust the 500-step budget, with 73 and 75
    # rejections.
    p = build()
    assert _lines_for(p).lines == [list(range(p.layout.n_cells))]
    rep = solve_steady(p, PtcConfig(smoothing=smoothing))
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.rejection_count == 0
    assert rep.newton_steps <= 30


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


@pytest.mark.parametrize("settings", [
    {"max_krylov": 1, "linear_rel_tol": 1e-12, "max_newton_steps": 50},
    {"max_krylov": 3, "max_newton_steps": 20},
], ids=["all_rejected", "mixed"])
def test_first_order_blocks_evaluated_once_per_state(settings, monkeypatch):
    # Once per distinct state at which a step factors, in order: line
    # extraction and step 1 share one evaluation, a rejected step leaves the
    # state bit-identical, so its retry reuses them, and a step that reuses
    # the factor before it evaluates none.
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    original, calls = p.first_order_blocks, []
    p.first_order_blocks = \
        lambda w: calls.append(w.values.tobytes()) or original(w)
    step, factored = ptcsmooth.ptc.newton_step, []

    def recorded(system, w, *args, **kwargs):
        if kwargs["lagged"] is None:
            factored.append(w.values.tobytes())
        return step(system, w, *args, **kwargs)

    monkeypatch.setattr(ptcsmooth.ptc, "newton_step", recorded)
    rep = solve_steady(p, PtcConfig(**settings))
    assert any(not r.accepted for r in rep.history)
    assert calls == list(dict.fromkeys(factored))


def test_plain_nozzle_evaluates_blocks_only_where_it_factors():
    # Every other step of the plain nozzle32 solve reuses the factor before
    # it and evaluates no blocks: 7 evaluations over 13 steps.
    p = make_quasi1d_euler(32)
    original, calls = p.first_order_blocks, []
    p.first_order_blocks = lambda w: calls.append(w) or original(w)
    rep = solve_steady(p, PtcConfig())
    assert rep.outcome == SolveOutcome.CONVERGED
    assert (rep.newton_steps, len(calls)) == (13, 7)


def test_mass_over_dtau_formed_once_per_newton_step(monkeypatch):
    # The preconditioner, the smoothing source, the GMRES operator and the
    # line search all read the one M/dtau array the driver forms per step.
    original, calls = mass_over_dtau, []
    monkeypatch.setattr(ptcsmooth.ptc, "mass_over_dtau",
                        lambda *args: calls.append(args) or original(*args))
    rep = solve_steady(make_bratu(32, 1.0), PtcConfig(smoothing=RkSchedule()))
    assert rep.outcome == SolveOutcome.CONVERGED
    assert len(calls) == rep.newton_steps


def _nan_diagonal_blocks(p):
    original = p.first_order_blocks

    def blocks(w):
        fob = original(w)
        return FirstOrderBlocks(np.full_like(fob.diag, np.nan),
                                fob.off_ij, fob.off_ji)
    return blocks


def _nan_jacobian_vector(p):
    return lambda w, v: np.full(p.layout.n_dofs, np.nan)


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


def test_nonfinite_coupling_mid_solve_becomes_rejected_steps():
    # Finite blocks at the start extract the lines; an infinite in-line
    # coupling at every later state rejects each step that factors there at
    # the factor's gather, before any reduction, so no 0 * inf warning
    # escapes the solve. Step 2 reuses step 1's finite factor, and GMRES
    # and the line search vet it; step 3 factors, and is refused as futile.
    p = make_bratu(16, 1.0)
    original, start = p.first_order_blocks, p.initial_state().values

    def blocks(w):
        fob = original(w)
        if not np.array_equal(w.values, start):
            fob.off_ij[3] = np.inf
        return fob

    p.first_order_blocks = blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_steady(p, PtcConfig(max_newton_steps=50))
    assert rep.outcome == SolveOutcome.STAGNATED
    assert [r.accepted for r in rep.history] == [True, True, False]
    assert rep.history[2].krylov_count == 0


@pytest.mark.parametrize("settings", [
    {},
    {"max_newton_steps": 3},
    {"max_krylov": 1, "linear_rel_tol": 1e-12, "max_newton_steps": 50},
], ids=["converged", "budget", "stagnated"])
def test_final_cfl_is_the_last_rows_controller_verdict(settings):
    config = PtcConfig(**settings)
    rep = solve_steady(make_aniso_convdiff(8, 8, stretching_ratio=100.0),
                       config)
    last = rep.history[-1]
    assert rep.final_cfl == cfl_update(last.cfl, last.alpha, config)[0]


def test_start_far_above_the_operator_scale_stagnates_with_krylov_work():
    # |R| is about 6e133 here and |A P^-1 v| about 1e37. A breakdown bound
    # of eps * |b| on each new Krylov vector's norm would end every linear
    # solve after one vector with no reduction: krylov_count 1 and
    # linear_reduction 1.0 on every row.
    p = make_quasi1d_euler(32, rho_in=1.44e44, u_in=-1.27e-35,
                           p_exit=1.46e149)
    rep = solve_steady(p, PtcConfig(cfl_init=10.0))
    assert rep.outcome == SolveOutcome.STAGNATED
    assert len(rep.history) == 8
    assert not any(row.krylov_count == 1 and row.linear_reduction == 1.0
                   for row in rep.history)


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
    # The line search accepts only a descending fraction (criterion 1 and
    # the stress suite check every search); here we sanity check that the
    # recorded pseudo-unsteady residual at accepted steps is finite and that
    # rejections never advanced the residual.
    for rec in rep.history:
        assert np.isfinite(rec.ptc_residual_l2)
    # Rejections carry either the failed-solver alpha = 0 or a line-search
    # alpha at or below the rejection band.
    for rec in (r for r in rep.history if not r.accepted):
        assert rec.alpha <= ALPHA_REJECT_THRESHOLD


def test_solve_accepts_explicit_start_state():
    p = make_bratu(32, 1.0)
    pre = solve_steady(p, PtcConfig(target_residual_reduction=1e-4))
    rep = solve_steady(p, PtcConfig(), w0=pre.final_state)
    assert rep.outcome == SolveOutcome.CONVERGED
    assert rep.initial_residual_l2 == pytest.approx(pre.final_residual_l2)


def _bratu_overflowing_start():
    # exp(1e3) overflows, so the residual at this finite start is infinite.
    p = make_bratu(16, 1.0)
    return p, BlockVector(p.layout, np.full(16, 1e3))


def _bratu_overflowing_norm_start():
    # Every entry of R is finite (about -1e304), but its norm overflows.
    p = make_bratu(64, 1.0)
    return p, BlockVector(p.layout, np.full(64, 700.0))


def _nozzle_negative_density_start():
    e = make_quasi1d_euler(16)
    w = e.initial_state()
    w.values[0] = -1.0
    return e, w


@pytest.mark.parametrize("start", [_bratu_overflowing_start,
                                   _bratu_overflowing_norm_start,
                                   _nozzle_negative_density_start],
                         ids=["nonfinite_residual", "nonfinite_residual_norm",
                              "inadmissible_state"])
def test_inadmissible_start_is_documented_abort(start):
    problem, w0 = start()
    with pytest.raises(InadmissibleStateError):
        solve_steady(problem, PtcConfig(), w0=w0)


def test_start_with_overflowing_couplings_is_documented_abort():
    # The residual is finite (norm about 6.5e108), but the flux Jacobian
    # overflows, so the first-order couplings are not: no lines can be
    # extracted at this start, and the blocks are evaluated silently.
    p = make_quasi1d_euler(32, rho_in=1e-200, u_in=2e103)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleStateError,
                           match="coupling weights must be finite"):
            solve_steady(p, PtcConfig())
        # Given lines, the first step's non-finite blocks reject it, and
        # no CFL can mend them, so the solve stagnates there.
        rep = solve_steady(p, PtcConfig(), lines=singleton_lines(32))
    assert rep.outcome == SolveOutcome.STAGNATED
    assert len(rep.history) == 1 and not rep.history[0].accepted


@pytest.mark.parametrize("build", [lambda: make_bratu(8),
                                   lambda: make_aniso_convdiff(4, 4),
                                   lambda: make_quasi1d_euler(16)],
                         ids=["bratu", "convdiff", "nozzle"])
def test_start_state_of_another_layout_is_rejected(build):
    # On bratu the residual even accepts a start of the wrong length.
    problem = build()
    w0 = BlockVector(BlockLayout(5, problem.layout.block_size))
    with pytest.raises(ContractViolationError) as info:
        solve_steady(problem, PtcConfig(), w0=w0)
    assert str(w0.layout) in str(info.value)
    assert str(problem.layout) in str(info.value)


@pytest.mark.parametrize("n_cells", [15, 17])
def test_lines_over_another_cell_count_are_rejected(n_cells, monkeypatch):
    problem = make_aniso_convdiff(4, 4)
    evaluated = []
    monkeypatch.setattr(problem, "residual", evaluated.append)
    with pytest.raises(ContractViolationError,
                       match=f"lines cover {n_cells} cells, not 16"):
        solve_steady(problem, PtcConfig(), lines=singleton_lines(n_cells))
    assert evaluated == []


@pytest.mark.parametrize("build, build_other", [
    (lambda: make_aniso_convdiff(8, 8), lambda: make_bratu(64)),
    (lambda: make_bratu(16), lambda: make_aniso_convdiff(4, 4, 1000.0)),
], ids=["bratu_path_on_convdiff", "convdiff_lines_on_bratu"])
def test_lines_over_another_stencil_are_rejected(build, build_other,
                                                 monkeypatch):
    # Both stencils have the cell count: bratu64's whole-path line pairs
    # (7, 8), no grid edge of convdiff 8x8; convdiff 4x4's lines gather
    # edges bratu16 does not have.
    problem, lines = build(), _lines_for(build_other())
    assert lines.multi_cell_lines()
    evaluated = []
    monkeypatch.setattr(problem, "residual", evaluated.append)
    with pytest.raises(ContractViolationError, match="another stencil"):
        solve_steady(problem, PtcConfig(), lines=lines)
    assert evaluated == []
    # Factored directly, the blocks hold one per edge of the wrong stencil.
    blocks = problem.first_order_blocks(problem.initial_state())
    with pytest.raises(ContractViolationError, match="stencil edge"):
        factor_block_tridiag(lines, blocks, (None,))


def test_singleton_lines_fit_any_stencil():
    p = make_aniso_convdiff(4, 4)
    rep = solve_steady(p, PtcConfig(smoothing=RkSchedule()),
                       lines=singleton_lines(16))
    assert rep.outcome == SolveOutcome.CONVERGED


@pytest.mark.parametrize("b", [1, 3])
def test_ptc_preconditioner_matches_dense_shifted_jacobian(b):
    # Lines of 5, 3, 2 and 1 cells, packed into shared columns, some walked
    # against their edges.
    rng = np.random.default_rng(7 + b)
    lines = kernel_lines(11, [[0, 1, 2, 3, 4], [7, 6, 5], [8, 9], [10]])
    assert lines.index.shape[1] < len(lines.lines)
    blocks = FirstOrderBlocks(
        rng.standard_normal((11, b, b)) + 2.0 * b * np.eye(b),
        *random_couplings(rng, lines, b, 0.5))
    m_dtau = np.repeat(rng.uniform(0.5, 2.0, 11), b)
    precon, smoother = build_ptc_preconditioner(lines, blocks, m_dtau)
    assert smoother is None
    A = dense_from_lines(lines, blocks) + np.diag(m_dtau)
    r = rng.standard_normal(11 * b)
    ref = np.linalg.solve(A, r)
    assert (np.linalg.norm(precon.solve_values(r) - ref)
            <= 1e-12 * np.linalg.norm(ref))
