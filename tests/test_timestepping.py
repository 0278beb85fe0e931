import warnings
from dataclasses import replace

import numpy as np
import pytest

import ptcsmooth.ptc
import ptcsmooth.timestepping
from ptcsmooth.core import (BlockLayout, BlockVector, ContractViolationError,
                            FirstOrderBlocks, InadmissibleStateError,
                            NonlinearSystem, l2_norm)
from ptcsmooth.lines import extract_lines
from ptcsmooth.ptc import (CFL_STAGNATION_FLOOR, PtcConfig, SolveOutcome,
                           cfl_update, solve_steady)
from ptcsmooth.smoother import RkSchedule
from ptcsmooth.timestepping import (BdfStepSystem, UnsteadyConfig,
                                    advance_unsteady)
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import diffusion_chain, validate_jacobian


class ZeroSystem(NonlinearSystem):
    """R(w) = 0 with unit mass; isolates the discrete time derivative."""

    def __init__(self, n):
        self.layout = BlockLayout(n, 1)
        self.edges = np.zeros((0, 2), dtype=int)
        self.cell_measures = np.ones(n)

    def residual(self, w):
        return np.zeros(self.layout.n_dofs)

    def jacobian_vector(self, w, v):
        return np.zeros(self.layout.n_dofs)

    def first_order_blocks(self, w):
        n = self.layout.n_cells
        return FirstOrderBlocks(np.zeros((n, 1, 1)), np.zeros((0, 1, 1)),
                                np.zeros((0, 1, 1)))

    def explicit_dt(self, w):
        return np.ones(self.layout.n_cells)

    def initial_state(self):
        return BlockVector(self.layout)


def test_steady_state_is_fixed_point():
    sys = diffusion_chain(n=8, b=1)
    w_star = sys.solution()
    r = BdfStepSystem(sys, w_star, w_star, dt=0.1).residual(w_star)
    assert l2_norm(r) <= 1e-12 * max(1.0, np.linalg.norm(sys.rhs))


def test_infinite_dt_recovers_steady_residual():
    p = make_bratu(16, 1.0)
    w = p.initial_state()
    rng = np.random.default_rng(0)
    w_prev = BlockVector(p.layout, 0.1 * rng.standard_normal(16))
    r_unsteady = BdfStepSystem(p, w_prev, w_prev, dt=1e12).residual(w)
    r_steady = p.residual(w)
    assert l2_norm(r_unsteady - r_steady) <= 1e-9 * l2_norm(r_steady)


def test_bdf2_exact_on_quadratics():
    # w(t) = c * t^2 sampled at t_n, t_n - dt, t_n - 2 dt: the BDF2 stencil
    # must reproduce 2 c t_n to round-off.
    n = 6
    sys = ZeroSystem(n)
    c = np.linspace(1.0, 2.0, n)
    dt = 0.37
    t_n = 1.9

    def state(t):
        return BlockVector(sys.layout, c * t * t)

    r = BdfStepSystem(sys, state(t_n - dt), state(t_n - 2 * dt),
                      dt).residual(state(t_n))
    exact = 2.0 * c * t_n
    assert np.allclose(r, exact, rtol=1e-12)


def test_bdf1_startup_stencil():
    n = 4
    sys = ZeroSystem(n)
    c = np.arange(1.0, n + 1.0)
    dt = 0.25
    w = BlockVector(sys.layout, c)
    w_prev = BlockVector(sys.layout, np.zeros(n))
    r = BdfStepSystem(sys, w_prev, None, dt).residual(w)
    assert np.allclose(r, c / dt, rtol=1e-14)


def test_dt_validation():
    sys = ZeroSystem(3)
    w = sys.initial_state()
    for dt in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive"):
            BdfStepSystem(sys, w, None, dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            UnsteadyConfig(dt=dt, n_steps=2, inner=PtcConfig())
    # Positive and finite, but the BDF shift c/dt overflows: the inner
    # solve would otherwise meet only non-finite pivot blocks.
    for dt in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="is too small: 1.0/dt overflows"):
            BdfStepSystem(sys, w, None, dt)
        with pytest.raises(ValueError, match="is too small: 1.5/dt overflows"):
            UnsteadyConfig(dt=dt, n_steps=2, inner=PtcConfig())
    # 1/dt is finite, 1.5/dt is not: BDF1 takes this dt, BDF2 refuses it.
    dt = 1.2 / np.finfo(float).max
    assert BdfStepSystem(sys, w, None, dt).shift_coeff == 1.0 / dt < np.inf
    with pytest.raises(ValueError, match="1.5/dt overflows"):
        BdfStepSystem(sys, w, w, dt)
    with pytest.raises(ValueError, match="1.5/dt overflows"):
        UnsteadyConfig(dt=dt, n_steps=2, inner=PtcConfig())
    # A one-step run takes only the BDF1 step, so its config takes this dt.
    assert UnsteadyConfig(dt=dt, n_steps=1, inner=PtcConfig()).dt == dt
    for n_steps in (0, 2.5):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            UnsteadyConfig(dt=0.1, n_steps=n_steps, inner=PtcConfig())
    # A history state must have the system's layout; the solve would
    # otherwise fail on a numpy broadcast.
    bratu = make_bratu(8)
    short = make_bratu(5).initial_state()
    for w_prev, w_prev2 in ((short, None), (bratu.initial_state(), short)):
        with pytest.raises(ContractViolationError,
                           match=r"w_prev2? has layout BlockLayout\(n_cells=5.*n_cells=8"):
            solve_steady(BdfStepSystem(bratu, w_prev, w_prev2, 0.1),
                         PtcConfig())


# Block size 1 (bratu) and 3 (the nozzle), so that the per-unknown mass is
# checked against more than one equation per cell.
WRAPPED = [lambda: make_bratu(24, 1.0), lambda: make_quasi1d_euler(16)]


@pytest.mark.parametrize("build", WRAPPED, ids=["bratu", "nozzle"])
def test_wrapped_system_jacobian_is_exact(build):
    p = build()
    w_prev = p.initial_state()
    n = p.layout.n_dofs
    for w_prev2 in (None, BlockVector(p.layout, 0.05 * np.ones(n))):
        wrapped = BdfStepSystem(p, w_prev, w_prev2, dt=0.1)
        assert validate_jacobian(wrapped, wrapped.initial_state()) <= 1e-6


@pytest.mark.parametrize("build", WRAPPED, ids=["bratu", "nozzle"])
def test_wrapped_blocks_carry_time_shift(build):
    p = build()
    w = p.initial_state()
    wrapped = BdfStepSystem(p, w, w, dt=0.5)
    base = p.first_order_blocks(w)
    shifted = wrapped.first_order_blocks(w)
    shift = 1.5 / 0.5 * p.cell_measures
    expected = base.diag + shift[:, None, None] * np.eye(p.layout.block_size)
    assert np.allclose(shifted.diag, expected, rtol=1e-14)
    assert wrapped.edges is p.edges


def test_large_dt_unsteady_matches_steady_solve():
    p = make_bratu(32, 1.0)
    steady = solve_steady(p, PtcConfig())
    hist = advance_unsteady(p, UnsteadyConfig(dt=1e12, n_steps=1,
                                              inner=PtcConfig()))
    w_steady = steady.final_state.values
    w_unsteady = hist.reports[-1].final_state.values
    err = np.linalg.norm(w_unsteady - w_steady) / np.linalg.norm(w_steady)
    assert err <= 1e-8


def test_already_steady_steps_converge_immediately():
    # lambda = 0: u = 0 is steady, so every unsteady step starts converged.
    p = make_bratu(16, 0.0)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.1, n_steps=3,
                                              inner=PtcConfig()))
    assert not hist.aborted
    assert [r.newton_steps for r in hist.reports] == [0, 0, 0]
    assert all(r.outcome == SolveOutcome.CONVERGED for r in hist.reports)


def test_unsteady_disparity_and_smoothing_gain():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0)
    w0 = p.initial_state()
    tol_abs = 1e-6 * l2_norm(BdfStepSystem(p, w0, None, 0.05).residual(w0))
    histories = {}
    for label, sched in (("plain", None), ("smoothed", RkSchedule())):
        inner = PtcConfig(max_newton_steps=200, target_residual_reduction=1e-12,
                          target_residual_absolute=tol_abs, smoothing=sched)
        histories[label] = advance_unsteady(
            p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    plain = [r.newton_steps for r in histories["plain"].reports]
    smooth = [r.newton_steps for r in histories["smoothed"].reports]
    assert plain[2] < plain[0]      # warm starts get cheaper
    assert smooth[0] < plain[0]     # smoothing attacks the impulsive step


def test_scaled_start_in_place_and_recomputed_residual():
    # The benchmark's state handling: scale the starting state in place,
    # hand it to advance_unsteady through initial_state, and recompute the
    # final residual of the step's system outside the solver.
    p = make_aniso_convdiff(4, 4, stretching_ratio=100.0)
    w0 = p.initial_state()
    w0.values[:] = 0.5
    w0.values *= 1.0 + 0.01 * np.linspace(-1.0, 1.0, w0.values.size)
    p.initial_state = w0.copy
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=1,
                                              inner=PtcConfig()))
    report = hist.reports[0]
    assert report.outcome == SolveOutcome.CONVERGED
    system = BdfStepSystem(p, w0, None, 0.05)
    r_norm = l2_norm(system.residual(report.final_state))
    assert r_norm == pytest.approx(report.final_residual_l2, rel=1e-12)
    assert report.final_state is not w0
    assert np.array_equal(p.initial_state().values, w0.values)


def test_reports_are_replayable():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_newton_steps=100)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    # Re-run step 2 from its recorded initial state and start CFL:
    # identical records.
    w0 = p.initial_state()
    w1 = hist.reports[0].final_state
    wrapped = BdfStepSystem(p, w1, w0, dt=0.05)
    replay = solve_steady(
        wrapped, replace(inner, cfl_init=hist.reports[1].history[0].cfl))
    assert replay.history == hist.reports[1].history


def test_stagnation_aborts_with_partial_history():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_krylov=1, linear_rel_tol=1e-12, max_newton_steps=60)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    assert hist.aborted
    assert len(hist.reports) == 1
    assert hist.reports[0].outcome == SolveOutcome.STAGNATED
    # The CFL a carry would start the next step at is not a valid cfl_init:
    # the abort must come before any next-step config is built.
    last = hist.reports[0].history[-1]
    assert cfl_update(last.cfl, last.alpha, inner)[0] < CFL_STAGNATION_FLOOR


def test_start_with_overflowing_couplings_aborts_before_any_step():
    # A finite residual, but first-order couplings that overflow: the run's
    # one line extraction refuses the start, with no warning.
    p = make_quasi1d_euler(32, rho_in=1e-200, u_in=2e103)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleStateError,
                           match="coupling weights must be finite"):
            advance_unsteady(p, UnsteadyConfig(0.1, 2, PtcConfig()))


def test_unconverged_inner_solve_aborts():
    # Two Newton steps cannot converge the first physical step; the run
    # must stop there instead of marching on from an unconverged state.
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_newton_steps=2)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    assert hist.aborted
    assert len(hist.reports) == 1
    assert hist.reports[0].outcome == SolveOutcome.STEP_BUDGET_EXHAUSTED


def _recording_solves(monkeypatch):
    """Record the system, config and lines of every inner solve of a run."""
    calls = []

    def recorded(system, config, w0=None, lines=None):
        calls.append((system, config, lines))
        return solve_steady(system, config, w0, lines=lines)

    monkeypatch.setattr(ptcsmooth.timestepping, "solve_steady", recorded)
    return calls


@pytest.mark.parametrize("sched", [None, RkSchedule()],
                         ids=["plain", "smoothed"])
def test_each_step_starts_at_the_cfl_the_last_one_reached(sched):
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_newton_steps=100, smoothing=sched)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    assert not hist.aborted
    assert hist.reports[0].history[0].cfl == inner.cfl_init
    for prev, report in zip(hist.reports, hist.reports[1:]):
        last = prev.history[-1]
        assert (report.history[0].cfl
                == cfl_update(last.cfl, last.alpha, inner)[0])
        assert report.history[0].cfl == prev.final_cfl


def test_step_converged_at_its_start_carries_the_cfl_unchanged(monkeypatch):
    calls = _recording_solves(monkeypatch)
    inner = PtcConfig(cfl_init=3.0)
    hist = advance_unsteady(make_bratu(16, 0.0),
                            UnsteadyConfig(dt=0.1, n_steps=3, inner=inner))
    assert [r.newton_steps for r in hist.reports] == [0, 0, 0]
    assert [config for _, config, _ in calls] == [inner] * 3


@pytest.mark.parametrize("build", [
    lambda: make_aniso_convdiff(16, 24, stretching_ratio=1000.0),
    lambda: make_quasi1d_euler(32)], ids=["convdiff", "nozzle"])
def test_lines_are_extracted_once_per_run(build, monkeypatch):
    extractions = []

    def counted(blocks, edges):
        extractions.append(edges)
        return extract_lines(blocks, edges)

    for module in (ptcsmooth.timestepping, ptcsmooth.ptc):
        monkeypatch.setattr(module, "extract_lines", counted)
    calls = _recording_solves(monkeypatch)
    p = build()
    hist = advance_unsteady(p, UnsteadyConfig(
        dt=0.05, n_steps=3, inner=PtcConfig(max_newton_steps=100)))
    assert not hist.aborted
    assert len(extractions) == 1
    # Every step runs on the run's lines, which are the lines that step's
    # own start state gives: the BDF shift moves only the diagonal blocks.
    run_lines = calls[0][2]
    for system, _, lines in calls:
        assert lines is run_lines
        w = system.initial_state()
        assert extract_lines(system.first_order_blocks(w), p.edges) == lines
