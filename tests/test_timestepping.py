import numpy as np
import pytest

from ptcsmooth.core import (BlockLayout, BlockVector, FirstOrderBlocks,
                            MassMatrix, NonlinearSystem, l2_norm,
                            validate_jacobian)
from ptcsmooth.ptc import PtcConfig, SolveOutcome, solve_steady
from ptcsmooth.smoother import RkSchedule
from ptcsmooth.timestepping import (BdfStepSystem, UnsteadyConfig,
                                    advance_unsteady, bdf_residual)
from ptcsmooth.problems import make_aniso_convdiff, make_bratu

from conftest import diffusion_chain


class ZeroSystem(NonlinearSystem):
    """R(w) = 0 with unit mass; isolates the discrete time derivative."""

    def __init__(self, n):
        self._layout = BlockLayout(n, 1)
        self._mass = MassMatrix(self._layout, np.ones(n))

    @property
    def layout(self):
        return self._layout

    def residual(self, w):
        return BlockVector.zeros(self._layout)

    def jacobian_vector(self, w, v):
        return BlockVector.zeros(self._layout)

    def first_order_blocks(self, w):
        n = self._layout.n_cells
        edges = np.zeros((0, 2), dtype=int)
        return FirstOrderBlocks(self._layout, np.zeros((n, 1, 1)), edges,
                                np.zeros((0, 1, 1)), np.zeros((0, 1, 1)))

    def mass(self):
        return self._mass

    def explicit_dt(self, w):
        return np.ones(self._layout.n_cells)

    def initial_state(self):
        return BlockVector.zeros(self._layout)


def test_steady_state_is_fixed_point():
    sys = diffusion_chain(n=8, b=1)
    w_star = sys.solution()
    r = bdf_residual(sys, w_star, w_star, w_star, dt=0.1)
    assert l2_norm(r) <= 1e-12 * max(1.0, np.linalg.norm(sys.rhs))


def test_infinite_dt_recovers_steady_residual():
    p = make_bratu(16, 1.0)
    w = p.initial_state()
    rng = np.random.default_rng(0)
    w_prev = BlockVector(p.layout, 0.1 * rng.standard_normal(16))
    r_unsteady = bdf_residual(p, w, w_prev, w_prev, dt=1e12)
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

    r = bdf_residual(sys, state(t_n), state(t_n - dt), state(t_n - 2 * dt), dt)
    exact = 2.0 * c * t_n
    assert np.allclose(r.values, exact, rtol=1e-12)


def test_bdf1_startup_stencil():
    n = 4
    sys = ZeroSystem(n)
    c = np.arange(1.0, n + 1.0)
    dt = 0.25
    w = BlockVector(sys.layout, c)
    w_prev = BlockVector(sys.layout, np.zeros(n))
    r = bdf_residual(sys, w, w_prev, None, dt)
    assert np.allclose(r.values, c / dt, rtol=1e-14)


def test_dt_validation():
    sys = ZeroSystem(3)
    w = sys.initial_state()
    with pytest.raises(ValueError):
        bdf_residual(sys, w, w, None, 0.0)
    with pytest.raises(ValueError):
        BdfStepSystem(sys, w, None, -1.0)
    with pytest.raises(ValueError):
        UnsteadyConfig(dt=0.0, n_steps=2, inner=PtcConfig())


def test_wrapped_system_jacobian_is_exact():
    p = make_bratu(24, 1.0)
    w_prev = p.initial_state()
    for w_prev2 in (None, BlockVector(p.layout, 0.05 * np.ones(24))):
        wrapped = BdfStepSystem(p, w_prev, w_prev2, dt=0.1)
        assert validate_jacobian(wrapped, wrapped.initial_state()) <= 1e-6


def test_wrapped_blocks_carry_time_shift():
    p = make_bratu(8, 1.0)
    w = p.initial_state()
    wrapped = BdfStepSystem(p, w, w, dt=0.5)
    base = p.first_order_blocks(w)
    shifted = wrapped.first_order_blocks(w)
    expected = base.diag[:, 0, 0] + 1.5 / 0.5 * p.mass().cell_measures
    assert np.allclose(shifted.diag[:, 0, 0], expected, rtol=1e-14)
    assert np.array_equal(shifted.edges, base.edges)


def test_large_dt_unsteady_matches_steady_solve():
    p = make_bratu(32, 1.0)
    steady = solve_steady(p, PtcConfig())
    hist = advance_unsteady(p, UnsteadyConfig(dt=1e12, n_steps=1,
                                              inner=PtcConfig()))
    w_steady = steady.final_state.values
    w_unsteady = hist.final_state.values
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


def test_reports_are_replayable():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_newton_steps=100)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    # Re-run step 2 from its recorded initial state: identical records.
    w0 = p.initial_state()
    w1 = hist.reports[0].final_state
    wrapped = BdfStepSystem(p, w1, w0, dt=0.05)
    replay = solve_steady(wrapped, inner)
    assert replay.history == hist.reports[1].history


def test_stagnation_aborts_with_partial_history():
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_krylov=1, linear_rel_tol=1e-12, max_newton_steps=60)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    assert hist.aborted
    assert hist.n_steps_completed == 1
    assert hist.reports[0].outcome == SolveOutcome.STAGNATED


def test_unconverged_inner_solve_aborts():
    # Two Newton steps cannot converge the first physical step; the run
    # must stop there instead of marching on from an unconverged state.
    p = make_aniso_convdiff(8, 8, stretching_ratio=100.0)
    inner = PtcConfig(max_newton_steps=2)
    hist = advance_unsteady(p, UnsteadyConfig(dt=0.05, n_steps=3, inner=inner))
    assert hist.aborted
    assert hist.n_steps_completed == 1
    assert hist.reports[0].outcome == SolveOutcome.STEP_BUDGET_EXHAUSTED
