"""Stress properties of the continuation driver.

Problems far from their comfortable range (Bratu past the fold, strongly
stretched or reactive convection-diffusion, a nozzle near choking) are driven
with aggressive or timid CFL controllers, with and without smoothing, steady
and as BDF runs. Whatever happens, a solve ends as a ``SolveOutcome`` or, for
an unusable start, as ``InadmissibleStateError``; no other exception and no
warning escapes.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import ptcsmooth.ptc
from ptcsmooth.core import BlockVector, InadmissibleStateError, trial_residual
from ptcsmooth.lines import extract_lines
from ptcsmooth.ptc import PtcConfig, SolveOutcome, solve_steady
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)
from ptcsmooth.smoother import RkSchedule
from ptcsmooth.timestepping import UnsteadyConfig, advance_unsteady

MAX_STEPS = 30
BDF_DT = 5.0
BDF_STEPS = 2

SMOOTHINGS = {"plain": None, "default": RkSchedule(),
              "single_stage": RkSchedule((1.0,), 20)}

problems = st.one_of(
    st.tuples(st.just("bratu"), st.floats(0.5, 6.5)),
    st.tuples(st.just("convdiff"), st.integers(6, 10), st.integers(6, 10),
              st.floats(1.0, 1e4), st.floats(0.0, 50.0)),
    st.tuples(st.just("nozzle"), st.integers(16, 32), st.floats(0.2, 0.6)),
)


def _build(spec):
    name, *args = spec
    if name == "bratu":
        return make_bratu(64, args[0])
    if name == "convdiff":
        nx, ny, stretching, sigma = args
        return make_aniso_convdiff(nx, ny, stretching, sigma=sigma)
    n, u_in = args
    return make_quasi1d_euler(n, u_in=u_in)


def _check_history(report):
    previous = report.initial_residual_l2
    cumulative = 0
    for rec in report.history:
        if not rec.accepted:
            assert rec.residual_l2 == previous
        previous = rec.residual_l2
        assert rec.cumulative_krylov == cumulative + rec.krylov_count
        cumulative = rec.cumulative_krylov
    assert report.cumulative_krylov == cumulative


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=problems,
       fill=st.none() | st.floats(-1e200, 1e200),
       cfl_init=st.floats(-5.0, 8.0).map(lambda e: 10.0 ** e),
       beta_cfl1=st.floats(1.01, 5.0),
       smoothing=st.sampled_from(sorted(SMOOTHINGS)),
       unsteady=st.booleans())
# A finite start whose residual norm overflows (bratu at u = 700, convdiff
# at 1e153) is an unusable start, not a converged one.
@example(spec=("bratu", 1.0), fill=700.0, cfl_init=10.0, beta_cfl1=1.5,
         smoothing="plain", unsteady=False)
@example(spec=("convdiff", 8, 8, 1.0, 1.0), fill=1e153, cfl_init=10.0,
         beta_cfl1=1.5, smoothing="plain", unsteady=False)
# Under a CFL of 1e8, a smoother stage sends convdiff to a state where
# sigma * u * |u| overflows, and Bratu past the fold to a state where the
# pseudo-unsteady residual's norm overflows.
@example(spec=("convdiff", 8, 8, 1.0, 50.0), fill=None, cfl_init=1e8,
         beta_cfl1=1.5, smoothing="default", unsteady=False)
@example(spec=("bratu", 6.5), fill=None, cfl_init=1e8, beta_cfl1=1.5,
         smoothing="default", unsteady=False)
# A near-vacuum nozzle start: the Jacobian-vector products are finite, but
# their norm overflows inside GMRES.
@example(spec=("nozzle", 16, 0.5), fill=1.846419887642125e-256,
         cfl_init=1.0, beta_cfl1=2.0, smoothing="plain", unsteady=False)
# A stretching ratio within round-off of 1 built no grid (0 / 0).
@example(spec=("convdiff", 6, 6, 1.0000000000000002, 0.0), fill=None,
         cfl_init=1.0, beta_cfl1=2.0, smoothing="plain", unsteady=False)
def test_every_solve_ends_as_outcome_or_documented_abort(
        spec, fill, cfl_init, beta_cfl1, smoothing, unsteady):
    system = _build(spec)
    w0 = None
    if fill is not None and not unsteady:   # BDF runs start impulsively
        w0 = BlockVector(system.layout, np.full(system.layout.n_dofs, fill))
    _check_run(system, w0, cfl_init, beta_cfl1, smoothing, unsteady)


def _log_uniform(low, high):
    """10^e, e uniform over [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def _signed(magnitudes):
    """The magnitudes with a random sign."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(
        lambda pair: pair[0] * pair[1])


# Every parameter over what its constructor accepts, in log space: each
# magnitude within three decades of its default half the time, anywhere in
# 10^+-300 otherwise (the cell counts over small grids). A draw the
# constructor refuses with ValueError is outside that range and discarded.
def _magnitude(default):
    centre = float(np.log10(default))
    return _log_uniform(centre - 3.0, centre + 3.0) | _log_uniform(-300.0,
                                                                   300.0)


WIDE_PROBLEMS = {
    "bratu": (make_bratu, st.fixed_dictionaries({
        "n_cells": st.integers(3, 64), "lam": _signed(_magnitude(1.0))})),
    "convdiff": (make_aniso_convdiff, st.fixed_dictionaries({
        "nx": st.integers(4, 10), "ny": st.integers(4, 10),
        "stretching_ratio": (_log_uniform(0.0, 4.0)
                             | _log_uniform(0.0, 300.0)),
        "eps": _magnitude(0.01),
        "velocity": st.tuples(_signed(_magnitude(1.0)),
                              _signed(_magnitude(0.5))),
        "sigma": st.just(0.0) | _magnitude(1.0), "ly": _magnitude(1.0),
        "amplitude": _signed(_magnitude(0.5))})),
    "nozzle": (make_quasi1d_euler, st.fixed_dictionaries({
        "n_cells": st.integers(16, 32), "rho_in": _magnitude(1.0),
        "u_in": _signed(_magnitude(0.3)), "p_exit": _magnitude(1.0 / 1.4),
        "gamma": _magnitude(0.4).map(lambda g: 1.0 + g),
        "length": _magnitude(1.0)})),
}


@pytest.mark.parametrize("family", sorted(WIDE_PROBLEMS))
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data(),
       start=st.none() | st.tuples(st.integers(0, 2 ** 32 - 1),
                                   st.floats(-300.0, 300.0),
                                   st.floats(0.0, 100.0), st.booleans()),
       cfl_init=st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e),
       beta_cfl1=st.floats(1.01, 5.0),
       smoothing=st.sampled_from(sorted(SMOOTHINGS)),
       unsteady=st.booleans())
def test_wide_parameters_and_log_normal_starts_end_as_outcome_or_abort(
        family, data, start, cfl_init, beta_cfl1, smoothing, unsteady):
    # A log-normal start draws each entry as 10^(center + spread * N(0, 1)),
    # its exponent clipped to +-300, with a random sign when signed.
    make, parameters = WIDE_PROBLEMS[family]
    try:
        system = make(**data.draw(parameters))
    except ValueError:
        reject()
    w0 = None
    if start is not None:
        seed, center, spread, signed = start
        rng = np.random.default_rng(seed)
        n = system.layout.n_dofs
        values = 10.0 ** np.clip(center + spread * rng.standard_normal(n),
                                 -300.0, 300.0)
        if signed:
            values *= rng.choice((-1.0, 1.0), n)
        w0 = BlockVector(system.layout, values)
    _check_run(system, w0, cfl_init, beta_cfl1, smoothing, unsteady)


def _unusable(system, start):
    """A start the solvers refuse before any step: ``trial_residual``
    rejects it, or line extraction refuses its couplings."""
    if trial_residual(system, start) is None:
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = system.first_order_blocks(start)
    try:
        extract_lines(blocks, system.edges)
    except InadmissibleStateError:
        return True
    return False


def _check_run(system, w0, cfl_init, beta_cfl1, smoothing, unsteady):
    """Solve from ``w0`` (the system's start if None), steady or as a BDF
    run, and check that it ends as an outcome or an inadmissible start,
    with no warning, a consistent history and descending line searches."""
    config = PtcConfig(cfl_init=cfl_init, beta_cfl1=beta_cfl1,
                       max_newton_steps=MAX_STEPS,
                       smoothing=SMOOTHINGS[smoothing])
    searches = []
    search = ptcsmooth.ptc.line_search

    def recorded(*args):
        searches.append(search(*args))
        return searches[-1]

    with warnings.catch_warnings(), \
            mock.patch.object(ptcsmooth.ptc, "line_search", recorded):
        warnings.simplefilter("error")
        try:
            if unsteady:
                if w0 is not None:
                    system.initial_state = w0.copy
                history = advance_unsteady(
                    system, UnsteadyConfig(BDF_DT, BDF_STEPS, config))
                reports = history.reports
                outcomes = [rep.outcome for rep in reports]
                # The run stops at the first inner solve that does not
                # converge.
                assert all(o == SolveOutcome.CONVERGED
                           for o in outcomes[:-1])
                assert history.aborted == (
                    outcomes[-1] != SolveOutcome.CONVERGED)
                assert history.aborted or len(reports) == BDF_STEPS
            else:
                reports = [solve_steady(system, config, w0)]
        except InadmissibleStateError:
            assert _unusable(system, system.initial_state() if w0 is None
                             else w0)
            return

    for rep in reports:
        assert isinstance(rep.outcome, SolveOutcome)
        _check_history(rep)
        assert np.isfinite(rep.final_residual_l2)
    for ls in searches:
        assert ls.alpha == 0.0 or ls.f_alpha < ls.f0
