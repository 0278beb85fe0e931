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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptcsmooth.ptc
from ptcsmooth.core import BlockVector, InadmissibleStateError, trial_residual
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
        if unsteady:
            history = advance_unsteady(
                system, UnsteadyConfig(BDF_DT, BDF_STEPS, config))
            reports = history.reports
            outcomes = [rep.outcome for rep in reports]
            # The run stops at the first inner solve that does not converge.
            assert all(o == SolveOutcome.CONVERGED for o in outcomes[:-1])
            assert history.aborted == (outcomes[-1] != SolveOutcome.CONVERGED)
            assert history.aborted or len(reports) == BDF_STEPS
        else:
            w0 = None
            if fill is not None:
                w0 = BlockVector(system.layout,
                                 np.full(system.layout.n_dofs, fill))
            try:
                reports = [solve_steady(system, config, w0)]
            except InadmissibleStateError:
                assert w0 is not None and trial_residual(system, w0) is None
                return

    for rep in reports:
        assert isinstance(rep.outcome, SolveOutcome)
        _check_history(rep)
        assert np.isfinite(rep.final_residual_l2)
    for ls in searches:
        assert ls.alpha == 0.0 or ls.f_alpha < ls.f0
