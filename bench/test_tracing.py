"""Tests of the benchmark's trace guard.

Run from the repository root: ``python3 -m pytest -q bench/test_tracing.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ptcsmooth  # noqa: E402
import ptcsmooth.linalg  # noqa: E402
import ptcsmooth.ptc  # noqa: E402
import ptcsmooth.smoother  # noqa: E402
from ptcsmooth.problems import make_aniso_convdiff  # noqa: E402

from tracing import SITES, SPAN_NAMES, Site, TraceGuardError, Tracer  # noqa: E402

LOOKUP_SITES = (ptcsmooth, ptcsmooth.linalg, ptcsmooth.ptc, ptcsmooth.smoother)


def test_every_site_resolves_and_rebinds_all_lookups():
    original = ptcsmooth.linalg.factor_block_tridiag
    with Tracer():
        for module in LOOKUP_SITES:
            wrapped = module.factor_block_tridiag
            assert wrapped is not original, module.__name__
            assert wrapped.__wrapped__ is original
        assert ptcsmooth.linalg.BlockTridiagFactorization.solve_values \
            .__wrapped__ is not None
    for module in LOOKUP_SITES:
        assert module.factor_block_tridiag is original


@pytest.mark.parametrize("attr", ["no_such_function",
                                  "BlockTridiagFactorization.no_such_method",
                                  "NoSuchClass.solve_values"])
def test_unresolved_name_fails_and_restores(attr):
    original = ptcsmooth.ptc.solve_steady
    tracer = Tracer(SITES[:1] + (Site("linalg.x", "ptcsmooth.linalg", attr),))
    with pytest.raises(TraceGuardError, match=attr.split(".")[0]):
        tracer.install()
    assert ptcsmooth.ptc.solve_steady is original


def test_expected_layer_without_calls_fails():
    problem = make_aniso_convdiff(4, 4, stretching_ratio=1000.0)
    config = ptcsmooth.PtcConfig(smoothing=ptcsmooth.RkSchedule(),
                                 max_newton_steps=2)
    with Tracer() as tracer:
        ptcsmooth.solve_steady(problem, config)
    steady = [n for n in SPAN_NAMES if n != "timestepping"]
    tracer.check_expected(steady)
    with pytest.raises(TraceGuardError, match="timestepping"):
        tracer.check_expected(SPAN_NAMES)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                    ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    self_s, calls = tracer.self_times()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}
