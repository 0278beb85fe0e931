"""The checks of ``tools/trace_guard.py``, on made-up result lines."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_guard.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("trace_guard", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(correct=True, failed=0, changed=()):
    """A result line that passes every check, but for ``changed`` metrics."""
    values = {"linalg.factor.calls": 47, "ptc.precon_build.calls": 47,
              "smoother.build.calls": 18, "lines.multi_cell_frac": 1.0,
              "lines.extract.calls": 2, "smoother.degraded": 0,
              "linalg.line_solve.calls": 1084, "problems.jv.calls": 767,
              "linalg.gmres.calls": 47, "smoother.rk.calls": 18,
              "problems.residual.calls": 327, "ptc.line_search.trials": 53,
              "ptc.calls": 4, "ptc.line_search.calls": 64,
              "problems.blocks.calls": 49}
    values.update(changed)
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_every_workload_passes_a_passing_result():
    tool = _load_tool()
    assert all(tool.failed_checks(workload, _result()) == []
               for workload in tool.WORKLOADS)


@pytest.mark.parametrize("workload, result, failed", [
    ("convdiff_sweep", _result(correct=False), "correct"),
    ("convdiff_sweep", _result(failed=1), "failed 1 == 0"),
    ("unsteady_bdf", _result(changed={"linalg.factor.calls": 48}),
     "linalg.factor.calls 48 == ptc.precon_build.calls 47"),
    ("nozzle_sweep", _result(changed={"linalg.factor.calls": 64,
                                      "ptc.precon_build.calls": 64}),
     "linalg.factor.calls 64 < ptc.line_search.calls 64"),
    ("nozzle_sweep", _result(changed={"lines.multi_cell_frac": 0.5}),
     "lines.multi_cell_frac 0.5 == 1"),
    ("unsteady_bdf", _result(changed={"lines.extract.calls": 6}),
     "lines.extract.calls 6 == 2"),
    ("convdiff_sweep", _result(changed={"problems.blocks.calls": 50}),
     "problems.blocks.calls 50 <= linalg.factor.calls 47 + "
     "lines.extract.calls 2"),
    ("nozzle_sweep", _result(changed={"linalg.line_solve.calls": 1085}),
     "linalg.line_solve.calls 1085 == problems.jv.calls 767 + "
     "linalg.gmres.calls 47 + 15 * smoother.rk.calls 18"),
    ("unsteady_bdf", _result(changed={"problems.residual.calls": 328}),
     "problems.residual.calls 328 == 15 * smoother.rk.calls 18 + "
     "ptc.line_search.trials 53 + ptc.calls 4"),
], ids=["incorrect", "failed_operation", "third_factor_path",
        "factor_per_step", "singleton_nozzle_lines", "per_step_extraction",
        "blocks_without_factor", "extra_line_solve", "extra_residual"])
def test_each_check_fails_alone(workload, result, failed):
    assert _load_tool().failed_checks(workload, result) == [failed]


def test_degraded_smoother_skips_the_line_solve_count():
    # An abandoned RK cycle makes fewer than 15 solves and residuals per call.
    result = _result(changed={"smoother.degraded": 1,
                              "linalg.line_solve.calls": 1080,
                              "problems.residual.calls": 323})
    assert _load_tool().failed_checks("convdiff_sweep", result) == []


def test_missing_count_fails():
    result = _result()
    del result["metrics"]["ptc.precon_build.calls"]
    assert _load_tool().failed_checks("convdiff_sweep", result) == [
        "missing 'ptc.precon_build.calls'"]
