"""Tests of ``tools/history_digest.py``: a smoke test on one small case, and
every case's counts against a committed table."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "history_digest.py"

# Newton steps / cumulative Krylov vectors / rejections of every line the
# tool prints. A change to the kernels that moves only round-off keeps them.
PINNED_COUNTS = {
    "convdiff16x24 plain": "15/327/0",
    "convdiff16x24 smoothed": "10/158/0",
    "convdiff32x48 plain": "14/197/0",
    "convdiff32x48 smoothed": "8/85/0",
    "nozzle32 plain": "13/100/0",
    "nozzle32 smoothed": "7/52/0",
    "nozzle128 plain": "17/95/0",
    "nozzle128 smoothed": "6/35/0",
    "bratu64 plain": "12/12/0",
    "bratu64 smoothed": "4/4/0",
    "crit5_nozzle32_singleton plain": "25/1985/4",
    "crit5_nozzle32_singleton smoothed": "18/1556/1",
    "crit5_nozzle128 plain": "72/920/10",
    "crit5_nozzle128 smoothed": "8/88/0",
    "bdf3_convdiff16x24/step 0 plain": "13/55/0",
    "bdf3_convdiff16x24/step 1 plain": "6/28/0",
    "bdf3_convdiff16x24/step 2 plain": "6/28/0",
    "bdf3_convdiff16x24/step 0 smoothed": "7/36/0",
    "bdf3_convdiff16x24/step 1 smoothed": "6/28/0",
    "bdf3_convdiff16x24/step 2 smoothed": "6/28/0",
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("history_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_repeat_across_processes():
    result = subprocess.run([sys.executable, str(TOOL), "bratu64"],
                            capture_output=True, text=True, check=True,
                            timeout=120)
    lines = result.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "bratu64 plain 12/12/0", "bratu64 smoothed 4/4/0"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1])
               for line in lines)
    assert lines[0] != lines[1]
    assert _load_tool().case_digests("bratu64") == lines


def test_digest_covers_history_and_final_state():
    tool = _load_tool()
    from ptcsmooth import PtcConfig, solve_steady
    from ptcsmooth.problems import make_bratu
    report = solve_steady(make_bratu(16, 1.0), PtcConfig())
    base = tool.report_digest(report)
    report.history[-1].cfl = -report.history[-1].cfl
    assert tool.report_digest(report) != base
    report.history[-1].cfl = -report.history[-1].cfl
    report.final_state.values[0] += 1.0
    assert tool.report_digest(report) != base


def test_every_case_keeps_its_pinned_counts():
    tool = _load_tool()
    counts = dict(line.rsplit(" ", 2)[:2]
                  for name in tool.CASES for line in tool.case_digests(name))
    assert counts == PINNED_COUNTS


def test_unknown_case_is_refused():
    assert _load_tool().main(["no_such_case"]) == 2
