"""Smoke test of ``tools/history_digest.py`` on one small case."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "history_digest.py"


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


def test_unknown_case_is_refused():
    assert _load_tool().main(["no_such_case"]) == 2
