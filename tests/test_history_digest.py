"""Tests of ``tools/history_digest.py``: a smoke test on one small case,
every case's counts against a committed table, and the ``--against``
comparison with a commit."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "history_digest.py"

# Newton steps / cumulative Krylov vectors / rejections of every line the
# tool prints. A change to the kernels that moves only round-off keeps them.
PINNED_COUNTS = {
    "convdiff16x24 plain": "15/327/0",
    "convdiff16x24 smoothed": "10/158/0",
    "convdiff32x48 plain": "14/198/0",
    "convdiff32x48 smoothed": "8/85/0",
    "nozzle32 plain": "13/100/0",
    "nozzle32 smoothed": "7/52/0",
    "nozzle128 plain": "17/97/0",
    "nozzle128 smoothed": "6/35/0",
    "bratu64 plain": "12/13/0",
    "bratu64 smoothed": "4/4/0",
    "crit5_nozzle32_singleton plain": "25/1985/4",
    "crit5_nozzle32_singleton smoothed": "18/1556/1",
    "crit5_nozzle128 plain": "60/782/6",
    "crit5_nozzle128 smoothed": "8/89/0",
    "bdf3_convdiff16x24/step 0 plain": "13/56/0",
    "bdf3_convdiff16x24/step 1 plain": "6/28/0",
    "bdf3_convdiff16x24/step 2 plain": "6/28/0",
    "bdf3_convdiff16x24/step 0 smoothed": "7/36/0",
    "bdf3_convdiff16x24/step 1 smoothed": "6/28/0",
    "bdf3_convdiff16x24/step 2 smoothed": "6/28/0",
    "bdf5_nozzle128_dt05/step 0 plain": "16/87/0",
    "bdf5_nozzle128_dt05/step 1 plain": "7/50/0",
    "bdf5_nozzle128_dt05/step 2 plain": "7/52/0",
    "bdf5_nozzle128_dt05/step 3 plain": "7/51/0",
    "bdf5_nozzle128_dt05/step 4 plain": "6/45/0",
    "bdf5_nozzle128_dt05/step 0 smoothed": "7/44/0",
    "bdf5_nozzle128_dt05/step 1 smoothed": "7/47/0",
    "bdf5_nozzle128_dt05/step 2 smoothed": "7/52/0",
    "bdf5_nozzle128_dt05/step 3 smoothed": "7/52/0",
    "bdf5_nozzle128_dt05/step 4 smoothed": "6/45/0",
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
        "bratu64 plain 12/13/0", "bratu64 smoothed 4/4/0"]
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


def test_verdicts_name_each_line_on_both_sides():
    theirs = ["a plain 1/2/0 x", "a smoothed 1/1/0 y", "b/step 1 plain 2/2/0 z"]
    ours = ["a plain 1/2/0 x", "a smoothed 1/1/0 w", "c plain 3/3/0 v"]
    assert _load_tool().verdicts(theirs, ours) == [
        "same a plain 1/2/0 x",
        "differs a smoothed: 1/1/0 y -> 1/1/0 w",
        "differs b/step 1 plain: 2/2/0 z -> missing",
        "differs c plain: missing -> 3/3/0 v"]


def test_against_needs_a_revision():
    assert _load_tool().main(["--against"]) == 2


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


HAS_REPO = (shutil.which("git") is not None
            and _git("rev-parse", "--verify", "--quiet", "HEAD").returncode == 0)


@pytest.mark.skipif(not HAS_REPO, reason="needs git and the repository's "
                                         "metadata")
def test_against_head_prints_one_verdict_per_line():
    worktrees = _git("worktree", "list").stdout
    result = subprocess.run(
        [sys.executable, str(TOOL), "--against", "HEAD", "bratu64"],
        capture_output=True, text=True, timeout=300)
    lines = result.stdout.splitlines()
    assert [re.match(r"(same|differs) (bratu64 \w+)", line).group(2)
            for line in lines] == ["bratu64 plain", "bratu64 smoothed"]
    differs = any(line.startswith("differs") for line in lines)
    assert result.returncode == (1 if differs else 0)
    if _git("diff", "--quiet", "HEAD", "--", "src").returncode == 0:
        # The package is HEAD's: both sides compute the same bytes.
        assert lines == ["same " + line
                         for line in _load_tool().case_digests("bratu64")]
    assert _git("worktree", "list").stdout == worktrees
