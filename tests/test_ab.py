"""``tools/ab.py``'s summary of paired timings, on synthetic times."""

import importlib.util
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_tool()


def test_summary_of_a_clear_gain():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.7, 0.8, 1.15, 0.8, 0.75]
    s = ab.summarize(parent, change)
    assert s.parent == (1.0, 1.1, 1.2) and s.change == (0.75, 0.8, 0.8)
    assert s.relative == pytest.approx(0.8 / 1.1 - 1.0)
    assert (s.won, s.rounds) == (4, 5)       # round 3 went to the parent
    assert s.beyond_iqr                      # 0.3 against a spread of 0.2


def test_a_shift_within_the_parent_spread_is_not_beyond_it():
    parent = [1.0, 2.0, 1.5, 1.0, 2.0]       # quartiles 1.0, 1.5, 2.0
    change = [0.9, 1.9, 1.4, 0.9, 1.9]
    s = ab.summarize(parent, change)
    assert (s.won, s.rounds) == (5, 5)
    assert s.relative == pytest.approx(1.4 / 1.5 - 1.0)
    assert not s.beyond_iqr


def test_summary_needs_paired_rounds():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0])


def test_report_line_names_equal_and_differing_counts():
    s = ab.summarize([2.0, 2.0, 2.0], [1.0, 1.0, 3.0])
    line = ab.describe("w plain", s, {"parent": {(3, 40, 1)},
                                      "change": {(3, 40, 1)}})
    assert line == ("w plain: parent 2 s [2, 2], change 1 s [1, 2], -50.0%, "
                    "change faster in 2 of 3 rounds, beyond parent IQR yes, "
                    "counts equal 3/40/1")
    line = ab.describe("w plain", s, {"parent": {(3, 40, 1)},
                                      "change": {(3, 41, 1)}})
    assert line.endswith("counts DIFFER: parent [(3, 40, 1)], "
                         "change [(3, 41, 1)]")
    # Counts that move from round to round on one side differ too.
    line = ab.describe("w plain", s, {"parent": {(3, 40, 1), (3, 41, 1)},
                                      "change": {(3, 40, 1), (3, 41, 1)}})
    assert "counts DIFFER" in line


class _ScriptedBench:
    """A stand-in for ``bench/run.py``: one workload of one case and one
    variant, whose every run advances ``ab``'s clock by the next duration
    scripted for the side (the package object) that runs it."""

    WORKLOADS = {"w": ["case"]}
    VARIANTS = ("plain",)

    def __init__(self, durations):
        self.now = 0.0
        self.durations = {side: cycle(times)
                          for side, times in durations.items()}
        self.runs = {side: 0 for side in durations}

    def perf_counter(self):
        return self.now

    def build_cases(self, problems, cases, seed):
        return [(case, None, None) for case in cases]

    def run_case(self, pkg, case, problem, w0, variant):
        self.now += next(self.durations[pkg])
        self.runs[pkg] += 1
        report = SimpleNamespace(newton_steps=3, cumulative_krylov=40,
                                 rejection_count=1)
        return [SimpleNamespace(error=None, label=case, report=report)]


def test_each_round_keeps_the_fastest_of_its_repeats(monkeypatch):
    # Each side's runs cycle through three durations, so every round of
    # three repeats sees each of them once: only the fastest counts.
    bench = _ScriptedBench({"parent": [3.0, 1.0, 2.0],
                            "change": [0.7, 0.9, 0.5]})
    monkeypatch.setattr(ab, "time", SimpleNamespace(
        perf_counter=bench.perf_counter))
    sides = {"parent": ("parent", None), "change": ("change", None)}
    (line,) = ab.ab_workload(bench, sides, "w", rounds=4, seed=0, repeats=3)
    assert line == ("w plain: parent 1 s [1, 1], change 0.5 s [0.5, 0.5], "
                    "-50.0%, change faster in 4 of 4 rounds, beyond parent "
                    "IQR yes, counts equal 3/40/1")
    # The untimed warm-up round and four timed ones, three runs each.
    assert bench.runs == {"parent": 15, "change": 15}


def test_one_repeat_keeps_every_run(monkeypatch):
    bench = _ScriptedBench({"parent": [3.0, 1.0, 2.0],
                            "change": [0.7, 0.9, 0.5]})
    monkeypatch.setattr(ab, "time", SimpleNamespace(
        perf_counter=bench.perf_counter))
    sides = {"parent": ("parent", None), "change": ("change", None)}
    # Warm-up takes 3.0 and 0.7; the timed rounds read 1, 2, 3 and 0.9,
    # 0.5, 0.7.
    (line,) = ab.ab_workload(bench, sides, "w", rounds=3, seed=0, repeats=1)
    assert line.startswith("w plain: parent 2 s [1.5, 2.5], "
                           "change 0.7 s [0.6, 0.8], -65.0%, "
                           "change faster in 3 of 3 rounds")
