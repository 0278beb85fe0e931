"""``tools/ab.py``'s summary of paired timings, on synthetic times."""

import importlib.util
from pathlib import Path

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
