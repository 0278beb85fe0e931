"""``tools/margins.py``'s seed-0 rows against the acceptance suite: seed 0
is each criterion's own fixture, so every row must reach the verdict
``tests/test_acceptance.py`` asserts (pass) with the counts it and
``tests/test_history_digest.py`` pin."""

import importlib.util
from pathlib import Path

from test_acceptance import PINNED_COUNTS
from test_history_digest import PINNED_COUNTS as DIGEST_COUNTS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "margins.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("margins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counts(pinned):
    """``rep.newton_steps/cumulative_krylov/rejections`` of a pinned
    (outcome, steps, Krylov, rejections) entry."""
    return "/".join(map(str, pinned[1:]))


def test_seed_0_rows_agree_with_the_acceptance_verdicts():
    tool = _load_tool()
    rows = tool.rows(0)
    assert [(row.criterion, row.fixture) for row in rows] == [
        (4, "convdiff16x24"), (5, "nozzle32, singleton lines"),
        (5, "nozzle128, default lines"), (6, "bdf3 convdiff16x24")]
    assert all(row.ok for row in rows)
    assert all(margin >= 0 for row in rows for margin in row.margins.values())
    crit4, crit5_singleton, crit5_default, _ = rows
    assert crit4.counts == (
        f"plain {_counts(PINNED_COUNTS[('convdiff', 'unsmoothed')])}, "
        f"smoothed {_counts(PINNED_COUNTS[('convdiff', 'smoothed')])}")
    for row, case in ((crit5_singleton, "crit5_nozzle32_singleton"),
                      (crit5_default, "crit5_nozzle128")):
        assert row.counts == (f"plain {DIGEST_COUNTS[case + ' plain']}, "
                              f"smoothed {DIGEST_COUNTS[case + ' smoothed']}")


def test_a_seed_perturbs_every_entry_of_a_zero_start():
    from ptcsmooth.problems import make_aniso_convdiff
    tool = _load_tool()
    problem = tool.perturbed(make_aniso_convdiff(4, 4), 3)
    w0 = problem.initial_state().values
    assert 0.0 < abs(w0).min() and abs(w0).max() <= tool.PERTURBATION
    assert tool.perturbed(make_aniso_convdiff(4, 4), 0) \
        .initial_state().values.tolist() == [0.0] * 16
