"""Margins of the count-comparing acceptance criteria 4, 5 and 6 over
perturbed starts: whether a change that moves counts breaks a claim or only
tips a knife-edge fixture.

Run from the repository root:

    python3 tools/margins.py            # seeds 0-10
    python3 tools/margins.py 0 3 7      # a selection of seeds

Each fixture is the one ``tests/test_acceptance.py`` checks, solved plain
and smoothed from its start; seed 0 is that start itself, and any other
seed multiplies every entry of it by ``1 + 1e-3 * U(-1, 1)``, drawn from
``np.random.default_rng(seed)``, as the benchmark perturbs its starts, but
sets an entry that is zero to ``1e-3 * U(-1, 1)``: the convdiff start is
all zero, which a relative perturbation leaves as it is. One
row per fixture and seed gives the verdict (``pass`` or ``FAIL``), the
counts (steps/Krylov vectors/rejections, plain then smoothed) and each
inequality's margin, positive where it holds:

- criterion 4, convdiff 16x24: ``0.8 - smoothed/plain Krylov vectors``, both
  solves converged;
- criterion 5, nozzle32 on singleton lines and nozzle128 on its default
  line, the CFL tripled per step: ``plain rejections - 2 x smoothed``
  (passing at 0 too), plain failing or rejecting at least once, and the
  smoothed solve converged;
- criterion 6, 3 BDF steps of convdiff 16x24: ``plain step 1 - plain step
  3`` and ``plain step 1 - smoothed step 1`` Newton steps.

A summary line per fixture follows: the fraction of seeds that pass and
each margin's smallest value. The script adds no option to ``ptcsmooth``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ptcsmooth import (PtcConfig, RkSchedule, SolveOutcome,  # noqa: E402
                       UnsteadyConfig, advance_unsteady, l2_norm,
                       singleton_lines, solve_steady)
from ptcsmooth.problems import (make_aniso_convdiff,  # noqa: E402
                                make_quasi1d_euler)
from ptcsmooth.timestepping import BdfStepSystem  # noqa: E402

SEEDS = range(11)
PERTURBATION = 1e-3


class Row(NamedTuple):
    criterion: int
    fixture: str
    seed: int
    ok: bool
    counts: str                 # "plain <s/k/r>, smoothed <s/k/r>"
    margins: Dict[str, float]   # each inequality's margin, > 0 where it holds


def perturbed(problem, seed: int):
    """``problem`` starting from its own start, perturbed unless seed 0."""
    if seed != 0:
        w0 = problem.initial_state()
        u = PERTURBATION * np.random.default_rng(seed).uniform(
            -1.0, 1.0, w0.values.shape)
        w0.values[:] = np.where(w0.values == 0.0, u, w0.values * (1.0 + u))
        problem.initial_state = w0.copy
    return problem


def _counts(plain, smoothed) -> str:
    return ", ".join(f"{name} {r.newton_steps}/{r.cumulative_krylov}/"
                     f"{r.rejection_count}"
                     for name, r in (("plain", plain), ("smoothed", smoothed)))


def _steady(problem, lines=None, **overrides):
    return [solve_steady(problem, PtcConfig(smoothing=schedule, **overrides),
                         lines=lines)
            for schedule in (None, RkSchedule())]


def criterion_4(seed: int) -> List[Row]:
    plain, smoothed = _steady(
        perturbed(make_aniso_convdiff(16, 24, stretching_ratio=1000.0), seed),
        max_newton_steps=300)
    converged = all(r.outcome == SolveOutcome.CONVERGED
                    for r in (plain, smoothed))
    margin = 0.8 - smoothed.cumulative_krylov / plain.cumulative_krylov
    return [Row(4, "convdiff16x24", seed, converged and margin >= 0.0,
                _counts(plain, smoothed), {"0.8 - krylov ratio": margin})]


CRITERION_5_FIXTURES: Dict[str, tuple] = {
    "nozzle32, singleton lines": (32, lambda: singleton_lines(32)),
    "nozzle128, default lines": (128, lambda: None),
}


def criterion_5(seed: int) -> List[Row]:
    rows = []
    for fixture, (n_cells, lines) in CRITERION_5_FIXTURES.items():
        plain, smoothed = _steady(
            perturbed(make_quasi1d_euler(n_cells, u_in=0.46), seed),
            lines(), beta_cfl1=3.0, max_newton_steps=120)
        struggles = (plain.outcome != SolveOutcome.CONVERGED
                     or plain.rejection_count >= 1)
        margin = plain.rejection_count - 2 * smoothed.rejection_count
        ok = (smoothed.outcome == SolveOutcome.CONVERGED and struggles
              and margin >= 0)
        rows.append(Row(5, fixture, seed, ok, _counts(plain, smoothed),
                        {"plain rejections - 2 x smoothed": margin}))
    return rows


def criterion_6(seed: int) -> List[Row]:
    p = perturbed(make_aniso_convdiff(16, 24, stretching_ratio=1000.0), seed)
    w0 = p.initial_state()
    tol_abs = 1e-6 * l2_norm(BdfStepSystem(p, w0, None, 0.05).residual(w0))
    steps, runs = {}, {}
    for variant, schedule in (("plain", None), ("smoothed", RkSchedule())):
        inner = PtcConfig(max_newton_steps=200,
                          target_residual_reduction=1e-12,
                          target_residual_absolute=tol_abs,
                          smoothing=schedule)
        runs[variant] = advance_unsteady(p, UnsteadyConfig(0.05, 3, inner))
        steps[variant] = [r.newton_steps for r in runs[variant].reports]
    plain, smooth = steps["plain"], steps["smoothed"]
    complete = not any(run.aborted for run in runs.values())
    margins = {"plain step 1 - plain step 3": plain[0] - plain[-1],
               "plain step 1 - smoothed step 1": plain[0] - smooth[0]}
    ok = complete and all(m > 0 for m in margins.values())
    return [Row(6, "bdf3 convdiff16x24", seed, ok,
                f"plain per-step {plain}, smoothed per-step {smooth}",
                margins)]


CRITERIA: Dict[int, Callable[[int], List[Row]]] = {
    4: criterion_4, 5: criterion_5, 6: criterion_6}


def rows(seed: int) -> List[Row]:
    """Every fixture's row at ``seed``."""
    return [row for run in CRITERIA.values() for row in run(seed)]


def format_row(row: Row) -> str:
    margins = ", ".join(f"{name} {value:+.3g}"
                        for name, value in row.margins.items())
    return (f"crit {row.criterion} {row.fixture} seed {row.seed}: "
            f"{'pass' if row.ok else 'FAIL'} ({row.counts}; {margins})")


def summary(all_rows: List[Row]) -> List[str]:
    """Per fixture: the passing fraction and each margin's smallest value."""
    by_fixture: Dict[tuple, List[Row]] = {}
    for row in all_rows:
        by_fixture.setdefault((row.criterion, row.fixture), []).append(row)
    out = []
    for (criterion, fixture), group in by_fixture.items():
        passed = sum(row.ok for row in group)
        smallest = ", ".join(
            f"{name} min {min(row.margins[name] for row in group):+.3g}"
            for name in group[0].margins)
        out.append(f"crit {criterion} {fixture}: passes {passed}/{len(group)}"
                   f" seeds; {smallest}")
    return out


def main(argv: List[str]) -> int:
    try:
        seeds = [int(arg) for arg in argv] or list(SEEDS)
    except ValueError:
        print("seeds must be integers", file=sys.stderr)
        return 2
    all_rows: List[Row] = []
    for seed in seeds:
        for row in rows(seed):
            all_rows.append(row)
            print(format_row(row), flush=True)
    print("\n".join(summary(all_rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
