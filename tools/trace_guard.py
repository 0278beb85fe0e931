"""Traced benchmark guard: run one traced pass of each benchmark workload and
check the call counts the design promises.

Run from the repository root:

    python3 tools/trace_guard.py

Each workload runs ``bench/run.py --workload <name> --seed 0 --seconds 1
--trace 1``, and its last output line, the result, must show:

- ``correct`` true and ``failed`` 0;
- ``linalg.factor.calls == ptc.precon_build.calls``: at most one
  factorization per Newton step, the one ``build_ptc_preconditioner``
  makes (on a smoothed step one stacked call factors J1 + M/dtau and J1
  together, and ``build_smoother`` is handed J1's factor), so a second
  factor call in a step or a factor path of its own fails here;
- ``linalg.factor.calls < ptc.line_search.calls``: an unsmoothed step after
  an accepted step that factored afresh reuses that step's J1 + M/dtau
  factor and calls neither function. Every benchmark step is accepted, so
  the line search runs once per step, and a return to one factor per step
  fails here;
- ``problems.blocks.calls <= linalg.factor.calls + lines.extract.calls``:
  each evaluation of the first-order blocks feeds a factor (they are
  evaluated once per state at which a step factors) or, once per unsteady
  run, the line extraction (a steady solve extracts from its first step's
  blocks), so blocks evaluated for a step that reuses a factor fail here;
- when ``smoother.degraded == 0``, ``linalg.line_solve.calls ==
  problems.jv.calls + linalg.gmres.calls + 15 * smoother.rk.calls``: one
  solve per Krylov vector, one final solve per GMRES call and one per RK
  stage (``DEFAULT_CYCLES`` cycles of ``DEFAULT_STAGE_COEFFS``, the schedule
  the benchmark smooths with), so a change that adds a solve fails here;
- when ``smoother.degraded == 0``, ``problems.residual.calls == 15 *
  smoother.rk.calls + ptc.line_search.trials + ptc.calls``: one residual per
  RK stage, one per line-search trial and one per solve's start, so a
  change that adds a residual evaluation fails here;
- on ``nozzle_sweep``, ``lines.multi_cell_frac == 1``: the nozzle is 1D, so
  a return to singleton lines fails here;
- on ``unsteady_bdf``, ``lines.extract.calls == 2``: a run extracts its
  lines once, and the traced pass makes one run per variant, so a return to
  per-step extraction fails here.

A smoothed step that steps smoothing aside in the Newton limit (see
``ptcsmooth.ptc``) is a plain step: one factor call with one shift, or none
when it reuses the step before's factor, and no ``rk_smooth`` call, so no
RK solve or residual, and all three identities hold for it unchanged.

A kernel refactor that renames or stops calling a traced function makes
``bench/run.py`` exit with a trace-guard error, which fails here too.
Prints one verdict line per workload and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ptcsmooth.smoother import (DEFAULT_CYCLES,  # noqa: E402
                                DEFAULT_STAGE_COEFFS)

WORKLOADS = ("convdiff_sweep", "nozzle_sweep", "unsteady_bdf")
RK_SOLVES = DEFAULT_CYCLES * len(DEFAULT_STAGE_COEFFS)   # per rk_smooth call


def failed_checks(workload: str, result: dict) -> List[str]:
    """The checks that ``result``, one workload's result line, fails."""
    try:
        value = {name: entry["value"]
                 for name, entry in result["metrics"].items()}
        factor, precon, searches, blocks, extract = (
            value[f"{name}.calls"] for name in (
                "linalg.factor", "ptc.precon_build", "ptc.line_search",
                "problems.blocks", "lines.extract"))
        checks = {
            "correct": result["correct"] is True,
            f"failed {result['failed']} == 0": result["failed"] == 0,
            f"linalg.factor.calls {factor} == ptc.precon_build.calls "
            f"{precon}": factor == precon,
            f"linalg.factor.calls {factor} < ptc.line_search.calls "
            f"{searches}": factor < searches,
            f"problems.blocks.calls {blocks} <= linalg.factor.calls {factor} "
            f"+ lines.extract.calls {extract}": blocks <= factor + extract,
        }
        if value["smoother.degraded"] == 0:
            solves, jv, gmres, rk = (value[f"{name}.calls"] for name in (
                "linalg.line_solve", "problems.jv", "linalg.gmres",
                "smoother.rk"))
            checks[f"linalg.line_solve.calls {solves} == problems.jv.calls "
                   f"{jv} + linalg.gmres.calls {gmres} + {RK_SOLVES} * "
                   f"smoother.rk.calls {rk}"] = \
                solves == jv + gmres + RK_SOLVES * rk
            residuals, trials, starts = (value[name] for name in (
                "problems.residual.calls", "ptc.line_search.trials",
                "ptc.calls"))
            checks[f"problems.residual.calls {residuals} == {RK_SOLVES} * "
                   f"smoother.rk.calls {rk} + ptc.line_search.trials "
                   f"{trials} + ptc.calls {starts}"] = \
                residuals == RK_SOLVES * rk + trials + starts
        if workload == "nozzle_sweep":
            frac = value["lines.multi_cell_frac"]
            checks[f"lines.multi_cell_frac {frac} == 1"] = frac == 1.0
        if workload == "unsteady_bdf":
            calls = value["lines.extract.calls"]
            checks[f"lines.extract.calls {calls} == 2"] = calls == 2
    except KeyError as exc:
        return [f"missing {exc}"]
    return [name for name, ok in checks.items() if not ok]


def run_workload(workload: str) -> List[str]:
    """The checks one traced pass of ``workload`` fails."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"bench/run.py exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    return failed_checks(workload, json.loads(proc.stdout.splitlines()[-1]))


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        failed = run_workload(workload)
        print(f"{workload}: "
              + ("FAIL " + "; ".join(failed) if failed else "ok"), flush=True)
        ok = ok and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
