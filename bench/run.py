"""Solver benchmark: time to solution and the paper's cost counts.

Run from the repository root:

    python3 bench/run.py --workload convdiff_sweep --seed 0 --seconds 30 --trace 0

Workloads (see WORKLOADS below for why each exists):

* ``convdiff_sweep``: aniso_convdiff, stretching 1000, 16x24 and 32x48.
* ``nozzle_sweep``: quasi-1D nozzle at 32 cells and at 128 cells with a
  200-step budget (the 128-cell case exhausts it; that failure is kept).
* ``unsteady_bdf``: 3 BDF steps of aniso_convdiff 16x24, dt = 0.05.

Every case runs once unsmoothed (``PtcConfig()``) and once smoothed
(``PtcConfig(smoothing=RkSchedule())``) per pass. With ``--trace 0`` the
benchmark repeats passes for about ``--seconds`` seconds and reports the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics (see ``tracing.py``). Seed 0 is the
nominal case list; any other seed multiplies each starting state by
``1 + 1e-3 * U(-1, 1)`` per entry.

Metrics (``--trace 0``), per workload:

* ``setup_s``: importing the package and building the problems and their
  starting states; the median of SETUP_REPEATS set-ups in the run.
* ``plain_s``, ``smoothed_s``: the median over passes of one half's time.
* ``newton_steps.*``, ``krylov_vectors.*``: summed over the half's solves.
* ``accepted_frac.*``: accepted Newton steps over all steps, i.e.
  1 - rejections / steps; ``converged_frac``: converged and correct solves
  over attempted solves, i.e. 1 - failed_frac. The JSON carries these in
  place of ``rejections.*`` and ``failed_frac``, which are 0 on most
  workloads; those two are printed in the report above it. Caveat:
  ``accepted_frac.*`` mixes rejections with the step count, so a change that
  cuts steps but keeps the rejections reads as a regression, and rejections
  that grow in step with the steps go unflagged; compare ``rejections.*`` in
  the report (and in the record under ``.bench_out/``) before reading it.
* ``peak_rss_mb``: the process's peak resident set.

Times are seconds at a reference host speed: each timed call's wall time is
rescaled by how fast a fixed probe kernel ran around and during it (see
``hostspeed.py``), because the wall time of one solve on a shared host moves
by 40% between minutes. The raw wall times are printed beside them.

Every solve is checked: the final residual is recomputed outside the solver
and compared with the reported one and, for converged solves, with the
target; converged solves must reproduce the functional stored in
``reference.json``. A solve that raises or fails a check is printed and
counted in ``failed``; it does not abort the run. A solve that ends without
converging is an outcome the metrics measure, not a failure of the run. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with the
environment and, for traced runs, every span, goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from hostspeed import HostClock
from tracing import SPAN_NAMES, TraceGuardError, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PERTURBATION = 1e-3
SETUP_REPEATS = 11
# Bitwise agreement is expected; the slack only absorbs a norm computed in
# another summation order.
RESIDUAL_RTOL = 1e-12


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable            # ptcsmooth.problems module -> NonlinearSystem
    overrides: dict = field(default_factory=dict)
    time_steps: Optional[Tuple[float, int]] = None   # (dt, n_steps): unsteady


def _convdiff(nx, ny):
    return lambda pr: pr.make_aniso_convdiff(nx, ny, stretching_ratio=1000.0)


# Why each workload exists:
# convdiff_sweep - the line factor and line solve do ~90% of the work and
#   GMRES under 2%; lines are long (up to 224 cells) and cover every cell.
# nozzle_sweep - GMRES and Jv take ~49% of the traced time (seed 0), the line
#   kernels ~46% (every line is a singleton, so they walk every cell in
#   Python): it does not separate the two layers. The 128-cell case exhausts
#   its step budget with 30 rejections, so it carries the known failure and
#   the CFL controller's rejection path.
# unsteady_bdf - many short warm-started inner solves that repeat line
#   extraction and setup once per physical step (the criterion-6 protocol);
#   a gain that only amortizes setup over one long solve shows as a loss.
WORKLOADS: Dict[str, Tuple[Case, ...]] = {
    "convdiff_sweep": (
        Case("convdiff16x24", _convdiff(16, 24)),
        Case("convdiff32x48", _convdiff(32, 48)),
    ),
    "nozzle_sweep": (
        Case("nozzle32", lambda pr: pr.make_quasi1d_euler(32)),
        Case("nozzle128", lambda pr: pr.make_quasi1d_euler(128),
             {"max_newton_steps": 200}),
    ),
    "unsteady_bdf": (
        Case("bdf3_convdiff16x24", _convdiff(16, 24),
             {"max_newton_steps": 200, "target_residual_reduction": 1e-12},
             time_steps=(0.05, 3)),
    ),
}

VARIANTS = ("plain", "smoothed")
# Host-speed probes that interrupt a traced layer; a child span, so that
# its time is not charged to that layer, and not itself a layer.
PROBE_SPAN = "bench.probe"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package():
    """Import ptcsmooth from this checkout's src/, discarding earlier imports
    so that each call pays the package's own import cost."""
    if not (SRC / "ptcsmooth" / "__init__.py").is_file():
        raise BenchError(f"no ptcsmooth package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "ptcsmooth" or m.startswith("ptcsmooth.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ptcsmooth")
    problems = importlib.import_module("ptcsmooth.problems")
    if Path(pkg.__file__).resolve().parent != SRC / "ptcsmooth":
        raise BenchError(f"ptcsmooth imported from {pkg.__file__}, not {SRC}")
    return pkg, problems


def build_cases(problems, cases, seed):
    """Problems and starting states; seed != 0 perturbs each starting state."""
    built = []
    for index, case in enumerate(cases):
        problem = case.build(problems)
        w0 = problem.initial_state()
        if seed != 0:
            rng = np.random.default_rng([seed, index])
            w0.values *= 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0,
                                                          w0.values.shape)
        if case.time_steps is not None:
            # advance_unsteady starts from the problem's own initial state.
            problem.initial_state = w0.copy
        built.append((case, problem, w0))
    return built


def setup_once(cases, seed):
    pkg, problems = import_package()
    return pkg, build_cases(problems, cases, seed)


def setup(cases, seed, clock):
    """Time set-up SETUP_REPEATS times; keep the last package and cases.

    Returns the wall times and the times at the reference host speed.
    """
    walls, times = [], []
    for _ in range(SETUP_REPEATS):
        (pkg, built), wall, seconds = clock.call(setup_once, cases, seed)
        walls.append(wall)
        times.append(seconds)
    return pkg, built, walls, times


# ---------------------------------------------------------------------------
# Solving and checking
# ---------------------------------------------------------------------------

@dataclass
class Solve:
    """One solve to check: a steady case or one inner step of an unsteady run."""

    case: str
    variant: str
    step: Optional[int]
    system: object = None
    config: object = None
    report: object = None
    error: Optional[str] = None

    @property
    def label(self) -> str:
        step = "" if self.step is None else f"[step {self.step}]"
        return f"{self.case}{step}/{self.variant}"


def run_case(pkg, case, problem, w0, variant) -> List[Solve]:
    """Run one case; an exception becomes a failed Solve, never a crash."""
    config = pkg.PtcConfig(
        smoothing=pkg.RkSchedule() if variant == "smoothed" else None,
        **case.overrides)
    if case.time_steps is None:
        solve = Solve(case.name, variant, None, problem, config)
        try:
            solve.report = pkg.solve_steady(problem, config, w0)
        except Exception:
            solve.error = traceback.format_exc(limit=-3)
        return [solve]

    dt, n_steps = case.time_steps
    solves = [Solve(case.name, variant, k, config=config)
              for k in range(n_steps)]
    try:
        history = pkg.advance_unsteady(
            problem, pkg.UnsteadyConfig(dt, n_steps, config))
    except Exception:
        solves[0].error = traceback.format_exc(limit=-3)
        for s in solves[1:]:
            s.error = "not reached: an earlier step raised"
        return solves
    w_prev, w_prev2 = w0, None
    for solve, report in zip(solves, history.reports):
        solve.report = report
        solve.system = pkg.BdfStepSystem(problem, w_prev, w_prev2, dt)
        w_prev2, w_prev = w_prev, report.final_state
    for solve in solves[len(history.reports):]:
        solve.error = "not reached: the run aborted"
    return solves


def check_solve(pkg, solve: Solve, reference, functional_rtol) -> List[str]:
    """Problems found with one solve's result (empty when it is correct)."""
    if solve.error is not None:
        return [f"raised: {solve.error.strip()}"]
    rep = solve.report
    issues = []
    r_norm = pkg.l2_norm(solve.system.residual(rep.final_state))
    if not math.isclose(r_norm, rep.final_residual_l2, rel_tol=RESIDUAL_RTOL):
        issues.append(f"recomputed residual {r_norm!r} != reported "
                      f"{rep.final_residual_l2!r}")
    if rep.outcome == pkg.SolveOutcome.CONVERGED:
        r0 = rep.initial_residual_l2
        target = max(solve.config.target_residual_reduction * r0,
                     1e-13 * (1.0 + r0))   # solve_steady's round-off floor
        if r_norm > target:
            issues.append(f"converged but residual {r_norm!r} > target "
                          f"{target!r}")
        expected = reference.get(solve.case)
        if expected is None:
            issues.append("no reference functional stored")
        else:
            ref = expected[solve.step or 0]
            value = solve.system.functional(rep.final_state)
            if abs(value - ref) > functional_rtol * abs(ref):
                issues.append(f"functional {value!r} differs from reference "
                              f"{ref!r} by more than {functional_rtol:g} rel")
    return issues


@dataclass
class HalfResult:
    """One variant over all cases of a workload, once.

    ``seconds`` is at the reference host speed, ``wall_s`` as measured.
    """

    variant: str
    seconds: float
    wall_s: float
    solves: List[Solve]

    def counts(self) -> Tuple[int, int, int]:
        done = [s.report for s in self.solves if s.report is not None]
        return (sum(r.newton_steps for r in done),
                sum(r.cumulative_krylov for r in done),
                sum(r.rejection_count for r in done))


def run_half(pkg, built, variant, clock, tracer=None) -> HalfResult:
    half = HalfResult(variant, 0.0, 0.0, [])
    for case, problem, w0 in built:
        if tracer is not None:
            tracer.pass_id = f"{case.name}/{variant}"
        solves, wall, seconds = clock.call(run_case, pkg, case, problem, w0,
                                           variant)
        half.solves.extend(solves)
        half.wall_s += wall
        half.seconds += seconds
    return half


def run_pass(pkg, built, order, clock, tracer=None) -> Dict[str, HalfResult]:
    return {v: run_half(pkg, built, v, clock, tracer) for v in order}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly (no parent repos)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize_counts(half: HalfResult, n_ok: int) -> dict:
    steps, krylov, rejections = half.counts()
    attempted = len(half.solves)
    return {"newton_steps": steps, "krylov_vectors": krylov,
            "rejections": rejections,
            "accepted_frac": (steps - rejections) / steps if steps else 0.0,
            "converged": n_ok, "attempted": attempted}


def end_to_end(passes, setup_walls, setup_times, clock,
               converged: Dict[str, int]) -> dict:
    first = passes[0]
    counts = {v: summarize_counts(first[v], converged[v]) for v in VARIANTS}
    attempted = sum(c["attempted"] for c in counts.values())
    n_ok = sum(c["converged"] for c in counts.values())
    out = {"setup_s": metric(statistics.median(setup_times), "s")}
    for v in VARIANTS:
        out[f"{v}_s"] = metric(
            statistics.median(p[v].seconds for p in passes), "s")
    for v in VARIANTS:
        out[f"newton_steps.{v}"] = metric(counts[v]["newton_steps"], "count")
        out[f"krylov_vectors.{v}"] = metric(counts[v]["krylov_vectors"],
                                            "count")
        out[f"accepted_frac.{v}"] = metric(counts[v]["accepted_frac"], "frac")
    out["converged_frac"] = metric(n_ok / attempted, "frac")
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    # Zero on most workloads, so printed but not gated: rejections.* and
    # failed_frac carry the same information as accepted_frac.* and
    # converged_frac.
    report = dict(out)
    for v in VARIANTS:
        report[f"rejections.{v}"] = metric(counts[v]["rejections"], "count")
    report["failed_frac"] = metric(1.0 - n_ok / attempted, "frac")
    # The same times as measured, before the host-speed rescaling.
    report["setup_wall_s"] = metric(statistics.median(setup_walls), "s")
    for v in VARIANTS:
        report[f"{v}_wall_s"] = metric(
            statistics.median(p[v].wall_s for p in passes), "s")
    report["host_speed"] = metric(clock.speed(), "frac")
    return out, report


def per_layer(tracer, traced_pass, untraced_pass, unsteady: bool) -> dict:
    expected = [n for n in SPAN_NAMES if unsteady or n != "timestepping"]
    tracer.check_expected(expected)
    self_s, calls = tracer.self_times()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    c = tracer.counters
    for name in ("linalg.gmres.unconverged", "smoother.degraded",
                 "ptc.line_search.trials"):
        out[name] = metric(c.get(name, 0), "count")
    out["lines.multi_cell_frac"] = metric(
        c["lines.multi_cell_cells"] / c["lines.cells"], "frac")
    reports = [s.report for half in traced_pass.values() for s in half.solves
               if s.report is not None]
    records = [rec for r in reports for rec in r.history]
    accepted = [rec for rec in records if rec.accepted]
    total_krylov = sum(rec.krylov_count for rec in records)
    out["ptc.accepted_frac"] = metric(len(accepted) / len(records), "frac")
    out["ptc.krylov_useful_frac"] = metric(
        sum(rec.krylov_count for rec in accepted) / total_krylov, "frac")
    # Self times are wall times, so the pass they add up to is too; the
    # overhead compares rescaled times, which removes most host drift.
    out["trace.pass_s"] = metric(
        sum(h.wall_s for h in traced_pass.values()), "s")
    traced_s = sum(h.seconds for h in traced_pass.values())
    untraced_s = sum(h.seconds for h in untraced_pass.values())
    out["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "frac")
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def check_passes(pkg, passes, reference, functional_rtol):
    """Check every solve and the repeatability of the counts.

    Returns the labels of failed solves, the converged count per variant in
    the first pass, and whether every pass reproduced the first pass's
    counts (the solver is deterministic, traced or not).
    """
    failed: List[str] = []
    converged = {v: 0 for v in VARIANTS}
    repeatable = True
    for i, pass_ in enumerate(passes):
        for v, half in pass_.items():
            for solve in half.solves:
                issues = check_solve(pkg, solve, reference, functional_rtol)
                for issue in issues:
                    print(f"FAILED pass {i} {solve.label}: {issue}",
                          flush=True)
                if issues:
                    failed.append(f"pass {i} {solve.label}")
                elif i == 0 and (solve.report.outcome
                                 == pkg.SolveOutcome.CONVERGED):
                    converged[v] += 1
            if half.counts() != passes[0][v].counts():
                repeatable = False
                print(f"FAILED pass {i} {v}: (steps, vectors, rejections) "
                      f"{half.counts()} differ from pass 0 "
                      f"{passes[0][v].counts()}", flush=True)
    return failed, converged, repeatable


def describe(passes) -> list:
    rows = []
    for v in VARIANTS:
        for s in passes[0][v].solves:
            r = s.report
            rows.append({"solve": s.label,
                         "outcome": r.outcome.value if r else "raised",
                         "newton_steps": r.newton_steps if r else None,
                         "krylov_vectors": r.cumulative_krylov if r else None,
                         "rejections": r.rejection_count if r else None})
    return rows


def run(args) -> None:
    """One benchmark run; raises BenchError or TraceGuardError when it
    cannot produce a valid result."""
    cases = WORKLOADS[args.workload]
    unsteady = any(c.time_steps is not None for c in cases)
    ref_doc = json.loads((BENCH_DIR / "reference.json").read_text())
    reference, functional_rtol = ref_doc["functionals"], ref_doc["rtol"]

    t_start = time.perf_counter()
    clock = HostClock()
    pkg, built, setup_walls, setup_times = setup(cases, args.seed, clock)
    env = environment()

    passes = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        with clock.sampling(tracer.wrap(PROBE_SPAN, clock.sample)):
            passes.append(run_pass(pkg, built, VARIANTS, clock))
            with tracer:
                passes.append(run_pass(pkg, built, VARIANTS, clock, tracer))
    else:
        # Alternate which half runs first so that drift within the run does
        # not favour one of them; stop before a pass would overrun.
        with clock.sampling():
            while True:
                order = VARIANTS if len(passes) % 2 == 0 else VARIANTS[::-1]
                t_pass = time.perf_counter()
                passes.append(run_pass(pkg, built, order, clock))
                now = time.perf_counter()
                if now - t_start + (now - t_pass) > args.seconds:
                    break

    failed, converged, repeatable = check_passes(pkg, passes, reference,
                                                 functional_rtol)
    attempted = sum(len(h.solves) for p in passes for h in p.values())
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env,
              "passes": len(passes), "solves": describe(passes),
              "setup_samples_s": setup_times,
              "pass_samples_s": {v: [p[v].seconds for p in passes]
                                 for v in VARIANTS},
              "pass_wall_samples_s": {v: [p[v].wall_s for p in passes]
                                      for v in VARIANTS},
              "probe_samples_s": [s for _, s in clock.samples]}
    if args.trace:
        if not repeatable:
            raise BenchError("the traced pass did not reproduce the untraced "
                             "pass's counts")
        metrics = per_layer(tracer, passes[1], passes[0], unsteady)
        result["spans_fields"] = ["name", "start", "end", "parent", "pass_id"]
        result["spans"] = tracer.spans
        shown = metrics
    else:
        metrics, shown = end_to_end(passes, setup_walls, setup_times, clock,
                                    converged)
        result["report"] = shown

    print(json.dumps({"environment": env}))
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"setup samples={len(setup_times)}")
    for row in result["solves"]:
        print("  " + " ".join(f"{k}={v}" for k, v in row.items()))
    for name, m in shown.items():
        share = ""
        if args.trace and name.endswith(".self_s"):
            share = f"{m['value'] / metrics['trace.pass_s']['value']:8.1%}"
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s}{share}")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps({**result, "metrics": metrics}))

    print(json.dumps({"correct": repeatable and not failed,
                      "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args)
    except (BenchError, ImportError, TraceGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
