"""In-process A/B timing of the benchmark workloads: this tree's
``ptcsmooth`` against commit REV's, alternated round by round.

Run from the repository root:

    python3 tools/ab.py REV                          # every workload
    python3 tools/ab.py REV nozzle_sweep --rounds 40 --seed 7

REV is checked out into a temporary local ``git worktree``
(``history_digest.checked_out``), and each tree's ``src/ptcsmooth`` is
loaded into this one process as its own set of modules. The cases are built
and run by this tree's ``bench/run.py`` (``WORKLOADS``, ``build_cases``,
``run_case``), which pins BLAS to one thread. A round times each variant
(plain, then smoothed) once on each side, over all of the workload's cases;
which side goes first alternates from round to round, and one untimed round
warms both up. Per workload and variant the tool prints each side's median
and quartiles, the change's median relative to REV's, the rounds in which
the change was faster, whether the median moved by more than REV's
interquartile range, and whether the (Newton steps, Krylov vectors,
rejections) counts were the same on both sides in every round. Times are
``perf_counter`` wall times, not rescaled by host speed. The tool exits 2
if REV cannot be checked out or a solve raises.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class Summary(NamedTuple):
    parent: Tuple[float, float, float]   # quartiles of REV's times
    change: Tuple[float, float, float]   # quartiles of this tree's
    relative: float      # change median / parent median - 1
    won: int             # rounds in which the change was faster
    rounds: int

    @property
    def beyond_iqr(self) -> bool:
        """The medians differ by more than the parent's quartile spread."""
        return (abs(self.change[1] - self.parent[1])
                > self.parent[2] - self.parent[0])


def summarize(parent: Sequence[float], change: Sequence[float]) -> Summary:
    """Compare two sides' times, one per round each, paired by round."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two rounds, one time per side each")

    qp, qc = (tuple(statistics.quantiles(times, n=4, method="inclusive"))
              for times in (parent, change))
    return Summary(qp, qc, qc[1] / qp[1] - 1.0,
                   sum(c < p for p, c in zip(parent, change)), len(parent))


def describe(label: str, s: Summary, counts: dict) -> str:
    """One report line; ``counts`` maps each side to the set of counts its
    rounds gave."""
    def side(q):
        return f"{q[1]:.5g} s [{q[0]:.5g}, {q[2]:.5g}]"

    (first, *more), other = counts["parent"], counts["change"]
    same = not more and counts["parent"] == other
    return (f"{label}: parent {side(s.parent)}, change {side(s.change)}, "
            f"{s.relative:+.1%}, change faster in {s.won} of {s.rounds} "
            f"rounds, beyond parent IQR {'yes' if s.beyond_iqr else 'no'}, "
            + ("counts equal {}/{}/{}".format(*first) if same else
               f"counts DIFFER: parent {sorted(counts['parent'])}, "
               f"change {sorted(other)}"))


def load_bench():
    """This tree's ``bench/run.py`` as a module. Importing it pins BLAS to
    one thread, so it is loaded before numpy."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_package(src: Path):
    """``ptcsmooth`` and ``ptcsmooth.problems`` from ``src``, imported as
    modules of their own and then dropped from ``sys.modules``, so that
    another tree's can be loaded beside them."""
    def purge():
        for name in [m for m in sys.modules
                     if m == "ptcsmooth" or m.startswith("ptcsmooth.")]:
            del sys.modules[name]

    purge()
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("ptcsmooth")
        problems = importlib.import_module("ptcsmooth.problems")
    finally:
        sys.path.remove(str(src))
        purge()
    if Path(pkg.__file__).resolve().parent != (src / "ptcsmooth").resolve():
        raise RuntimeError(f"ptcsmooth loaded from {pkg.__file__}, not {src}")
    return pkg, problems


def run_variant(bench, pkg, built, variant) -> Tuple[float, tuple]:
    """Wall time of one variant over the built cases, and its summed
    (steps, Krylov vectors, rejections)."""
    seconds, counts = 0.0, (0, 0, 0)
    for case, problem, w0 in built:
        start = time.perf_counter()
        solves = bench.run_case(pkg, case, problem, w0, variant)
        seconds += time.perf_counter() - start
        for solve in solves:
            if solve.error is not None:
                raise RuntimeError(f"{solve.label}: {solve.error}")
            r = solve.report
            counts = tuple(a + b for a, b in zip(counts, (
                r.newton_steps, r.cumulative_krylov, r.rejection_count)))
    return seconds, counts


def ab_workload(bench, sides, workload: str, rounds: int,
                seed: int) -> List[str]:
    """The report lines of one workload, one per variant."""
    cases = bench.WORKLOADS[workload]
    built = {side: bench.build_cases(problems, cases, seed)
             for side, (_, problems) in sides.items()}
    times = {(side, v): [] for side in SIDES for v in bench.VARIANTS}
    counts = {(side, v): set() for side in SIDES for v in bench.VARIANTS}
    for round_ in range(-1, rounds):     # round -1 warms up, untimed
        order = SIDES if round_ % 2 == 0 else SIDES[::-1]
        for v in bench.VARIANTS:
            for side in order:
                seconds, c = run_variant(bench, sides[side][0], built[side],
                                         v)
                if round_ >= 0:
                    times[side, v].append(seconds)
                    counts[side, v].add(c)
    return [describe(f"{workload} {v}",
                     summarize(times["parent", v], times["change", v]),
                     {side: counts[side, v] for side in SIDES})
            for v in bench.VARIANTS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the commit to compare this tree with")
    ap.add_argument("workloads", nargs="*",
                    help="benchmark workloads (default: all)")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    bench = load_bench()
    unknown = [w for w in args.workloads if w not in bench.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; choose from "
                 f"{', '.join(bench.WORKLOADS)}")
    sys.path.insert(0, str(ROOT / "tools"))
    from history_digest import checked_out

    try:
        with checked_out(args.rev) as tree:
            sides = {"parent": load_package(tree / "src"),
                     "change": load_package(ROOT / "src")}
            for workload in args.workloads or list(bench.WORKLOADS):
                for line in ab_workload(bench, sides, workload, args.rounds,
                                        args.seed):
                    print(line, flush=True)
    except subprocess.CalledProcessError as exc:
        print(f"could not check out {args.rev}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"a solve failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
