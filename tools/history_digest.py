"""SHA-256 digests of solver histories, for checking that a change to the
kernels leaves every solve bitwise unchanged.

Run from the repository root:

    python3 tools/history_digest.py                  # every case
    python3 tools/history_digest.py bratu64 nozzle32 # a selection
    python3 tools/history_digest.py --against REV    # compare with REV

With ``--against REV`` the tool checks REV out into a temporary local
``git worktree``, runs this file's cases on REV's source there, and prints
one verdict per line: ``same <line>``, or ``differs <label>: <REV's counts
and digest> -> <this tree's>``, ``missing`` on the side without the line.
It exits 1 if any line differs, 2 if REV cannot be checked out or its
cases fail to run, and removes the worktree afterwards.

Each output line is
``<case>[/step <k>] <variant> <steps>/<krylov>/<rejections> <sha256>``: the
solve's Newton steps, cumulative Krylov vectors and rejected steps, then its
digest. A change that moves only round-off can keep every count while the
digest moves; the counts tell the two apart. A digest covers the outcome,
every history row (rejections included) by the history CSV's nine columns,
named in ``ROW_FIELDS`` (floats by their ``repr``, which round-trips every
bit and the sign of zero), and the bytes of the final state; a field added
to the row record moves no digest. Variants are ``plain`` (``PtcConfig()``)
and ``smoothed`` (``PtcConfig(smoothing=RkSchedule())``), each with the
case's overrides.
The cases are the benchmark's steady grids, bratu 64, the criterion-5
fixtures of ``tests/test_acceptance.py``, the 3-step BDF convdiff run and
the paper's time-dependent CFD case, a 5-step BDF run of the 128-cell
nozzle at dt 0.5, one digest per physical step.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ptcsmooth import (PtcConfig, RkSchedule, SolveReport,  # noqa: E402
                       UnsteadyConfig, advance_unsteady, singleton_lines,
                       solve_steady)
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,  # noqa: E402
                                make_quasi1d_euler)


class Case(NamedTuple):
    build: Callable
    overrides: dict
    singleton: bool = False           # solve on singleton lines
    unsteady: Optional[tuple] = None  # (dt, n_steps)


AGGRESSIVE = {"beta_cfl1": 3.0, "max_newton_steps": 120}

CASES: Dict[str, Case] = {
    "convdiff16x24": Case(lambda: make_aniso_convdiff(16, 24, 1000.0), {}),
    "convdiff32x48": Case(lambda: make_aniso_convdiff(32, 48, 1000.0), {}),
    "nozzle32": Case(lambda: make_quasi1d_euler(32), {}),
    "nozzle128": Case(lambda: make_quasi1d_euler(128),
                      {"max_newton_steps": 200}),
    "bratu64": Case(lambda: make_bratu(64, 1.0), {}),
    "crit5_nozzle32_singleton": Case(
        lambda: make_quasi1d_euler(32, u_in=0.46), AGGRESSIVE, singleton=True),
    "crit5_nozzle128": Case(lambda: make_quasi1d_euler(128, u_in=0.46),
                            AGGRESSIVE),
    "bdf3_convdiff16x24": Case(
        lambda: make_aniso_convdiff(16, 24, 1000.0),
        {"max_newton_steps": 200, "target_residual_reduction": 1e-12},
        unsteady=(0.05, 3)),
    "bdf5_nozzle128_dt05": Case(
        lambda: make_quasi1d_euler(128),
        {"max_newton_steps": 200, "target_residual_reduction": 1e-10},
        unsteady=(0.5, 5)),
}

VARIANTS = {"plain": None, "smoothed": RkSchedule}

# The history CSV's columns, in its order: what a row's digest covers.
ROW_FIELDS = ("step", "cfl", "alpha", "krylov_count", "linear_reduction",
              "residual_l2", "ptc_residual_l2", "cumulative_krylov",
              "accepted")


def report_digest(report: SolveReport) -> str:
    """SHA-256 over the outcome, every history row and the final state."""
    h = hashlib.sha256()
    h.update(report.outcome.value.encode())
    for row in report.history:
        h.update(repr(tuple(getattr(row, f) for f in ROW_FIELDS)).encode())
    h.update(report.final_state.values.tobytes())
    return h.hexdigest()


def case_digests(name: str) -> List[str]:
    """One output line per variant (and physical step) of case ``name``."""
    case = CASES[name]
    out = []
    for variant, schedule in VARIANTS.items():
        config = PtcConfig(smoothing=schedule() if schedule else None,
                           **case.overrides)
        system = case.build()
        if case.unsteady is None:
            lines = (singleton_lines(system.layout.n_cells) if case.singleton
                     else None)
            reports = [(name, solve_steady(system, config, lines=lines))]
        else:
            dt, n_steps = case.unsteady
            history = advance_unsteady(
                system, UnsteadyConfig(dt, n_steps, config))
            reports = [(f"{name}/step {k}", r)
                       for k, r in enumerate(history.reports)]
        out += [f"{label} {variant} {r.newton_steps}/{r.cumulative_krylov}/"
                f"{r.rejection_count} {report_digest(r)}"
                for label, r in reports]
    return out


@contextmanager
def checked_out(rev: str) -> Iterator[Path]:
    """Commit ``rev`` checked out into a temporary local ``git worktree``,
    removed on exit; a failing ``git`` raises ``CalledProcessError``."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], check=True)


def digests_at(rev: str, names: List[str]) -> List[str]:
    """The digest lines of ``names`` on the source of commit ``rev``, run
    in a temporary worktree with this file copied in, so that both sides
    run the same cases."""
    with checked_out(rev) as tree:
        tool = tree / "tools" / Path(__file__).name
        tool.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, tool)
        return subprocess.run(
            [sys.executable, str(tool), *names], check=True,
            stdout=subprocess.PIPE, text=True).stdout.splitlines()


def verdicts(theirs: List[str], ours: List[str]) -> List[str]:
    """One verdict per label (``<case>[/step <k>] <variant>``) of either
    side, in order: ``same <line>`` or ``differs <label>: <theirs> ->
    <ours>``."""
    def by_label(lines):
        return {label: " ".join(rest)
                for label, *rest in (line.rsplit(" ", 2) for line in lines)}

    old, new = by_label(theirs), by_label(ours)
    out = []
    for label in dict.fromkeys([*old, *new]):
        a, b = (side.get(label, "missing") for side in (old, new))
        out.append(f"same {label} {a}" if a == b
                   else f"differs {label}: {a} -> {b}")
    return out


def main(argv: List[str]) -> int:
    against = None
    if argv[:1] == ["--against"]:
        if len(argv) < 2:
            print("--against needs a revision", file=sys.stderr)
            return 2
        against, argv = argv[1], argv[2:]
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; "
              f"choose from {', '.join(CASES)}", file=sys.stderr)
        return 2
    names = argv or list(CASES)
    if against is None:
        for name in names:
            print("\n".join(case_digests(name)), flush=True)
        return 0
    try:
        theirs = digests_at(against, names)
    except subprocess.CalledProcessError as err:
        print(f"could not run the cases at {against}: {err}", file=sys.stderr)
        return 2
    ours = [line for name in names for line in case_digests(name)]
    lines = verdicts(theirs, ours)
    print("\n".join(lines))
    return 1 if any(line.startswith("differs") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
