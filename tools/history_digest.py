"""SHA-256 digests of solver histories, for checking that a change to the
kernels leaves every solve bitwise unchanged.

Run from the repository root, on two checkouts, and compare the output:

    python3 tools/history_digest.py                  # every case
    python3 tools/history_digest.py bratu64 nozzle32 # a selection

Each output line is
``<case>[/step <k>] <variant> <steps>/<krylov>/<rejections> <sha256>``: the
solve's Newton steps, cumulative Krylov vectors and rejected steps, then its
digest. A change that moves only round-off can keep every count while the
digest moves; the counts tell the two apart. A digest covers the outcome,
every history row (rejections included; floats by their ``repr``, which
round-trips every bit and the sign of zero) and the bytes of the final
state. Variants are ``plain`` (``PtcConfig()``) and ``smoothed``
(``PtcConfig(smoothing=RkSchedule())``), each with the case's overrides.
The cases are the benchmark's steady grids, bratu 64, the criterion-5
fixtures of ``tests/test_acceptance.py`` and the 3-step BDF convdiff run,
one digest per physical step.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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
}

VARIANTS = {"plain": None, "smoothed": RkSchedule}


def report_digest(report: SolveReport) -> str:
    """SHA-256 over the outcome, every history row and the final state."""
    h = hashlib.sha256()
    h.update(report.outcome.value.encode())
    for row in report.history:
        h.update(repr(dataclasses.astuple(row)).encode())
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


def main(argv: List[str]) -> int:
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; "
              f"choose from {', '.join(CASES)}", file=sys.stderr)
        return 2
    for name in argv or CASES:
        print("\n".join(case_digests(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
