"""Command-line entry point: config parsing, experiment orchestration, and
plot-ready convergence-history emission.

Config files are INI-style with [problem], [solver], [smoothing], [run] and
[output] sections; ``--override section.key=value`` flags win over file
values. One schema of key/default tables drives parsing, the config echo and
problem construction. Histories go to CSV (one row per Newton step,
rejections included), run summaries to JSON with a config echo that lists
every key with its resolved value and re-parses to the same config.

Exit codes: 0 converged, 1 usage/config/I-O error or a starting state the
solver cannot use (``inadmissible start: ...``), 2 stagnated, 3 step budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import ConvergenceRecord, InadmissibleStateError, NonlinearSystem
from .lines import extract_lines
from .ptc import PtcConfig, SolveOutcome, SolveReport, solve_steady
from .problems import make_aniso_convdiff, make_bratu, make_quasi1d_euler
from .smoother import DEFAULT_CYCLES, DEFAULT_STAGE_COEFFS, RkSchedule
from .timestepping import TimeHistory, UnsteadyConfig, advance_unsteady

CSV_HEADER = ("step,cfl,alpha,krylov,linear_reduction,residual_l2,"
              "ptc_residual_l2,cumulative_krylov,accepted")

_EXIT_BY_OUTCOME = {
    SolveOutcome.CONVERGED: 0,
    SolveOutcome.STAGNATED: 2,
    SolveOutcome.STEP_BUDGET_EXHAUSTED: 3,
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema: each section maps its INI keys to their defaults, and the
# type of a default picks the parser of its key.
# ---------------------------------------------------------------------------

# [problem] keys per problem name, and a constructor that takes the resolved
# values in table order.
_PROBLEMS: Dict[str, Tuple[Dict[str, object],
                           Callable[..., NonlinearSystem]]] = {
    "bratu": ({"n_cells": 64, "lambda": 1.0}, make_bratu),
    "aniso_convdiff": (
        {"nx": 16, "ny": 16, "stretching": 1000.0, "eps": 0.01, "vx": 1.0,
         "vy": 0.5, "sigma": 1.0, "ly": 1.0},
        lambda nx, ny, stretching, eps, vx, vy, sigma, ly: make_aniso_convdiff(
            nx, ny, stretching, eps, (vx, vy), sigma, ly)),
    "nozzle": (
        {"n_cells": 64, "rho_in": 1.0, "u_in": 0.3, "p_exit": 1.0 / 1.4,
         "gamma": 1.4},
        lambda n_cells, *inflow_outflow: make_quasi1d_euler(
            n_cells, None, *inflow_outflow)),
}

# [solver] is PtcConfig under its field names; its smoothing schedule comes
# from [smoothing] (cycles = 0 runs unsmoothed).
_SCHEMA: Dict[str, Dict[str, object]] = {
    "problem": {},   # "name", then the named problem's table
    "solver": {f.name: f.default for f in fields(PtcConfig)
               if f.name != "smoothing"},
    "smoothing": {"stages": DEFAULT_STAGE_COEFFS, "cycles": DEFAULT_CYCLES},
    "run": {"dt": 0.05, "n_steps": 3},
    "output": {"dir": ".", "prefix": ""},   # empty prefix: the problem name
}

_TYPE_NAMES = {int: "an integer", float: "a number",
               tuple: "a comma-separated float list"}


def _resolve(section: str, key: str, default: object,
             given: Optional[Tuple[str, str]]) -> object:
    """The value of one key: its default, or the given ``(raw, where)``
    parsed as the type of the default. A None default (an unset
    ``target_residual_absolute``) stands for a float."""
    if given is None:
        return default
    raw, where = given
    kind = float if default is None else type(default)
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: [{section}] {key}: "
                          f"not {_TYPE_NAMES[kind]}: {raw!r}") from None


def _format(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(a) for a in value)
    return value if isinstance(value, str) else repr(value)


@dataclass
class RunConfig:
    """A fully resolved config: every schema key of every section with its
    value, in schema order, and the solver settings built (and so validated)
    from them."""

    values: Dict[str, Dict[str, object]]
    solver: PtcConfig = field(init=False, compare=False)
    unsteady: UnsteadyConfig = field(init=False, compare=False)

    def __post_init__(self):
        solver, smoothing, run = (self.values[s]
                                  for s in ("solver", "smoothing", "run"))
        self.solver = PtcConfig(**solver, smoothing=RkSchedule(
            smoothing["stages"], smoothing["cycles"]))
        self.unsteady = UnsteadyConfig(run["dt"], run["n_steps"], self.solver)

    @property
    def problem_name(self) -> str:
        return self.values["problem"]["name"]


# A comment starts with '#' or ';' at the start of a line or after
# whitespace, so a value such as a path may hold either character elsewhere.
_COMMENT = re.compile(r"(?:^|\s)[#;]")


def _read_sections(text: str, overrides: List[str]
                   ) -> Dict[str, Dict[str, Tuple[str, str]]]:
    """Raw section -> key -> (value, where) table; ``where`` names the file
    line or the override for error reporting. Overrides win. An override
    value that a config file would cut at a comment or a line break is
    refused, so that the config echo re-parses to the config it echoes."""
    sections: Dict[str, Dict[str, Tuple[str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}]; "
                    f"valid sections: {', '.join(_SCHEMA)}")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        current[key.lower()] = (value, f"line {lineno}")
    for item in overrides:
        target, has_value, value = item.partition("=")
        section, has_key, key = target.partition(".")
        if not (has_value and has_key):
            raise ConfigError(
                f"override {item!r} must look like section.key=value")
        section = section.strip().lower()
        if section not in _SCHEMA:
            raise ConfigError(f"override {item!r}: unknown section {section!r}")
        value = value.strip()
        if _COMMENT.search(" " + value) or len(value.splitlines()) > 1:
            raise ConfigError(
                f"override {item!r}: a value cannot hold a line break, or "
                "'#' or ';' at its start or after whitespace, where a "
                "config file reads a comment")
        sections.setdefault(section, {})[key.strip().lower()] = (
            value, f"override {item!r}")
    return sections


def parse_config(text: str, overrides: Optional[List[str]] = None) -> RunConfig:
    sections = _read_sections(text, overrides or [])
    problem = sections.get("problem", {})
    if "name" not in problem:
        raise ConfigError("[problem] section must set 'name'")
    name = problem.pop("name")[0].strip().lower()
    if name not in _PROBLEMS:
        raise ConfigError(
            f"unknown problem '{name}'; valid names: "
            f"{', '.join(sorted(_PROBLEMS))}")

    schema = dict(_SCHEMA, problem={"name": name, **_PROBLEMS[name][0]})
    values = {}
    for section, defaults in schema.items():
        given = sections.get(section, {})
        for key, (_, where) in given.items():
            if key not in defaults:
                raise ConfigError(
                    f"{where}: unknown key '{key}' in [{section}]; "
                    f"valid keys: {', '.join(sorted(defaults))}")
        values[section] = {key: _resolve(section, key, default, given.get(key))
                           for key, default in defaults.items()}
    try:
        return RunConfig(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_config(config: RunConfig) -> str:
    """Canonical text form of a fully resolved config (re-parses to itself).
    A key whose value is None (unset) is left out."""
    lines = []
    for section, values in config.values.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format(value)}"
                  for key, value in values.items() if value is not None]
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"


def build_problem(config: RunConfig) -> NonlinearSystem:
    name, *params = config.values["problem"].values()
    try:
        return _PROBLEMS[name][1](*params)
    except ValueError as exc:
        raise ConfigError(f"[problem] {name}: {exc}") from None


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _record_row(rec: ConvergenceRecord) -> str:
    return (f"{rec.step},{rec.cfl:.12e},{rec.alpha:.12e},{rec.krylov_count},"
            f"{rec.linear_reduction:.12e},{rec.residual_l2:.12e},"
            f"{rec.ptc_residual_l2:.12e},{rec.cumulative_krylov},"
            f"{1 if rec.accepted else 0}")


def write_history_csv(path: Path, history: List[ConvergenceRecord]) -> None:
    rows = [CSV_HEADER] + [_record_row(r) for r in history]
    path.write_text("\n".join(rows) + "\n")


def write_unsteady_csv(path: Path, time_history: TimeHistory) -> None:
    rows = [CSV_HEADER]
    for k, report in enumerate(time_history.reports, start=1):
        rows.append(f"# step {k}")
        rows += [_record_row(r) for r in report.history]
    path.write_text("\n".join(rows) + "\n")


def _report_summary(report: SolveReport) -> dict:
    return {
        "outcome": report.outcome.value,
        "newton_steps": report.newton_steps,
        "cumulative_krylov": report.cumulative_krylov,
        "final_residual_l2": report.final_residual_l2,
        "initial_residual_l2": report.initial_residual_l2,
        "rejections": report.rejection_count,
    }


# ---------------------------------------------------------------------------
# Commands: each writes its outputs through ``out(suffix)`` (a path in the
# output directory) and returns its exit code and its JSON summary, if any.
# ---------------------------------------------------------------------------

_Out = Callable[[str], Path]


def _solve(config: RunConfig, problem: NonlinearSystem,
           out: _Out) -> Tuple[int, Optional[dict]]:
    report = solve_steady(problem, config.solver)
    write_history_csv(out("history.csv"), report.history)
    print(f"{config.problem_name}: {report.outcome.value} in "
          f"{report.newton_steps} Newton steps, "
          f"{report.cumulative_krylov} Krylov vectors")
    return (_EXIT_BY_OUTCOME[report.outcome],
            {"mode": "steady", **_report_summary(report)})


def _sweep(config: RunConfig, problem: NonlinearSystem,
           out: _Out) -> Tuple[int, Optional[dict]]:
    results = {}
    unsmoothed = replace(config.solver, smoothing=None)
    for label, solver in (("unsmoothed", unsmoothed),
                          ("smoothed", config.solver)):
        report = solve_steady(problem, solver)
        write_history_csv(out(f"{label}_history.csv"), report.history)
        results[label] = report
        print(f"{config.problem_name} [{label}]: {report.outcome.value} "
              f"in {report.newton_steps} steps, "
              f"{report.cumulative_krylov} Krylov vectors")
    plain, smooth = results["unsmoothed"], results["smoothed"]
    summary = {
        "mode": "sweep",
        "unsmoothed": _report_summary(plain),
        "smoothed": _report_summary(smooth),
        # The two cost axes: nonlinear cycles and Krylov vectors.
        "comparison": {
            "newton_steps_ratio": smooth.newton_steps
            / max(plain.newton_steps, 1),
            "cumulative_krylov_ratio": smooth.cumulative_krylov
            / max(plain.cumulative_krylov, 1),
        },
    }
    return max(_EXIT_BY_OUTCOME[r.outcome] for r in results.values()), summary


def _unsteady(config: RunConfig, problem: NonlinearSystem,
              out: _Out) -> Tuple[int, Optional[dict]]:
    time_history = advance_unsteady(problem, config.unsteady)
    write_unsteady_csv(out("unsteady_history.csv"), time_history)
    for k, rep in enumerate(time_history.reports, start=1):
        print(f"step {k}: {rep.outcome.value}, "
              f"{rep.newton_steps} Newton steps, "
              f"{rep.cumulative_krylov} Krylov vectors")
    summary = {
        "mode": "unsteady",
        "aborted": time_history.aborted,
        "steps": [
            {**_report_summary(rep), "functional": fun}
            for rep, fun in zip(time_history.reports, time_history.functionals)
        ],
    }
    # The run stops at the first inner solve that did not converge.
    return _EXIT_BY_OUTCOME[time_history.reports[-1].outcome], summary


def _lines(config: RunConfig, problem: NonlinearSystem,
           out: _Out) -> Tuple[int, Optional[dict]]:
    """Extract and write the solver line set at the initial state."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = problem.first_order_blocks(problem.initial_state())
    line_set = extract_lines(blocks, problem.edges)
    path = out("lines.txt")
    path.write_text(line_set.to_text())
    multi = line_set.multi_cell_lines()
    print(f"{len(line_set.lines)} lines ({len(multi)} multi-cell, "
          f"{line_set.covered_by_multi()} cells on multi-cell lines) "
          f"-> {path}")
    return 0, None


# name -> (help, function, summary file suffix)
_COMMANDS = {
    "solve": ("single steady continuation run", _solve, "summary.json"),
    "sweep": ("paired unsmoothed/smoothed runs with comparison", _sweep,
              "sweep_summary.json"),
    "unsteady": ("implicit time integration run", _unsteady,
                 "unsteady_summary.json"),
    "lines": ("dump the extracted solver lines", _lines, None),
}


def run(config: RunConfig, command: str) -> int:
    """Execute one command on the configured problem; returns the process
    exit code. Raises ConfigError before writing anything if the problem
    cannot be built; a starting state the solver rejects prints
    ``inadmissible start: ...`` and returns 1."""
    problem = build_problem(config)
    _, execute, summary_suffix = _COMMANDS[command]
    output = config.values["output"]
    try:
        outdir = Path(output["dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        prefix = output["prefix"] or config.problem_name

        def out(suffix: str) -> Path:
            return outdir / f"{prefix}_{suffix}"

        code, summary = execute(config, problem, out)
        if summary is not None:
            summary["config_echo"] = render_config(config)
            out(summary_suffix).write_text(json.dumps(summary, indent=2) + "\n")
        return code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except InadmissibleStateError as exc:
        print(f"inadmissible start: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptcsmooth",
        description="Residual-smoothing pseudo-transient continuation solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to config file")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override as section.key=value (repeatable)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return run(parse_config(text, args.override), args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
