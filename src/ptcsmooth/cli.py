"""Command-line entry point: config parsing, experiment orchestration, and
plot-ready convergence-history emission.

Config files are INI-style with [problem], [solver], [smoothing], [run] and
[output] sections; ``--override section.key=value`` flags win over file
values. Histories go to CSV (one row per Newton step, rejections included),
run summaries to JSON with a config echo that re-parses to the same config.

Exit codes: 0 converged, 1 usage/config/I-O error, 2 stagnated, 3 step budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .core import ConvergenceRecord, NonlinearSystem
from .lines import build_coupling_graph, extract_lines
from .ptc import PtcConfig, SolveOutcome, SolveReport, solve_steady
from .problems import make_aniso_convdiff, make_bratu, make_quasi1d_euler
from .smoother import RkSchedule
from .timestepping import TimeHistory, UnsteadyConfig, advance_unsteady

OUTPUT_DIR_ENV = "PTCSMOOTH_OUTPUT_DIR"

CSV_HEADER = ("step,cfl,alpha,krylov,linear_reduction,residual_l2,"
              "ptc_residual_l2,cumulative_krylov,accepted")

_EXIT_BY_OUTCOME = {
    SolveOutcome.CONVERGED: 0,
    SolveOutcome.STAGNATED: 2,
    SolveOutcome.STEP_BUDGET_EXHAUSTED: 3,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem_name: str
    problem_params: Dict[str, float]
    solver: PtcConfig
    smoothing_enabled: bool
    schedule: RkSchedule
    mode: str = "steady"
    dt: float = 0.05
    n_steps: int = 3
    output_dir: str = "."
    prefix: str = ""

    def solver_config(self, smoothed: Optional[bool] = None) -> PtcConfig:
        on = self.smoothing_enabled if smoothed is None else smoothed
        return replace(self.solver, smoothing=self.schedule if on else None)


# ---------------------------------------------------------------------------
# Config schema and parsing
# ---------------------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}")


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}")


def _parse_stages(raw: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"not a comma-separated float list: {raw!r}")


_PROBLEM_PARAMS = {
    "bratu": {"n_cells": _parse_int, "lambda": _parse_float},
    "aniso_convdiff": {
        "nx": _parse_int, "ny": _parse_int, "stretching": _parse_float,
        "eps": _parse_float, "vx": _parse_float, "vy": _parse_float,
        "sigma": _parse_float, "ly": _parse_float,
    },
    "nozzle": {
        "n_cells": _parse_int, "rho_in": _parse_float, "u_in": _parse_float,
        "p_exit": _parse_float, "gamma": _parse_float,
    },
}

_SOLVER_KEYS = {
    "cfl_init": _parse_float,
    "beta_cfl1": _parse_float,
    "beta_cfl2": _parse_float,
    "alpha_grow_threshold": _parse_float,
    "alpha_reject_threshold": _parse_float,
    "linear_rel_tol": _parse_float,
    "max_krylov": _parse_int,
    "target_residual_reduction": _parse_float,
    "target_residual_absolute": _parse_float,
    "max_newton_steps": _parse_int,
    "cfl_stagnation_floor": _parse_float,
    "cfl_max": _parse_float,
    "anisotropy_threshold": _parse_float,
}

_SMOOTHING_KEYS = {"enabled": _parse_bool, "stages": _parse_stages,
                   "cycles": _parse_int}
_RUN_KEYS = {"mode": str, "dt": _parse_float, "n_steps": _parse_int}
_OUTPUT_KEYS = {"dir": str, "prefix": str}

_SECTIONS = ("problem", "solver", "smoothing", "run", "output")


def _read_sections(text: str) -> Dict[str, Dict[str, Tuple[str, int]]]:
    """Raw section/key/value table with line numbers for error reporting."""
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}]; "
                    f"valid sections: {', '.join(_SECTIONS)}")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        current[key.lower()] = (value, lineno)
    return sections


def _apply_overrides(sections, overrides: List[str]):
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section = section.strip().lower()
        if section not in _SECTIONS:
            raise ConfigError(f"override {item!r}: unknown section {section!r}")
        sections.setdefault(section, {})[key.strip().lower()] = (value.strip(), 0)
    return sections


def _convert(section: str, key: str, raw: str, lineno: int, schema) -> object:
    if key not in schema:
        raise ConfigError(
            f"line {lineno}: unknown key '{key}' in [{section}]; "
            f"valid keys: {', '.join(sorted(schema))}")
    try:
        return schema[key](raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: [{section}] {key}: {exc}")


def parse_config(text: str, overrides: Optional[List[str]] = None) -> RunConfig:
    sections = _apply_overrides(_read_sections(text), overrides or [])

    prob = sections.get("problem", {})
    if "name" not in prob:
        raise ConfigError("[problem] section must set 'name'")
    name = prob["name"][0].strip().lower()
    if name not in _PROBLEM_PARAMS:
        raise ConfigError(
            f"unknown problem '{name}'; valid names: "
            f"{', '.join(sorted(_PROBLEM_PARAMS))}")
    params = {}
    for key, (raw, lineno) in prob.items():
        if key == "name":
            continue
        params[key] = _convert("problem", key, raw, lineno, _PROBLEM_PARAMS[name])

    solver_kwargs = {}
    for key, (raw, lineno) in sections.get("solver", {}).items():
        value = _convert("solver", key, raw, lineno, _SOLVER_KEYS)
        field_name = {"beta_cfl1": "cfl_growth", "beta_cfl2": "cfl_cut"}.get(key, key)
        solver_kwargs[field_name] = value
    solver = PtcConfig(**solver_kwargs)

    smoothing_enabled = True
    stages = RkSchedule().stage_coefficients
    cycles = RkSchedule().n_cycles
    for key, (raw, lineno) in sections.get("smoothing", {}).items():
        value = _convert("smoothing", key, raw, lineno, _SMOOTHING_KEYS)
        if key == "enabled":
            smoothing_enabled = value
        elif key == "stages":
            stages = value
        elif key == "cycles":
            cycles = value
    schedule = RkSchedule(stages, cycles)

    run_kwargs = {"mode": "steady", "dt": 0.05, "n_steps": 3}
    for key, (raw, lineno) in sections.get("run", {}).items():
        value = _convert("run", key, raw, lineno, _RUN_KEYS)
        run_kwargs[key] = value
    if run_kwargs["mode"] not in ("steady", "sweep", "unsteady"):
        raise ConfigError(f"run mode must be steady, sweep or unsteady, "
                          f"got {run_kwargs['mode']!r}")

    out_kwargs = {"dir": ".", "prefix": name}
    for key, (raw, lineno) in sections.get("output", {}).items():
        out_kwargs[key] = _convert("output", key, raw, lineno, _OUTPUT_KEYS)

    return RunConfig(problem_name=name, problem_params=params, solver=solver,
                     smoothing_enabled=smoothing_enabled, schedule=schedule,
                     mode=run_kwargs["mode"], dt=run_kwargs["dt"],
                     n_steps=run_kwargs["n_steps"],
                     output_dir=out_kwargs["dir"], prefix=out_kwargs["prefix"])


def render_config(config: RunConfig) -> str:
    """Canonical text form of a fully resolved config (re-parses to itself)."""
    lines = ["[problem]", f"name = {config.problem_name}"]
    for key in sorted(config.problem_params):
        lines.append(f"{key} = {config.problem_params[key]!r}")
    lines.append("")
    lines.append("[solver]")
    s = config.solver
    lines += [
        f"cfl_init = {s.cfl_init!r}",
        f"beta_cfl1 = {s.cfl_growth!r}",
        f"beta_cfl2 = {s.cfl_cut!r}",
        f"alpha_grow_threshold = {s.alpha_grow_threshold!r}",
        f"alpha_reject_threshold = {s.alpha_reject_threshold!r}",
        f"linear_rel_tol = {s.linear_rel_tol!r}",
        f"max_krylov = {s.max_krylov}",
        f"target_residual_reduction = {s.target_residual_reduction!r}",
        f"max_newton_steps = {s.max_newton_steps}",
        f"cfl_stagnation_floor = {s.cfl_stagnation_floor!r}",
        f"cfl_max = {s.cfl_max!r}",
        f"anisotropy_threshold = {s.anisotropy_threshold!r}",
    ]
    if s.target_residual_absolute is not None:
        lines.append(f"target_residual_absolute = {s.target_residual_absolute!r}")
    lines.append("")
    lines.append("[smoothing]")
    lines += [
        f"enabled = {str(config.smoothing_enabled).lower()}",
        "stages = " + ",".join(repr(a) for a in config.schedule.stage_coefficients),
        f"cycles = {config.schedule.n_cycles}",
    ]
    lines.append("")
    lines.append("[run]")
    lines += [
        f"mode = {config.mode}",
        f"dt = {config.dt!r}",
        f"n_steps = {config.n_steps}",
    ]
    lines.append("")
    lines.append("[output]")
    lines += [f"dir = {config.output_dir}", f"prefix = {config.prefix}"]
    return "\n".join(lines) + "\n"


def build_problem(config: RunConfig) -> NonlinearSystem:
    p = config.problem_params
    if config.problem_name == "bratu":
        return make_bratu(int(p.get("n_cells", 64)), p.get("lambda", 1.0))
    if config.problem_name == "aniso_convdiff":
        return make_aniso_convdiff(
            int(p.get("nx", 16)), int(p.get("ny", 16)),
            p.get("stretching", 1000.0), p.get("eps", 0.01),
            (p.get("vx", 1.0), p.get("vy", 0.5)),
            p.get("sigma", 1.0), p.get("ly", 1.0))
    if config.problem_name == "nozzle":
        return make_quasi1d_euler(
            int(p.get("n_cells", 64)), None, p.get("rho_in", 1.0),
            p.get("u_in", 0.3), p.get("p_exit", 1.0 / 1.4),
            p.get("gamma", 1.4))
    raise ConfigError(f"unknown problem '{config.problem_name}'")


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


def _resolve_outdir(config: RunConfig) -> Path:
    outdir = Path(os.environ.get(OUTPUT_DIR_ENV, config.output_dir))
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def run(config: RunConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    try:
        problem = build_problem(config)
        outdir = _resolve_outdir(config)
        prefix = config.prefix or config.problem_name
        echo = render_config(config)

        if config.mode == "steady":
            report = solve_steady(problem, config.solver_config())
            write_history_csv(outdir / f"{prefix}_history.csv", report.history)
            summary = {"mode": "steady", **_report_summary(report),
                       "config_echo": echo}
            (outdir / f"{prefix}_summary.json").write_text(
                json.dumps(summary, indent=2) + "\n")
            print(f"{config.problem_name}: {report.outcome.value} in "
                  f"{report.newton_steps} Newton steps, "
                  f"{report.cumulative_krylov} Krylov vectors")
            return _EXIT_BY_OUTCOME[report.outcome]

        if config.mode == "sweep":
            results = {}
            for label, smoothed in (("unsmoothed", False), ("smoothed", True)):
                report = solve_steady(problem, config.solver_config(smoothed))
                write_history_csv(outdir / f"{prefix}_{label}_history.csv",
                                  report.history)
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
                "config_echo": echo,
            }
            (outdir / f"{prefix}_sweep_summary.json").write_text(
                json.dumps(summary, indent=2) + "\n")
            return max(_EXIT_BY_OUTCOME[results[k].outcome] for k in results)

        if config.mode == "unsteady":
            unsteady = UnsteadyConfig(config.dt, config.n_steps,
                                      config.solver_config())
            time_history = advance_unsteady(problem, unsteady)
            write_unsteady_csv(outdir / f"{prefix}_unsteady_history.csv",
                               time_history)
            summary = {
                "mode": "unsteady",
                "aborted": time_history.aborted,
                "steps": [
                    {**_report_summary(rep), "functional": fun}
                    for rep, fun in zip(time_history.reports,
                                        time_history.functionals)
                ],
                "config_echo": echo,
            }
            (outdir / f"{prefix}_unsteady_summary.json").write_text(
                json.dumps(summary, indent=2) + "\n")
            for k, rep in enumerate(time_history.reports, start=1):
                print(f"step {k}: {rep.outcome.value}, "
                      f"{rep.newton_steps} Newton steps, "
                      f"{rep.cumulative_krylov} Krylov vectors")
            # The run stops at the first inner solve that did not converge.
            return _EXIT_BY_OUTCOME[time_history.reports[-1].outcome]

        raise ConfigError(f"unknown mode {config.mode!r}")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


def dump_lines(config: RunConfig) -> int:
    """Extract and write the solver line set at the initial state."""
    try:
        problem = build_problem(config)
        graph = build_coupling_graph(problem, problem.initial_state())
        line_set = extract_lines(graph, config.solver.anisotropy_threshold)
        outdir = _resolve_outdir(config)
        prefix = config.prefix or config.problem_name
        path = outdir / f"{prefix}_lines.txt"
        path.write_text(line_set.to_text())
        multi = line_set.multi_cell_lines()
        print(f"{len(line_set.lines)} lines ({len(multi)} multi-cell, "
              f"{line_set.covered_by_multi()} cells on multi-cell lines) "
              f"-> {path}")
        return 0
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptcsmooth",
        description="Residual-smoothing pseudo-transient continuation solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "single steady continuation run"),
            ("sweep", "paired unsmoothed/smoothed runs with comparison"),
            ("unsteady", "implicit time integration run"),
            ("lines", "dump the extracted solver lines")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to config file")
        p.add_argument("--override", action="append", default=[],
                       metavar="SectionKEY=VALUE",
                       help="override as section.key=value (repeatable)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "lines":
        return dump_lines(config)
    mode_by_command = {"solve": "steady", "sweep": "sweep",
                       "unsteady": "unsteady"}
    config = replace(config, mode=mode_by_command[args.command])
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
