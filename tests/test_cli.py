import json
import warnings
from pathlib import Path

import pytest

from ptcsmooth.cli import (ConfigError, build_problem, main, parse_config,
                           render_config)


MINIMAL = """
[problem]
name = bratu
"""


def test_defaults_are_protocol_settings():
    cfg = parse_config(MINIMAL)
    assert cfg.problem_name == "bratu"
    assert cfg.solver.cfl_init == 10.0
    assert cfg.solver.beta_cfl1 == 1.5
    # The CFL cut and cap are constants, not keys.
    assert not {"beta_cfl2", "cfl_max"} & set(cfg.values["solver"])
    assert cfg.solver.linear_rel_tol == 1e-2
    assert cfg.solver.max_krylov == 100
    assert cfg.solver.smoothing.stage_coefficients == (0.15, 0.4, 1.0)
    assert cfg.solver.smoothing.n_cycles == 5


def test_beta_cfl1_override_carries_through():
    cfg = parse_config(MINIMAL + "\n[solver]\nbeta_cfl1 = 3.0\n")
    assert cfg.solver.beta_cfl1 == 3.0
    cfg2 = parse_config(MINIMAL, overrides=["solver.beta_cfl1=3.0"])
    assert cfg2.solver.beta_cfl1 == 3.0


def test_malformed_numeric_reports_line():
    text = "[problem]\nname = bratu\n\n[solver]\ncfl_init = ten\n"
    with pytest.raises(ConfigError, match="line 5"):
        parse_config(text)


def test_type_mismatch_on_integer_key():
    text = MINIMAL + "\n[solver]\nmax_krylov = 12.5\n"
    with pytest.raises(ConfigError, match="integer"):
        parse_config(text)


def test_unknown_key_lists_valid_ones():
    with pytest.raises(ConfigError, match="valid keys"):
        parse_config(MINIMAL + "\n[solver]\ncfl_inti = 5\n")


def test_unknown_section_and_problem():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[solvers]\nx = 1\n")
    with pytest.raises(ConfigError, match="valid names"):
        parse_config("[problem]\nname = navier\n")


def test_missing_problem_name():
    with pytest.raises(ConfigError, match="name"):
        parse_config("[solver]\ncfl_init = 5\n")


def test_config_echo_round_trips():
    cfg = parse_config(MINIMAL + "\n[solver]\nbeta_cfl1 = 2.25\nmax_krylov = 60\n"
                       "\n[smoothing]\ncycles = 3\n")
    assert parse_config(render_config(cfg)) == cfg


def test_build_problem_respects_params():
    cfg = parse_config("[problem]\nname = bratu\nn_cells = 20\nlambda = 2.0\n")
    p = build_problem(cfg)
    assert p.layout.n_cells == 20
    assert p.lam == 2.0


def _write(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return str(path)


def _steady_config(tmp_path, outdir):
    return _write(tmp_path, f"""
[problem]
name = bratu
n_cells = 48

[output]
dir = {outdir}
prefix = case
""")


def test_solve_writes_history_and_summary(tmp_path):
    outdir = tmp_path / "out"
    code = main(["solve", _steady_config(tmp_path, outdir)])
    assert code == 0
    rows = (outdir / "case_history.csv").read_text().strip().splitlines()
    header, data = rows[0], rows[1:]
    assert header.startswith("step,cfl,alpha,krylov")
    summary = json.loads((outdir / "case_summary.json").read_text())
    assert summary["outcome"] == "converged"
    assert len(data) == summary["newton_steps"]
    last_cumulative = int(data[-1].split(",")[7])
    assert last_cumulative == summary["cumulative_krylov"]
    # Echo re-parses to an equivalent config.
    echoed = parse_config(summary["config_echo"])
    assert echoed.problem_name == "bratu"


def test_runs_are_bit_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = _write(tmp_path, "[problem]\nname = bratu\nn_cells = 32\n")
    for out in (out1, out2):
        code = main(["solve", cfg, "--override", f"output.dir={out}"])
        assert code == 0
    csv1 = (out1 / "bratu_history.csv").read_bytes()
    csv2 = (out2 / "bratu_history.csv").read_bytes()
    assert csv1 == csv2


def test_sweep_writes_pair_and_comparison(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = bratu
n_cells = 32

[output]
dir = {outdir}
prefix = pair
""")
    code = main(["sweep", cfg])
    assert code == 0
    assert (outdir / "pair_unsmoothed_history.csv").exists()
    assert (outdir / "pair_smoothed_history.csv").exists()
    summary = json.loads((outdir / "pair_sweep_summary.json").read_text())
    assert summary["unsmoothed"]["outcome"] == "converged"
    assert summary["smoothed"]["outcome"] == "converged"
    assert summary["smoothed"]["cumulative_krylov"] > 0


def test_unsteady_csv_has_step_sections(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = bratu
n_cells = 24

[run]
dt = 0.05
n_steps = 2

[output]
dir = {outdir}
prefix = tdep
""")
    code = main(["unsteady", cfg])
    assert code == 0
    text = (outdir / "tdep_unsteady_history.csv").read_text()
    assert "# step 1" in text
    assert "# step 2" in text
    summary = json.loads((outdir / "tdep_unsteady_summary.json").read_text())
    assert len(summary["steps"]) == 2
    assert not summary["aborted"]


def test_lines_command_dumps_partition(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = aniso_convdiff
nx = 8
ny = 12
stretching = 1000.0
ly = 0.05

[output]
dir = {outdir}
prefix = geom
""")
    code = main(["lines", cfg])
    assert code == 0
    rows = (outdir / "geom_lines.txt").read_text().strip().splitlines()
    cells = sorted(int(c) for row in rows for c in row.split())
    assert cells == list(range(8 * 12))


def test_lines_command_writes_whole_path_line_on_bratu(tmp_path, capsys):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = bratu
n_cells = 40

[output]
dir = {outdir}
prefix = chain
""")
    assert main(["lines", cfg]) == 0
    assert "1 lines (1 multi-cell, 40 cells" in capsys.readouterr().out
    rows = (outdir / "chain_lines.txt").read_text().splitlines()
    assert rows == [" ".join(str(c) for c in range(40))]


def test_parse_failure_exits_nonzero(tmp_path):
    cfg = _write(tmp_path, "[problem]\nname = bratu\n[solver]\ncfl_init = bad\n")
    assert main(["solve", cfg]) == 1


def test_missing_config_file_exits_nonzero(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 1


def test_stagnation_exit_code(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = aniso_convdiff
nx = 8
ny = 8
stretching = 100.0

[solver]
max_krylov = 1
linear_rel_tol = 1e-12
max_newton_steps = 60

[output]
dir = {outdir}
""")
    assert main(["solve", cfg]) == 2


def test_budget_exit_code(tmp_path):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, f"""
[problem]
name = bratu
n_cells = 48

[solver]
max_newton_steps = 2

[output]
dir = {outdir}
""")
    assert main(["solve", cfg]) == 3


CONVDIFF = "[problem]\nname = aniso_convdiff\n"
NOZZLE = "[problem]\nname = nozzle\n"


@pytest.mark.parametrize("extra, reason", [
    ("[smoothing]\nstages = 0.5,0.5\n", "final stage coefficient"),
    ("[smoothing]\nstages = nan,1.0\n", "stage coefficients must lie in (0, 1]"),
    ("[solver]\nbeta_cfl1 = 0.5\n", "beta_cfl1 must exceed 1"),
    ("[solver]\nbeta_cfl1 = inf\n", "beta_cfl1 must exceed 1 and be finite"),
    ("[solver]\ntarget_residual_reduction = nan\n",
     "target_residual_reduction must lie in (0, 1)"),
    ("[solver]\ntarget_residual_absolute = inf\n",
     "target_residual_absolute must be positive and finite"),
    ("[solver]\ncfl_init = 1e13\n",
     "cfl_init must be at least 1e-06 and at most 1e+12"),
    ("[solver]\ncfl_init = 1e-320\n", "cfl_init must be at least 1e-06"),
    ("[problem]\nn_cells = 2\n", "need at least 3 cells"),
    ("[run]\ndt = -1\n", "dt must be positive"),
    ("[run]\ndt = nan\n", "dt must be positive"),
    ("[run]\ndt = inf\n", "dt must be positive and finite"),
    ("[run]\ndt = 1e-320\n", "dt = 1e-320 is too small: 1.5/dt overflows"),
    ("[run]\nmode = steady\n", "unknown key 'mode'"),
    ("[solver]\nanisotropy_threshold = 4\n",
     "unknown key 'anisotropy_threshold'"),
    ("[smoothing]\nenabled = false\n", "unknown key 'enabled'"),
    ("[solver]\nbeta_cfl2 = 0.1\n", "unknown key 'beta_cfl2'"),
    ("[solver]\ncfl_max = 1e12\n", "unknown key 'cfl_max'"),
    ("[problem]\nlambda = nan\n", "lam must be finite"),
    (f"{CONVDIFF}eps = nan\n", "eps must be finite"),
    (f"{CONVDIFF}vx = inf\n", "velocity must be finite"),
    (f"{CONVDIFF}sigma = -inf\n", "sigma must be finite"),
    (f"{CONVDIFF}ly = -1\n", "ly must be positive"),
    (f"{CONVDIFF}eps = -0.01\n", "eps must be positive"),
    (f"{CONVDIFF}sigma = -5\n", "sigma must be nonnegative"),
    (f"{CONVDIFF}stretching = 1e300\n", "stretching_ratio 1e+300 is too large"),
    (f"{CONVDIFF}stretching = 1e200\n", "stretching_ratio 1e+200 is too large"),
    (f"{CONVDIFF}eps = 1e308\n", "forcing that overflows"),
    (f"{NOZZLE}p_exit = -1\n", "p_exit and length must be positive"),
    (f"{NOZZLE}rho_in = 0\n", "p_exit and length must be positive"),
    (f"{NOZZLE}u_in = nan\n", "u_in must be finite"),
    (f"{NOZZLE}u_in = 1e200\n", "initial state that overflows"),
    (f"{NOZZLE}gamma = nan\n", "gamma must be finite"),
    (f"{NOZZLE}gamma = 1\n", "gamma must exceed 1"),
], ids=["stages", "stages_nan", "beta_cfl1", "beta_cfl1_inf", "target_nan",
        "target_absolute_inf", "cfl_init_above_max", "cfl_init_subnormal",
        "n_cells", "dt", "dt_nan", "dt_inf", "dt_subnormal",
        "removed_mode_key", "removed_anisotropy_key", "removed_enabled_key",
        "removed_beta_cfl2_key", "removed_cfl_max_key", "lambda_nan",
        "eps_nan", "vx_inf", "sigma_inf", "ly", "eps_negative",
        "sigma_negative", "stretching_1e300",
        "stretching_1e200", "eps_overflow", "p_exit", "rho_in", "u_in_nan",
        "u_in_overflow", "gamma_nan", "gamma_one"])
def test_invalid_value_is_config_error_before_output(tmp_path, capsys,
                                                      extra, reason):
    outdir = tmp_path / "out"
    cfg = _write(tmp_path, MINIMAL + extra + f"[output]\ndir = {outdir}\n")
    for command in ("unsteady", "lines"):
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err
        assert not outdir.exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "unsteady", "lines"])
def test_inadmissible_start_is_a_documented_abort(tmp_path, capsys, command):
    # bratu: the residual at the zero start is -1e308 in every cell, so its
    # norm overflows and the solver refuses the start before any step (the
    # lines command evaluates no residual). nozzle: the residual is finite,
    # but the first-order couplings overflow, so no lines can be extracted.
    starts = [NOZZLE + "n_cells = 32\nrho_in = 1e-200\nu_in = 2e103\n"]
    if command != "lines":
        starts.append(MINIMAL + "lambda = 1e308\n")
    for k, start in enumerate(starts):
        outdir = tmp_path / f"out{k}"
        cfg = _write(tmp_path, start + f"[output]\ndir = {outdir}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("inadmissible start: ") and "Traceback" not in err
        assert not list(outdir.iterdir())


def test_override_error_names_override():
    with pytest.raises(ConfigError, match="override 'solver.cfl_init=bad'"):
        parse_config(MINIMAL, ["solver.cfl_init=bad"])


def _readme_block(after: str, fence: str) -> str:
    """The first ``fence`` code block of the README after the text ``after``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return (text.split(after, 1)[1].split(f"```{fence}\n", 1)[1]
            .split("```", 1)[0])


def test_readme_config_parses_and_echo_round_trips():
    cfg = parse_config(_readme_block("Config files are INI-style", "ini"))
    assert parse_config(render_config(cfg)) == cfg


def test_readme_library_snippet_runs(capsys):
    exec(_readme_block("## Library use", "python"), {})
    plain, arrow, smooth = capsys.readouterr().out.split()
    assert arrow == "->" and int(smooth) < int(plain)


def test_echo_lists_problem_defaults():
    echo = render_config(parse_config(MINIMAL))
    assert "n_cells = 64\n" in echo
    assert "lambda = 1.0\n" in echo
