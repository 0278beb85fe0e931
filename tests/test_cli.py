import json

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
    assert cfg.solver.cfl_growth == 1.5
    assert cfg.solver.cfl_cut == 0.1
    assert cfg.solver.linear_rel_tol == 1e-2
    assert cfg.solver.max_krylov == 100
    assert cfg.smoothing_enabled
    assert cfg.schedule.stage_coefficients == (0.15, 0.4, 1.0)
    assert cfg.schedule.n_cycles == 5


def test_beta_cfl1_override_carries_through():
    cfg = parse_config(MINIMAL + "\n[solver]\nbeta_cfl1 = 3.0\n")
    assert cfg.solver.cfl_growth == 3.0
    cfg2 = parse_config(MINIMAL, overrides=["solver.beta_cfl1=3.0"])
    assert cfg2.solver.cfl_growth == 3.0


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


def test_output_dir_env_override(tmp_path, monkeypatch):
    outdir = tmp_path / "env_out"
    monkeypatch.setenv("PTCSMOOTH_OUTPUT_DIR", str(outdir))
    cfg = _write(tmp_path, "[problem]\nname = bratu\nn_cells = 24\n")
    assert main(["solve", cfg]) == 0
    assert (outdir / "bratu_history.csv").exists()


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
