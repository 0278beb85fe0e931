"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Fixtures are desk-scale; tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

import ptcsmooth.ptc as ptc_mod
from ptcsmooth.core import BlockVector, FirstOrderBlocks, l2_norm
from ptcsmooth.linalg import factor_block_tridiag, gmres_right_preconditioned
from ptcsmooth.lines import extract_lines, singleton_lines
from ptcsmooth.ptc import (PtcConfig, SolveOutcome, cfl_update,
                           mass_over_dtau, newton_step, solve_steady)
from ptcsmooth.smoother import RkSchedule, rk_smooth
from ptcsmooth.timestepping import BdfStepSystem, UnsteadyConfig, advance_unsteady
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import (dense_from_lines, diffusion_chain, full_chain_lines,
                      kernel_lines, random_couplings, validate_jacobian)
from test_linalg import _dense_operator


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


@pytest.fixture(scope="module")
def full_solves():
    """All three problems, both variants, with every line search recorded."""
    recorded = []
    original = ptc_mod.line_search

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        recorded.append(result)
        return result

    ptc_mod.line_search = recording
    try:
        problems = {
            "bratu": (make_bratu(64, 1.0), {}),
            "convdiff": (make_aniso_convdiff(16, 24, stretching_ratio=1000.0),
                         {"max_newton_steps": 300}),
            "euler": (make_quasi1d_euler(32), {"max_newton_steps": 100}),
        }
        reports = {}
        for name, (problem, extra) in problems.items():
            for variant, sched in (("unsmoothed", None), ("smoothed", RkSchedule())):
                cfg = PtcConfig(smoothing=sched, **extra)
                reports[(name, variant)] = solve_steady(problem, cfg)
    finally:
        ptc_mod.line_search = original
    return reports, recorded


def test_criterion_01_descent_invariant(full_solves):
    reports, recorded = full_solves
    all_converged = all(r.outcome == SolveOutcome.CONVERGED
                        for r in reports.values())
    # Every accepted line-search outcome must have decreased the
    # pseudo-unsteady residual; rejected searches are exempt.
    violations = [r for r in recorded if r.alpha > 0.0 and not r.f_alpha < r.f0]
    ok = all_converged and len(recorded) > 0 and not violations
    _report(1, f"descent invariant: {len(recorded)} line searches across "
               f"6 solves, {len(violations)} violations", ok)


def solve_counts(reports):
    return {key: (rep.outcome.value, rep.newton_steps, rep.cumulative_krylov,
                  rep.rejection_count)
            for key, rep in reports.items()}


# (outcome, Newton steps, cumulative Krylov vectors, rejections) of each
# full solve. A refactor that claims to change no number must keep these.
PINNED_COUNTS = {
    ("bratu", "unsmoothed"): ("converged", 12, 13, 0),
    ("bratu", "smoothed"): ("converged", 4, 4, 0),
    ("convdiff", "unsmoothed"): ("converged", 15, 327, 0),
    ("convdiff", "smoothed"): ("converged", 10, 158, 0),
    ("euler", "unsmoothed"): ("converged", 13, 100, 0),
    ("euler", "smoothed"): ("converged", 7, 52, 0),
}

# The same bratu and euler solves on singleton lines (block-Jacobi): the
# lines greedy extraction alone gives these 1D grids, with no cell
# anisotropic enough to seed a line.
SINGLETON_PINNED_COUNTS = {
    ("bratu", "unsmoothed"): ("converged", 12, 312, 0),
    ("bratu", "smoothed"): ("converged", 12, 303, 0),
    ("euler", "unsmoothed"): ("converged", 13, 1103, 0),
    ("euler", "smoothed"): ("converged", 14, 1187, 0),
}


def test_full_solve_counts_pinned(full_solves):
    reports, _ = full_solves
    assert solve_counts(reports) == PINNED_COUNTS


def test_singleton_line_counts_pinned():
    reports = {}
    for name, problem, extra in (
            ("bratu", make_bratu(64, 1.0), {}),
            ("euler", make_quasi1d_euler(32), {"max_newton_steps": 100})):
        for variant, sched in (("unsmoothed", None),
                               ("smoothed", RkSchedule())):
            reports[(name, variant)] = solve_steady(
                problem, PtcConfig(smoothing=sched, **extra),
                lines=singleton_lines(problem.layout.n_cells))
    assert solve_counts(reports) == SINGLETON_PINNED_COUNTS


def test_criterion_02_small_dtau_limit():
    p = make_bratu(64, 1.0)
    w = p.initial_state()
    cfg = PtcConfig(smoothing=RkSchedule())
    lines = extract_lines(p.first_order_blocks(w), p.edges)
    (precon,) = factor_block_tridiag(lines, p.first_order_blocks(w), (None,))
    m_dtau = mass_over_dtau(p, w, 1e-10)
    delta_smooth = rk_smooth(p, precon, cfg.smoothing, w, p.residual(w),
                             m_dtau, 0.0).delta_w
    ns = newton_step(p, w, m_dtau, cfg, lines, p.residual(w),
                     p.first_order_blocks(w), schedule=cfg.smoothing)
    rel = l2_norm(ns.delta_w - delta_smooth) / l2_norm(delta_smooth)
    _report(2, f"small-dtau limit: |dw - dw_smooth| / |dw_smooth| = {rel:.2e}",
            rel <= 1e-6)


def test_criterion_03_newton_recovery_order():
    # Near the fold point the quadratic constant is large enough to spread
    # the terminal decay over three measurable steps before round-off.
    p = make_bratu(64, 3.51)
    pre = solve_steady(p, PtcConfig(target_residual_reduction=1e-3))
    r_init = pre.initial_residual_l2
    assert pre.final_residual_l2 <= 1e-3 * r_init
    cfg = PtcConfig(cfl_init=1e12, linear_rel_tol=1e-12,
                    target_residual_reduction=1e-16,
                    target_residual_absolute=1e-8 * r_init,
                    max_newton_steps=20)
    rep = solve_steady(p, cfg, w0=pre.final_state)
    levels = [pre.final_residual_l2] + [rec.residual_l2 for rec in rep.history
                                        if rec.accepted]
    logs = np.log(levels)
    x, y = logs[-4:-1], logs[-3:]
    slope = float(np.polyfit(x, y, 1)[0])
    _report(3, f"Newton recovery: order {slope:.2f} over final 3 steps "
               f"(residuals {['%.1e' % v for v in levels]})", slope >= 1.8)


def test_criterion_04_smoothing_efficiency(full_solves):
    reports, _ = full_solves
    plain = reports[("convdiff", "unsmoothed")]
    smooth = reports[("convdiff", "smoothed")]
    converged = (plain.outcome == SolveOutcome.CONVERGED
                 and smooth.outcome == SolveOutcome.CONVERGED)
    ratio = smooth.cumulative_krylov / plain.cumulative_krylov
    _report(4, f"smoothing efficiency: Krylov {smooth.cumulative_krylov} vs "
               f"{plain.cumulative_krylov} (ratio {ratio:.2f})",
            converged and ratio <= 0.8)


def test_criterion_05_robustness_under_aggressive_growth():
    # nozzle32 on singleton lines (block-Jacobi), and nozzle128 on the
    # default whole-path line, both with the CFL tripled per step.
    fixtures = {"nozzle32, singleton lines": (32, singleton_lines(32)),
                "nozzle128, default lines": (128, None)}
    print("  aggressive-growth outcomes (u_in = 0.46, beta_cfl1 = 3):")
    verdicts = []
    for fixture, (n_cells, lines) in fixtures.items():
        e = make_quasi1d_euler(n_cells, u_in=0.46)
        results = {}
        for variant, sched in (("unsmoothed", None),
                               ("smoothed", RkSchedule())):
            cfg = PtcConfig(beta_cfl1=3.0, max_newton_steps=120,
                            smoothing=sched)
            results[variant] = solve_steady(e, cfg, lines=lines)
        smoothed = results["smoothed"]
        plain = results["unsmoothed"]
        for variant, rep in results.items():
            print(f"    {fixture} {variant:10s}: {rep.outcome.value:22s} "
                  f"steps={rep.newton_steps:3d} "
                  f"krylov={rep.cumulative_krylov:5d} "
                  f"rejections={rep.rejection_count}")
        smoothed_ok = smoothed.outcome == SolveOutcome.CONVERGED
        # A failure or at least one rejection, and twice the smoothed
        # rejections: 0 >= 2 * 0 alone is no struggle.
        plain_fails = plain.outcome != SolveOutcome.CONVERGED
        plain_struggles = (
            (plain_fails or plain.rejection_count >= 1)
            and plain.rejection_count >= 2 * smoothed.rejection_count)
        verdicts.append((
            fixture, smoothed_ok and plain_struggles,
            f"unsmoothed {plain.outcome.value}, smoothed "
            f"{smoothed.outcome.value}, rejections "
            f"{plain.rejection_count} vs {smoothed.rejection_count}"))
    summary = "; ".join(f"{fixture} {'ok' if ok else 'FAIL'} ({what})"
                        for fixture, ok, what in verdicts)
    _report(5, "aggressive CFL growth (smoothed converges; unsmoothed fails, "
               f"or pays >= 2x and >= 1 rejections): {summary}",
            all(ok for _, ok, _ in verdicts))


def test_criterion_06_unsteady_disparity():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0)
    w0 = p.initial_state()
    tol_abs = 1e-6 * l2_norm(BdfStepSystem(p, w0, None, 0.05).residual(w0))
    steps = {}
    for variant, sched in (("unsmoothed", None), ("smoothed", RkSchedule())):
        inner = PtcConfig(max_newton_steps=200, target_residual_reduction=1e-12,
                          target_residual_absolute=tol_abs, smoothing=sched)
        hist = advance_unsteady(p, UnsteadyConfig(0.05, 3, inner))
        assert not hist.aborted
        steps[variant] = [r.newton_steps for r in hist.reports]
    plain, smooth = steps["unsmoothed"], steps["smoothed"]
    ok = plain[2] < plain[0] and smooth[0] < plain[0]
    _report(6, f"unsteady disparity: unsmoothed per-step {plain}, "
               f"smoothed per-step {smooth}", ok)


def test_criterion_07_controller_truth_table():
    cfg = PtcConfig()
    grow = cfl_update(10.0, 1.0, cfg)
    reject = cfl_update(10.0, 0.05, cfg)
    hold = cfl_update(10.0, 0.5, cfg)
    ok = (grow == (15.0, True)
          and reject[1] is False and abs(reject[0] - 1.0) < 1e-12
          and hold == (10.0, True))
    _report(7, f"controller truth table: {grow}, {reject}, {hold}", ok)


def test_criterion_08_oracle_equivalences():
    checks = {}

    # GMRES vs dense LU on a random well-conditioned 20x20 system.
    rng = np.random.default_rng(2024)
    A = np.eye(20) + 0.2 * rng.standard_normal((20, 20))
    rhs = rng.standard_normal(20)
    x, stats = gmres_right_preconditioned(
        _dense_operator(A), lambda x: x.copy(), rhs, 1e-10, 20)
    ref = np.linalg.solve(A, rhs)
    checks["gmres_vs_lu"] = (stats.converged and
                             np.linalg.norm(x - ref)
                             <= 1e-8 * np.linalg.norm(ref))

    # Block-tridiagonal vs dense for lines <= 10, blocks <= 3.
    ok_tri = True
    for length in (1, 2, 5, 10):
        for bsz in (1, 2, 3):
            rng2 = np.random.default_rng(31 * length + bsz)
            lines = kernel_lines(length, [list(range(length))])
            diag = rng2.standard_normal((length, bsz, bsz)) + 3.0 * bsz * np.eye(bsz)
            blocks = FirstOrderBlocks(
                diag, *random_couplings(rng2, lines, bsz, 0.5))
            (fact,) = factor_block_tridiag(lines, blocks, (None,))
            dense = dense_from_lines(lines, blocks)
            r = rng2.standard_normal(length * bsz)
            ref = np.linalg.solve(dense, r)
            ok_tri &= np.linalg.norm(fact.solve_values(r) - ref) \
                <= 1e-10 * max(1.0, np.linalg.norm(ref))
    checks["tridiag_vs_dense"] = ok_tri

    # RK linear contraction factor alpha2 (1 - alpha1) = 0.34, exact to 1e-12.
    sys = diffusion_chain(n=8, b=1)
    w_star = sys.solution()
    (precon,) = factor_block_tridiag(
        full_chain_lines(8), sys.first_order_blocks(w_star), (None,))
    e0 = np.random.default_rng(5).standard_normal(8)
    w0 = BlockVector(sys.layout, w_star.values + e0)
    out = rk_smooth(sys, precon, RkSchedule((0.15, 0.4, 1.0), n_cycles=1),
                    w0, sys.residual(w0), np.ones(8), 0.0)
    e_end = w0.values + out.delta_w - w_star.values
    checks["rk_contraction"] = np.allclose(e_end, 0.34 * e0,
                                           rtol=1e-12, atol=1e-13)

    # BDF2 quadratic exactness to round-off.
    c, dt, t_n = 1.7, 0.31, 2.3
    vals = [c * t * t for t in (t_n, t_n - dt, t_n - 2 * dt)]
    deriv = (3 * vals[0] - 4 * vals[1] + vals[2]) / (2 * dt)
    checks["bdf2_quadratic"] = abs(deriv - 2 * c * t_n) <= 1e-12 * abs(2 * c * t_n)

    # Jacobian-vector vs central differences on all problems.
    ok_jac = True
    for problem in (make_bratu(48, 1.0),
                    make_aniso_convdiff(10, 12, stretching_ratio=1000.0),
                    make_quasi1d_euler(32)):
        ok_jac &= validate_jacobian(problem, problem.initial_state()) <= 1e-6
    checks["jacobian_vs_fd"] = ok_jac

    ok = all(checks.values())
    _report(8, "oracle equivalences: " + ", ".join(
        f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()), ok)


def test_criterion_09_line_extraction():
    # Isotropic: every line is a singleton.
    iso = make_aniso_convdiff(8, 8, stretching_ratio=1.0, eps=1.0,
                              velocity=(0.0, 0.0), sigma=0.0)
    ls_iso = extract_lines(iso.first_order_blocks(iso.initial_state()),
                           iso.edges)
    iso_ok = all(len(l) == 1 for l in ls_iso.lines)

    # Stretched 1e3: every multi-cell line runs along the strong direction.
    stretched = make_aniso_convdiff(16, 24, stretching_ratio=1000.0, ly=0.05)
    ls_str = extract_lines(
        stretched.first_order_blocks(stretched.initial_state()),
        stretched.edges)
    multi = ls_str.multi_cell_lines()
    aligned = bool(multi) and all(
        {abs(a - b) for a, b in zip(l[:-1], l[1:])} == {stretched.nx}
        for l in multi)
    partition_ok = all(
        sorted(c for l in ls.lines for c in l) == list(range(ls.n_cells))
        for ls in (ls_iso, ls_str))

    _report(9, f"line extraction: isotropic {len(ls_iso.lines)} singletons, "
               f"stretched {len(multi)} wall-normal lines, partitions hold",
            iso_ok and aligned and partition_ok)


def test_criterion_10_zero_cycle_bitwise_equivalence():
    p = make_aniso_convdiff(12, 16, stretching_ratio=1000.0)
    plain = solve_steady(p, PtcConfig(max_newton_steps=150))
    zero = solve_steady(p, PtcConfig(max_newton_steps=150,
                                     smoothing=RkSchedule(n_cycles=0)))
    same_history = plain.history == zero.history
    same_state = np.array_equal(plain.final_state.values,
                                zero.final_state.values)
    _report(10, f"zero-cycle smoothing bitwise equal: history "
                f"({len(plain.history)} records) and final state match",
            same_history and same_state)
