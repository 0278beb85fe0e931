import numpy as np
import pytest
from scipy.optimize import brentq

from ptcsmooth.core import (BlockVector, InadmissibleStateError, l2_norm,
                            validate_jacobian)
from ptcsmooth.lines import build_coupling_graph, extract_lines
from ptcsmooth.ptc import PtcConfig, SolveOutcome, solve_steady
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

# Peak of the lambda = 1 Bratu solution on an 8192-cell grid, computed with an
# independent banded-LU Newton script before this suite was written.
BRATU_PEAK_REF = 0.1405392125

GAMMA = 1.4


def area_mach_ratio(m):
    left = (2.0 / (GAMMA + 1)) * (1.0 + 0.5 * (GAMMA - 1) * m * m)
    return (1.0 / m) * left ** ((GAMMA + 1) / (2.0 * (GAMMA - 1)))


def _perturbed_states(problem, scale, count=5, seed=77):
    rng = np.random.default_rng(seed)
    w0 = problem.initial_state()
    out = []
    for _ in range(count):
        d = rng.standard_normal(problem.layout.n_dofs)
        w = BlockVector(problem.layout, w0.values * (1.0 + scale * d)
                        + scale * d * np.mean(np.abs(w0.values) + 1e-3))
        if problem.is_admissible(w):
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# Bratu
# ---------------------------------------------------------------------------

def test_bratu_residual_at_zero_is_minus_lambda():
    p = make_bratu(32, 2.5)
    r = p.residual(p.initial_state())
    assert np.allclose(r.values, -2.5, rtol=0, atol=1e-14)


def test_bratu_converged_solution_symmetric():
    p = make_bratu(64, 1.0)
    rep = solve_steady(p, PtcConfig(target_residual_reduction=1e-12))
    u = rep.final_state.values
    assert np.all(np.abs(u - u[::-1]) <= 1e-10)


def test_bratu_peak_matches_fine_grid_reference():
    p = make_bratu(256, 1.0)
    rep = solve_steady(p, PtcConfig(target_residual_reduction=1e-12))
    assert rep.outcome == SolveOutcome.CONVERGED
    assert abs(np.max(rep.final_state.values) - BRATU_PEAK_REF) <= 1e-4


def test_bratu_minimum_size():
    with pytest.raises(ValueError):
        make_bratu(2)


def test_bratu_explicit_dt_scales_quadratically():
    p1, p2 = make_bratu(32), make_bratu(64)
    d1 = p1.explicit_dt(p1.initial_state())[0]
    d2 = p2.explicit_dt(p2.initial_state())[0]
    assert d1 / d2 == pytest.approx((65.0 / 33.0) ** 2, rel=1e-12)


def test_bratu_jacobian_at_states():
    p = make_bratu(48, 1.0)
    assert validate_jacobian(p, p.initial_state()) <= 1e-6
    rep = solve_steady(p, PtcConfig())
    assert validate_jacobian(p, rep.final_state) <= 1e-6
    for w in _perturbed_states(p, 0.05):
        assert validate_jacobian(p, w, n_probes=2) <= 1e-6


# ---------------------------------------------------------------------------
# Anisotropic convection-diffusion
# ---------------------------------------------------------------------------

def test_convdiff_constant_preservation():
    # Zero solution amplitude makes the manufactured solution constant; the
    # discrete residual at that constant must vanish identically.
    p = make_aniso_convdiff(8, 8, stretching_ratio=10.0, amplitude=0.0)
    r = p.residual(p.exact_on_grid())
    assert l2_norm(r) <= 1e-13


def _dense_blocks(blocks):
    n = len(blocks.diag)
    A = np.diag(blocks.diag[:, 0, 0])
    for (i, j), a, b in zip(blocks.edges, blocks.off_ij, blocks.off_ji):
        A[i, j], A[j, i] = a[0, 0], b[0, 0]
    return A


@pytest.mark.parametrize("velocity", [(1.0, 0.5), (2.0, 0.0), (0.0, 0.7)])
def test_convdiff_blocks_upwind_mirror_for_reversed_velocity(velocity):
    # On a uniform grid, reversing the velocity mirrors the upwind operator:
    # the blocks for -v are those for v under the cell reversal k -> n-1-k.
    vx, vy = velocity
    kw = dict(stretching_ratio=1.0, eps=1e-3, sigma=1.0)
    fwd = make_aniso_convdiff(5, 6, velocity=(vx, vy), **kw)
    rev = make_aniso_convdiff(5, 6, velocity=(-vx, -vy), **kw)
    u = np.random.default_rng(3).standard_normal(fwd.layout.n_dofs)
    a = _dense_blocks(fwd.first_order_blocks(BlockVector(fwd.layout, u)))
    b = _dense_blocks(rev.first_order_blocks(BlockVector(rev.layout, u[::-1])))
    assert np.max(np.abs(b - a[::-1, ::-1])) <= 1e-12 * np.max(np.abs(a))
    # Interior rows of the upwind operator annihilate constants (sigma = 0).
    rev0 = make_aniso_convdiff(5, 6, velocity=(-vx, -vy), stretching_ratio=1.0,
                               eps=1e-3, sigma=0.0)
    rows = _dense_blocks(rev0.first_order_blocks(rev0.initial_state()))
    interior = rows.sum(axis=1).reshape(6, 5)[1:-1, 1:-1]
    assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(rows))


def _loop_upwind_off_blocks(p):
    """Per-edge loop form of the first-order off-diagonal blocks."""
    lxm, _, lxp = p._lap_x
    lym, _, lyp = p._lap_y
    vol = p._vol2d
    edges, off_ij, off_ji = [], [], []
    for j in range(p.ny):
        for i in range(p.nx - 1):
            edges.append((j * p.nx + i, j * p.nx + i + 1))
            off_ij.append(vol[j, i] * (-p.eps * lxp[i] + (
                p.vx / p._dxp[i] if p.vx < 0 else 0.0)))
            off_ji.append(vol[j, i + 1] * (-p.eps * lxm[i + 1] + (
                -p.vx / p._dxm[i + 1] if p.vx >= 0 else 0.0)))
    for j in range(p.ny - 1):
        for i in range(p.nx):
            edges.append((j * p.nx + i, (j + 1) * p.nx + i))
            off_ij.append(vol[j, i] * (-p.eps * lyp[j] + (
                p.vy / p._dyp[j] if p.vy < 0 else 0.0)))
            off_ji.append(vol[j + 1, i] * (-p.eps * lym[j + 1] + (
                -p.vy / p._dym[j + 1] if p.vy >= 0 else 0.0)))
    return np.array(edges), np.array(off_ij), np.array(off_ji)


@pytest.mark.parametrize("velocity", [(1.0, 0.5), (-1.0, -0.5), (0.3, -2.0)])
def test_convdiff_blocks_match_loop_reference(velocity):
    p = make_aniso_convdiff(5, 7, stretching_ratio=100.0, velocity=velocity)
    blocks = p.first_order_blocks(p.initial_state())
    edges, off_ij, off_ji = _loop_upwind_off_blocks(p)
    assert np.array_equal(blocks.edges, edges)
    assert np.array_equal(blocks.off_ij[:, 0, 0], off_ij)
    assert np.array_equal(blocks.off_ji[:, 0, 0], off_ji)


def test_convdiff_manufactured_solution_order():
    norms, hs = [], []
    for n in (8, 16, 32):
        p = make_aniso_convdiff(n, n, stretching_ratio=1.0)
        r = p.residual(p.exact_on_grid()).values
        vol = p.mass().cell_measures
        # L2(domain) norm of the pointwise PDE residual.
        norms.append(np.sqrt(np.sum(vol * (r / vol) ** 2) / np.sum(vol)))
        hs.append(1.0 / n)
    slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_convdiff_stretched_lines_span_wall_band():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0, ly=0.05)
    ls = extract_lines(build_coupling_graph(p, p.initial_state()), 4.0)
    multi = ls.multi_cell_lines()
    assert multi
    for line in multi:
        assert {abs(a - b) for a, b in zip(line[:-1], line[1:])} == {p.nx}
    covered = {c for line in multi for c in line}
    wall_band = {j * p.nx + i for j in range(p.ny) for i in range(p.nx)
                 if p.hy[j] < p.hx / 2.0}
    assert wall_band <= covered


def test_convdiff_solution_approaches_exact():
    # Resolved instance (cell Peclet < 1, central convection wiggle-free).
    p = make_aniso_convdiff(24, 24, stretching_ratio=1.0, eps=0.05)
    rep = solve_steady(p, PtcConfig(max_newton_steps=200))
    assert rep.outcome == SolveOutcome.CONVERGED
    err = rep.final_state.values - p.exact_on_grid().values
    assert np.max(np.abs(err)) <= 0.01  # discretization-level agreement


def test_convdiff_jacobian_at_states():
    p = make_aniso_convdiff(10, 12, stretching_ratio=1000.0)
    assert validate_jacobian(p, p.initial_state()) <= 1e-6
    rep = solve_steady(p, PtcConfig(max_newton_steps=200))
    assert validate_jacobian(p, rep.final_state) <= 1e-6
    for w in _perturbed_states(p, 0.05):
        assert validate_jacobian(p, w, n_probes=2) <= 1e-6


def test_convdiff_explicit_dt_positive_and_finite():
    p = make_aniso_convdiff(8, 12, stretching_ratio=1000.0)
    dt = p.explicit_dt(p.initial_state())
    assert np.all(dt > 0.0)
    assert np.all(np.isfinite(dt))


# ---------------------------------------------------------------------------
# Quasi-1D Euler nozzle
# ---------------------------------------------------------------------------

def test_euler_freestream_preservation():
    # Constant area and consistent boundary data: fluxes telescope exactly.
    e = make_quasi1d_euler(32, area=lambda x: np.ones_like(np.asarray(x), dtype=float))
    r = e.residual(e.initial_state())
    assert l2_norm(r) <= 1e-13


def test_euler_flux_telescoping():
    e = make_quasi1d_euler(48)
    rng = np.random.default_rng(12)
    w = e.initial_state()
    w = BlockVector(e.layout, w.values * (1.0 + 0.05 * rng.standard_normal(w.layout.n_dofs)))
    assert e.is_admissible(w)
    r = e.residual(w).values.reshape(-1, 3)
    flux, source = e.residual_parts(w)
    lhs = r.sum(axis=0)
    rhs = flux[-1] - flux[0] - source.sum(axis=0)
    scale = np.abs(flux).max()
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_euler_exit_mach_matches_area_relation():
    # Gentle fully subsonic nozzle, deep convergence; compare the exit Mach
    # against the isentropic area relation anchored at the inlet cell.
    area = lambda x: 1.0 + 0.1 * (2.0 * np.asarray(x) - 1.0) ** 2
    e = make_quasi1d_euler(64, area)
    rep = solve_steady(e, PtcConfig(target_residual_reduction=1e-11,
                                    max_krylov=200, max_newton_steps=100))
    assert rep.outcome == SolveOutcome.CONVERGED
    mach = e.mach(rep.final_state)
    target = (e.a_centers[-1] / e.a_centers[0]) * area_mach_ratio(mach[0])
    m_pred = brentq(lambda m: area_mach_ratio(m) - target, 1e-4, 0.9999)
    assert abs(m_pred - mach[-1]) <= 1e-3


def test_euler_inadmissible_states_rejected():
    e = make_quasi1d_euler(32)
    w = e.initial_state()
    bad = w.copy()
    bad.values[0] = -1.0  # negative density
    assert not e.is_admissible(bad)
    with pytest.raises(InadmissibleStateError):
        e.residual(bad)
    bad2 = w.copy()
    bad2.values[2] = 0.0  # energy below kinetic: negative pressure
    assert not e.is_admissible(bad2)


def test_euler_jacobian_at_states():
    e = make_quasi1d_euler(32)
    assert validate_jacobian(e, e.initial_state()) <= 1e-6
    rep = solve_steady(e, PtcConfig(max_newton_steps=100))
    assert validate_jacobian(e, rep.final_state) <= 1e-6
    for w in _perturbed_states(e, 0.02):
        assert validate_jacobian(e, w, n_probes=2) <= 1e-6


def test_euler_explicit_dt_scales_linearly_with_cell_size():
    e1 = make_quasi1d_euler(32)
    e2 = make_quasi1d_euler(64)
    d1 = e1.explicit_dt(e1.initial_state())[0]
    d2 = e2.explicit_dt(e2.initial_state())[0]
    assert d1 / d2 == pytest.approx(2.0, rel=1e-12)


def test_euler_minimum_size():
    with pytest.raises(ValueError):
        make_quasi1d_euler(8)


def test_euler_solver_never_accepts_inadmissible_state():
    e = make_quasi1d_euler(32, u_in=0.46)
    rep = solve_steady(e, PtcConfig(cfl_growth=3.0, max_newton_steps=120))
    assert e.is_admissible(rep.final_state)
    assert rep.outcome == SolveOutcome.CONVERGED
