import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from ptcsmooth.core import (BlockVector, InadmissibleStateError, l2_norm,
                            trial_residual)
from ptcsmooth.lines import extract_lines
from ptcsmooth.ptc import PtcConfig, SolveOutcome, solve_steady
from ptcsmooth.problems import (convdiff, make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)
from ptcsmooth.timestepping import BdfStepSystem

from conftest import validate_jacobian

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
        if trial_residual(problem, w) is not None:
            out.append(w)
    return out


def _bdf_step(problem):
    w = problem.initial_state()
    return BdfStepSystem(problem, w, w, 0.05)


every_system = pytest.mark.parametrize("build", [
    lambda: make_bratu(16),
    lambda: make_aniso_convdiff(5, 6, stretching_ratio=100.0),
    lambda: make_quasi1d_euler(16),
    lambda: _bdf_step(make_aniso_convdiff(5, 6, stretching_ratio=100.0)),
], ids=["bratu", "convdiff", "nozzle", "bdf_convdiff"])


@every_system
def test_residual_and_jv_return_flat_float_arrays(build):
    # The contract: a state goes in, a flat (n_dofs,) float array comes out.
    system = build()
    w = system.initial_state()
    v = np.random.default_rng(4).standard_normal(system.layout.n_dofs)
    for out in (system.residual(w), system.jacobian_vector(w, v)):
        assert type(out) is np.ndarray
        assert out.dtype == np.float64
        assert out.shape == (system.layout.n_dofs,)


@every_system
def test_trial_residual_rejects_nan_state(build):
    system = build()
    w = system.initial_state()
    w.values[1] = np.nan
    assert trial_residual(system, w) is None


@every_system
def test_trial_residual_of_usable_state_is_the_residual(build):
    system = build()
    states = [system.initial_state(), *_perturbed_states(system, 0.02)]
    assert len(states) == 6
    for w in states:
        assert trial_residual(system, w).tobytes() == \
            system.residual(w).tobytes()


def test_trial_residual_rejects_unusable_states():
    e = make_quasi1d_euler(32)
    cell_bad = e.initial_state()
    cell_bad.values[0] = -1.0                 # negative density
    face_bad = _face_inadmissible_state(e)
    e._decode(face_bad.values)                # only the face check fails
    p = make_bratu(16, 1.0)
    overflowing = BlockVector(p.layout, np.full(16, 1e3))   # exp(1e3) = inf
    # Finite residuals whose norm overflows: exp(700) ~ 1e304 on 64 cells,
    # and sigma * u * |u| = inf on convdiff at 1e155.
    big = make_bratu(64, 1.0)
    norm_overflowing = BlockVector(big.layout, np.full(64, 700.0))
    c = make_aniso_convdiff(8, 8, 1.0)
    squared_overflowing = BlockVector(c.layout, np.full(64, 1e155))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trial_residual(e, cell_bad) is None
        assert trial_residual(e, face_bad) is None
        assert trial_residual(p, overflowing) is None
        assert trial_residual(big, norm_overflowing) is None
        assert trial_residual(c, squared_overflowing) is None


# ---------------------------------------------------------------------------
# Bratu
# ---------------------------------------------------------------------------

def test_bratu_residual_at_zero_is_minus_lambda():
    p = make_bratu(32, 2.5)
    r = p.residual(p.initial_state())
    assert np.allclose(r, -2.5, rtol=0, atol=1e-14)


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


def _dense_blocks(p, w):
    blocks = p.first_order_blocks(w)
    A = np.diag(blocks.diag[:, 0, 0])
    for (i, j), a, b in zip(p.edges, blocks.off_ij, blocks.off_ji):
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
    a = _dense_blocks(fwd, BlockVector(fwd.layout, u))
    b = _dense_blocks(rev, BlockVector(rev.layout, u[::-1]))
    assert np.max(np.abs(b - a[::-1, ::-1])) <= 1e-12 * np.max(np.abs(a))
    # Interior rows of the upwind operator annihilate constants (sigma = 0).
    rev0 = make_aniso_convdiff(5, 6, velocity=(-vx, -vy), stretching_ratio=1.0,
                               eps=1e-3, sigma=0.0)
    rows = _dense_blocks(rev0, rev0.initial_state())
    interior = rows.sum(axis=1).reshape(6, 5)[1:-1, 1:-1]
    assert np.max(np.abs(interior)) <= 1e-12 * np.max(np.abs(rows))


def _loop_grid(p):
    """Per-cell volumes and center-to-center spacings from the public grid,
    and the 3-point weights over them, by cell index."""
    vol = [[p.hy[j] * p.hx for i in range(p.nx)] for j in range(p.ny)]
    dxm = [p.hx / 2.0 if i == 0 else p.hx for i in range(p.nx)]
    dxp = [p.hx / 2.0 if i == p.nx - 1 else p.hx for i in range(p.nx)]
    dym = [p.hy[0] / 2.0 if j == 0 else p.yc[j] - p.yc[j - 1]
           for j in range(p.ny)]
    dyp = [p.hy[-1] / 2.0 if j == p.ny - 1 else p.yc[j + 1] - p.yc[j]
           for j in range(p.ny)]
    x = [convdiff._nonuniform_coeffs(m, q) for m, q in zip(dxm, dxp)]
    y = [convdiff._nonuniform_coeffs(m, q) for m, q in zip(dym, dyp)]
    return vol, (dxm, dxp, dym, dyp), x, y


def _loop_upwind_off_blocks(p):
    """Per-edge loop form of the first-order off-diagonal blocks."""
    vol, (dxm, dxp, dym, dyp), x, y = _loop_grid(p)
    edges, off_ij, off_ji = [], [], []
    for j in range(p.ny):
        for i in range(p.nx - 1):
            edges.append((j * p.nx + i, j * p.nx + i + 1))
            off_ij.append(vol[j][i] * (-p.eps * x[i][0][2] + (
                p.vx / dxp[i] if p.vx < 0 else 0.0)))
            off_ji.append(vol[j][i + 1] * (-p.eps * x[i + 1][0][0] + (
                -p.vx / dxm[i + 1] if p.vx >= 0 else 0.0)))
    for j in range(p.ny - 1):
        for i in range(p.nx):
            edges.append((j * p.nx + i, (j + 1) * p.nx + i))
            off_ij.append(vol[j][i] * (-p.eps * y[j][0][2] + (
                p.vy / dyp[j] if p.vy < 0 else 0.0)))
            off_ji.append(vol[j + 1][i] * (-p.eps * y[j + 1][0][0] + (
                -p.vy / dym[j + 1] if p.vy >= 0 else 0.0)))
    return np.array(edges), np.array(off_ij), np.array(off_ji)


@pytest.mark.parametrize("velocity", [(1.0, 0.5), (-1.0, -0.5), (0.3, -2.0)])
def test_convdiff_blocks_match_loop_reference(velocity):
    p = make_aniso_convdiff(5, 7, stretching_ratio=100.0, velocity=velocity)
    blocks = p.first_order_blocks(p.initial_state())
    edges, off_ij, off_ji = _loop_upwind_off_blocks(p)
    assert np.array_equal(p.edges, edges)
    assert np.array_equal(blocks.off_ij[:, 0, 0], off_ij)
    assert np.array_equal(blocks.off_ji[:, 0, 0], off_ji)


def _loop_forcing(p, x, y):
    """The manufactured forcing at (x, y), term by term."""
    a, k = p.amplitude, np.pi / p.ly
    s = np.sin(np.pi * x) * np.cos(k * y)
    u = 1.0 + a * s
    ux = a * np.pi * np.cos(np.pi * x) * np.cos(k * y)
    uy = -a * k * np.sin(np.pi * x) * np.sin(k * y)
    lap = -a * (np.pi ** 2 + k ** 2) * s
    return -p.eps * lap + p.vx * ux + p.vy * uy + p.sigma * u * abs(u)


def _loop_central(p, u, boundary):
    """Per-cell loop form of the volume-weighted central operator
    -eps lap(u) + v . grad(u) on a (ny, nx) field; neighbors past the edge
    take ``boundary(x, y)`` at the face."""
    vol, _, x, y = _loop_grid(p)
    out = np.empty((p.ny, p.nx))
    for j in range(p.ny):
        for i in range(p.nx):
            xc, yc = p.xc[i], p.yc[j]
            w = u[j, i - 1] if i > 0 else boundary(0.0, yc)
            e = u[j, i + 1] if i < p.nx - 1 else boundary(1.0, yc)
            s = u[j - 1, i] if j > 0 else boundary(xc, 0.0)
            n = u[j + 1, i] if j < p.ny - 1 else boundary(xc, p.ly)
            (lxm, lx0, lxp), (gxm, gx0, gxp) = x[i]
            (lym, ly0, lyp), (gym, gy0, gyp) = y[j]
            lap = (lxm * w + lx0 * u[j, i] + lxp * e
                   + lym * s + ly0 * u[j, i] + lyp * n)
            gx = gxm * w + gx0 * u[j, i] + gxp * e
            gy = gym * s + gy0 * u[j, i] + gyp * n
            out[j, i] = vol[j][i] * (-p.eps * lap + p.vx * gx + p.vy * gy)
    return out


@pytest.mark.parametrize("velocity", [(1.0, 0.5), (-1.0, -0.5), (0.3, -2.0)])
def test_convdiff_residual_and_jv_match_loop_reference(velocity):
    p = make_aniso_convdiff(12, 16, stretching_ratio=1000.0, sigma=2.0,
                            velocity=velocity)
    rng = np.random.default_rng(8)
    u = 1.0 + rng.standard_normal((p.ny, p.nx))
    v = rng.standard_normal((p.ny, p.nx))
    vol = p.cell_measures.reshape(p.ny, p.nx)
    forcing = np.array([[_loop_forcing(p, xc, yc) for xc in p.xc]
                        for yc in p.yc])
    r = (_loop_central(p, u, p.exact)
         + vol * (p.sigma * u * np.abs(u) - forcing))
    jv = (_loop_central(p, v, lambda x, y: 0.0)
          + vol * 2.0 * p.sigma * np.abs(u) * v)
    w = BlockVector(p.layout, u.ravel())
    for got, ref in ((p.residual(w), r), (p.jacobian_vector(w, v.ravel()), jv)):
        assert np.linalg.norm(got - ref.ravel()) <= 1e-13 * np.linalg.norm(ref)


def test_convdiff_blocks_are_read_only():
    p = make_aniso_convdiff(6, 6)
    blocks = p.first_order_blocks(p.initial_state())
    with pytest.raises(ValueError, match="read-only"):
        blocks.off_ij[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        blocks.off_ji[0] = 1.0


def test_convdiff_manufactured_solution_order():
    norms, hs = [], []
    for n in (8, 16, 32):
        p = make_aniso_convdiff(n, n, stretching_ratio=1.0)
        r = p.residual(p.exact_on_grid())
        vol = p.cell_measures
        # L2(domain) norm of the pointwise PDE residual.
        norms.append(np.sqrt(np.sum(vol * (r / vol) ** 2) / np.sum(vol)))
        hs.append(1.0 / n)
    slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_convdiff_stretched_lines_span_wall_band():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0, ly=0.05)
    ls = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
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
    r = e.residual(w).reshape(-1, 3)
    ev = e._evaluate(w.values)
    flux = ev.flux.T                  # (n+1, 3)
    lhs = r.sum(axis=0)
    rhs = flux[-1] - flux[0] - np.array([0.0, ev.source.sum(), 0.0])
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
    with pytest.raises(InadmissibleStateError, match="density"):
        e.residual(bad)
    bad2 = w.copy()
    bad2.values[2] = 0.0  # energy below kinetic: negative pressure
    with pytest.raises(InadmissibleStateError, match="pressure"):
        e.residual(bad2)


def test_euler_jacobian_at_states():
    e = make_quasi1d_euler(32)
    assert validate_jacobian(e, e.initial_state()) <= 1e-6
    rep = solve_steady(e, PtcConfig(max_newton_steps=100))
    assert validate_jacobian(e, rep.final_state) <= 1e-6
    for w in _perturbed_states(e, 0.02):
        assert validate_jacobian(e, w, n_probes=2) <= 1e-6


def _reference_nozzle_assemble(e, values, tangent=None):
    """Face fluxes (n+1, 3) and source terms (n, 3) of the nozzle at
    ``values``, or their tangents along ``tangent``: the scheme and its
    derivative written as one primal/tangent pass on (faces, 3) arrays,
    recomputing the primal on every call."""
    gm = e.gamma
    rho, u, p = e._decode(values)

    def van_albada(dq, ddq):
        a, b = dq[:-1], dq[1:]
        num = a * a * b + a * b * b
        den = a * a + b * b + 1e-7
        if ddq is None:
            return num / den, None
        da, db = ddq[:-1], ddq[1:]
        dnum = (2.0 * a * b + b * b) * da + (a * a + 2.0 * a * b) * db
        dden = 2.0 * a * da + 2.0 * b * db
        return num / den, (dnum * den - num * dden) / den ** 2

    def flux_terms(q, dq):
        rho, u, p = q[:, 0], q[:, 1], q[:, 2]
        if np.any(rho <= 0.0) or np.any(p <= 0.0) or not np.all(np.isfinite(q)):
            raise InadmissibleStateError("inadmissible reconstructed face state")
        e_total = p / (gm - 1.0) + 0.5 * rho * u * u
        U = np.stack([rho, rho * u, e_total], axis=1)
        F = np.stack([rho * u, rho * u * u + p, u * (e_total + p)], axis=1)
        c = np.sqrt(gm * p / rho)
        s = np.abs(u) + c
        if dq is None:
            return U, F, s, None, None, None
        drho, du, dp = dq[:, 0], dq[:, 1], dq[:, 2]
        de = dp / (gm - 1.0) + 0.5 * u * u * drho + rho * u * du
        dU = np.stack([drho, rho * du + u * drho, de], axis=1)
        dF = np.stack([rho * du + u * drho,
                       u * u * drho + 2.0 * rho * u * du + dp,
                       du * (e_total + p) + u * (de + dp)], axis=1)
        dc = 0.5 * c * (dp / p - drho / rho)
        return U, F, s, dU, dF, np.sign(u) * du + dc

    prim = np.stack([rho, u, p], axis=1)
    ghost_in = np.array([e.rho_in, e.u_in, p[0]])
    ghost_out = np.array([rho[-1], u[-1], e.p_exit])
    dq = np.diff(np.vstack([ghost_in, prim, ghost_out]), axis=0)
    ddq = dqL = dqR = dp = None
    if tangent is not None:
        V = tangent.reshape(e.n, 3)
        drho = V[:, 0]
        du = (V[:, 1] - u * drho) / rho
        dp = (gm - 1.0) * (V[:, 2] - u * V[:, 1] + 0.5 * u * u * drho)
        dprim = np.stack([drho, du, dp], axis=1)
        dghost_in = np.array([0.0, 0.0, dp[0]])
        dghost_out = np.array([drho[-1], du[-1], 0.0])
        ddq = np.diff(np.vstack([dghost_in, dprim, dghost_out]), axis=0)
    sigma, dsigma = van_albada(dq, ddq)
    qL = np.vstack([ghost_in, prim + 0.5 * sigma])
    qR = np.vstack([prim - 0.5 * sigma, ghost_out])
    if tangent is not None:
        dqL = np.vstack([dghost_in, dprim + 0.5 * dsigma])
        dqR = np.vstack([dprim - 0.5 * dsigma, dghost_out])
    UL, FL, sL, dUL, dFL, dsL = flux_terms(qL, dqL)
    UR, FR, sR, dUR, dFR, dsR = flux_terms(qR, dqR)
    s = np.maximum(sL, sR)
    half_area = 0.5 * e.a_faces[:, None]
    source = np.zeros((e.n, 3))
    if tangent is None:
        source[:, 1] = p * e.da
        return half_area * (FL + FR - s[:, None] * (UR - UL)), source
    ds = np.where(sL > sR, dsL, dsR)
    tie = sL == sR
    ds[tie] = 0.5 * (dsL[tie] + dsR[tie])
    source[:, 1] = dp * e.da
    return half_area * (dFL + dFR - ds[:, None] * (UR - UL)
                        - s[:, None] * (dUR - dUL)), source


def _reference_nozzle_outputs(e, values, v):
    """Bytes of the reference residual, residual parts and Jv at ``values``."""
    flux, source = _reference_nozzle_assemble(e, values)
    dflux, dsource = _reference_nozzle_assemble(e, values, v)
    return ((flux[1:] - flux[:-1] - source).ravel().tobytes(),
            flux.tobytes(), source.tobytes(),
            (dflux[1:] - dflux[:-1] - dsource).ravel().tobytes())


def _nozzle_outputs(e, w, v):
    ev = e._evaluate(w.values)
    source = np.zeros((e.n, 3))
    source[:, 1] = ev.source
    return (e.residual(w).tobytes(), ev.flux.T.tobytes(), source.tobytes(),
            e.jacobian_vector(w, v).tobytes())


@pytest.mark.parametrize("n", [32, 128])
def test_euler_evaluation_bytes_match_reference(n):
    e = make_quasi1d_euler(n)
    rng = np.random.default_rng(n)
    # The uniform start ties the two sides' wave speeds at every face; the
    # advanced state and the perturbations have no ties.
    advanced = solve_steady(e, PtcConfig(max_newton_steps=20)).final_state
    states = [e.initial_state(), advanced,
              *_perturbed_states(e, 0.02, seed=n),
              BlockVector(e.layout, advanced.values * (
                  1.0 + 0.01 * rng.standard_normal(e.layout.n_dofs)))]
    assert len(states) >= 6 and all(trial_residual(e, w) is not None
                                    for w in states)
    for w in states:
        for v in rng.standard_normal((2, e.layout.n_dofs)):
            assert _nozzle_outputs(e, w, v) == \
                _reference_nozzle_outputs(e, w.values, v)


def test_euler_evaluation_follows_the_state_by_value():
    e = make_quasi1d_euler(32)
    v = np.random.default_rng(5).standard_normal(e.layout.n_dofs)
    w1, w2 = _perturbed_states(e, 0.02, count=2, seed=9)

    def check(w):
        assert _nozzle_outputs(e, w, v) == \
            _reference_nozzle_outputs(e, w.values, v)

    for w in (w1, w2, w1, w2, w1):    # two states alternating
        check(w)
    before = w1.copy()
    w1.values[4] *= 1.0 + 1e-3        # in place, right after evaluating it
    check(w1)
    check(before)
    # Overwrite an evaluated state's array, then ask for a copy of the old
    # state: the kept evaluation must not read the caller's array.
    kept = before.copy()
    e.jacobian_vector(before, v)
    before.values[:] = w2.values
    check(kept)


def _face_inadmissible_state(e):
    """Admissible cells whose limited reconstruction has a negative face
    pressure: a pressure dip between a flat and a much higher plateau."""
    p = np.full(e.n, e.p_exit)
    p[10] = 0.01
    p[11:] = 2.0
    U = e.conserved(np.full(e.n, e.rho_in), np.full(e.n, e.u_in), p, e.gamma)
    return BlockVector(e.layout, U.ravel())


def test_euler_inadmissible_state_raises_every_time():
    e = make_quasi1d_euler(32)
    w = e.initial_state()
    v = np.ones(e.layout.n_dofs)
    cell_bad = w.copy()
    cell_bad.values[0] = -1.0
    face_bad = _face_inadmissible_state(e)
    e._decode(face_bad.values)        # the cells alone are admissible
    calls = (e.residual, lambda s: e._evaluate(s.values),
             lambda s: e.jacobian_vector(s, v))
    for bad in (cell_bad, face_bad, cell_bad, face_bad):
        for call in calls:
            with pytest.raises(InadmissibleStateError):
                call(bad)
        e.jacobian_vector(w, v)       # a good state in between
    # An evaluated state edited in place into an inadmissible one.
    w.values[:] = face_bad.values
    for call in calls:
        with pytest.raises(InadmissibleStateError):
            call(w)


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
    rep = solve_steady(e, PtcConfig(beta_cfl1=3.0, max_newton_steps=120))
    assert trial_residual(e, rep.final_state) is not None
    assert rep.outcome == SolveOutcome.CONVERGED


@pytest.mark.parametrize("build, message", [
    (lambda: make_bratu(8, float("inf")), "lam must be finite"),
    (lambda: make_aniso_convdiff(4, 4, stretching_ratio=float("nan")),
     "stretching_ratio must be finite"),
    (lambda: make_aniso_convdiff(4, 4, amplitude=float("inf")),
     "amplitude must be finite"),
    (lambda: make_aniso_convdiff(4, 4, ly=0.0), "ly must be positive"),
    (lambda: make_aniso_convdiff(3, 8), "need at least 4 cells per direction"),
    (lambda: make_aniso_convdiff(4, 4, stretching_ratio=0.5),
     "stretching_ratio must be at least 1"),
    (lambda: make_aniso_convdiff(8, 8, eps=-0.01, velocity=(0.0, 0.0)),
     "eps must be positive"),
    (lambda: make_aniso_convdiff(8, 8, eps=0.0), "eps must be positive"),
    (lambda: make_aniso_convdiff(8, 8, sigma=-5.0),
     "sigma must be nonnegative"),
    (lambda: make_aniso_convdiff(16, 16, stretching_ratio=1e300),
     "stretching_ratio 1e\\+300 is too large"),
    (lambda: make_aniso_convdiff(16, 16, stretching_ratio=1e200),
     "stretching_ratio 1e\\+200 is too large"),
    (lambda: make_aniso_convdiff(6, 7, 1e204, ly=2.6e295),
     "stretching_ratio 1e\\+204 is too large for 7 cells of ly 2.6e\\+295"),
    (lambda: make_aniso_convdiff(8, 8, 1.0, eps=1e308),
     "forcing that overflows"),
    (lambda: make_aniso_convdiff(8, 8, 1.0, sigma=1e308),
     "forcing that overflows"),
    (lambda: make_aniso_convdiff(8, 8, 1.0, amplitude=1e308),
     "forcing that overflows"),
    (lambda: make_aniso_convdiff(16, 24, 1000.0, eps=1e303),
     "stencil weights that overflow"),
    (lambda: make_aniso_convdiff(16, 24, 1000.0, eps=1.0, sigma=0.0,
                                 amplitude=1e306),
     "boundary terms or stencil weights that overflow"),
    (lambda: make_quasi1d_euler(16, length=-1.0), "must be positive"),
    (lambda: make_quasi1d_euler(16, area=lambda x: 1.0 - 2.0 * np.asarray(x)),
     "nozzle area must be positive and finite"),
    (lambda: make_quasi1d_euler(16, area=lambda x: np.full_like(x, np.nan)),
     "nozzle area must be positive and finite"),
    (lambda: make_quasi1d_euler(20, length=2.8e187),
     "nozzle area must be positive and finite"),
    (lambda: make_quasi1d_euler(16, length=1e150),
     "cell measures that overflow"),
    (lambda: make_quasi1d_euler(16, area=lambda x: np.ones(3)),
     "nozzle area must return one value per point"),
    (lambda: make_quasi1d_euler(16, area=lambda x: 1.0),
     "nozzle area must return one value per point"),
    (lambda: make_aniso_convdiff(4, 4, velocity=(1.0, 0.5, 2.0)),
     "velocity must have 2 components"),
    (lambda: make_aniso_convdiff(4, 4, velocity=1.0),
     "velocity must have 2 components"),
    (lambda: make_quasi1d_euler(16, u_in=1e200),
     "initial state that overflows"),
    (lambda: make_quasi1d_euler(16, p_exit=1e308),
     "initial state that overflows"),
    (lambda: make_quasi1d_euler(16, rho_in=1e308, u_in=10.0),
     "initial state that overflows"),
    # Cell counts are checked before any numpy call.
    (lambda: make_bratu(5.5), "n_cells must be an integer >= 1"),
    (lambda: make_aniso_convdiff(4.5, 4), "nx must be an integer >= 1"),
    (lambda: make_aniso_convdiff(4, 4.0), "ny must be an integer >= 1"),
    (lambda: make_quasi1d_euler(16.5), "n_cells must be an integer >= 1"),
], ids=["bratu_lambda_inf", "convdiff_stretching_nan", "convdiff_amplitude_inf",
        "convdiff_ly_zero", "convdiff_nx_below_4",
        "convdiff_stretching_below_1", "convdiff_eps_negative",
        "convdiff_eps_zero",
        "convdiff_sigma_negative", "convdiff_stretching_1e300",
        "convdiff_stretching_1e200", "convdiff_faces_overflow",
        "convdiff_forcing_eps",
        "convdiff_forcing_sigma", "convdiff_forcing_amplitude",
        "convdiff_stencil_eps", "convdiff_boundary_amplitude",
        "euler_length", "euler_area_negative", "euler_area_nan",
        "euler_area_overflow", "euler_measures_overflow",
        "euler_area_wrong_length", "euler_area_scalar",
        "convdiff_velocity_three", "convdiff_velocity_scalar",
        "euler_inflow_u", "euler_inflow_p", "euler_inflow_rho",
        "bratu_n_cells_float", "convdiff_nx_float", "convdiff_ny_float",
        "euler_n_cells_float"])
def test_constructors_reject_invalid_parameters(build, message):
    # A problem that constructs has finite parameters and positive, finite
    # cell measures.
    with pytest.raises(ValueError, match=message):
        build()
