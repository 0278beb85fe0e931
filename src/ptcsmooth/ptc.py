"""Pseudo-transient continuation driver with optional residual smoothing.

Each Newton step solves ``[M/dtau + dR/dw] dw = -R(w) + source`` with
matrix-free GMRES, right-preconditioned by the line-structured first-order
Jacobian (diagonal augmented by M/dtau). The source term is the scaled update
of the local RK smoother, evaluated once at the start of the step and held
constant. A backtracking line search on the pseudo-unsteady (smoothed)
residual picks the update fraction, and the CFL controller grows or cuts the
pseudo-time step from the line-search outcome. Rejected steps leave the state
bit-identical.

The first-order blocks are evaluated once per Newton step and gathered along
the frozen lines once; that one gather is factored as J1 for the smoother and
as J1 + M/dtau for GMRES.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .core import (BlockVector, ContractViolationError, ConvergenceRecord,
                   InadmissibleStateError, NonlinearSystem, l2_norm)
from .linalg import (BlockTridiagFactorization, GmresStats, LinearOperator,
                     SingularPivotError, factor_block_tridiag,
                     gmres_right_preconditioned)
from .lines import (LineBlocks, LineSet, assemble_line_blocks,
                    build_coupling_graph, extract_lines)
from .smoother import RkSchedule, build_smoother, rk_smooth, smoothing_source

log = logging.getLogger(__name__)

LINE_SEARCH_CANDIDATES = (1.0, 0.75, 0.5, 0.25, 0.1, 0.05, 0.01)


class DescentViolationError(RuntimeError):
    """An accepted step failed to decrease the pseudo-unsteady residual."""


class SolveOutcome(str, Enum):
    CONVERGED = "converged"
    STAGNATED = "stagnated"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


@dataclass
class PtcConfig:
    """Continuation controller and linear-solver settings.

    Defaults follow the usual production protocol: CFL starts at 10, grows by
    1.5 on strong steps, cuts by 0.1 on rejections, the linear solve asks for
    two orders of magnitude reduction within 100 Krylov vectors.
    """

    cfl_init: float = 10.0
    cfl_growth: float = 1.5           # amplification on strong line-search steps
    cfl_cut: float = 0.1              # reduction on rejected steps
    alpha_grow_threshold: float = 0.75
    alpha_reject_threshold: float = 0.1
    linear_rel_tol: float = 1e-2
    max_krylov: int = 100
    target_residual_reduction: float = 1e-8
    target_residual_absolute: Optional[float] = None
    max_newton_steps: int = 500
    cfl_stagnation_floor: float = 1e-6
    cfl_max: float = 1e12
    anisotropy_threshold: float = 4.0
    smoothing: Optional[RkSchedule] = None

    def __post_init__(self):
        if self.cfl_growth <= 1.0:
            raise ValueError("cfl_growth must exceed 1")
        if not (0.0 < self.cfl_cut < 1.0):
            raise ValueError("cfl_cut must lie in (0, 1)")
        if not (0.0 < self.alpha_reject_threshold < self.alpha_grow_threshold <= 1.0):
            raise ValueError("alpha thresholds must satisfy 0 < reject < grow <= 1")


@dataclass
class SolveReport:
    outcome: SolveOutcome
    newton_steps: int
    cumulative_krylov: int
    final_residual_l2: float
    initial_residual_l2: float
    history: List[ConvergenceRecord]
    final_state: BlockVector

    @property
    def rejection_count(self) -> int:
        return sum(1 for rec in self.history if not rec.accepted)


def local_pseudo_timesteps(system: NonlinearSystem, w: BlockVector,
                           cfl: float) -> np.ndarray:
    """Per-cell pseudo-time steps: a global CFL times the explicit estimate."""
    if cfl <= 0.0:
        raise ValueError("cfl must be positive")
    dt_explicit = np.asarray(system.explicit_dt(w), dtype=float)
    if np.any(dt_explicit <= 0.0) or not np.all(np.isfinite(dt_explicit)):
        raise ValueError("explicit time-step estimate must be positive and finite")
    return cfl * dt_explicit


def ptc_operator(system: NonlinearSystem, w: BlockVector,
                 dtau: np.ndarray) -> LinearOperator:
    """Matrix-free action of ``M/dtau + dR/dw`` at state ``w``."""
    coeffs = np.repeat(system.mass().over_dtau(dtau), w.layout.block_size)
    layout = w.layout

    def matvec(x: np.ndarray) -> np.ndarray:
        jv = system.jacobian_vector(w, BlockVector(layout, x))
        return coeffs * x + jv.values

    return LinearOperator(layout, matvec)


def build_ptc_preconditioner(blocks: LineBlocks,
                             mass_over_dtau: np.ndarray) -> BlockTridiagFactorization:
    """Line-structured first-order Jacobian with M/dtau added to diagonals."""
    b = blocks.diag.shape[1]
    diag = blocks.diag + mass_over_dtau[:, None, None] * np.eye(b)
    return factor_block_tridiag(blocks.lines, diag, blocks.off)


@dataclass
class NewtonStepResult:
    delta_w: BlockVector
    source: BlockVector
    stats: GmresStats
    residual: BlockVector      # R(w) used to form the right-hand side
    smoother_degraded: bool = False


def newton_step(system: NonlinearSystem, w: BlockVector, dtau: np.ndarray,
                config: PtcConfig, lines: LineSet,
                residual: Optional[BlockVector] = None) -> NewtonStepResult:
    """One linearized continuation step (no state update, no line search).

    The first-order blocks are evaluated and gathered along ``lines`` once,
    then factored as J1 for the smoother (when ``config.smoothing`` has
    cycles) and as J1 + M/dtau for GMRES. The smoothing source is computed
    before the linear solve and never re-evaluated. A singular smoother
    factorization runs the step unsmoothed. GMRES non-convergence is
    reported through the stats for the controller, not raised; so are a
    singular PTC preconditioner and non-finite operator output, as a failed
    solve with no Krylov vectors.
    """
    r = residual if residual is not None else system.residual(w)
    zero = BlockVector.zeros(w.layout)
    failed = GmresStats(0, 1.0, False, [])
    blocks = assemble_line_blocks(system, w, lines)
    try:
        precon = build_ptc_preconditioner(blocks, system.mass().over_dtau(dtau))
    except SingularPivotError as exc:
        log.warning("PTC preconditioner failed (%s); rejecting the step", exc)
        return NewtonStepResult(zero, zero, failed, r)

    source, degraded = zero, False
    if config.smoothing is not None and config.smoothing.n_cycles > 0:
        try:
            smoother = build_smoother(blocks, config.smoothing)
        except SingularPivotError as exc:
            # Smoother failure is soft: fall back to the unsmoothed step.
            log.warning("smoother build failed (%s); running unsmoothed step",
                        exc)
        else:
            sm = rk_smooth(system, smoother, w)
            source = smoothing_source(sm.delta_w, system.mass(), dtau)
            degraded = sm.degraded

    try:
        delta_w, stats = gmres_right_preconditioned(
            ptc_operator(system, w, dtau), precon.as_operator(), source - r,
            config.linear_rel_tol, config.max_krylov)
    except ContractViolationError as exc:
        log.warning("linear solve failed (%s); rejecting the step", exc)
        return NewtonStepResult(zero, source, failed, r, degraded)
    return NewtonStepResult(delta_w, source, stats, r, degraded)


@dataclass
class LineSearchResult:
    alpha: float
    f_values: List[float]               # [F(0), F at each probed candidate]
    f0: float
    f_alpha: float                      # F at the returned alpha (f0 if rejected)
    residual_at_alpha: Optional[BlockVector]  # R(w + alpha dw) when accepted


def _pseudo_unsteady_norm(step_vec: BlockVector, residual: BlockVector,
                          source: BlockVector, coeffs: np.ndarray) -> float:
    vals = np.repeat(coeffs, step_vec.layout.block_size) * step_vec.values \
        + residual.values - source.values
    if not np.all(np.isfinite(vals)):
        return np.inf
    return float(np.linalg.norm(vals))


def line_search(system: NonlinearSystem, w: BlockVector, delta_w: BlockVector,
                dtau: np.ndarray, source: BlockVector,
                residual0: Optional[BlockVector] = None) -> LineSearchResult:
    """Backtracking search on the smoothed pseudo-unsteady residual.

    Scans the fixed candidate set from alpha = 1 downward and stops at the
    first improvement over F(0); inadmissible trials score +inf. Returns
    alpha = 0 when nothing improves, which the controller treats as a
    rejection.
    """
    coeffs = system.mass().over_dtau(dtau)
    r0 = residual0 if residual0 is not None else system.residual(w)
    f0 = _pseudo_unsteady_norm(BlockVector.zeros(w.layout), r0, source, coeffs)
    f_values = [f0]

    for alpha in LINE_SEARCH_CANDIDATES:
        trial = w + alpha * delta_w
        if not trial.is_finite() or not system.is_admissible(trial):
            f_values.append(np.inf)
            continue
        try:
            r_trial = system.residual(trial)
        except (InadmissibleStateError, ContractViolationError):
            f_values.append(np.inf)
            continue
        f_trial = _pseudo_unsteady_norm(alpha * delta_w, r_trial, source, coeffs)
        f_values.append(f_trial)
        if f_trial < f0:
            return LineSearchResult(alpha, f_values, f0, f_trial, r_trial)

    return LineSearchResult(0.0, f_values, f0, f0, None)


def cfl_update(cfl: float, alpha: float, linear_converged: bool,
               config: PtcConfig) -> Tuple[float, bool]:
    """Controller band logic.

    Linear-solver failure or a tiny step rejects the update and cuts the CFL;
    a strong step grows it (capped); intermediate steps leave it unchanged.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if not linear_converged or alpha <= config.alpha_reject_threshold:
        return cfl * config.cfl_cut, False
    if alpha >= config.alpha_grow_threshold:
        return min(cfl * config.cfl_growth, config.cfl_max), True
    return cfl, True


def _convergence_threshold(config: PtcConfig, r0: float) -> float:
    threshold = max(config.target_residual_reduction * r0,
                    1e-13 * (1.0 + r0))  # absolute floor against round-off
    if config.target_residual_absolute is not None:
        threshold = max(threshold, config.target_residual_absolute)
    return threshold


def solve_steady(system: NonlinearSystem, config: PtcConfig,
                 w0: Optional[BlockVector] = None) -> SolveReport:
    """Run the continuation loop to the residual target.

    Solver lines are extracted once at the starting state and frozen; both
    line factorizations are rebuilt at each Newton step's state. Every
    accepted step with a converged linear solve is descent-checked against
    the pseudo-unsteady residual; a violation is a hard error since it can
    only come from a broken linearization.
    """
    w = w0.copy() if w0 is not None else system.initial_state()
    if not system.is_admissible(w):
        raise InadmissibleStateError("initial state is not admissible")

    r = system.residual(w)
    r_norm = r0_norm = l2_norm(r)
    threshold = _convergence_threshold(config, r_norm)
    history: List[ConvergenceRecord] = []

    if r_norm <= threshold:
        return SolveReport(SolveOutcome.CONVERGED, 0, 0, r_norm, r_norm,
                           history, w)

    lines = extract_lines(build_coupling_graph(system, w),
                          config.anisotropy_threshold)

    cfl = config.cfl_init
    cumulative_krylov = 0
    outcome = SolveOutcome.STEP_BUDGET_EXHAUSTED

    for step in range(1, config.max_newton_steps + 1):
        dtau = local_pseudo_timesteps(system, w, cfl)
        ns = newton_step(system, w, dtau, config, lines, residual=r)
        cumulative_krylov += ns.stats.iterations

        if ns.stats.converged:
            ls = line_search(system, w, ns.delta_w, dtau, ns.source,
                             residual0=r)
            new_cfl, accepted = cfl_update(cfl, ls.alpha, True, config)
        else:
            ls = None
            new_cfl, accepted = cfl_update(cfl, 0.0, False, config)

        if accepted:
            if not ls.f_alpha < ls.f0:
                raise DescentViolationError(
                    f"step {step}: F({ls.alpha}) = {ls.f_alpha} "
                    f"did not decrease F(0) = {ls.f0}")
            w = w + ls.alpha * ns.delta_w
            r = ls.residual_at_alpha
            r_norm = l2_norm(r)
            alpha_rec = ls.alpha
            ptc_res = ls.f_alpha
        else:
            alpha_rec = ls.alpha if ls is not None else 0.0
            ptc_res = ls.f0 if ls is not None else l2_norm(ns.residual - ns.source)

        history.append(ConvergenceRecord(
            step=step, cfl=cfl, alpha=alpha_rec,
            krylov_count=ns.stats.iterations,
            linear_reduction=ns.stats.achieved_reduction,
            residual_l2=r_norm, ptc_residual_l2=ptc_res,
            cumulative_krylov=cumulative_krylov, accepted=accepted))

        cfl = new_cfl
        if accepted and r_norm <= threshold:
            outcome = SolveOutcome.CONVERGED
            break
        if cfl < config.cfl_stagnation_floor:
            outcome = SolveOutcome.STAGNATED
            break

    return SolveReport(outcome, len(history), cumulative_krylov, r_norm,
                       r0_norm, history, w)
