"""Pseudo-transient continuation driver with optional residual smoothing.

Each Newton step solves ``[M/dtau + dR/dw] dw = -R(w) + source`` with
matrix-free GMRES, right-preconditioned by the line-structured first-order
Jacobian (diagonal augmented by M/dtau). The source term is the scaled update
of the local RK smoother, evaluated once at the start of the step and held
constant. A backtracking line search on the pseudo-unsteady (smoothed)
residual picks the update fraction, and the CFL controller grows or cuts the
pseudo-time step from the line-search outcome. Rejected steps leave the state
bit-identical.

The first-order blocks are evaluated once per state at which a step
factors, and a step factors them along the frozen lines in one call, made
only by ``build_ptc_preconditioner``: as J1 + M/dtau for GMRES, and on a
smoothed step, in the same stacked reduction, as J1 for the smoother, since
the two differ only by the diagonal shift. Every smoothed step factors
afresh. An unsmoothed step lags GMRES's preconditioner instead: it reuses
the J1 + M/dtau factor of the step just before it when that step was
accepted and factored afresh, so a factor serves at most two steps (Knoll &
Keyes, J. Comput. Phys. 193, 2004). M/dtau itself is formed once per Newton
step (``mass_over_dtau``), as one per-unknown array that every layer of the
step multiplies by.

Smoothing steps aside in the Newton limit. The source (M/dtau) dw_smooth
vanishes as dtau grows, and exact Newton is recovered; M/dtau scales as
1/CFL. So ``solve_steady`` keeps ||source||/||R|| times the CFL of the last
step whose RK cycles all ran, predicts each step's ratio as that over its
CFL, and runs the step unsmoothed when the prediction is below
``SOURCE_SKIP_FRACTION`` of ``linear_rel_tol``: one single-shift factor, or
none when it reuses the step before's, and no RK stage. The first step of
every solve smooths, and a rejection's CFL cut raises the prediction
tenfold, so smoothing returns at small dtau.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .core import (BlockVector, ContractViolationError, ConvergenceRecord,
                   FirstOrderBlocks, InadmissibleStateError, NonlinearSystem,
                   _finite_norm, l2_norm, require_count, require_real,
                   trial_residual)
from .linalg import (BlockTridiagFactorization, GmresStats, Operator,
                     SingularPivotError, factor_block_tridiag,
                     gmres_right_preconditioned)
from .lines import LineSet, extract_lines
from .smoother import RkSchedule, build_smoother, rk_smooth

log = logging.getLogger(__name__)

LINE_SEARCH_CANDIDATES = (1.0, 0.75, 0.5, 0.25)
# Controller band on the line-search fraction: reject at or below (so no
# candidate lies there) and cut the CFL by CFL_CUT, grow it at or above, up
# to CFL_MAX. The solve stagnates once the CFL falls below the floor.
ALPHA_REJECT_THRESHOLD = 0.1
ALPHA_GROW_THRESHOLD = 0.75
CFL_CUT = 0.1
CFL_MAX = 1e12
CFL_STAGNATION_FLOOR = 1e-6
# A smoothed solve's step after the first runs unsmoothed when its predicted
# ||source||/||R|| is below this fraction of GMRES's ``linear_rel_tol``.
SOURCE_SKIP_FRACTION = 0.1


class SolveOutcome(str, Enum):
    CONVERGED = "converged"
    STAGNATED = "stagnated"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


@dataclass
class PtcConfig:
    """Continuation controller and linear-solver settings.

    Defaults follow the usual production protocol: CFL starts at 10, grows by
    1.5 on strong steps (the cut and cap are constants), the linear solve asks
    for two orders of magnitude reduction within 100 Krylov vectors.
    """

    cfl_init: float = 10.0
    beta_cfl1: float = 1.5            # CFL growth on strong line-search steps
    linear_rel_tol: float = 1e-2
    max_krylov: int = 100
    target_residual_reduction: float = 1e-8
    target_residual_absolute: Optional[float] = None
    max_newton_steps: int = 500
    smoothing: Optional[RkSchedule] = None

    def __post_init__(self):
        for name in ("cfl_init", "beta_cfl1", "linear_rel_tol",
                     "target_residual_reduction"):
            require_real(name, getattr(self, name))
        if self.target_residual_absolute is not None:
            require_real("target_residual_absolute",
                         self.target_residual_absolute)
        # Written as "not (valid)" so that NaN fails every check.
        if not CFL_STAGNATION_FLOOR <= self.cfl_init <= CFL_MAX:
            raise ValueError(f"cfl_init must be at least "
                             f"{CFL_STAGNATION_FLOOR:g} and at most {CFL_MAX:g}")
        if not 1.0 < self.beta_cfl1 < np.inf:
            raise ValueError("beta_cfl1 must exceed 1 and be finite")
        if not (0.0 < self.linear_rel_tol < 1.0):
            raise ValueError("linear_rel_tol must lie in (0, 1)")
        require_count("max_krylov", self.max_krylov, 1)
        if not (0.0 < self.target_residual_reduction < 1.0):
            raise ValueError("target_residual_reduction must lie in (0, 1)")
        if not (self.target_residual_absolute is None
                or 0.0 < self.target_residual_absolute < np.inf):
            raise ValueError(
                "target_residual_absolute must be positive and finite")
        require_count("max_newton_steps", self.max_newton_steps, 1)
        if not (self.smoothing is None
                or isinstance(self.smoothing, RkSchedule)):
            raise ValueError(f"smoothing must be an RkSchedule or None, got "
                             f"{self.smoothing!r}")


@dataclass
class SolveReport:
    outcome: SolveOutcome
    newton_steps: int
    cumulative_krylov: int
    final_residual_l2: float
    initial_residual_l2: float
    history: List[ConvergenceRecord]
    final_state: BlockVector
    final_cfl: float    # the CFL a next step takes (cfl_init if no rows)

    @property
    def rejection_count(self) -> int:
        return sum(1 for rec in self.history if not rec.accepted)


def mass_over_dtau(system: NonlinearSystem, w: BlockVector,
                   cfl: float) -> np.ndarray:
    """M/dtau per unknown, for the local pseudo-time steps dtau =
    cfl * explicit_dt(w): each cell's ``cell_measures / dtau`` repeated over
    its block. A dtau that overflows is infinite and its M/dtau zero, the
    exact-Newton limit."""
    dt = np.asarray(system.explicit_dt(w), dtype=float)
    with np.errstate(over="ignore"):
        dtau = cfl * dt
    if not np.all((dt > 0.0) & np.isfinite(dt) & (dtau > 0.0)):
        raise ValueError("explicit time steps must be positive and finite, "
                         "and pseudo-time steps positive")
    return np.repeat(system.cell_measures / dtau, w.layout.block_size)


def ptc_operator(system: NonlinearSystem, w: BlockVector,
                 mass_over_dtau: np.ndarray) -> Operator:
    """Matrix-free action of ``M/dtau + dR/dw`` at ``w`` on flat arrays,
    ``mass_over_dtau`` being M/dtau per unknown."""

    def matvec(x: np.ndarray) -> np.ndarray:
        return mass_over_dtau * x + system.jacobian_vector(w, x)

    return matvec


def build_ptc_preconditioner(
        lines: LineSet, blocks: FirstOrderBlocks, mass_over_dtau: np.ndarray,
        smoothed: bool = False
) -> Tuple[BlockTridiagFactorization, Optional[BlockTridiagFactorization]]:
    """A Newton step's one line factor call: the first-order Jacobian
    along ``lines``, each cell's diagonal block shifted by its entry of the
    per-unknown M/dtau times the identity, J1 + M/dtau for GMRES.

    Returns it with the smoother's J1, or None. When ``smoothed``, the same
    call factors J1 stacked beside it, and ``build_smoother`` turns a J1
    that failed there alone into None, so the step runs unsmoothed. A
    failing J1 + M/dtau raises, whether smoothed or not.
    """
    shift = mass_over_dtau[::blocks.diag.shape[1]]
    precon, *j1 = factor_block_tridiag(
        lines, blocks, (shift, None) if smoothed else (shift,))
    return precon, build_smoother(*j1) if smoothed else None


@dataclass
class NewtonStepResult:
    delta_w: np.ndarray
    source: np.ndarray
    stats: GmresStats
    smoother_degraded: bool = False
    # The PTC factor refused a non-finite diagonal block or in-line
    # coupling: every CFL fails alike, since M/dtau only adds finite values
    # to the diagonal.
    futile: bool = False
    # Every scheduled RK cycle ran, so ``source`` is the full smoothing
    # source (a skipped or degraded smoother's is not).
    smoothed: bool = False
    # The J1 + M/dtau factor GMRES ran on (None when the factor failed).
    precon: Optional[BlockTridiagFactorization] = None


def newton_step(system: NonlinearSystem, w: BlockVector,
                mass_over_dtau: np.ndarray, config: PtcConfig, lines: LineSet,
                residual: np.ndarray, blocks: Optional[FirstOrderBlocks],
                schedule: Optional[RkSchedule] = None,
                lagged: Optional[BlockTridiagFactorization] = None
                ) -> NewtonStepResult:
    """One linearized continuation step (no state update, no line search).

    ``mass_over_dtau`` is the per-unknown M/dtau, ``residual`` and
    ``blocks`` are R(w) and the first-order blocks at ``w``, and ``config``
    gives GMRES its tolerance and budget. A step handed ``lagged``, an
    earlier step's J1 + M/dtau factor, runs GMRES on it and factors nothing
    (``blocks`` may then be None); otherwise the blocks are factored along
    ``lines`` once, as J1 + M/dtau and, stacked beside it when the step
    smooths with ``schedule``, as J1 for the smoother
    (``build_ptc_preconditioner``). The smoothing source is
    computed before the linear solve and never re-evaluated. A singular
    smoother factorization runs the step unsmoothed. GMRES non-convergence
    is reported through the stats for the controller, not raised; so are
    non-finite couplings or operator output and a singular PTC
    preconditioner, as failed solves with no Krylov vectors, marked
    ``futile`` when a diagonal block or gathered coupling is not finite.
    """
    zero = np.zeros(w.layout.n_dofs)
    failed = GmresStats(0, 1.0, False)
    precon, smoother = lagged, None
    if lagged is None:
        try:
            precon, smoother = build_ptc_preconditioner(
                lines, blocks, mass_over_dtau, schedule is not None)
        except (ContractViolationError, SingularPivotError) as exc:
            log.warning("PTC preconditioner failed (%s); rejecting the step",
                        exc)
            futile = (isinstance(exc, ContractViolationError)
                      or not np.all(np.isfinite(blocks.diag)))
            return NewtonStepResult(zero, zero, failed, futile=futile)

    source, degraded, complete = zero, False, False
    if smoother is not None:
        sm = rk_smooth(system, smoother, schedule, w, residual)
        # The paper's source term (M/dtau) dw_smooth; it vanishes as
        # dtau grows, recovering the exact Newton step.
        source = mass_over_dtau * sm.delta_w
        degraded, complete = sm.degraded, not sm.degraded

    try:
        x, stats = gmres_right_preconditioned(
            ptc_operator(system, w, mass_over_dtau), precon.solve_values,
            source - residual, config.linear_rel_tol,
            config.max_krylov)
    except ContractViolationError as exc:
        log.warning("linear solve failed (%s); rejecting the step", exc)
        return NewtonStepResult(zero, source, failed, degraded,
                                smoothed=complete, precon=precon)
    return NewtonStepResult(x, source, stats, degraded, smoothed=complete,
                            precon=precon)


@dataclass
class LineSearchResult:
    alpha: float
    f_values: List[float]               # [F(0), F at each probed candidate]
    f0: float
    f_alpha: float                      # F at the returned alpha (f0 if rejected)
    residual_at_alpha: Optional[np.ndarray]  # R(w + alpha dw) when accepted


@np.errstate(over="ignore", invalid="ignore")
def line_search(system: NonlinearSystem, w: BlockVector, delta_w: np.ndarray,
                mass_over_dtau: np.ndarray, source: np.ndarray,
                residual0: np.ndarray) -> LineSearchResult:
    """Backtracking search on the smoothed pseudo-unsteady residual.

    ``residual0`` is R(w), and ``mass_over_dtau`` the per-unknown M/dtau.
    The trial at fraction alpha scores
    ``F(alpha) = |M/dtau alpha dw + R(w + alpha dw) - source|``. Scans the
    fixed candidate set from alpha = 1 downward and stops at the first
    improvement over F(0); a trial that ``trial_residual`` rejects, or whose
    F overflows, scores +inf without a warning. Returns alpha = 0 when
    nothing improves, which the controller treats as a rejection.
    """
    f0 = _finite_norm(residual0 - source)
    f_values = [f0]

    for alpha in LINE_SEARCH_CANDIDATES:
        step = alpha * delta_w
        r_trial = trial_residual(system, BlockVector(w.layout, w.values + step))
        f_trial = (np.inf if r_trial is None
                   else _finite_norm(mass_over_dtau * step + r_trial - source))
        f_values.append(f_trial)
        if f_trial < f0:
            return LineSearchResult(alpha, f_values, f0, f_trial, r_trial)

    return LineSearchResult(0.0, f_values, f0, f0, None)


def cfl_update(cfl: float, alpha: float, config: PtcConfig
               ) -> Tuple[float, bool]:
    """Controller band logic.

    A tiny step (alpha 0 after a failed linear solve) rejects the update and
    cuts the CFL by ``CFL_CUT``; a strong step grows it by ``beta_cfl1`` up
    to ``CFL_MAX``; intermediate steps leave it unchanged.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if alpha <= ALPHA_REJECT_THRESHOLD:
        return cfl * CFL_CUT, False
    if alpha >= ALPHA_GROW_THRESHOLD:
        return min(cfl * config.beta_cfl1, CFL_MAX), True
    return cfl, True


def _convergence_threshold(config: PtcConfig, r0: float) -> float:
    threshold = max(config.target_residual_reduction * r0,
                    1e-13 * (1.0 + r0))  # absolute floor against round-off
    if config.target_residual_absolute is not None:
        threshold = max(threshold, config.target_residual_absolute)
    return threshold


def solve_steady(system: NonlinearSystem, config: PtcConfig,
                 w0: Optional[BlockVector] = None,
                 lines: Optional[LineSet] = None) -> SolveReport:
    """Run the continuation loop to the residual target.

    Solver lines are ``lines``, or extracted at the starting state when it is
    ``None``, and frozen. Each step's plan is made here: the schedule it
    smooths with, if any, and the factor it reuses, if any. A smoothed step
    factors afresh. An unsmoothed step (a plain or zero-cycle config, or a
    step stepping smoothing aside) reuses the J1 + M/dtau factor of the step
    just before it, and logs one DEBUG line, when that step was accepted and
    factored afresh. So each solve's first step factors, a step after a
    rejection factors, and a factor serves at most two steps. The
    first-order blocks are evaluated once per state at which a step factors,
    without overflow warnings (a non-finite block is refused by the factor):
    a rejected step leaves the state bit-identical, so its retry reuses them.
    A step is accepted only when the line search found a fraction that
    decreases the pseudo-unsteady residual, so accepted steps descend whatever
    the linearization. A smoothed solve steps smoothing aside in the Newton
    limit, where the source vanishes: a step after the first whose predicted
    ||source||/||R||, the last fully smoothed step's ratio times its CFL over
    this one's, is below ``SOURCE_SKIP_FRACTION * linear_rel_tol`` runs
    unsmoothed and logs one DEBUG line; a step whose smoother was skipped or
    degraded leaves that prediction as it was. A step whose PTC factor
    refuses a non-finite diagonal block or in-line coupling is recorded as
    rejected and ends the solve ``STAGNATED``: no CFL changes that verdict.
    A starting state whose layout is not the system's, or ``lines`` over
    another cell count or (with an in-line pair) another stencil, raises
    ``ContractViolationError``; a start that ``trial_residual`` rejects, its
    residual overflowing included, or whose couplings are not finite when
    lines are to be extracted there, raises ``InadmissibleStateError``. All
    are raised before any step.
    """
    w = w0.copy() if w0 is not None else system.initial_state()
    if w.layout != system.layout:
        raise ContractViolationError(
            f"start state layout {w.layout} differs from the system's "
            f"{system.layout}")
    if lines is not None and lines.n_cells != system.layout.n_cells:
        raise ContractViolationError(
            f"lines cover {lines.n_cells} cells, not {system.layout.n_cells}")
    if (lines is not None and lines.pair_mask.any()
            and not np.array_equal(lines.edges, system.edges)):
        raise ContractViolationError("lines were built over another stencil")
    r = trial_residual(system, w)
    if r is None:
        raise InadmissibleStateError(
            "initial state is not admissible or its residual is not finite")
    r_norm = r0_norm = l2_norm(r)
    threshold = _convergence_threshold(config, r_norm)
    history: List[ConvergenceRecord] = []

    cfl = config.cfl_init
    if r_norm <= threshold:
        return SolveReport(SolveOutcome.CONVERGED, 0, 0, r_norm, r_norm,
                           history, w, cfl)

    blocks = None
    cumulative_krylov = 0
    outcome = SolveOutcome.STEP_BUDGET_EXHAUSTED
    # ||source||/||R|| times the CFL of the last step whose RK cycles all
    # ran: the ratio it predicts at CFL c is source_cfl / c.
    source_cfl = None
    skip_below = SOURCE_SKIP_FRACTION * config.linear_rel_tol
    smoothing = (config.smoothing if config.smoothing is not None
                 and config.smoothing.n_cycles > 0 else None)
    # The last step's J1 + M/dtau factor while the next unsmoothed step may
    # reuse it: that step was accepted and factored afresh.
    lagged = None

    for step in range(1, config.max_newton_steps + 1):
        schedule = smoothing
        predicted = None if source_cfl is None else source_cfl / cfl
        if predicted is not None and predicted < skip_below:
            log.debug("step %d steps smoothing aside: predicted |source|/|R| "
                      "%.3g < %.3g", step, predicted, skip_below)
            schedule = None
        if lagged is not None and schedule is None:
            log.debug("step %d reuses step %d's line factor", step, step - 1)
        else:
            lagged = None
            if blocks is None:
                with np.errstate(over="ignore", invalid="ignore"):
                    blocks = system.first_order_blocks(w)
                if lines is None:
                    lines = extract_lines(blocks, system.edges)
        m_dtau = mass_over_dtau(system, w, cfl)
        ns = newton_step(system, w, m_dtau, config, lines, r, blocks,
                         schedule=schedule, lagged=lagged)
        cumulative_krylov += ns.stats.iterations
        if ns.smoothed:
            source_cfl = _finite_norm(ns.source) / r_norm * cfl

        ls, alpha = None, 0.0   # a failed linear solve is a zero step
        if ns.stats.converged:
            ls = line_search(system, w, ns.delta_w, m_dtau, ns.source, r)
            alpha = ls.alpha
        new_cfl, accepted = cfl_update(cfl, alpha, config)
        lagged = ns.precon if accepted and lagged is None else None

        if accepted:
            w = BlockVector(w.layout, w.values + alpha * ns.delta_w)
            r = ls.residual_at_alpha
            blocks = None
            r_norm = l2_norm(r)
            ptc_res = ls.f_alpha
        else:
            ptc_res = _finite_norm(r - ns.source)

        history.append(ConvergenceRecord(
            step=step, cfl=cfl, alpha=alpha,
            krylov_count=ns.stats.iterations,
            linear_reduction=ns.stats.achieved_reduction,
            residual_l2=r_norm, ptc_residual_l2=ptc_res,
            cumulative_krylov=cumulative_krylov, accepted=accepted))

        cfl = new_cfl
        if accepted and r_norm <= threshold:
            outcome = SolveOutcome.CONVERGED
            break
        if cfl < CFL_STAGNATION_FLOOR or ns.futile:
            outcome = SolveOutcome.STAGNATED
            break

    return SolveReport(outcome, len(history), cumulative_krylov, r_norm,
                       r0_norm, history, w, cfl)
