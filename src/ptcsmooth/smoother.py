"""Local nonlinear solver: k-stage line-preconditioned Runge-Kutta sweeps.

Each cycle runs stages ``w^m = w^0 - alpha_m * P^{-1} R(w^{m-1})`` with the
final stage coefficient equal to one, so the cycle output is a full update.
The net update over all cycles is the composite local-solver correction; the
continuation driver turns it into a right-hand-side source term by scaling
with M/dtau.

The line preconditioner P is the first-order Jacobian restricted to the
solver lines (off-diagonal blocks kept only for edges interior to a line),
factorized once per build and frozen across stages and cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (BlockVector, ContractViolationError,
                   InadmissibleStateError, MassMatrix, NonlinearSystem,
                   cellwise_scale)
from .linalg import BlockTridiagFactorization, factor_block_tridiag
from .lines import LineBlocks

DEFAULT_STAGE_COEFFS = (0.15, 0.4, 1.0)
DEFAULT_CYCLES = 5


@dataclass(frozen=True)
class RkSchedule:
    """Stage coefficients (last one must be 1) and outer cycle count.

    ``n_cycles = 0`` is the degenerate no-op schedule: it produces a zero
    correction so the smoothed scheme falls back to plain continuation.
    """

    stage_coefficients: Tuple[float, ...] = DEFAULT_STAGE_COEFFS
    n_cycles: int = DEFAULT_CYCLES

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.stage_coefficients)
        if not coeffs:
            raise ValueError("at least one stage coefficient required")
        if any(a <= 0.0 or a > 1.0 for a in coeffs):
            raise ValueError("stage coefficients must lie in (0, 1]")
        if coeffs[-1] != 1.0:
            raise ValueError("final stage coefficient must be 1.0")
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be nonnegative")
        object.__setattr__(self, "stage_coefficients", coeffs)


@dataclass
class SmootherContext:
    """Frozen line preconditioner plus the schedule driving it."""

    preconditioner: BlockTridiagFactorization
    schedule: RkSchedule


@dataclass
class SmoothResult:
    delta_w: BlockVector    # w_end - w0, the composite local-solver update
    w_end: BlockVector
    degraded: bool          # an offending cycle was abandoned


def build_smoother(blocks: LineBlocks, schedule: RkSchedule) -> SmootherContext:
    """Factor the line preconditioner from blocks gathered along the lines.

    Rebuilding at a different state changes block values but never the
    sparsity, since the line structure is frozen.
    """
    precon = factor_block_tridiag(blocks.lines, blocks.diag, blocks.off)
    return SmootherContext(precon, schedule)


def rk_smooth(system: NonlinearSystem, ctx: SmootherContext,
              w0: BlockVector) -> SmoothResult:
    """Run the scheduled RK cycles from ``w0``.

    An inadmissible or non-evaluable stage state abandons the offending cycle;
    the last completed cycle's output is returned with ``degraded`` set. The
    smoother is an accelerator, so its failure is soft by design.
    """
    if not system.is_admissible(w0):
        raise InadmissibleStateError("smoother started at inadmissible state")

    w_cycle = w0.copy()
    degraded = False
    for _ in range(ctx.schedule.n_cycles):
        base = w_cycle
        current = w_cycle
        ok = True
        for alpha in ctx.schedule.stage_coefficients:
            try:
                r = system.residual(current)
            except (InadmissibleStateError, ContractViolationError):
                ok = False
                break
            if not r.is_finite():
                ok = False
                break
            current = base + (-alpha) * ctx.preconditioner.solve(r)
            if not current.is_finite() or not system.is_admissible(current):
                ok = False
                break
        if not ok:
            degraded = True
            break
        w_cycle = current
    return SmoothResult(w_cycle - w0, w_cycle, degraded)


def smoothing_source(delta_w_smooth: BlockVector, mass: MassMatrix,
                     dtau: np.ndarray) -> BlockVector:
    """Scale the local-solver update by M/dtau.

    The smoothed Newton right-hand side is ``-R(w) + source``; the source
    vanishes as dtau grows, recovering the exact Newton scheme.
    """
    return cellwise_scale(delta_w_smooth, mass.over_dtau(dtau))
