"""Local nonlinear solver: k-stage line-preconditioned Runge-Kutta sweeps.

Each cycle runs stages ``w^m = w^0 - alpha_m * P^{-1} R(w^{m-1})`` with the
final stage coefficient equal to one, so the cycle output is a full update.
The net update over all cycles is the composite local-solver correction; the
continuation driver turns it into a right-hand-side source term by scaling
with M/dtau.

The line preconditioner P is J1, the first-order Jacobian restricted to the
solver lines (off-diagonal blocks kept only for edges interior to a line),
unshifted. A smoothed Newton step factors P and GMRES's J1 + M/dtau, which
differ only by that diagonal shift, in its one stacked factor call
(``build_ptc_preconditioner``), and ``build_smoother`` takes P from there.
P is factored afresh on every smoothed Newton step, from blocks evaluated
once per state at which a step factors, and frozen across stages and
cycles. Only an unsmoothed step reuses a factor: the J1 + M/dtau of the
step just before it, when that step was accepted and factored afresh.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import (BlockVector, NonlinearSystem, require_count, require_real,
                   trial_residual)
from .linalg import BlockTridiagFactorization, SingularPivotError
# Not called here: the benchmark tracer's tests look it up in this module.
from .linalg import factor_block_tridiag  # noqa: F401

log = logging.getLogger(__name__)

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
        for a in self.stage_coefficients:
            require_real("stage coefficients", a)
        coeffs = tuple(float(a) for a in self.stage_coefficients)
        if not coeffs:
            raise ValueError("at least one stage coefficient required")
        if any(not (0.0 < a <= 1.0) for a in coeffs):    # NaN fails too
            raise ValueError("stage coefficients must lie in (0, 1]")
        if coeffs[-1] != 1.0:
            raise ValueError("final stage coefficient must be 1.0")
        require_count("n_cycles", self.n_cycles, 0)
        object.__setattr__(self, "stage_coefficients", coeffs)


@dataclass
class SmoothResult:
    delta_w: np.ndarray     # the composite local-solver update
    degraded: bool          # an offending cycle was abandoned


def build_smoother(
        j1: Union[BlockTridiagFactorization, SingularPivotError]
) -> Optional[BlockTridiagFactorization]:
    """The smoother's line preconditioner from J1's entry of the Newton
    step's factor call: the factor itself, or None when J1 alone was
    singular, logged, so that the step runs unsmoothed."""
    if isinstance(j1, SingularPivotError):
        # Smoother failure is soft: fall back to the unsmoothed step.
        log.warning("smoother build failed (%s); running unsmoothed step", j1)
        return None
    return j1


def rk_smooth(system: NonlinearSystem, precon: BlockTridiagFactorization,
              schedule: RkSchedule, w0: BlockVector,
              r0: np.ndarray) -> SmoothResult:
    """Run the scheduled RK cycles from ``w0``, preconditioned by ``precon``.

    ``r0`` is R(w0), already accepted by ``trial_residual``. Every stage
    output is judged by ``trial_residual``, whose R(w) then feeds the next
    stage, so the returned state always has a usable residual. A rejected
    stage output abandons the offending cycle; the last completed cycle's
    output is returned with ``degraded`` set. The smoother is an
    accelerator, so its failure is soft by design: stage updates that
    overflow do so without a warning, and their stage is rejected.
    """
    r = r0
    w_cycle = w0.copy()
    degraded = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(schedule.n_cycles):
            for alpha in schedule.stage_coefficients:
                current = BlockVector(
                    w0.layout,
                    w_cycle.values - alpha * precon.solve_values(r))
                r = trial_residual(system, current)
                if r is None:
                    break
            if r is None:
                degraded = True
                break
            w_cycle = current
    return SmoothResult(w_cycle.values - w0.values, degraded)

