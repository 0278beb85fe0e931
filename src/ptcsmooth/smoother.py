"""Local nonlinear solver: k-stage line-preconditioned Runge-Kutta sweeps.

Each cycle runs stages ``w^m = w^0 - alpha_m * P^{-1} R(w^{m-1})`` with the
final stage coefficient equal to one, so the cycle output is a full update.
The net update over all cycles is the composite local-solver correction; the
continuation driver turns it into a right-hand-side source term by scaling
with M/dtau.

The line preconditioner P is J1, the first-order Jacobian restricted to the
solver lines (off-diagonal blocks kept only for edges interior to a line),
unshifted. A smoothed Newton step factors P and GMRES's J1 + M/dtau, which
differ only by that diagonal shift, in one stacked reduction
(``build_smoother`` with M/dtau). P is factored once per build and frozen
across stages and cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import (BlockVector, FirstOrderBlocks, NonlinearSystem,
                   require_count, trial_residual)
from .linalg import (BlockTridiagFactorization, SingularPivotError,
                     factor_block_tridiag)
from .lines import LineSet

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


def build_smoother(lines: LineSet, blocks: FirstOrderBlocks,
                   mass_over_dtau: Optional[np.ndarray] = None
                   ) -> Union[BlockTridiagFactorization, Tuple[
                       Union[BlockTridiagFactorization, SingularPivotError],
                       BlockTridiagFactorization]]:
    """Factor the line preconditioner: ``blocks`` along ``lines``.

    With ``mass_over_dtau``, the per-unknown M/dtau, the same one factor
    call also factors GMRES's J1 + M/dtau, stacked beside J1, and returns
    the pair (J1, J1 + M/dtau), each bitwise its own factor. Failures are
    decided in that call, J1 + M/dtau first: a failing J1 + M/dtau raises
    its ``SingularPivotError``; a J1 that fails alone is returned as its
    ``SingularPivotError`` in J1's place, so the caller can still step
    unsmoothed.

    Rebuilding at a different state changes block values but never the
    sparsity, since the line structure is frozen.
    """
    if mass_over_dtau is None:
        return factor_block_tridiag(lines, blocks)
    b = blocks.diag.shape[1]
    precon, smoother = factor_block_tridiag(
        lines, blocks, (mass_over_dtau[::b], None))
    return smoother, precon


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

