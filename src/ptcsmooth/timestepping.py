"""Implicit time integration: BDF2 (BDF1 startup) over inner continuation solves.

Each physical step wraps the spatial system into an unsteady residual
``M * d_t w + R(w)`` and runs the steady continuation driver on it, with the
CFL reset at every step. Physical dt is global; pseudo-time steps stay local
inside the inner solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import (BlockLayout, BlockVector, FirstOrderBlocks, MassMatrix,
                   NonlinearSystem, cellwise_scale)
from .ptc import PtcConfig, SolveOutcome, SolveReport, solve_steady


def bdf_residual(system: NonlinearSystem, w: BlockVector, w_prev: BlockVector,
                 w_prev2: Optional[BlockVector], dt: float) -> BlockVector:
    """Unsteady residual: BDF2 when two history levels exist, else BDF1."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    mass = system.mass()
    if w_prev2 is None:
        dwdt = (w.values - w_prev.values) / dt
    else:
        dwdt = (3.0 * w.values - 4.0 * w_prev.values + w_prev2.values) / (2.0 * dt)
    time_term = cellwise_scale(BlockVector(w.layout, dwdt), mass.cell_measures)
    return time_term + system.residual(w)


class BdfStepSystem(NonlinearSystem):
    """One implicit time step posed as a steady nonlinear system.

    Exposes the unsteady residual, its exact Jacobian-vector product
    (inner J plus c*M/dt on the diagonal, c = 3/2 for BDF2 and 1 for BDF1),
    and first-order blocks with the same diagonal shift. The previous step's
    solution is the initial state.
    """

    def __init__(self, system: NonlinearSystem, w_prev: BlockVector,
                 w_prev2: Optional[BlockVector], dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.inner = system
        self.w_prev = w_prev.copy()
        self.w_prev2 = w_prev2.copy() if w_prev2 is not None else None
        self.dt = float(dt)
        self.time_coeff = 1.0 if w_prev2 is None else 1.5

    @property
    def layout(self) -> BlockLayout:
        return self.inner.layout

    def residual(self, w: BlockVector) -> BlockVector:
        return bdf_residual(self.inner, w, self.w_prev, self.w_prev2, self.dt)

    def jacobian_vector(self, w: BlockVector, v: BlockVector) -> BlockVector:
        shift = self.time_coeff / self.dt
        jv = self.inner.jacobian_vector(w, v)
        return jv + cellwise_scale(v, shift * self.inner.mass().cell_measures)

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        blocks = self.inner.first_order_blocks(w)
        shift = (self.time_coeff / self.dt) * self.inner.mass().cell_measures
        b = self.layout.block_size
        diag = blocks.diag + shift[:, None, None] * np.eye(b)
        return FirstOrderBlocks(blocks.layout, diag, blocks.edges,
                                blocks.off_ij, blocks.off_ji)

    def mass(self) -> MassMatrix:
        return self.inner.mass()

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        return self.inner.explicit_dt(w)

    def initial_state(self) -> BlockVector:
        return self.w_prev.copy()

    def is_admissible(self, w: BlockVector) -> bool:
        return self.inner.is_admissible(w)

    def functional(self, w: BlockVector) -> float:
        return self.inner.functional(w)


@dataclass
class UnsteadyConfig:
    dt: float
    n_steps: int
    inner: PtcConfig

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")


@dataclass
class TimeHistory:
    reports: List[SolveReport]
    functionals: List[float]
    aborted: bool = False

    @property
    def n_steps_completed(self) -> int:
        return len(self.reports)

    @property
    def final_state(self) -> Optional[BlockVector]:
        return self.reports[-1].final_state if self.reports else None


def advance_unsteady(system: NonlinearSystem, config: UnsteadyConfig) -> TimeHistory:
    """March physical time steps, BDF1 on the first step and BDF2 after.

    The initial condition of each step is the previous step's solution; the
    first step starts from the system's impulsive initial state. An inner
    solve that does not converge aborts the run, returning the partial
    history; its report's outcome says why.
    """
    w_prev = system.initial_state()
    w_prev2: Optional[BlockVector] = None
    reports: List[SolveReport] = []
    functionals: List[float] = []

    for _ in range(config.n_steps):
        wrapped = BdfStepSystem(system, w_prev, w_prev2, config.dt)
        report = solve_steady(wrapped, config.inner)
        reports.append(report)
        functionals.append(system.functional(report.final_state))
        if report.outcome != SolveOutcome.CONVERGED:
            return TimeHistory(reports, functionals, aborted=True)
        w_prev2 = w_prev
        w_prev = report.final_state

    return TimeHistory(reports, functionals)
