"""Implicit time integration: BDF2 (BDF1 startup) over inner continuation solves.

Each physical step wraps the spatial system into an unsteady residual
``M * d_t w + R(w)`` and runs the steady continuation driver on it. A run is
one continuation: its lines are extracted once and every step starts at the
CFL the last one reached. Physical dt is global; pseudo-time steps stay local
inside the inner solve. A step's system holds the previous states, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .core import (BlockVector, ContractViolationError, FirstOrderBlocks,
                   NonlinearSystem, require_count, require_real)
from .lines import extract_lines
from .ptc import PtcConfig, SolveOutcome, SolveReport, solve_steady


def _bdf_shift(c: float, dt: float) -> float:
    """c/dt, the BDF shift of a step of ``dt``; a ``dt`` that is not
    positive and finite, or whose shift overflows, raises ``ValueError``."""
    require_real("dt", dt)
    if not 0.0 < dt < np.inf:   # NaN included
        raise ValueError("dt must be positive and finite")
    if (shift := c / float(dt)) == np.inf:
        raise ValueError(f"dt = {dt} is too small: {c}/dt overflows")
    return shift


class BdfStepSystem(NonlinearSystem):
    """One implicit time step posed as a steady nonlinear system.

    Exposes the unsteady residual, its exact Jacobian-vector product
    (inner J plus c*M/dt on the diagonal, c = 3/2 for BDF2 and 1 for BDF1),
    and first-order blocks with the same diagonal shift. The previous step's
    solution is the initial state. M is formed once, per unknown, and the
    shift is ``shift_coeff`` = c/dt times it. The history states are held,
    not copied: callers must not edit them while the system is in use. A
    history state of another layout raises ``ContractViolationError``.
    """

    def __init__(self, system: NonlinearSystem, w_prev: BlockVector,
                 w_prev2: Optional[BlockVector], dt: float):
        self.shift_coeff = _bdf_shift(1.0 if w_prev2 is None else 1.5, dt)
        for name, state in (("w_prev", w_prev), ("w_prev2", w_prev2)):
            if state is not None and state.layout != system.layout:
                raise ContractViolationError(
                    f"{name} has layout {state.layout}, not {system.layout}")
        self.inner = system
        self.layout = system.layout
        self.edges = system.edges
        self.cell_measures = system.cell_measures
        self.w_prev, self.w_prev2 = w_prev, w_prev2
        self.dt = float(dt)
        self.mass = np.repeat(system.cell_measures, system.layout.block_size)

    def residual(self, w: BlockVector) -> np.ndarray:
        """Unsteady residual: BDF2 when two history levels exist, else BDF1."""
        if self.w_prev2 is None:
            dwdt = (w.values - self.w_prev.values) / self.dt
        else:
            dwdt = ((3.0 * w.values - 4.0 * self.w_prev.values
                     + self.w_prev2.values) / (2.0 * self.dt))
        return self.mass * dwdt + self.inner.residual(w)

    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray:
        return (self.inner.jacobian_vector(w, v)
                + self.shift_coeff * self.mass * v)

    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks:
        return self.inner.first_order_blocks(w).shifted(
            self.shift_coeff * self.mass[::self.layout.block_size])

    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        return self.inner.explicit_dt(w)

    def initial_state(self) -> BlockVector:
        return self.w_prev.copy()

    def functional(self, w: BlockVector) -> float:
        return self.inner.functional(w)


@dataclass
class UnsteadyConfig:
    dt: float
    n_steps: int
    inner: PtcConfig

    def __post_init__(self):
        require_count("n_steps", self.n_steps, 1)
        _bdf_shift(1.5 if self.n_steps > 1 else 1.0, self.dt)
        if not isinstance(self.inner, PtcConfig):
            raise ValueError(f"inner must be a PtcConfig, got {self.inner!r}")


@dataclass
class TimeHistory:
    reports: List[SolveReport]
    functionals: List[float]
    aborted: bool = False


def advance_unsteady(system: NonlinearSystem, config: UnsteadyConfig) -> TimeHistory:
    """March physical time steps, BDF1 on the first step and BDF2 after.

    The initial condition of each step is the previous step's solution; the
    first step starts from the system's impulsive initial state. The run is one
    continuation: every inner solve runs on the lines extracted once at that
    state (the BDF shift moves only the diagonal blocks, which extraction does
    not weigh), and each step after a converged one starts at the CFL the last
    one handed over, its report's ``final_cfl``. An inner solve that does not
    converge aborts the run, returning the partial history; its report's
    outcome says why. A start whose couplings are not finite raises
    ``InadmissibleStateError``, as ``solve_steady`` does, before any step.
    """
    w_prev = system.initial_state()
    w_prev2: Optional[BlockVector] = None
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = system.first_order_blocks(w_prev)
    lines = extract_lines(blocks, system.edges)
    inner = config.inner
    reports: List[SolveReport] = []
    functionals: List[float] = []

    for _ in range(config.n_steps):
        wrapped = BdfStepSystem(system, w_prev, w_prev2, config.dt)
        report = solve_steady(wrapped, inner, lines=lines)
        reports.append(report)
        functionals.append(system.functional(report.final_state))
        if report.outcome != SolveOutcome.CONVERGED:
            return TimeHistory(reports, functionals, aborted=True)
        inner = replace(inner, cfl_init=report.final_cfl)
        w_prev2 = w_prev
        w_prev = report.final_state

    return TimeHistory(reports, functionals)
