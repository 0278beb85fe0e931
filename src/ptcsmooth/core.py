"""Shared solver contracts: block-structured vectors, the nonlinear-system
interface, and per-step convergence diagnostics.

Everything downstream (linear kernels, smoother, continuation driver) talks
to problems exclusively through :class:`NonlinearSystem`, so new problems only
need to implement that interface.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class ContractViolationError(ValueError):
    """A vector carries non-finite entries or layouts disagree."""


class InadmissibleStateError(ValueError):
    """The state left the problem's admissible set (e.g. negative density)."""


@dataclass(frozen=True)
class BlockLayout:
    """Uniform block structure: ``n_cells`` cells with ``block_size`` equations each."""

    n_cells: int
    block_size: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")

    @property
    def n_dofs(self) -> int:
        return self.n_cells * self.block_size


class BlockVector:
    """Flat array of ``n_cells * block_size`` reals in cell-major ordering.

    Mutable, single-writer. Arithmetic returns new vectors; ``axpy`` updates
    in place for the solver hot path.
    """

    __slots__ = ("layout", "values")

    def __init__(self, layout: BlockLayout, values=None):
        self.layout = layout
        if values is None:
            self.values = np.zeros(layout.n_dofs)
        else:
            arr = np.asarray(values, dtype=float)
            if arr.shape != (layout.n_dofs,):
                raise ContractViolationError(
                    f"expected {layout.n_dofs} entries, got shape {arr.shape}"
                )
            self.values = arr

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "BlockVector":
        return cls(layout)

    def copy(self) -> "BlockVector":
        return BlockVector(self.layout, self.values.copy())

    def cells(self) -> np.ndarray:
        """View of the values as an (n_cells, block_size) array."""
        return self.values.reshape(self.layout.n_cells, self.layout.block_size)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def dot(self, other: "BlockVector") -> float:
        return float(np.dot(self.values, other.values))

    def axpy(self, a: float, x: "BlockVector") -> "BlockVector":
        """In-place ``self += a * x``."""
        self.values += a * x.values
        return self

    def __add__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self.layout, self.values + other.values)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        return BlockVector(self.layout, self.values - other.values)

    def __mul__(self, a: float) -> "BlockVector":
        return BlockVector(self.layout, self.values * a)

    __rmul__ = __mul__

    def __neg__(self) -> "BlockVector":
        return BlockVector(self.layout, -self.values)

    def __repr__(self):
        return f"BlockVector(n_cells={self.layout.n_cells}, b={self.layout.block_size})"


def cellwise_scale(v: BlockVector, coeffs: np.ndarray) -> BlockVector:
    """Scale all block entries of cell i by ``coeffs[i]``."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (v.layout.n_cells,):
        raise ContractViolationError("per-cell coefficient array has wrong length")
    return BlockVector(v.layout, v.values * np.repeat(coeffs, v.layout.block_size))


def l2_norm(v: BlockVector) -> float:
    """Euclidean norm of a block vector; rejects non-finite entries."""
    if not v.is_finite():
        raise ContractViolationError("vector contains NaN or Inf entries")
    return float(np.linalg.norm(v.values))


@dataclass(frozen=True)
class MassMatrix:
    """Diagonal mass matrix: cell measure times the identity block."""

    layout: BlockLayout
    cell_measures: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.cell_measures, dtype=float)
        if m.shape != (self.layout.n_cells,):
            raise ContractViolationError("one measure per cell required")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("cell measures must be positive and finite")
        object.__setattr__(self, "cell_measures", m)

    def apply(self, v: BlockVector) -> BlockVector:
        return cellwise_scale(v, self.cell_measures)

    def over_dtau(self, dtau: np.ndarray) -> np.ndarray:
        """Per-cell coefficients of M / dtau."""
        dtau = np.asarray(dtau, dtype=float)
        if np.any(dtau <= 0.0):
            raise ValueError("pseudo-time steps must be positive")
        return self.cell_measures / dtau


@dataclass
class FirstOrderBlocks:
    """Nearest-neighbor Jacobian blocks of the first-order discretization.

    ``edges[k] = (i, j)`` with ``i < j``; ``off_ij[k]`` couples residual i to
    state j, ``off_ji[k]`` the reverse.
    """

    layout: BlockLayout
    diag: np.ndarray      # (n_cells, b, b)
    edges: np.ndarray     # (n_edges, 2) int, i < j
    off_ij: np.ndarray    # (n_edges, b, b)
    off_ji: np.ndarray    # (n_edges, b, b)


class NonlinearSystem(ABC):
    """Contract a problem must satisfy to be driven by the solvers.

    ``jacobian_vector`` must be the exact linearization of ``residual`` (the
    descent guarantee of the continuation line search depends on it), while
    ``first_order_blocks`` may be an approximation with nearest-neighbor
    sparsity, used only for preconditioning.
    """

    @property
    @abstractmethod
    def layout(self) -> BlockLayout: ...

    @abstractmethod
    def residual(self, w: BlockVector) -> BlockVector: ...

    @abstractmethod
    def jacobian_vector(self, w: BlockVector, v: BlockVector) -> BlockVector: ...

    @abstractmethod
    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks: ...

    @abstractmethod
    def mass(self) -> MassMatrix: ...

    @abstractmethod
    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        """Per-cell explicit pseudo-time step estimate (positive)."""

    @abstractmethod
    def initial_state(self) -> BlockVector:
        """Impulsive / uniform starting state for the continuation solver."""

    def is_admissible(self, w: BlockVector) -> bool:
        return w.is_finite()

    def functional(self, w: BlockVector) -> float:
        """Integrated diagnostic quantity; volume-weighted mean of the first
        equation component by default."""
        measures = self.mass().cell_measures
        first = w.cells()[:, 0]
        return float(np.sum(measures * first) / np.sum(measures))


@dataclass
class ConvergenceRecord:
    """One Newton-step row of the convergence history (rejections included)."""

    step: int
    cfl: float
    alpha: float
    krylov_count: int
    linear_reduction: float
    residual_l2: float
    ptc_residual_l2: float
    cumulative_krylov: int
    accepted: bool


def validate_jacobian(system: NonlinearSystem, w: BlockVector,
                      n_probes: int = 5, seed: int = 0) -> float:
    """Compare jacobian_vector against central differences of the residual.

    Probes ``n_probes`` random unit directions with step
    ``eps = sqrt(machine eps) * (1 + ||w||)`` and returns the maximum relative
    discrepancy. Probes whose perturbed residual evaluation fails are skipped
    with a warning.
    """
    rng = np.random.default_rng(seed)
    eps = np.sqrt(np.finfo(float).eps) * (1.0 + l2_norm(w))
    worst = 0.0
    n_ok = 0
    for k in range(n_probes):
        direction = rng.standard_normal(w.layout.n_dofs)
        direction /= np.linalg.norm(direction)
        v = BlockVector(w.layout, direction)
        try:
            r_plus = system.residual(w + eps * v)
            r_minus = system.residual(w + (-eps) * v)
        except (InadmissibleStateError, ContractViolationError) as exc:
            warnings.warn(f"jacobian probe {k} skipped: {exc}")
            continue
        fd = (r_plus.values - r_minus.values) / (2.0 * eps)
        jv = system.jacobian_vector(w, v).values
        scale = max(np.linalg.norm(jv), np.linalg.norm(fd), 1e-300)
        worst = max(worst, float(np.linalg.norm(jv - fd) / scale))
        n_ok += 1
    if n_ok == 0:
        raise ContractViolationError("all jacobian probes failed to evaluate")
    return worst
