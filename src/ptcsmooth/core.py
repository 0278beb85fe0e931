"""Shared solver contracts: block-structured states, the nonlinear-system
interface, and per-step convergence diagnostics.

Everything downstream (linear kernels, smoother, continuation driver) talks
to problems exclusively through :class:`NonlinearSystem`, so new problems only
need to implement that interface.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

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
        require_count("n_cells", self.n_cells, 1)
        require_count("block_size", self.block_size, 1)

    @property
    def n_dofs(self) -> int:
        return self.n_cells * self.block_size


class BlockVector:
    """A state: a flat array of ``n_cells * block_size`` reals in cell-major
    ordering, with its layout.

    Mutable, single-writer. Vectors derived from a state (residuals,
    Jacobian-vector products, updates) are plain arrays.
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

    def copy(self) -> "BlockVector":
        return BlockVector(self.layout, self.values.copy())

    def __repr__(self):
        return f"BlockVector(n_cells={self.layout.n_cells}, b={self.layout.block_size})"


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat array, unchecked: ``sqrt(v . v)``. For a
    contiguous flat float array that is what ``np.linalg.norm`` computes,
    bit for bit, without the cost of its argument handling. Every norm the
    solvers take goes through here."""
    return math.sqrt(v.dot(v))


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat array; rejects non-finite entries."""
    if not np.isfinite(v).all():
        raise ContractViolationError("vector contains NaN or Inf entries")
    return _norm(v)


def _finite_norm(vals: np.ndarray) -> float:
    """Euclidean norm, or +inf, without a warning, for a vector with a
    non-finite entry or an overflowing norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _norm(vals)
    return norm if math.isfinite(norm) else math.inf


def require_finite(**params) -> None:
    """Reject problem parameters (scalars or arrays) holding NaN or Inf."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def require_count(name: str, value, minimum: int) -> None:
    """Reject a count that is not an integer of at least ``minimum``; a
    ``bool`` is ``numbers.Integral`` but not a count."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")


def require_real(name: str, value) -> None:
    """Reject a setting that is not a real number; a ``bool`` is
    ``numbers.Real`` but not a number."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass
class FirstOrderBlocks:
    """Nearest-neighbor Jacobian blocks of the first-order discretization,
    over the stencil ``system.edges`` of the system that made them: for
    ``edges[k] = (i, j)``, ``off_ij[k]`` couples residual i to state j,
    ``off_ji[k]`` the reverse. Blocks may share read-only arrays across
    calls: build new arrays rather than write into them.
    """

    diag: np.ndarray      # (n_cells, b, b)
    off_ij: np.ndarray    # (n_edges, b, b)
    off_ji: np.ndarray    # (n_edges, b, b)

    def shifted(self, per_cell: np.ndarray) -> "FirstOrderBlocks":
        """These blocks with each cell's diagonal block shifted by its entry
        of ``per_cell`` times the identity (a 1x1 block's shift is added as
        is: x * 1.0 is exact); the couplings are shared."""
        b, shift = self.diag.shape[1], per_cell[:, None, None]
        diag = self.diag + (shift if b == 1 else shift * np.eye(b))
        return FirstOrderBlocks(diag, self.off_ij, self.off_ji)


class NonlinearSystem(ABC):
    """Contract a problem must satisfy to be driven by the solvers.

    ``residual(w)`` and ``jacobian_vector(w, v)`` take a state ``w`` and
    return flat ``(n_dofs,)`` arrays; the direction ``v`` is a flat array too.
    ``jacobian_vector`` must be the exact linearization of ``residual`` (the
    continuation line search finds descent along the Newton direction only
    then), while ``first_order_blocks`` may be an approximation over the
    nearest-neighbor stencil ``edges``, set once per system, used only for
    preconditioning. ``cell_measures`` holds the positive, finite measure of
    each cell: the diagonal of the mass matrix M.

    ``residual`` raises ``InadmissibleStateError`` at a state outside the
    problem's admissible set (e.g. negative density); ``trial_residual`` is
    how the solvers ask whether a state is usable. A residual may also
    overflow far from the admissible set: ``trial_residual`` evaluates it
    silently and rejects it, so problems need no floating-point guards.
    """

    layout: BlockLayout
    edges: np.ndarray           # (n_edges, 2) int, i < j
    cell_measures: np.ndarray   # (n_cells,)

    @abstractmethod
    def residual(self, w: BlockVector) -> np.ndarray: ...

    @abstractmethod
    def jacobian_vector(self, w: BlockVector, v: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def first_order_blocks(self, w: BlockVector) -> FirstOrderBlocks: ...

    @abstractmethod
    def explicit_dt(self, w: BlockVector) -> np.ndarray:
        """Per-cell explicit pseudo-time step estimate (positive)."""

    @abstractmethod
    def initial_state(self) -> BlockVector:
        """Impulsive / uniform starting state for the continuation solver."""

    def functional(self, w: BlockVector) -> float:
        """Integrated diagnostic quantity; volume-weighted mean of the first
        equation component by default."""
        first = w.values[::w.layout.block_size]
        return float(np.sum(self.cell_measures * first)
                     / np.sum(self.cell_measures))


def trial_residual(system: NonlinearSystem,
                   w: BlockVector) -> Optional[np.ndarray]:
    """R(w), or None when ``w`` is not a usable state: it has a non-finite
    entry, ``residual`` raises ``InadmissibleStateError`` or
    ``ContractViolationError``, or the Euclidean norm of R(w) is not finite
    (a non-finite entry or an overflowing norm). Overflow is evaluated
    without a warning, and every accepted residual has a finite
    ``l2_norm``."""
    if not np.isfinite(w.values).all():
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = system.residual(w)
            norm = _norm(r)
    except (InadmissibleStateError, ContractViolationError):
        return None
    return r if math.isfinite(norm) else None


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
