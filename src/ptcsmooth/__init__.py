"""Pseudo-transient continuation Newton-Krylov solver with residual smoothing."""

from .core import (BlockLayout, BlockVector, ContractViolationError,
                   ConvergenceRecord, FirstOrderBlocks,
                   InadmissibleStateError, NonlinearSystem, l2_norm)
from .linalg import (BlockTridiagFactorization, GmresStats,
                     SingularPivotError, factor_block_tridiag,
                     gmres_right_preconditioned)
from .lines import LineSet, extract_lines, singleton_lines
from .ptc import (PtcConfig, SolveOutcome, SolveReport, cfl_update,
                  line_search, mass_over_dtau, newton_step, ptc_operator,
                  solve_steady)
from .smoother import RkSchedule, SmoothResult, build_smoother, rk_smooth
from .timestepping import (BdfStepSystem, TimeHistory, UnsteadyConfig,
                           advance_unsteady)

__version__ = "0.1.0"
