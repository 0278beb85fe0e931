"""Pseudo-transient continuation Newton-Krylov solver with residual smoothing."""

from .core import (BlockLayout, BlockVector, ContractViolationError,
                   ConvergenceRecord, FirstOrderBlocks,
                   InadmissibleStateError, MassMatrix, NonlinearSystem,
                   cellwise_scale, l2_norm, validate_jacobian)
from .linalg import (BlockTridiagFactorization, GmresStats, LinearOperator,
                     SingularPivotError, factor_block_tridiag,
                     gmres_right_preconditioned, identity_operator)
from .lines import (CouplingGraph, LineBlocks, LineSet, assemble_line_blocks,
                    build_coupling_graph, extract_lines, singleton_lines)
from .ptc import (PtcConfig, SolveOutcome, SolveReport, cfl_update,
                  line_search, local_pseudo_timesteps, newton_step,
                  ptc_operator, solve_steady)
from .smoother import (RkSchedule, SmootherContext, SmoothResult,
                       build_smoother, rk_smooth, smoothing_source)
from .timestepping import (BdfStepSystem, TimeHistory, UnsteadyConfig,
                           advance_unsteady, bdf_residual)

__version__ = "0.1.0"
