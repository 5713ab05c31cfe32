"""Piecewise-linear minimum-norm solution maps of the sGMC/LASSO sparse
least-squares model, traced by an extended least angle regression."""

__version__ = "0.1.0"

from .model import (
    ProblemInstance,
    indicator_from_string,
    indicator_to_string,
    split_extended,
    zero_indicator,
)
from .optimality import (
    check_opt,
    correlation,
    encode_sopt,
    eqnq_membership,
    l1_bound_holds,
    summarize,
)
from .candidate import (
    candidate_slope,
    strictly_inside,
    zone_membership,
)
from .sweep import (
    ParameterLine,
    restrict_to_line,
    zone_exit_times,
)
from .elars import (
    EnumerationConfig,
    InitializationError,
    PathSegment,
    PathSweepResult,
    ZoneGraph,
    elars_iterate,
    enumerate_zones,
    evaluate_path,
    initialize_indicator,
    path_sweep,
)
from .oracle import (
    InfeasibleSystemError,
    LassoConfig,
    NonConvergenceError,
    OracleConfig,
    brute_force_indicators,
    lasso_reference,
    min_norm_over_eqnq,
    solve_saddle,
)
