"""Two-parameter Bernstein operators on [0,1] and [0,1]^2: exact and
float evaluation, closed-form moments with exact oracles, convergence
bound certification and asymptotic-error traces."""

from .pq_core import (
    PQPair,
    pq_integer,
    pq_factorial,
    pq_binomial,
    pq_binomial_expansion_check,
)
from .univariate import (
    uni_apply,
    uni_moment_closed,
    uni_central_moment,
    central_moment4_display,
    node,
    nodes,
    basis_row,
    basis_row_exact,
)
from .bivariate import (
    BiParams,
    ParamSchedule,
    SCHEDULES,
    bi_apply,
    bi_apply_exact,
    bi_apply_grid,
    bi_moment_closed,
    bi_central_moment2,
    korovkin_experiment,
)
from .functions import CORPUS, LipschitzSpec, TargetFunction2D, resolve_function
from .convergence import (
    BoundCertificate,
    HypothesisError,
    ModulusTable,
    certify_bound,
    certification_sweep,
    delta_n,
    delta_m,
    delta_nm,
    verify_lipschitz,
)
from .voronovskaja import (
    AsymptoticTrace,
    central_moment_brute,
    richardson_extrapolate,
    scaled_central_moment_limit_check,
    voronovskaja_trace,
)
from .expressions import ParseError, EvalDomainError, parse_expr

__version__ = "0.1.0"
