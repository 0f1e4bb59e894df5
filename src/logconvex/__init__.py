"""Log-convex interpolants of positive sequences governed by f(x+1) = g(x) f(x),
built from the truncated product representation with two-sided truncation
bounds, plus tools that test log-convexity of arbitrary functions by
independent criteria (determinant, second log-derivative, series)."""

from .bohrmollerup import (
    InterpolationTarget,
    ProductState,
    evaluate,
    extend,
    extended_state,
    interpolation_targets,
    logconvexity_series,
    partial_product,
    reduce_to_base,
    sandwich_bounds,
)
from .convexity import (
    ConvexityReport,
    WeakConvexityResult,
    count_sign_changes,
    d2_log,
    diff_quotient,
    iter_diff_quotient,
    q_determinant,
    scan_convexity,
    weak_convexity_test,
)
from .errors import (
    DegenerateArguments,
    DivergenceError,
    DomainError,
    LogconvexError,
    NonFiniteError,
    NonPositiveError,
    ParseError,
    PoleError,
    SeriesDivergence,
    ToleranceNotMet,
    UnboundParameter,
    ZeroDerivative,
    ZeroValueError,
)
from .funcore import Grid, RealFunction, fd_derivative, sample_grid
from .representer import (
    Representer,
    artinian_chain,
    builtin,
    from_spec,
    function_from_ast,
    function_from_source,
    parse_representer,
)
from .special import (
    GOLDEN_RATIO,
    MultiplierCheck,
    QuadratureResult,
    check_inner_multiplicator,
    check_outer_multiplier,
    curvature,
    fib_d2_signchanges,
    fib_real,
    fib_real_fn,
    gamma_quadrature,
    mellin_integral,
    mellin_logconvex_probe,
)

__version__ = "0.1.0"
