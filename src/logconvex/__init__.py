"""Log-convex interpolants of positive sequences governed by f(x+1) = g(x) f(x),
built from the truncated product representation with two-sided truncation
bounds, plus tools that test log-convexity of arbitrary functions by
independent criteria (determinant, second log-derivative, series).

Submodules, and the public names below, are imported on first access (PEP 562),
so a command imports only the modules it runs.
"""

import sys

_EXPORTS = {
    "bohrmollerup": ("InterpolationTarget", "ProductState", "evaluate", "extend", "extended_state",
                     "interpolation_targets", "logconvexity_series", "partial_product", "reduce_to_base",
                     "sandwich_bounds"),
    "convexity": ("ConvexityReport", "WeakConvexityResult", "count_sign_changes", "d2_log", "diff_quotient",
                  "iter_diff_quotient", "q_determinant", "scan_convexity", "weak_convexity_test"),
    "errors": ("DegenerateArguments", "DivergenceError", "DomainError", "LogconvexError", "NonFiniteError",
               "NonPositiveError", "ParseError", "PoleError", "SeriesDivergence", "ToleranceNotMet",
               "UnboundParameter", "ZeroDerivative", "ZeroValueError"),
    "funcore": ("Grid", "RealFunction", "fd_derivative", "sample_grid"),
    "representer": ("Representer", "artinian_chain", "builtin", "from_spec", "function_from_ast",
                    "function_from_source", "parse_representer"),
    "special": ("GOLDEN_RATIO", "MultiplierCheck", "QuadratureResult", "check_inner_multiplicator",
                "check_outer_multiplier", "curvature", "fib_d2_signchanges", "fib_real", "fib_real_fn",
                "gamma_quadrature", "mellin_integral", "mellin_logconvex_probe"),
}
_SUBMODULES = ("acceptance", "cli", "expr", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _submodule(name: str):
    __import__(f"{__name__}.{name}")  # the import statement's path, which -X importtime reports
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
