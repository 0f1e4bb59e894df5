"""Gamma by quadrature, log-convex Mellin-type integrals, the Fibonacci real
extension, curvature, and multiplier verification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexity import (EVALUATION_ERRORS, ConvexityReport, build_report, count_sign_changes,
                        q_determinant, stencil)
from .errors import DomainError, NonFiniteError, NonPositiveError, ToleranceNotMet
from .funcore import EPS, Grid, RealFunction, fd_derivative

# --------------------------------------------------------------------------
# Double-exponential quadrature of Mellin-type integrals
# --------------------------------------------------------------------------

#: The finest step in u is 2^-MAX_LEVEL.
MAX_LEVEL = 8
#: Levels stop where the estimate is within ROUNDING * eps * h * sum |terms|.
ROUNDING = 16.0
#: No node lies farther out than |u| = U_MAX.
U_MAX = 9
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels: int


def _de_nodes(u: np.ndarray, a: float, b: float):
    """t, log t and log dt/du at the nodes u of the double-exponential map onto (a, b)."""
    s = 0.5 * math.pi * np.sinh(u)
    log_ds = np.log(0.5 * math.pi * np.cosh(u))
    if math.isinf(b):
        with np.errstate(over="ignore"):
            t = a + np.exp(s)
        return t, (s if a == 0.0 else np.log(t)), s + log_ds
    # tanh-sinh: t - a (s < 0) and b - t (s >= 0) are both (b-a) e/(1+e), e = exp(-2|s|)
    e = np.exp(-2.0 * np.abs(s))
    log1p_e = np.log1p(e)
    d = (b - a) * e / (1.0 + e)
    t = np.where(s < 0.0, a + d, b - d)
    log_t = math.log(b - a) + np.minimum(2.0 * s, 0.0) - log1p_e if a == 0.0 else np.log(t)
    return t, log_t, math.log(2.0 * (b - a)) + log_ds - 2.0 * np.abs(s) - 2.0 * log1p_e


def _mellin_values(phi, a: float, b: float, xs, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrals over (a, b) of phi(t) t^(x-1) dt at every x of xs, to absolute tol.

    Returns the values, their error estimates and the number of evaluations of
    phi, which every x shares. See ``mellin_integral`` for the rule.
    """
    if not (a >= 0.0 and a < b):
        raise ValueError(f"need 0 <= a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    xs = np.asarray(xs, dtype=float)
    f = RealFunction(fn=phi.fn if isinstance(phi, RealFunction) else phi)
    evals = 0

    def terms(u: np.ndarray) -> np.ndarray:
        """phi(t) t^(x-1) dt/du, one row per x."""
        nonlocal evals
        t, log_t, log_jac = _de_nodes(u, a, b)
        w = (xs[:, None] - 1.0) * log_t + log_jac
        ok = np.isfinite(t) & (w < _LOG_MAX).all(axis=0)
        if not ok.all():
            raise NonFiniteError(f"t^(x-1) dt/du leaves float range at u={float(u[~ok][0])!r}")
        evals += u.size
        with np.errstate(all="ignore"):
            return f.values(t) * np.exp(w)

    def unmet(cond, err, why: str) -> ToleranceNotMet:
        i = int(np.argmax(cond))
        return ToleranceNotMet(f"mellin integral at x={float(xs[i])!r}: {why} ({err[i]:.3e}, tol {tol!r})")

    # level 0, step 1: start from u = -3..2 (t < 300 on (0, inf)) and grow each
    # end until its term is below eps times the peak
    cols = dict(zip(range(-3, 3), terms(np.arange(-3.0, 3.0)).T))
    trunc = np.zeros(xs.size)
    for side, end in ((-1, -3), (1, 2)):
        while (np.abs(cols[end]) > EPS * np.max(np.abs(list(cols.values())), axis=0)).any():
            try:
                col = terms(np.array([end + side], dtype=float))[:, 0] if abs(end + side) <= U_MAX else None
            except EVALUATION_ERRORS:
                col = None
            if col is None:  # the term at the last node in range bounds what lies beyond
                trunc += np.abs(cols[end])
                break
            end += side
            cols[end] = col
    if (trunc > tol).any():
        raise unmet(trunc > tol, trunc, "the integrand has not decayed where the nodes end")
    us = sorted(cols)
    terms0 = np.array([cols[u] for u in us]).T
    # keep one negligible node beyond the others at either end
    keep = np.flatnonzero((np.abs(terms0) >= EPS * np.abs(terms0).max(axis=1, keepdims=True)).any(axis=0))
    i, j = max(keep[0] - 1, 0), min(keep[-1] + 1, len(us) - 1)
    lo, hi = us[i], us[j]
    total = terms0[:, i:j + 1].sum(axis=1)
    abs_total = np.abs(terms0[:, i:j + 1]).sum(axis=1)
    h, prev = 1.0, total.copy()
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        new = terms(np.arange(lo + h, hi, 2.0 * h))
        total += new.sum(axis=1)
        abs_total += np.abs(new).sum(axis=1)
        values = h * total
        est = np.abs(values - prev) + trunc
        if (est <= tol).all():
            return values, est, evals
        stuck = (est > tol) & (est <= ROUNDING * EPS * h * abs_total)
        if stuck.any():
            raise unmet(stuck, est, "the error estimate is at the rounding floor")
        prev = values
    raise unmet(est > tol, est, f"the error estimate is above tol at step 2^-{MAX_LEVEL}")


def mellin_integral(phi: Callable[[float], float], a: float, b: float, x: float,
                    tol: float) -> QuadratureResult:
    """integral over (a, b) of phi(t) * t^(x-1) dt by a double-exponential rule.

    u runs over the real line, with s = pi/2 sinh(u): (a, inf) is mapped by
    t = a + e^s and a finite (a, b) by tanh-sinh, t = (a+b)/2 + (b-a)/2 tanh(s).
    The power t^(x-1) dt/du is formed in log space, so the x < 1 singularity
    at t = 0 needs no special case. The step h halves from 1 to 2^-MAX_LEVEL,
    each level adding only the odd nodes; the error estimate is
    |S_h - S_2h|. ToleranceNotMet is raised when the integrand has not
    decayed where the nodes leave float range, when the estimate reaches the
    rounding floor above ``tol``, and when the levels run out. ``panels``
    counts evaluations of phi.
    """
    values, errors, evals = _mellin_values(phi, a, b, [x], tol)
    return QuadratureResult(value=float(values[0]), abs_error_estimate=float(errors[0]), panels=evals)


def gamma_quadrature(x: float, tol: float = 1e-9) -> QuadratureResult:
    """Gamma(x) as the integral over (0, inf) of e^(-t) t^(x-1) dt, x > 0."""
    if not (x > 0.0):
        raise DomainError(f"gamma integral needs x > 0, got {x!r}")
    return mellin_integral(lambda t: np.exp(-t), 0.0, math.inf, x, tol)


def mellin_logconvex_probe(phi: RealFunction | Callable[[float], float], a: float, b: float,
                           xs, tol: float = 1e-9) -> ConvexityReport:
    """Probe log-convexity of I(x) = integral phi(t) t^(x-1) dt at the given xs.

    I is computed at every x and x +- h by one quadrature run, whose nodes all
    points share, and (log I)'' / q(I) are estimated by central differences.
    """
    xs = [float(t) for t in xs]
    if sorted(xs) != xs:
        raise ValueError("xs must be increasing")
    hs = [0.01 * max(1.0, abs(x)) for x in xs]
    try:
        values = _mellin_values(phi, a, b, [p for x, h in zip(xs, hs) for p in (x - h, x, x + h)],
                                tol)[0].tolist()
    except ToleranceNotMet:
        raise
    except EVALUATION_ERRORS:
        # no value anywhere: every stencil below fails
        values = [math.nan] * (3 * len(xs))
    stencils = [stencil(*values[3 * i:3 * i + 3], h) for i, h in enumerate(hs)]
    # without (log I)'' a value of the stencil is not positive, and q is not reported either
    return build_report(xs, [None if d2 is None else q for q, d2 in stencils], [d2 for _, d2 in stencils])


# --------------------------------------------------------------------------
# Fibonacci real extension (Binet form, seeds F_0 = 0, F_1 = 1)
# --------------------------------------------------------------------------

SQRT5 = math.sqrt(5.0)
GOLDEN_RATIO = (1.0 + SQRT5) / 2.0
_LN_PHI = math.log(GOLDEN_RATIO)


def fib_real(x):
    """Real part of the Binet extension: (phi^x - cos(pi x) phi^-x) / sqrt(5).

    ``x`` may be a float or an array, as for the two derivatives below.
    """
    p = np.power(GOLDEN_RATIO, x)
    return (p - np.cos(np.pi * x) / p) / SQRT5


def fib_real_d1(x):
    p = np.power(GOLDEN_RATIO, x)
    return (_LN_PHI * p + (np.pi * np.sin(np.pi * x) + _LN_PHI * np.cos(np.pi * x)) / p) / SQRT5


def fib_real_d2(x):
    p = np.power(GOLDEN_RATIO, x)
    osc = (_LN_PHI ** 2 - np.pi ** 2) * np.cos(np.pi * x) + 2.0 * np.pi * _LN_PHI * np.sin(np.pi * x)
    return (_LN_PHI ** 2 * p - osc / p) / SQRT5


def fib_real_fn() -> RealFunction:
    """fib_real as a RealFunction with exact first and second derivatives."""
    return RealFunction(fn=fib_real, d1=fib_real_d1, d2=fib_real_d2, name="fib")


def fib_d2_signchanges(a: float, b: float, grid_n: int) -> np.ndarray:
    """Sign-change locations of fib_real'' sampled on a uniform grid of [a, b]."""
    if grid_n < 100:
        raise ValueError("grid_n must be >= 100")
    xs = np.linspace(a, b, grid_n)
    ys = fib_real_d2(xs)
    return count_sign_changes(Grid(a=a, b=b, n=grid_n, xs=xs, ys=ys))


# --------------------------------------------------------------------------
# Curvature and multiplier checks
# --------------------------------------------------------------------------

def curvature(g, f: RealFunction, x: float) -> float:
    """Curvature of a solution of f(x+1) = g(x) f(x) expressed through g and f:

        (g'' f + 2 g' f' + g f'') / (1 + (g' f + g f')^2)^(3/2)

    evaluated at x. ``g`` is a representer (exact derivatives), ``f`` any
    RealFunction (finite differences when derivatives are absent).
    """
    gv, g1, g2 = g(x), g.d1(x), g.d2(x)
    fv = f(x)
    f1 = f.derivative(x, 1)
    f2 = f.derivative(x, 2)
    num = g2 * fv + 2.0 * g1 * f1 + gv * f2
    den = (1.0 + (g1 * fv + gv * f1) ** 2) ** 1.5
    return num / den


@dataclass(frozen=True)
class MultiplierCheck:
    holds: bool
    witness: float | None


#: Grid-based verdict tolerance for the multiplier checks.
MULTIPLIER_TOL = 1e-7


def _interior_grid(a: float, b: float, grid_n: int) -> np.ndarray:
    return a + (b - a) * (np.arange(grid_n) + 0.5) / grid_n


def check_inner_multiplicator(f: RealFunction, m: RealFunction, a: float, b: float,
                              grid_n: int = 512) -> MultiplierCheck:
    """Does m make m*f log-convex on (a, b)? Verifies q(m f) >= -1e-7 on a grid."""
    product = m * f
    for x in _interior_grid(a, b, grid_n):
        x = float(x)
        if product(x) <= 0.0:
            raise NonPositiveError(f"(m*f)({x!r}) <= 0")
        if q_determinant(product, x) < -MULTIPLIER_TOL:
            return MultiplierCheck(holds=False, witness=x)
    return MultiplierCheck(holds=True, witness=None)


def check_outer_multiplier(f: RealFunction, m: RealFunction, a: float, b: float,
                           grid_n: int = 512) -> MultiplierCheck:
    """Does m make m*log(f) convex on (a, b)?

    Verifies the central second difference of x -> m(x) log f(x) stays above
    -1e-7 on a grid.
    """
    def s(x: float) -> float:
        fv = f(x)
        if fv <= 0.0:
            raise NonPositiveError(f"f({x!r}) <= 0")
        return m(x) * math.log(fv)

    composite = RealFunction(fn=s, domain=(max(f.domain[0], m.domain[0]),
                                           min(f.domain[1], m.domain[1])))
    for x in _interior_grid(a, b, grid_n):
        x = float(x)
        if fd_derivative(composite, x, 2) < -MULTIPLIER_TOL:
            return MultiplierCheck(holds=False, witness=x)
    return MultiplierCheck(holds=True, witness=None)
