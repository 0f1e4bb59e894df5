"""Gamma by quadrature, log-convex Mellin-type integrals, the Fibonacci real
extension, curvature, and multiplier verification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexity import (EVALUATION_ERRORS, ConvexityReport, build_report, count_sign_changes,
                        q_determinant, stencil)
from .errors import DomainError, NonPositiveError, ToleranceNotMet
from .funcore import Grid, RealFunction, fd_derivative

# --------------------------------------------------------------------------
# Adaptive Simpson quadrature with Richardson halving error control
# --------------------------------------------------------------------------

PANEL_BUDGET = 2 ** 20
_MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels: int


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int):
        self.left -= n
        if self.left < 0:
            raise ToleranceNotMet(f"panel budget of {PANEL_BUDGET} exhausted")


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float,
                      budget: _Budget) -> tuple[float, float, int]:
    """Integrate fn over [a, b]; returns (value, error estimate, panels)."""
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    budget.spend(1)
    s = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _refine(fn, a, b, fa, fm, fb, s, tol, budget, 0)


def _refine(fn, a, b, fa, fm, fb, s, tol, budget, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    budget.spend(2)
    sl = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    sr = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    ds = (sl + sr) - s
    if abs(ds) <= 15.0 * tol or depth >= _MAX_DEPTH:
        return sl + sr + ds / 15.0, abs(ds) / 15.0, 2
    vl, el, pl = _refine(fn, a, m, fa, flm, fm, sl, 0.5 * tol, budget, depth + 1)
    vr, er, pr = _refine(fn, m, b, fm, frm, fb, sr, 0.5 * tol, budget, depth + 1)
    return vl + vr, el + er, pl + pr


def mellin_integral(phi: Callable[[float], float], a: float, b: float, x: float,
                    tol: float) -> QuadratureResult:
    """integral over (a, b) of phi(t) * t^(x-1) dt by adaptive Simpson.

    The improper upper end is mapped by t = u/(1-u); the integrable endpoint
    singularity at t=0 for x < 1 is removed by t = s^(1/x), which turns
    t^(x-1) dt into ds/x.
    """
    if not (a >= 0.0 and a < b):
        raise ValueError(f"need 0 <= a < b, got a={a!r}, b={b!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    budget = _Budget(PANEL_BUDGET)
    # finite head piece ends where the u-mapped tail takes over
    cut = max(a, 1.0) if math.isinf(b) else b
    pieces = []

    if a < cut:
        if a == 0.0 and x < 1.0:
            inv_x = 1.0 / x

            def head(s, phi=phi, inv_x=inv_x):
                if s <= 0.0:
                    t = 0.0
                else:
                    t = s ** inv_x
                return phi(t)

            v, e, p = _adaptive_simpson(head, 0.0, cut ** x, 0.5 * tol * x, budget)
            pieces.append((v * inv_x, e * inv_x, p))
        else:
            def body(t, phi=phi, x=x):
                if t <= 0.0:
                    return phi(0.0) if x == 1.0 else 0.0
                return phi(t) * math.exp((x - 1.0) * math.log(t))

            v, e, p = _adaptive_simpson(body, a, cut, 0.5 * tol, budget)
            pieces.append((v, e, p))

    if math.isinf(b):
        lo = cut / (1.0 + cut)

        def tail(u, phi=phi, x=x):
            if u >= 1.0:
                return 0.0
            t = u / (1.0 - u)
            if t <= 0.0:
                return 0.0
            w = (x - 1.0) * math.log(t)
            return phi(t) * math.exp(w) / ((1.0 - u) * (1.0 - u))

        v, e, p = _adaptive_simpson(tail, lo, 1.0, 0.5 * tol, budget)
        pieces.append((v, e, p))

    value = sum(v for v, _, _ in pieces)
    err = sum(e for _, e, _ in pieces)
    panels = sum(p for _, _, p in pieces)
    return QuadratureResult(value=float(value), abs_error_estimate=float(err), panels=panels)


def gamma_quadrature(x: float, tol: float = 1e-9) -> QuadratureResult:
    """Gamma(x) as the integral over (0, inf) of e^(-t) t^(x-1) dt, x > 0."""
    if not (x > 0.0):
        raise DomainError(f"gamma integral needs x > 0, got {x!r}")
    try:
        return mellin_integral(lambda t: math.exp(-t), 0.0, math.inf, x, tol)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(f"gamma quadrature at x={x!r}: {exc}") from exc


def riemann_sum_fn(f2: Callable[[float, float], float], a: float, b: float,
                   n: int, x: float) -> float:
    """Left-endpoint Riemann sum h * sum_{k<n} f2(a + k h, x) with h = (b-a)/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    h = (b - a) / n
    total = 0.0
    for k in range(n):
        total += f2(a + k * h, x)
    return h * total


def mellin_logconvex_probe(phi: RealFunction | Callable[[float], float], a: float, b: float,
                           xs, tol: float = 1e-9) -> ConvexityReport:
    """Probe log-convexity of I(x) = integral phi(t) t^(x-1) dt at the given xs.

    I is computed by the same quadrature machinery at each required point and
    (log I)'' / q(I) are estimated by central differences of the sampled I.
    """
    phi_fn = phi.fn if isinstance(phi, RealFunction) else phi
    xs = [float(t) for t in xs]
    if sorted(xs) != xs:
        raise ValueError("xs must be increasing")
    cache: dict[float, float] = {}

    def integral(x: float) -> float:
        if x not in cache:
            try:
                cache[x] = mellin_integral(phi_fn, a, b, x, tol).value
            except ToleranceNotMet as exc:
                raise ToleranceNotMet(f"mellin integral at x={x!r}: {exc}") from exc
        return cache[x]

    q_vals: list[float | None] = []
    d2_vals: list[float | None] = []
    for x in xs:
        h = 0.01 * max(1.0, abs(x))
        try:
            fv = integral(x)
            if fv <= 0.0:
                raise NonPositiveError(f"integral is not positive at x={x!r}")
            fp, fm = integral(x + h), integral(x - h)
            q, d2 = stencil(fm, fv, fp, h)
            if d2 is None:
                raise NonPositiveError(f"integral is not positive around x={x!r}")
        except ToleranceNotMet:
            raise
        except EVALUATION_ERRORS:
            q, d2 = None, None
        q_vals.append(q)
        d2_vals.append(d2)
    return build_report(xs, q_vals, d2_vals)


# --------------------------------------------------------------------------
# Fibonacci real extension (Binet form, seeds F_0 = 0, F_1 = 1)
# --------------------------------------------------------------------------

SQRT5 = math.sqrt(5.0)
GOLDEN_RATIO = (1.0 + SQRT5) / 2.0
_LN_PHI = math.log(GOLDEN_RATIO)


def fib_binet(n: int) -> float:
    """Raw Binet value (phi^n - (-1)^n phi^-n) / sqrt(5), any integer n."""
    p = GOLDEN_RATIO ** n
    return (p - (-1.0) ** n / p) / SQRT5


def fib_closed(n: int) -> float:
    """Binet value, snapped to the nearest integer when within 1e-9 (n >= 0)."""
    raw = fib_binet(n)
    if n >= 0:
        nearest = round(raw)
        if abs(raw - nearest) <= 1e-9:
            return float(nearest)
    return raw


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


def fib_sinh_cosh(n: int) -> float:
    """Integer values of fib_real in hyperbolic form.

    (2/sqrt(5)) sinh(n ln phi) for even n, (2/sqrt(5)) cosh(n ln phi) for odd n.
    """
    w = n * _LN_PHI
    return (2.0 / SQRT5) * (math.sinh(w) if n % 2 == 0 else math.cosh(w))


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
