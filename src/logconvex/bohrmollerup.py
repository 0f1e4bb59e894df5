"""Log-convex solutions of f(x+1) = g(x) f(x) via the truncated product

    f(x) = lim_n  g(n)^x * prod_{k} g(k)/g(x+k)      (g(0) := 1)

with two-sided truncation control

    p_{n+1}(x) g(n)^x  <=  f(x)  <=  p_n(x) g(n)^x,   p_n(x) = prod_{k<n} g(k)/g(x+k),

valid on the base interval (0, 1]. Arguments outside (0, 1] are reduced by
iterating the functional equation; the normalization f(1) = 1 anchors integer
arguments exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, NonPositiveError, PoleError, \
    SeriesDivergence, ToleranceNotMet, ZeroValueError
from .funcore import RealFunction
from .representer import Representer

DEFAULT_TOL = 1e-8
DEFAULT_MAX_N = 2 ** 20

#: |g| below this counts as a pole in product denominators.
POLE_TOL = 1e-300

#: Series term budget before ToleranceNotMet (monotone but too-slow decay).
SERIES_BUDGET = 2 ** 24


@dataclass(frozen=True)
class ProductState:
    """Truncation diagnostics for one evaluation of the product representation.

    ``n`` is the final truncation index, ``p_n`` the partial product at the
    reduced base argument, ``lower``/``upper`` the sandwich bounds, ``value``
    the geometric mean of the bounds, ``rel_gap`` = |g(x+n)/g(n) - 1|.
    ``n`` = 0 marks an exact anchor: an integer x, whose value the
    normalization f(1) = 1 and the functional equation give without a
    product, so the bounds equal the value.
    """

    n: int
    p_n: float
    lower: float
    upper: float
    value: float
    rel_gap: float
    converged: bool


@dataclass(frozen=True)
class InterpolationTarget:
    """f(n) = prod_{k=1}^{n-1} g(k); a_1 is the empty product 1."""

    n: int
    a_n: float


def reduce_to_base(x: float) -> tuple[float, int]:
    """Split x = x0 + m with x0 in (0, 1] and integer m."""
    m = math.ceil(x) - 1
    x0 = x - m
    if x0 <= 0.0:  # guard against rounding at integer boundaries
        x0 += 1.0
        m -= 1
    return x0, int(m)


def _log_terms(g: Representer, x: float, lo: int, hi: int) -> float:
    """sum_{lo <= k < hi} log g(k) - log g(x+k), with g(0) := 1 at the exact argument 0.

    The convention covers the k=0 numerator always, and the k=0 denominator
    when x = 0. Raises PoleError at the first vanishing denominator, else
    NonPositiveError at the first k with a non-positive factor.
    """
    ks = np.arange(lo, hi, dtype=float)
    if lo == 0:
        num = np.concatenate(([1.0], g.values(ks[1:])))
        den = np.concatenate(([1.0], g.values(x + ks[1:]))) if x == 0.0 else g.values(x + ks)
    else:
        num, den = g.values(ks), g.values(x + ks)
    tiny = np.abs(den) < POLE_TOL
    if np.any(tiny):
        k = lo + int(np.argmax(tiny))
        raise PoleError(f"g(x+k) vanishes at k={k} (x+k={x + k!r})", point=x + k, k=k)
    if not (np.all(num > 0.0) and np.all(den > 0.0)):
        k = lo + int(np.argmax((num <= 0.0) | (den <= 0.0)))
        raise NonPositiveError(f"representer must stay positive on (0, inf); "
                               f"g(k) or g(x+k) <= 0 at k={k} (x={x!r})")
    return float(np.sum(np.log(num) - np.log(den)))


def _shift_product(g: Representer, x: float, count: int) -> float:
    """prod_{k<count} g(x+k) left to right (empty product 1). A vanishing factor, which
    a representer positive on (0, inf) has only below x = 0, raises PoleError."""
    if count <= 0:
        return 1.0
    vals = g.values(x + np.arange(count, dtype=float))
    tiny = np.abs(vals) < POLE_TOL
    if np.any(tiny):
        k = int(np.argmax(tiny))
        raise PoleError(f"g({x + k!r}) vanishes in the negative-extension chain",
                        point=x + k, k=k)
    return math.prod(vals.tolist())


def partial_product(g: Representer, x: float, n: int) -> float:
    """p_n(x) = prod_{k=0}^{n-1} g(k)/g(x+k), with the checks and the g(0) := 1
    convention of the product's log terms."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.exp(_log_terms(g, x, 0, n)))


def sandwich_bounds(g: Representer, x: float, n: int) -> tuple[float, float]:
    """Two-sided truncation bounds p_{n+1} g(n)^x <= f(x) <= p_n g(n)^x.

    Valid on the base interval: requires 0 < x <= 1 and n >= 2.
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"sandwich bounds need 0 < x <= 1, got {x!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    p_n = partial_product(g, x, n)
    p_n1 = partial_product(g, x, n + 1)
    gx = g(float(n)) ** x
    return p_n1 * gx, p_n * gx


def evaluate(g: Representer, x: float, tol: float = DEFAULT_TOL,
             max_n: int = DEFAULT_MAX_N) -> ProductState:
    """Evaluate the product representation at x > 0.

    The argument is reduced to the base interval (0, 1]; n doubles until the
    ratio gap |g(x+n)/g(n) - 1| and the relative bracket width both fall
    below ``tol``, or ``max_n`` is reached (converged=False). The returned
    value is the geometric mean of the sandwich bounds. DivergenceError is
    raised when the gap fails to decrease over three successive doublings,
    the signature of a representer violating lim g(n)/g(x+n) = 1.
    """
    if not (x > 0.0):
        raise DomainError(f"evaluate needs x > 0, got {x!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    x0, m = reduce_to_base(x)
    scale = _shift_product(g, x0, m)

    n, have = 4, 0  # log_pn sums the log terms for k < have
    log_pn = 0.0
    prev_gap = math.inf
    stalled = 0
    while True:
        log_pn += _log_terms(g, x0, have, n)
        have = n
        g_n = g(float(n))
        g_xn = g(x0 + float(n))
        if not (g_n > 0.0 and g_xn >= POLE_TOL):
            _log_terms(g, x0, n, n + 1)  # raises the k = n term's PoleError or NonPositiveError
        log_pn1 = log_pn + (math.log(g_n) - math.log(g_xn))
        log_gx = x0 * math.log(g_n)
        lower = math.exp(log_pn1 + log_gx)
        upper = math.exp(log_pn + log_gx)
        value = math.exp(0.5 * (log_pn + log_pn1) + log_gx)
        rel_gap = abs(g_xn / g_n - 1.0)
        converged = rel_gap <= tol and (upper - lower) <= tol * abs(value)
        if converged:
            break
        stalled = stalled + 1 if rel_gap >= prev_gap * (1.0 - 1e-12) else 0
        if stalled >= 3:
            raise DivergenceError(
                f"|g(x+n)/g(n) - 1| = {rel_gap:.3e} failed to decrease over three "
                f"doublings (n={n}); the representer violates lim g(n)/g(x+n) = 1")
        prev_gap = rel_gap
        if n >= max_n:
            break
        n = min(2 * n, max_n)

    return ProductState(n=n, p_n=math.exp(log_pn), lower=lower * scale, upper=upper * scale,
                        value=value * scale, rel_gap=rel_gap, converged=converged)


def extended_state(g: Representer, x: float, tol: float = DEFAULT_TOL,
                   max_n: int = DEFAULT_MAX_N) -> ProductState:
    """The interpolant and its truncation diagnostics at any real x.

    Writes x = x0 + m with x0 in (0, 1]. The base state is the product
    evaluation, except at x0 = 1, where the normalization f(1) = 1 is exact
    and no product runs. For m >= 0 the functional equation multiplies
    forward; for m < 0 the solved form f(x) = f(x + |m|) / prod g(x + k)
    extends to negative reals, raising PoleError when a factor vanishes.
    Bounds swap when the scale is negative, as for Gamma on (-1, 0).
    """
    x0, m = reduce_to_base(x)
    state = evaluate(g, x0, tol, max_n) if x0 != 1.0 else ProductState(
        n=0, p_n=1.0, lower=1.0, upper=1.0, value=1.0, rel_gap=0.0, converged=True)
    if m >= 0:
        factor = _shift_product(g, x0, m)
        value, a, b = state.value * factor, state.lower * factor, state.upper * factor
    else:
        den = _shift_product(g, x, -m)
        value, a, b = state.value / den, state.lower / den, state.upper / den
    return replace(state, value=value, lower=min(a, b), upper=max(a, b))


def extend(g: Representer, x: float, tol: float = DEFAULT_TOL,
           max_n: int = DEFAULT_MAX_N) -> float:
    """The interpolant at any real x: the value of ``extended_state``."""
    return extended_state(g, x, tol, max_n).value


def interpolation_targets(g: Representer, n_max: int) -> list[InterpolationTarget]:
    """a_n = prod_{k=1}^{n-1} g(k) for n = 1..n_max, by running product."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = [InterpolationTarget(n=1, a_n=1.0)]
    a = 1.0
    for n in range(2, n_max + 1):
        a *= g(float(n - 1))
        out.append(InterpolationTarget(n=n, a_n=a))
    return out


def logconvexity_series(g: Representer, x: float, tol: float = 1e-8) -> float:
    """(log f)''(x) as the series sum_k [ (g'/g)^2 - g''/g ] at x + k.

    Terms accumulate until the last term and the k^-2-model tail estimate
    (last_term * k) both drop below tol relative to the partial sum. The sum
    plus the tail estimate is returned. SeriesDivergence is raised when term
    magnitudes fail to decrease over 64 consecutive indices; ToleranceNotMet
    when the term budget runs out first.
    """
    if not (x > 0.0):
        raise DomainError(f"series needs x > 0, got {x!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    total = 0.0
    k = 0
    chunk = 64
    streak = 0
    prev_last_abs = None
    while k < SERIES_BUDGET:
        size = min(chunk, SERIES_BUDGET - k)
        us = x + np.arange(k, k + size, dtype=float)
        gv = g.values(us)
        if np.any(np.abs(gv) < POLE_TOL):
            i = int(np.flatnonzero(np.abs(gv) < POLE_TOL)[0])
            raise ZeroValueError(f"g vanishes at x+k={us[i]!r}")
        d1 = g.d1_values(us)
        d2 = g.d2_values(us)
        terms = (d1 * d1) / (gv * gv) - d2 / gv
        total += float(np.sum(terms))
        k += size
        last = float(terms[-1])
        scale = max(1.0, abs(total))
        tail = last * (k - 1)
        if abs(last) < tol * scale and abs(tail) < tol * scale:
            return total + tail
        abs_terms = np.abs(terms)
        # "failed to decrease" up to float jitter in the term arithmetic
        within = bool(np.all(abs_terms[1:] >= abs_terms[:-1] * (1.0 - 1e-12))) if size > 1 else True
        joins = prev_last_abs is None or abs_terms[0] >= prev_last_abs * (1.0 - 1e-12)
        if within and joins:
            streak += size
        else:
            streak = 0
        if streak >= 64:
            raise SeriesDivergence(
                f"series terms non-decreasing over {streak} consecutive k near k={k}")
        prev_last_abs = float(abs_terms[-1])
        chunk = min(2 * chunk, 65536)
    raise ToleranceNotMet(f"series did not reach tol={tol!r} within {SERIES_BUDGET} terms")


def bilinear_a(f: RealFunction, g: RealFunction, x: float, terms: int) -> float:
    """sum_{k < terms} [ (f'(x+k))^2 f(x+k)^-2  -  g''(x+k) g(x+k)^-2 ].

    The determinant form written out literally; note a(g, g) coincides with
    ``logconvexity_series`` terms only when g'' vanishes (the series uses
    g''/g, this uses g''/g^2).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    f = f.fn if isinstance(f, Representer) else f
    g = g.fn if isinstance(g, Representer) else g
    total = 0.0
    for k in range(terms):
        u = x + k
        fv, gv = f(u), g(u)
        if abs(fv) < POLE_TOL:
            raise ZeroValueError(f"f vanishes at x+k={u!r} (k={k})")
        if abs(gv) < POLE_TOL:
            raise ZeroValueError(f"g vanishes at x+k={u!r} (k={k})")
        f1 = f.derivative(u, 1)
        g2 = g.derivative(u, 2)
        total += (f1 * f1) / (fv * fv) - g2 / (gv * gv)
    return total
