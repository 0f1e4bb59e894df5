"""Log-convex solutions of f(x+1) = g(x) f(x) via the truncated product

    f(x) = lim_n  g(n)^x * prod_{k} g(k)/g(x+k)      (g(0) := 1)

on the base interval (0, 1], evaluated in its higher-order form (the
generalized Gauss product of Marichal & Zenaidi)

    log f(x) = lim_n  sum_{k<n} (log g(k) - log g(x+k)) + sum_{j=1..p} C(x, j) Delta^{j-1} log g(n),

whose error is at most |C(x-1, p)| |Delta^p log g(n)| where log g is
p-convex or p-concave past n (Delta is the forward difference in n). Where
that is not seen, the plain product's two-sided bounds

    p_{n+1}(x) g(n)^x  <=  f(x)  <=  p_n(x) g(n)^x,   p_n(x) = prod_{k<n} g(k)/g(x+k),

which hold for log-convex f, give the value and, with the move since the
last doubling of n, the error. Arguments outside (0, 1] are reduced by
iterating the functional equation; the normalization f(1) = 1 anchors
integer arguments exactly.
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

#: Order p of the generalized Gauss product: its error falls like n^-p.
ORDER = 4

#: Delta log g(n) must fall to at most this share of its value one doubling
#: earlier before the order-p bound is trusted; exp(x), outside the class the
#: library constructs, keeps the ratio 1.
SHRINK = 0.75

#: Arguments per vector call of g in the product sums and the shift chain.
CHUNK = 2 ** 14

#: Double-precision epsilon: the rounding allowance per term and per scaling step.
EPS = 2.0 ** -52


@dataclass(frozen=True)
class ProductState:
    """Truncation diagnostics for one evaluation of the product representation.

    ``n`` is the final truncation index, ``p_n`` the partial product at the
    reduced base argument, ``value`` the interpolant, ``lower``/``upper`` =
    value * exp(-+bound) its error bracket, ``rel_gap`` = |g(x+n)/g(n) - 1|,
    and ``converged`` says that the bound met the tolerance. ``n`` = 0 marks
    an exact anchor: an integer x, whose value the normalization f(1) = 1
    and the functional equation give without a product, so the bounds equal
    the value.
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
    args = np.concatenate((ks, x + ks))
    unit = ([0, ks.size] if x == 0.0 else [0]) if lo == 0 else []
    args[unit] = 1.0  # the g(0) := 1 factors: a stand-in argument inside g's domain
    vals = g.values(args)
    num, den = vals[:ks.size], vals[ks.size:]
    if not vals.min() >= POLE_TOL:  # a vanishing or non-positive factor, or a tiny numerator
        tiny = np.abs(den) < POLE_TOL
        if np.any(tiny):
            k = lo + int(np.argmax(tiny))
            raise PoleError(f"g(x+k) vanishes at k={k} (x+k={x + k!r})", point=x + k, k=k)
        if not (np.all(num > 0.0) and np.all(den > 0.0)):
            k = lo + int(np.argmax((num <= 0.0) | (den <= 0.0)))
            raise NonPositiveError(f"representer must stay positive on (0, inf); "
                                   f"g(k) or g(x+k) <= 0 at k={k} (x={x!r})")
    logs = np.log(vals)
    logs[unit] = 0.0
    return float(np.sum(logs[:ks.size] - logs[ks.size:]))


def _shift_product(g: Representer, x: float, count: int) -> float:
    """prod_{k<count} g(x+k) left to right (empty product 1). A vanishing factor, which
    a representer positive on (0, inf) has only below x = 0, raises PoleError."""
    acc = 1.0
    for lo in range(0, count, CHUNK):
        vals = g.values(x + np.arange(lo, min(lo + CHUNK, count), dtype=float))
        tiny = np.abs(vals) < POLE_TOL
        if np.any(tiny):
            k = lo + int(np.argmax(tiny))
            raise PoleError(f"g({x + k!r}) vanishes in the negative-extension chain",
                            point=x + k, k=k)
        acc = math.prod(vals.tolist(), start=acc)
    return acc


def _sandwich_logs(g: Representer, x: float, n: int, log_pn: float, g_n: float,
                   g_xn: float) -> tuple[float, float, float]:
    """(log p_{n+1}(x), x log g(n), |g(x+n)/g(n) - 1|) from log p_n(x) and g at n and
    x+n; the sandwich bounds are exp(log p_{n+1} + x log g(n)) and exp(log p_n + x log g(n))."""
    if not (g_n > 0.0 and g_xn >= POLE_TOL):
        _log_terms(g, x, n, n + 1)  # raises the k = n term's PoleError or NonPositiveError
    return log_pn + (math.log(g_n) - math.log(g_xn)), x * math.log(g_n), abs(g_xn / g_n - 1.0)


def _gauss_tail(x: float, vals: list[float]) -> tuple[float, float, float, bool]:
    """The order-p terms from vals = g(n .. n+2p).

    Returns (sum_{j=1..p} C(x, j) Delta^{j-1} log g(n), |C(x-1, p)| |Delta^p log g(n)|,
    Delta log g(n), whether Delta^p log g keeps one sign over n .. n+p).
    """
    if not min(vals) > 0.0:
        return 0.0, math.inf, math.nan, False
    d = [math.log(v) for v in vals]
    d1 = d[1] - d[0]
    tail, c, c_prev = 0.0, 1.0, 1.0  # c = C(x, j), c_prev = C(x-1, j)
    for j in range(1, ORDER + 1):
        c *= (x - j + 1) / j
        c_prev *= (x - j) / j
        tail += c * d[0]
        d = [b - a for a, b in zip(d, d[1:])]
    one_sign = min(d) >= 0.0 or max(d) <= 0.0
    return tail, abs(c_prev * d[0]), d1, one_sign


def _base_state(g: Representer, x0: float, m: int, tol: float, max_n: int) -> ProductState:
    """The product at x0 in (0, 1], n doubling from 4 until the bound meets ``tol``.

    Short of ``tol``, the level with the smallest bound is returned, once
    ``max_n`` is reached or the rounding allowance of the next level alone
    exceeds that bound.

    A level trusts the order-p bound where its hypothesis is seen: Delta log g(n)
    is 0 or at most SHRINK times its value at the last level, and Delta^p log g
    keeps one sign. Elsewhere (the fibonacci representer, whose log g
    oscillates) the value is the sandwich midpoint, and the bound covers half
    the sandwich and, after the first level, the move since the last level:
    the sandwich alone brackets f only where f is log-convex. Either bound
    adds a rounding allowance of (n + |m| + 1) eps for the n terms and the
    |m|-step scaling. DivergenceError is raised when the ratio gap
    |g(x+n)/g(n) - 1| fails to decrease over three successive doublings, the
    signature of a representer violating lim g(n)/g(x+n) = 1.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    n, have = 4, 0  # log_pn sums the log terms for k < have
    log_pn = 0.0
    prev_gap, prev_log_value = math.inf, None
    prev_d1 = 0.0  # no level yet: only Delta log g(n) = 0 counts as shrinking
    stalled = 0
    best = (math.inf,)  # (bound, n, log_pn, log_value, rel_gap) of the tightest level
    while True:
        for lo in range(have, n, CHUNK):
            log_pn += _log_terms(g, x0, lo, min(lo + CHUNK, n))
        have = n
        # g at n .. n+2p for the order-p terms, then at x0 + n for the sandwich
        vals = g.values(np.array([*range(n, n + 2 * ORDER + 1), x0 + n], dtype=float)).tolist()
        log_pn1, log_gx, rel_gap = _sandwich_logs(g, x0, n, log_pn, vals[0], vals[-1])
        tail, bound, d1, one_sign = _gauss_tail(x0, vals[:-1])
        if one_sign and (d1 == 0.0 or abs(d1) <= SHRINK * abs(prev_d1)):
            log_value = log_pn + tail
        else:
            log_value = 0.5 * (log_pn + log_pn1) + log_gx
            bound = 0.5 * abs(log_pn - log_pn1)
            if prev_log_value is not None:  # the sandwich alone brackets only log-convex f
                bound = max(bound, abs(log_value - prev_log_value))
        bound += (n + abs(m) + 1) * EPS
        if bound < best[0]:
            best = (bound, n, log_pn, log_value, rel_gap)
        if bound <= tol:
            break
        stalled = stalled + 1 if rel_gap >= prev_gap * (1.0 - 1e-12) else 0
        if stalled >= 3:
            raise DivergenceError(
                f"|g(x+n)/g(n) - 1| = {rel_gap:.3e} failed to decrease over three "
                f"doublings (n={n}); the representer violates lim g(n)/g(x+n) = 1")
        prev_gap, prev_d1, prev_log_value = rel_gap, d1, log_value
        # no later level can beat the best: its rounding allowance alone is larger
        if n >= max_n or best[0] <= (2 * n + abs(m) + 1) * EPS:
            break
        n = min(2 * n, max_n)
    bound, n, log_pn, log_value, rel_gap = best
    value = math.exp(log_value)
    return ProductState(n=n, p_n=math.exp(log_pn), lower=value * math.exp(-bound),
                        upper=value * math.exp(bound), value=value, rel_gap=rel_gap,
                        converged=bound <= tol)


def _scaled(g: Representer, x: float, x0: float, m: int, state: ProductState) -> ProductState:
    """The base state at x0 carried to x = x0 + m by the functional equation: for
    m >= 0 it multiplies forward; for m < 0 the solved form
    f(x) = f(x + |m|) / prod g(x + k) divides, raising PoleError when a factor
    vanishes. Bounds swap when the scale is negative, as for Gamma on (-1, 0)."""
    if m >= 0:
        factor = _shift_product(g, x0, m)
        value, a, b = state.value * factor, state.lower * factor, state.upper * factor
    else:
        den = _shift_product(g, x, -m)
        value, a, b = state.value / den, state.lower / den, state.upper / den
    return replace(state, value=value, lower=min(a, b), upper=max(a, b))


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
    log_pn = _log_terms(g, x, 0, n)
    log_pn1, log_gx, _ = _sandwich_logs(g, x, n, log_pn, g(float(n)), g(x + float(n)))
    return math.exp(log_pn1 + log_gx), math.exp(log_pn + log_gx)


def evaluate(g: Representer, x: float, tol: float = DEFAULT_TOL,
             max_n: int = DEFAULT_MAX_N) -> ProductState:
    """Evaluate the product representation at x > 0.

    The argument is reduced to the base interval (0, 1], where n doubles
    until the error bound meets ``tol`` or ``max_n`` is reached
    (converged=False); see ``_base_state``. The functional equation then
    scales the state forward.
    """
    if not (x > 0.0):
        raise DomainError(f"evaluate needs x > 0, got {x!r}")
    x0, m = reduce_to_base(x)
    return _scaled(g, x, x0, m, _base_state(g, x0, m, tol, max_n))


def extended_state(g: Representer, x: float, tol: float = DEFAULT_TOL,
                   max_n: int = DEFAULT_MAX_N) -> ProductState:
    """The interpolant and its truncation diagnostics at any real x.

    Writes x = x0 + m with x0 in (0, 1]. The base state is the product
    evaluation, except at x0 = 1, where the normalization f(1) = 1 is exact
    and no product runs. The functional equation carries it to x, forward for
    m >= 0 (for non-integer x > 0 this is ``evaluate``) and solved backwards
    for m < 0, which extends f to negative reals.
    """
    x0, m = reduce_to_base(x)
    if x0 != 1.0 and m >= 0:
        return evaluate(g, x, tol, max_n)
    state = _base_state(g, x0, m, tol, max_n) if x0 != 1.0 else ProductState(
        n=0, p_n=1.0, lower=1.0, upper=1.0, value=1.0, rel_gap=0.0, converged=True)
    return _scaled(g, x, x0, m, state)


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
