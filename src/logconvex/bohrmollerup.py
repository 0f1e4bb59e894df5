"""Log-convex solutions of f(x+1) = g(x) f(x) via the truncated product

    f(x) = lim_n  g(n)^x * prod_{k} g(k)/g(x+k)      (g(0) := 1)

on the base interval (0, 1], evaluated in its higher-order form (the
generalized Gauss product of Marichal & Zenaidi)

    log f(x) = lim_n  sum_{k<n} (log g(k) - log g(x+k)) + sum_{j=1..p} C(x, j) Delta^{j-1} log g(n),

whose error is at most |C(x-1, p)| |Delta^p log g(n)| where log g is
p-convex or p-concave past n (Delta is the forward difference in n). The
order is p = 4, raised up to 8 at a level after which a block of g(x+k) runs
out, where the higher order's bound is smaller. Where the hypothesis is not
seen, the plain product's two-sided bounds

    p_{n+1}(x) g(n)^x  <=  f(x)  <=  p_n(x) g(n)^x,   p_n(x) = prod_{k<n} g(k)/g(x+k),

which hold for log-convex f, give the value and, with the move since the
last doubling of n, the error. Arguments outside (0, 1] are reduced by
iterating the functional equation; the normalization f(1) = 1 anchors
integer arguments exactly.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, NonFiniteError, NonPositiveError, \
    PoleError, SeriesDivergence, ToleranceNotMet, ZeroValueError
from .funcore import EPS, log_d2
from .representer import Representer

DEFAULT_TOL = 1e-8
DEFAULT_MAX_N = 2 ** 20

#: |g| below this counts as a pole in product denominators.
POLE_TOL = 1e-300

#: Series term budget before ToleranceNotMet (monotone but too-slow decay).
SERIES_BUDGET = 2 ** 24

#: Order p of the generalized Gauss product: its error falls like n^-p.
ORDER = 4

#: The highest order a level may take where the loop would go on to new values of
#: g(x0+k) (``_base_state``); there the window is g(n .. n + 2 TOP_ORDER).
TOP_ORDER = 8

#: Delta log g(n) must fall to at most this share of its value one doubling
#: earlier before the order-p bound is trusted; exp(x), outside the class the
#: library constructs, keeps the ratio 1.
SHRINK = 0.75

#: Arguments per vector call of g in the product sums and the shift chain.
CHUNK = 2 ** 14

#: Levels at which the product loop's blocks end. One call of g covers every
#: argument of a block's levels; levels past the last end make their own calls.
BLOCK_ENDS = (256, 4096, CHUNK)

#: Gregory's coefficients G_1 .. G_{ORDER+1} (Marichal & Zenaidi): for h
#: vanishing at infinity with Delta^ORDER h of one sign,
#: sum_{j>=k} h(j) = int_k^inf h + sum_{j=1..ORDER} G_j Delta^{j-1} h(k), up to
#: about |G_{ORDER+1} Delta^ORDER h(k)|.
GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160)

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


#: The base level of an integer x, whose value the normalization f(1) = 1 gives
#: without a product, as ``_scaled`` takes it: (bound, n, log p_n, log f, rel_gap, converged).
ANCHOR = (0.0, 0, 0.0, 0.0, 0.0, True)


@dataclass(frozen=True)
class InterpolationTarget:
    """f(n) = prod_{k=1}^{n-1} g(k); a_1 is the empty product 1."""

    n: int
    a_n: float


def reduce_to_base(x: float) -> tuple[float, int]:
    """Split x = x0 + m with x0 in (0, 1] and integer m; DomainError for x not finite.

    An integer x gives (1.0, x - 1) exactly, whatever its size. Any other x has
    |x| < 2^52, and x0 = x - floor(x), which is exact outside (-1, 0) (Sterbenz)
    and rounds to 1.0 for -2^-54 <= x < 0.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    m = math.floor(x)
    if m == x:
        return 1.0, m - 1
    return x - m, m


def _log_terms(g: Representer, x: float, lo: int, hi: int, total: float = 0.0) -> float:
    """``total`` plus sum_{lo <= k < hi} log g(k) - log g(x+k), with g(0) := 1 at the
    exact argument 0, added one sum of at most CHUNK terms at a time.

    The convention covers the k=0 numerator always, and the k=0 denominator
    when x = 0. Raises PoleError at the first vanishing denominator, else
    NonPositiveError at the first k with a non-positive factor.
    """
    for start in range(lo, hi, CHUNK):
        ks = np.arange(start, min(start + CHUNK, hi), dtype=float)
        args = np.concatenate((ks, x + ks))
        unit = ([0, ks.size] if x == 0.0 else [0]) if start == 0 else []
        args[unit] = 1.0  # the g(0) := 1 factors: a stand-in argument inside g's domain
        vals = g.values(args)
        num, den = vals[:ks.size], vals[ks.size:]
        if not vals.min() >= POLE_TOL:  # a vanishing or non-positive factor, or a tiny numerator
            tiny = np.abs(den) < POLE_TOL
            if np.any(tiny):
                k = start + int(np.argmax(tiny))
                raise PoleError(f"g(x+k) vanishes at k={k} (x+k={x + k!r})", point=x + k, k=k)
            if not (np.all(num > 0.0) and np.all(den > 0.0)):
                k = start + int(np.argmax((num <= 0.0) | (den <= 0.0)))
                raise NonPositiveError(f"representer must stay positive on (0, inf); "
                                       f"g(k) or g(x+k) <= 0 at k={k} (x={x!r})")
        logs = np.log(vals)
        logs[unit] = 0.0
        total += float(np.sum(logs[:ks.size] - logs[ks.size:]))
    return total


def _shift_product(g: Representer, x: float, count: int) -> float:
    """prod_{k<count} g(x+k) left to right (empty product 1), CHUNK factors per call of g.
    A vanishing factor, which a representer positive on (0, inf) has only below x = 0,
    raises PoleError. For x > 0 the chain stops at the first call after which the
    product is 0 or +-inf, which no further factor can change, so a huge count costs
    the calls up to where the product leaves float range; the chain from x < 0
    evaluates every factor, each of which may be a pole."""
    acc = 1.0
    for lo in range(0, count, CHUNK):
        vals = g.values(x + np.arange(lo, min(lo + CHUNK, count), dtype=float))
        tiny = np.abs(vals) < POLE_TOL
        if np.any(tiny):
            k = lo + int(np.argmax(tiny))
            raise PoleError(f"g({x + k!r}) vanishes in the negative-extension chain",
                            point=x + k, k=k)
        acc = math.prod(vals.tolist(), start=acc)
        if x > 0.0 and (acc == 0.0 or math.isinf(acc)):
            break
    return acc


def _coefficients(x0: float, order: int) -> tuple[list[float], list[float]]:
    """([C(x0, j)], [C(x0-1, j)]) for j = 1..order, by running products: the
    coefficients of the order-p terms for every p up to ``order``."""
    cs, cps, c, c_prev = [], [], 1.0, 1.0
    for j in range(1, order + 1):
        c *= (x0 - j + 1) / j
        c_prev *= (x0 - j) / j
        cs.append(c)
        cps.append(c_prev)
    return cs, cps


def _differences(vals: list[float], order: int) -> tuple[list[float], int, float]:
    """([Delta^j v(0) for j = 0..p], signs, allowance) from vals = v(0 .. 2p), p = ``order``:
    the one difference rule of the product's levels and the series' chunks.

    ``signs`` holds the signs Delta^p v keeps over 0 .. p: bit 1 for
    >= 0, bit 2 for <= 0, 0 where it keeps neither. Where the exact values keep
    no one sign, a Delta^p v within 2^p eps max|v| of 0, the rounding
    of the differences, counts as either sign, and ``allowance`` is that width,
    the error a bound from Delta^p v must add; elsewhere it is 0.
    """
    d, heads, sub = vals, [vals[0]], operator.sub
    for _ in range(order):
        d = [*map(sub, d[1:], d)]  # a list display: no call of list() per row
        heads.append(d[0])
    lo, hi = min(d), max(d)
    allowance = 0.0 if lo >= 0.0 or hi <= 0.0 else 2 ** order * EPS * max(map(abs, vals))
    return heads, (lo >= -allowance) | 2 * (hi <= allowance), allowance


def _gauss_terms(coeffs: tuple[list[float], list[float]], d: list[float], allowance: float,
                 p: int, tail: float = 0.0) -> tuple[float, float]:
    """(``tail`` + sum_{j=1..p} C(x0, j) Delta^{j-1} log g(n), |C(x0-1, p)| (|Delta^p log g(n)| + allowance))
    from ``coeffs`` = ``_coefficients(x0, order)``, order >= p, and d = [Delta^j log g(n), j = 0..p, ...],
    the terms added in order of j. The series' Gregory tail takes the same sum, with
    Gregory's coefficients and its start value."""
    cs, cps = coeffs
    for c, dj in zip(cs[:p], d):
        tail += c * dj
    return tail, abs(cps[p - 1]) * (abs(d[p]) + allowance)


def _level(win: list[float]) -> tuple:
    """The record of level n from ``win`` = g(n .. n+2 top): (g(n), log g(n), orders), where
    ``orders`` holds (p, d, the signs Delta^p log g keeps over n .. n+p, allowance) for each
    p = ORDER .. top, from ``_differences`` of log g(n .. n+2p), one call per order.
    d = [Delta^j log g(n) for j = 0..top] is one list, from the top order's call, for every
    p: Delta^j log g(n) depends on log g(n .. n+j) alone, so order p's differences are its
    first p + 1, bit for bit. Order ORDER needs g(n .. n+2 ORDER) > 0, and the orders past
    it the whole window; where order ORDER's values are not all positive the record has no
    orders, and the sandwich decides.
    """
    if not min(win) > 0.0:  # order ORDER alone, from its own window, or no order
        return _level(win[:2 * ORDER + 1]) if len(win) > 2 * ORDER + 1 else (win[0], math.log(win[0]), ())
    top = len(win) // 2
    logs = list(map(math.log, win))
    d, signs, allowance = _differences(logs, top)
    orders = (top, d, signs, allowance),
    if top > ORDER:  # the orders below the top: an order-ORDER window pays for none
        orders = tuple((p, d, *_differences(logs[:2 * p + 1], p)[1:]) for p in range(ORDER, top)) + orders
    return win[0], d[0], orders


def _quiet(fn, *args):
    """fn(*args), or None where it raises or meets a floating-point signal; nothing is warned."""
    try:
        with np.errstate(all="raise"):
            return fn(*args)
    except Exception:  # noqa: BLE001 - every fault means no value
        return None


class _Numerator:
    """The product's x-independent terms, one home per representer: g(k) and log g(k)
    for k < K = g.size, where log g(0) := 0, and per doubling level n its ``_level``
    record, formed from that level's own window when a loop first asks for it.

    K grows as the blocks need it (``call``), to at most CHUNK + 2 TOP_ORDER + 1: a
    block's one call of g takes g(k) up to its end + 2 TOP_ORDER, the window of the
    orders past ORDER at its last level. The same g(k) give the integer anchors'
    f(n) = prod_{k<n} g(k) for n <= K.
    """

    __slots__ = ("g", "logs", "levels")

    def __init__(self):
        self.g = self.logs = np.empty(0)
        self.levels: dict[int, tuple] = {}

    def call(self, g: Representer, size: int, args: np.ndarray | tuple = ()) -> np.ndarray | None:
        """g at ``args`` from one call of g that also evaluates the g(k), k < ``size``, that
        the numerator lacks; None where the call meets a fault: an exception, a
        floating-point signal, or a value below POLE_TOL. The new g(k) are kept only
        from a call without a fault, so a value the numerator holds raises and warns
        nothing on any later call."""
        have = self.g.size
        if size > have:
            ks = np.arange(have, size, dtype=float)
            if have == 0:
                ks[0] = 1.0  # the g(0) := 1 factor: a stand-in argument inside g's domain
            args = np.concatenate((ks, args))
        try:  # inline, not ``_quiet``: this call runs on every point
            with np.errstate(all="raise"):
                vals = g.values(args)
        except Exception:
            return None
        if not vals.min() >= POLE_TOL:
            return None
        if size > have:
            new, vals = vals[:size - have], vals[size - have:]
            logs = np.log(new)
            if have == 0:
                logs[0] = 0.0
            # the first call's values start the arrays: a copy, not a join with the empty ones
            self.g = np.concatenate((self.g, new)) if have else new.copy()
            self.logs = np.concatenate((self.logs, logs)) if have else logs
        return vals

    def level(self, g: Representer, n: int, top: int = ORDER) -> tuple:
        """The ``_level`` record of level n with the orders up to ``top``, from the numerator's
        g(n .. n+2 top) where it holds them. Otherwise (past CHUNK, or in a faulted block's
        replay) the window is one quiet call of g of its own; a fault there gives a record
        without orders, which is not kept, and raises and warns nothing. The record of a
        doubling level is kept with its top, and serves any later ask up to that top."""
        got = self.levels.get(n)
        if got is not None and got[0] >= top:
            return got[1]
        end = n + 2 * top + 1
        win = self.g[n:end] if self.g.size >= end else _quiet(g.values, np.arange(n, end, dtype=float))
        if win is None:
            return math.nan, math.nan, ()
        got = _level(win.tolist())
        if n & (n - 1) == 0:  # the doublings from 4, which every max_n shares
            self.levels[n] = top, got
        return got


def _block(g: Representer, num: _Numerator, x0: float, n: int, have: int, max_n: int):
    """(end, block) for the levels from n up to ``end``, the last level of the
    doubling n, min(2n, max_n), ... not past the first of BLOCK_ENDS >= n.

    block = (have, log g(k) - log g(x0+k) for k = have .. end, g(x0+k) for
    k = have .. end), from one call of g (``_Numerator.call``): at x0+k, and at the
    g(k), k <= end + 2 TOP_ORDER, that ``num`` lacks, so every level's window,
    the orders past ORDER at ``end`` included, is a slice of the numerator. The block is None, and the
    levels make their own calls, past the last block end and where the call
    meets any fault: an exception, a floating-point signal, or a value below
    POLE_TOL. The call evaluates g past the level where the loop may stop, so
    those levels' own calls raise what is theirs, and in their order.
    """
    bound = next((e for e in BLOCK_ENDS if e >= n), None)
    if bound is None:
        return max_n, None
    end = n
    while end < max_n and min(2 * end, max_n) <= bound:
        end = min(2 * end, max_n)
    gx = num.call(g, end + 2 * TOP_ORDER + 1, x0 + np.arange(have, end + 1, dtype=float))
    if gx is None:
        return end, None
    return end, (have, num.logs[have:end + 1] - np.log(gx), gx)


def _base_state(g: Representer, x0: float, m: int, tol: float,
                max_n: int) -> tuple[tuple, np.ndarray | None]:
    """The product at x0 in (0, 1], n doubling from 4 until the bound meets ``tol``,
    as the level ``_scaled`` takes, (bound, n, log p_n, log f(x0), rel_gap,
    converged), and g(x0+k) for k up to the first block's end, the values the
    forward scaling needs (None where that block is None).

    Short of ``tol``, the level with the smallest bound is returned, once
    ``max_n`` is reached or the rounding allowance of the next level alone
    exceeds that bound.

    A level trusts the order-p bound where its hypothesis is seen: Delta log g(n)
    is 0 or at most SHRINK times its value at the last level, and Delta^p log g
    keeps one sign over n .. n+p, one it kept at the last level too (signs by
    ``_differences``, within its rounding allowance). Elsewhere (the fibonacci
    representer, whose log g oscillates) the value is the sandwich midpoint,
    and the bound covers half the sandwich and, after the first level, the
    move since the last level: the sandwich alone brackets f only where f is
    log-convex.

    The order is p = ORDER, except where the loop would go on to new values of
    g(x0+k): at the last level of a block (n = max_n or in BLOCK_ENDS) and at
    every level past CHUNK, which n alone decides, so a faulted block's replay
    decides alike. There a trusted order-ORDER bound that with its rounding
    allowance is above ``tol`` is set against the orders up to TOP_ORDER, each
    trusted by the same rule at its own p: Delta^p log g keeps one sign over
    n .. n+p, one it kept over the level before's window too (either sign at the
    first level), read from the two levels' ``_Numerator.level`` records. The level
    takes the trusted order with the smallest bound, with its tail. Either bound
    adds a rounding allowance of (n + |m| + 1) eps for the n terms and the
    |m|-step scaling. DivergenceError is raised when the ratio gap
    |g(x+n)/g(n) - 1| fails to decrease over three successive doublings, the
    signature of a representer violating lim g(n)/g(x+n) = 1.

    Each level needs the log terms for k < n and g at n .. n+2p and x0+n. Up to
    CHUNK, they come a block of levels at a time (``_block``): g(k) and each
    level's ``_level`` record from g's one ``_Numerator``, which the block's call
    extends where it is short, and g(x0+k) from the same call. A level sums its slice of the block's
    logs and takes its record only when the loop reaches it, and every sum and
    value has the bits of a level's own calls. Where the block's call meets a
    fault, and past CHUNK, each level makes its own calls: ``_log_terms`` over
    [n/2, n) in chunks of CHUNK, then g at the 2 ORDER + 2 points. Either way the level
    takes, from its record's order ORDER and g(x0+n), only what its branch uses: the
    order-p tail and bound (``_gauss_terms``) where the bound is trusted, else
    log g(n) - log g(x0+n) and x0 log g(n) for the sandwich; and |g(x0+n)/g(n) - 1|.
    The orders past ORDER come from the records of the level and the level before
    with every order their windows g(k .. k+2 TOP_ORDER) cover: slices of the
    numerator, or, past CHUNK and in a faulted block's replay, one quiet call each.
    """
    coeffs = _coefficients(x0, TOP_ORDER)  # order p takes the first p of each
    num = g.product_terms.get("numerator")
    if num is None:
        num = g.product_terms["numerator"] = _Numerator()
    n, have = 4, 0  # log_pn sums the log terms for k < have
    log_pn = 0.0
    prev_gap, prev_log_value = math.inf, None
    prev_d1 = 0.0  # no level yet: only Delta log g(n) = 0 counts as shrinking
    prev_signs = 3  # ... and either sign of Delta^p log g as kept
    stalled = 0
    best = (math.inf,)  # (bound, n, log_pn, log_value, rel_gap) of the tightest level
    block_end, block = _block(g, num, x0, n, have, max_n)
    forward = block[2] if block is not None else None
    while True:
        if n > block_end:
            block_end, block = _block(g, num, x0, n, have, max_n)
        if block is not None:
            start, log_terms, gx = block  # indexed by k - start
            log_pn += float(np.add.reduce(log_terms[have - start:n - start]))
            g_n, log_gn, orders = num.level(g, n)
            gxn = float(gx[n - start])
        else:
            log_pn = _log_terms(g, x0, have, n, log_pn)
            # g at n .. n+2p for the order-p terms, then at x0 + n for the sandwich
            *win, gxn = g.values(np.array([*range(n, n + 2 * ORDER + 1), x0 + n], dtype=float)).tolist()
            if not (win[0] > 0.0 and gxn >= POLE_TOL):
                _log_terms(g, x0, n, n + 1)  # raises the k = n term's PoleError or NonPositiveError
            g_n, log_gn, orders = _level(win)
        rounding = (n + abs(m) + 1) * EPS
        # no order: no sign and Delta log g(n) nan, so the sandwich decides
        _, d, signs, allowance = orders[0] if orders else (ORDER, (math.nan, math.nan), 0, 0.0)
        d1 = d[1]
        if signs & prev_signs and (d1 == 0.0 or abs(d1) <= SHRINK * abs(prev_d1)):
            tail, bound = _gauss_terms(coeffs, d, allowance, ORDER)
            # past a block's last level the loop needs new g(x0+k): try the higher orders first
            if bound + rounding > tol and (n == max_n or n in BLOCK_ENDS or n > CHUNK):
                # order p needs a sign of Delta^p log g that the level before kept (the first
                # level is its own: either sign)
                highs = zip(num.level(g, n, TOP_ORDER)[2][1:], num.level(g, have or n, TOP_ORDER)[2][1:])
                for (p, d_p, signs_p, allowance_p), (_, _, kept, _) in highs:
                    if signs_p & kept:
                        tail_p, bound_p = _gauss_terms(coeffs, d_p, allowance_p, p)
                        if bound_p < bound:
                            tail, bound = tail_p, bound_p
            log_value = log_pn + tail
        else:
            log_pn1 = log_pn + (log_gn - math.log(gxn))
            log_value = 0.5 * (log_pn + log_pn1) + x0 * log_gn
            bound = 0.5 * abs(log_pn - log_pn1)
            if prev_log_value is not None:  # the sandwich alone brackets only log-convex f
                bound = max(bound, abs(log_value - prev_log_value))
        bound += rounding
        # as Python floats, a ratio past float range is inf and raises no numpy warning
        rel_gap = abs(gxn / g_n - 1.0)
        have = n
        if bound < best[0]:
            best = (bound, n, log_pn, log_value, rel_gap)
        if bound <= tol:
            break
        stalled = stalled + 1 if rel_gap >= prev_gap * (1.0 - 1e-12) else 0
        if stalled >= 3:
            raise DivergenceError(
                f"|g(x+n)/g(n) - 1| = {rel_gap:.3e} failed to decrease over three "
                f"doublings (n={n}); the representer violates lim g(n)/g(x+n) = 1")
        prev_gap, prev_d1, prev_log_value, prev_signs = rel_gap, d1, log_value, signs
        # no later level can beat the best: its rounding allowance alone is larger
        if n >= max_n or best[0] <= (2 * n + abs(m) + 1) * EPS:
            break
        n = min(2 * n, max_n)
    return (*best, best[0] <= tol), forward


def _scaled(g: Representer, x: float, x0: float, m: int, base: tuple,
            forward: np.ndarray | None = None) -> ProductState:
    """The state at x = x0 + m of the base level ``base`` = (bound, n, log p_n,
    log f(x0), rel_gap, converged) at x0, by the functional equation: f(x0) =
    exp(log f(x0)) with the bracket f(x0) exp(-+bound), carried forward for m >= 0
    by prod_{k<m} g(x0+k), with the factors from ``forward`` where it holds every
    k < m. At an integer x (x0 = 1) without ``forward`` the factors g(1 .. m) come
    from the numerator's g(k) where it holds them all (m < K, ``_Numerator``): it
    keeps only g(k) whose call passed the fault checks, so the call it saves
    raises and warns nothing either. For m < 0 the solved form
    f(x) = f(x + |m|) / prod g(x + k) divides, raising PoleError when a factor
    vanishes, and NonFiniteError when the product of the factors underflows to 0.
    The product's one float-range rule: NonFiniteError where the value or a bound
    is not finite, or the value from a nonzero base value underflows to 0 or is
    subnormal (fewer bits than the bounds claim). Bounds swap for a negative scale,
    as Gamma's on (-1, 0)."""
    bound, n, log_pn, log_value, rel_gap, converged = base
    base_value = math.exp(log_value)
    lower, upper = base_value * math.exp(-bound), base_value * math.exp(bound)
    if m >= 0:
        if forward is None and x0 == 1.0:
            num = g.product_terms.get("numerator")  # g(k) from k = 0, where g(1) stands in for g(0)
            forward = None if num is None else num.g[1:]
        if forward is not None and m <= forward.size:
            factor = math.prod(forward[:m].tolist(), start=1.0)
        else:
            factor = _shift_product(g, x0, m)
        value, a, b = base_value * factor, lower * factor, upper * factor
    else:
        den = _shift_product(g, x, -m)
        if den == 0.0:
            raise NonFiniteError(f"prod g(x+k), k < {-m}, underflows to 0 at x={x!r}", x=x, value=math.inf)
        value, a, b = base_value / den, lower / den, upper / den
    if value == 0.0 and base_value != 0.0:
        raise NonFiniteError(f"f({x!r}) underflows to 0 from f({x0!r}) = {base_value!r}", x=x, value=value)
    if 0.0 < abs(value) < sys.float_info.min:
        raise NonFiniteError(f"f({x!r}) = {value!r} is subnormal, short of double precision",
                             x=x, value=value)
    if not (math.isfinite(value) and math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError(f"f({x!r}) = {value!r} or its bracket leaves float range", x=x, value=value)
    return ProductState(n=n, p_n=math.exp(log_pn), lower=min(a, b), upper=max(a, b), value=value,
                        rel_gap=rel_gap, converged=converged)


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
    g_n, g_xn = g(float(n)), g(x + float(n))
    if not (g_n > 0.0 and g_xn >= POLE_TOL):
        _log_terms(g, x, n, n + 1)  # raises the k = n term's PoleError or NonPositiveError
    log_gx = x * math.log(g_n)
    return math.exp(log_pn + (math.log(g_n) - math.log(g_xn)) + log_gx), math.exp(log_pn + log_gx)


def _state(g: Representer, x: float, x0: float, m: int, tol: float, max_n: int) -> ProductState:
    """The state at x = x0 + m (``reduce_to_base``): the exact anchor at an integer x, else
    the product at x0 scaled to x. ``tol`` and ``max_n`` are checked first, at every x:
    ValueError unless tol > 0 and max_n >= 4, and TypeError for a max_n that is not an integer."""
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if operator.index(max_n) < 4:
        raise ValueError("max_n must be >= 4")
    return _scaled(g, x, x0, m, *((ANCHOR, None) if x0 == 1.0 else _base_state(g, x0, m, tol, max_n)))


def evaluate(g: Representer, x: float, tol: float = DEFAULT_TOL,
             max_n: int = DEFAULT_MAX_N) -> ProductState:
    """Evaluate the product representation at x > 0.

    The argument is reduced to the base interval (0, 1], where n doubles
    until the error bound meets ``tol`` or ``max_n`` is reached
    (converged=False); see ``_base_state``. The functional equation then
    scales the state forward. An integer x is the exact anchor of
    ``extended_state``: no product runs. ``tol`` and ``max_n`` are checked
    at every x.
    """
    if not (x > 0.0):
        raise DomainError(f"evaluate needs x > 0, got {x!r}")
    return _state(g, x, *reduce_to_base(x), tol, max_n)


def extended_state(g: Representer, x: float, tol: float = DEFAULT_TOL,
                   max_n: int = DEFAULT_MAX_N) -> ProductState:
    """The interpolant and its truncation diagnostics at any real x.

    Writes x = x0 + m with x0 in (0, 1]. The base state is the product
    evaluation, except at x0 = 1, where the normalization f(1) = 1 is exact
    and no product runs. The functional equation carries it to x, forward for
    m >= 0 (for non-integer x > 0 this is ``evaluate``) and solved backwards
    for m < 0, which extends f to negative reals. ``tol`` and ``max_n`` are
    checked at every x, an anchor's included.
    """
    x0, m = reduce_to_base(x)
    if x0 != 1.0 and m >= 0:
        return evaluate(g, x, tol, max_n)
    return _state(g, x, x0, m, tol, max_n)


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


def _series_terms(g: Representer, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = -(log g)'' = -log_d2(g, g', g'') and (log g)' = g'/g at ``us``; raises
    ZeroValueError where g vanishes, and NonFiniteError at the first x+k where h or
    (log g)' is not finite. A floating-point signal in g', g'' or the terms warns
    nothing: what it leaves outside float range raises. h never forms g g, so it
    needs no fallback where g g overflows or is subnormal."""
    gv = g.values(us)
    least = float(np.fmin.reduce(np.abs(gv), initial=math.inf))  # skips nan, as comparisons do
    if least < POLE_TOL:
        i = int(np.flatnonzero(np.abs(gv) < POLE_TOL)[0])
        raise ZeroValueError(f"g vanishes at x+k={float(us[i])!r}")
    with np.errstate(all="ignore"):
        d1 = g.d1_values(us)
        h, dlog = -log_d2(gv, d1, g.d2_values(us)), d1 / gv
    if not (np.isfinite(h).all() and np.isfinite(dlog).all()):
        i = int(np.argmin(np.isfinite(h) & np.isfinite(dlog)))
        raise NonFiniteError(f"h = -(log g)'' or (log g)' is not finite at x+k={float(us[i])!r}",
                             x=float(us[i]), value=float(h[i]))
    return h, dlog


def _gregory_tail(h: np.ndarray, dlog: np.ndarray, h_ref: float,
                  dlog_ref: float) -> tuple[float, float] | None:
    """Gregory's sum_{j>=k} h(x+j) = (log g)'(x+k) + sum_{j=1..p} G_j Delta^{j-1} h(x+k),
    with |G_{p+1}| (|Delta^p h(x+k)| + allowance) as its error, from h and (log g)'
    at x+k .. x+k+2p, with the allowance of ``_differences``.

    None where the formula's hypothesis is not seen: |h| and |(log g)'| at x+k
    must be 0 or at most SHRINK times ``h_ref`` and ``dlog_ref``, their
    magnitudes at an earlier point, and Delta^p h must keep one sign over
    x+k .. x+k+p, within the rounding of ``_differences``. The integral of h from x+k on is (log g)'(x+k) only where
    (log g)' vanishes at infinity.
    """
    h0, dlog0 = abs(float(h[0])), float(dlog[0])
    if not ((h0 == 0.0 or h0 <= SHRINK * h_ref)
            and (dlog0 == 0.0 or abs(dlog0) <= SHRINK * dlog_ref)):
        return None
    d, signs, allowance = _differences(h.tolist(), ORDER)
    if not signs:
        return None
    return _gauss_terms((GREGORY, GREGORY[1:]), d, allowance, ORDER, dlog0)


def logconvexity_series(g: Representer, x: float, tol: float = 1e-8) -> float:
    """(log f)''(x) as the series sum_k h(x+k), h = -(log g)'' = -log_d2(g, g', g''),
    the rule of ``d2_log``: it never forms g g, so needs no fallback where g g does not fit.

    Terms are summed in chunks of 64, 128, ..., 65536. After each chunk, k
    terms in, Gregory's formula gives the rest of the series in closed form
    from the 2p+1 points after the chunk (``_gregory_tail``), where its
    hypothesis is seen: |h| and |(log g)'| shrink from x + k/2 to x + k, and
    Delta^4 h keeps one sign. There the sum stops at the first chunk whose
    error estimate |G_5 Delta^4 h(x+k)| is within the rounding allowance
    (k+1) eps sum|h| of the k terms, and the sum plus the Gregory tail is
    returned if estimate plus allowance meet ``tol`` relative to
    max(1, |sum|); ToleranceNotMet is raised otherwise.

    Where the hypothesis is not seen (the fibonacci representer, exp(x)),
    the sum stops once the last term and the k^-2-model tail
    last_term * (x + k - 1) both drop below tol relative to max(1, |sum|),
    and the sum plus last_term * (k - 1) is returned. SeriesDivergence is raised when term
    magnitudes fail to decrease over 64 consecutive indices, before any point
    past the chunk is evaluated; ToleranceNotMet when the term budget runs
    out first.

    One call each of g, g' and g'' gives a chunk's terms and the points after
    it; once chunks stop doubling, a chunk starts past x + k/2, and one more
    call evaluates that point again. Where the chunk's call meets a fault (an
    exception or a floating-point signal), the chunk is evaluated alone and
    the points after it only once the chunk has passed its checks, so every
    exception and warning is the one the chunk and its points raise in that
    order. A term or (log g)' that is not finite raises NonFiniteError at its
    point before anything is summed (``_series_terms``): the fibonacci
    representer's quotient rule overflows past x = 500 and gives a nan g'' at
    x = 519 and beyond, where the sum once read nan.
    """
    if not (x > 0.0):
        raise DomainError(f"series needs x > 0, got {x!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    total = abs_total = 0.0
    k = 0
    chunk = 64
    prev_last_abs = None
    while k < SERIES_BUDGET:
        size = min(chunk, SERIES_BUDGET - k)
        us = x + np.arange(k, k + size + 2 * ORDER + 1, dtype=float)
        # a fault replays the chunk alone, so its checks raise in their order
        h, dlog = _quiet(_series_terms, g, us) or _series_terms(g, us[:size])
        terms = h[:size]
        total += float(np.sum(terms))
        abs_terms = np.abs(terms)
        abs_total += float(np.sum(abs_terms))
        start, k = k, k + size
        last = float(terms[-1])
        scale = max(1.0, abs(total))
        tail = last * (k - 1)
        # the k^-2 model's tail of terms ~ (x+j)^-2 is about last * (x+k-1)
        fits = abs(last) < tol * scale and abs(last * (x + k - 1)) < tol * scale
        # Chunks run 64, 128, ..., 65536 and the budget leaves a last chunk of
        # 64, so one chunk that does not decrease (up to float jitter in the
        # term arithmetic) and joins the previous one is 64 such terms already.
        if not fits and (np.all(abs_terms[1:] >= abs_terms[:-1] * (1.0 - 1e-12))
                         and (prev_last_abs is None or abs_terms[0] >= prev_last_abs * (1.0 - 1e-12))):
            raise SeriesDivergence(
                f"series terms non-decreasing over {size} consecutive k near k={k}")
        after = (h[size:], dlog[size:]) if h.size > size else _series_terms(g, us[size:])
        half = k // 2
        if half >= start:
            h_ref, dlog_ref = float(abs_terms[half - start]), abs(float(dlog[half - start]))
        else:  # x + k/2 is a point of an earlier chunk, whose faults were raised there
            with np.errstate(all="ignore"):
                h_half, dlog_half = _series_terms(g, np.array([x + half]))
            h_ref, dlog_ref = abs(float(h_half[0])), abs(float(dlog_half[0]))
        gregory = _gregory_tail(*after, h_ref, dlog_ref)
        if gregory is None:
            if fits:
                return total + tail
        else:
            tail, est = gregory
            allowance = (k + 1) * EPS * abs_total
            if est <= allowance:
                if est + allowance <= tol * scale:
                    return total + tail
                raise ToleranceNotMet(
                    f"series reached its rounding floor {est + allowance:.3e} at k={k}, "
                    f"above tol={tol!r} relative to {scale!r}")
        prev_last_abs = float(abs_terms[-1])
        chunk = min(2 * chunk, 65536)
    raise ToleranceNotMet(f"series did not reach tol={tol!r} within {SERIES_BUDGET} terms")
