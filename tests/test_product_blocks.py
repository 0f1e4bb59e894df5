"""The product loop's blocks: one call of g for a block of doubling levels.

``_base_state`` evaluates g once for all the levels up to a block end, and
walks the levels over slices of that call, taking a level's order-p and
sandwich terms when the loop reaches it; the forward scaling takes g(x0+k)
from the first block. These tests hold it to the loop with two calls of g
per level and order-p terms in their own scalar code, kept here as
``reference_base_state`` with ``_gauss_tail`` and ``_sandwich_logs``, and to
the forward chain's own call:
the same state bits, the same exceptions with the same messages and
attributes, and the same warnings, also where g fails past the level where
the loop stops. A representer caches its g(k) and level terms for later
calls in one numerator (``Representer.product_terms``): a warm representer
must give what a fresh one gives, and hold g's own values in one array,
whatever it is asked.
"""

import math
import random
import tracemalloc
import warnings
from dataclasses import astuple
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconvex import NonFiniteError, RealFunction, Representer, builtin, extended_state, from_spec, sandwich_bounds
from logconvex import bohrmollerup as bm
from logconvex.bohrmollerup import BLOCK_ENDS, CHUNK, ORDER, POLE_TOL, SHRINK, TOP_ORDER, _log_terms
from logconvex.errors import DivergenceError, NonPositiveError, PoleError
from logconvex.funcore import EPS
from test_rational_family import rational


def _sandwich_logs(g: Representer, x: float, n: int, log_pn: float, g_n: float,
                   g_xn: float) -> tuple[float, float, float]:
    """(log p_{n+1}(x), x log g(n), |g(x+n)/g(n) - 1|) from log p_n(x) and g at n and
    x+n; the sandwich bounds are exp(log p_{n+1} + x log g(n)) and exp(log p_n + x log g(n))."""
    if not (g_n > 0.0 and g_xn >= POLE_TOL):
        _log_terms(g, x, n, n + 1)  # raises the k = n term's PoleError or NonPositiveError
    return log_pn + (math.log(g_n) - math.log(g_xn)), x * math.log(g_n), abs(g_xn / g_n - 1.0)


def _gauss_tail(x: float, vals: list[float], order: int) -> tuple[float, float, float, int]:
    """The order-p terms from vals = g(n .. n+2p), p = ``order``, one level at a time.

    Returns (sum_{j=1..p} C(x, j) Delta^{j-1} log g(n),
    |C(x-1, p)| (|Delta^p log g(n)| + w), Delta log g(n), signs). Over n .. n+p,
    ``signs`` has bit 1 where every Delta^p log g is >= -w and bit 2 where every
    one is <= w. The allowance w is 2^p eps max |log g| over the window where
    Delta^p log g takes both strict signs, else 0.
    """
    if not min(vals) > 0.0:
        return 0.0, math.inf, math.nan, 0
    rows = [[math.log(v) for v in vals]]  # rows[j] = Delta^j log g over the window
    for _ in range(order):
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    top = rows[order]
    mixed = any(v > 0.0 for v in top) and any(v < 0.0 for v in top)
    w = 2 ** order * EPS * max(abs(v) for v in rows[0]) if mixed else 0.0
    signs = (1 if all(v >= -w for v in top) else 0) | (2 if all(v <= w for v in top) else 0)
    tail, c, c_prev = 0.0, 1.0, 1.0  # c = C(x, j), c_prev = C(x-1, j)
    for j in range(1, order + 1):
        c *= (x - j + 1) / j
        c_prev *= (x - j) / j
        tail += c * rows[j - 1][0]
    return tail, abs(c_prev) * (abs(top[0]) + w), rows[1][0], signs


def _highest_trusted(g: Representer, x0: float, prev: int, n: int, tail: float,
                     bound: float) -> tuple[float, float]:
    """The block-end rule at level n, whose level before is ``prev`` (0 at the first):
    (tail, bound) of the order p in ORDER .. TOP_ORDER with the smallest bound among
    those whose Delta^p log g keeps one sign over n .. n+p that it kept over
    prev .. prev+p too; order ORDER's are ``tail`` and ``bound``. One call of g at
    both windows, g(prev .. prev+2 TOP_ORDER) and g(n .. n+2 TOP_ORDER); a fault in it
    or a value <= 0 leaves order ORDER's terms."""
    starts = [k for k in (prev, n) if k]
    try:
        with np.errstate(all="raise"):
            vals = g.values(np.array([k + i for k in starts for i in range(2 * TOP_ORDER + 1)], dtype=float))
    except Exception:  # noqa: BLE001 - every fault leaves order ORDER
        return tail, bound
    if not vals.min() > 0.0:
        return tail, bound
    *before, win = [vals[i:i + 2 * TOP_ORDER + 1].tolist() for i in range(0, vals.size, 2 * TOP_ORDER + 1)]
    for p in range(ORDER + 1, TOP_ORDER + 1):
        tail_p, bound_p, _, signs = _gauss_tail(x0, win[:2 * p + 1], p)
        for w in before:
            signs &= _gauss_tail(x0, w[:2 * p + 1], p)[3]
        if signs and bound_p < bound:
            tail, bound = tail_p, bound_p
    return tail, bound


def reference_base_state(g: Representer, x0: float, m: int, tol: float,
                         max_n: int) -> tuple[tuple, None]:
    """The product loop with two calls of g per level: each level sums the log terms of
    [n/2, n) with ``_log_terms``, then evaluates g at n .. n+2p and x0+n. Where the
    loop would go on to a new block of g(x0+k), at n = max_n, a block end or any n
    past CHUNK, a trusted order-p bound above tol tries the orders up to TOP_ORDER
    (``_highest_trusted``). It returns the tightest level as ``_scaled`` takes it,
    (bound, n, log p_n, log f(x0), rel_gap, converged), and hands the forward
    scaling no values of g, so the scaling makes its own call."""
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    n, have = 4, 0  # log_pn sums the log terms for k < have
    log_pn = 0.0
    prev_gap, prev_log_value = math.inf, None
    prev_d1 = 0.0  # no level yet: only Delta log g(n) = 0 counts as shrinking
    prev_signs = 3  # ... and either sign of Delta^p log g as kept
    stalled = 0
    best = (math.inf,)  # (bound, n, log_pn, log_value, rel_gap) of the tightest level
    while True:
        for lo in range(have, n, CHUNK):
            log_pn += _log_terms(g, x0, lo, min(lo + CHUNK, n))
        prev, have = have, n
        # g at n .. n+2p for the order-p terms, then at x0 + n for the sandwich
        vals = g.values(np.array([*range(n, n + 2 * ORDER + 1), x0 + n], dtype=float)).tolist()
        log_pn1, log_gx, rel_gap = _sandwich_logs(g, x0, n, log_pn, vals[0], vals[-1])
        tail, bound, d1, signs = _gauss_tail(x0, vals[:-1], ORDER)
        rounding = (n + abs(m) + 1) * EPS
        # the order-p bound needs Delta^p log g to keep the sign it kept at the last level
        if signs & prev_signs and (d1 == 0.0 or abs(d1) <= SHRINK * abs(prev_d1)):
            if bound + rounding > tol and (n == max_n or n in BLOCK_ENDS or n > CHUNK):
                tail, bound = _highest_trusted(g, x0, prev, n, tail, bound)
            log_value = log_pn + tail
        else:
            log_value = 0.5 * (log_pn + log_pn1) + log_gx
            bound = 0.5 * abs(log_pn - log_pn1)
            if prev_log_value is not None:  # the sandwich alone brackets only log-convex f
                bound = max(bound, abs(log_value - prev_log_value))
        bound += rounding
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
    bound, n, log_pn, log_value, rel_gap = best
    return (bound, n, log_pn, log_value, rel_gap, bound <= tol), None


def bits(values) -> list:
    """``values`` with each float as its hex."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def outcome(g: Representer, x: float, tol: float = bm.DEFAULT_TOL, max_n: int = bm.DEFAULT_MAX_N):
    """The state's fields (floats by their bits), or the exception's class, message and
    attributes, and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = tuple(bits(astuple(extended_state(g, x, tol, max_n))))
        except Exception as exc:  # noqa: BLE001 - every exception is compared
            got = type(exc), str(exc), repr(sorted(vars(exc).items()))
    return got, [(w.category, str(w.message)) for w in caught]


def reference_outcome(g: Representer, x: float, tol: float = bm.DEFAULT_TOL, max_n: int = bm.DEFAULT_MAX_N):
    with mock.patch.object(bm, "_base_state", reference_base_state):
        return outcome(g, x, tol, max_n)


@lru_cache(maxsize=None)
def representer(spec: str) -> Representer:
    return from_spec(spec)


def count_calls(monkeypatch) -> list:
    """The sizes of the calls of g from here on."""
    calls = []
    values = Representer.values
    monkeypatch.setattr(Representer, "values", lambda g, xs: calls.append(len(xs)) or values(g, xs))
    return calls


FAMILIES = st.one_of(
    st.just("identity"),
    st.floats(0.05, 6.0).map(lambda a: f"x+{round(a, 3)!r}"),
    st.just("x*(x+1)"),
    st.floats(0.2, 3.0).map(lambda c: f"power:c={round(c, 3)!r}"),
    st.just("fibonacci"),
    rational().map(lambda rep: rep[0]),
)
MAX_NS = st.sampled_from([4, 5, 7, 100, 256, 300, 5000, 2 ** 20])


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(FAMILIES, st.floats(-5.0, 40.0), st.floats(-12.0, -4.0).map(lambda e: 10.0 ** e), MAX_NS)
    @example("x*(20.5-x)", 0.5, 1e-8, 2 ** 20)  # g(21 .. 24) < 0 in the window of level 16
    @example("x*(20.5-x)", 0.5, 1e-8, 16)  # ... the last level, which returns
    @example("identity", 0.37, 1e-8, 16)  # a first block that ends at 16
    @example("power:c=0.5", 257.37, 1e-8, 2 ** 20)  # g(x0+k), k < 257, all from the first block
    @example("power:c=0.5", 258.37, 1e-8, 2 ** 20)  # ... one past it: its own call
    @example("x*exp(exp(-x/10))", 0.37, 1e-10, 64)  # orders 7 and 8 flip their signs from level 32 to 64
    @example("x*exp(exp(-x/10))", 0.05, 1e-8, 100)  # ... and from 64 to 100
    def test_states_and_exceptions_match_two_calls_per_level(self, spec, x, tol, max_n):
        g = representer(spec)
        assert outcome(g, x, tol, max_n) == reference_outcome(g, x, tol, max_n), (spec, x, tol, max_n)

    @pytest.mark.parametrize("spec,x,tol", [
        ("x + exp(5*x-600)", 0.5, 1e-6),  # g overflows at x = 262, past the level where the loop stops
        ("x + exp(5*x-600)", 0.5, 1e-12),  # ... and where it does not stop before
        ("exp(x^0.9)", 0.5, 1e-8),  # g overflows at x = 1473, in the second block
        ("exp(x^2/90)", 0.5, 1e-8),  # diverges at n = 32; g overflows in the first block
        ("x^-130", 0.5, 1e-6),  # g underflows below POLE_TOL past the level where the loop stops
        ("x^-130", 0.5, 1e-12),  # ... and the loop's PoleError at k = 203
        ("1e-288*x^-5", 0.5, 1e-6),  # g below POLE_TOL, not underflowing, past the level where the loop stops
        ("1e-288*x^-5", 0.5, 1e-8),  # ... and the loop's PoleError at k = 251
    ])
    def test_faults_in_a_block_replay_its_levels(self, spec, x, tol):
        g = representer(spec)
        assert outcome(g, x, tol) == reference_outcome(g, x, tol)

    @pytest.mark.parametrize("max_n,n", [(20000, CHUNK), (2 ** 20, 2 ** 20)])
    def test_every_block_and_the_levels_past_the_last(self, max_n, n):
        """The sandwich fallback (Delta^4 log g changes sign) converges like 1/n here, so
        the loop runs the three blocks, and then levels with their own calls up to max_n."""
        g = representer("x + 0.5*sin(x)")
        got = outcome(g, 0.37, 1e-8, max_n)
        assert got[0][0] == n
        assert got == reference_outcome(g, 0.37, 1e-8, max_n)

    @pytest.mark.parametrize("g", [
        representer("x - exp(5*x-1350)"),  # g(272) < 0
        Representer(fn=RealFunction(fn=lambda t: t * np.exp(np.where(t > 270.0, 1000.0, 0.0)), name="overflowing")),
        Representer(fn=RealFunction(fn=lambda t: t, domain=(-math.inf, 270.0), name="clipped")),
    ], ids=["non-positive", "signal", "exception"])
    def test_a_fault_in_the_higher_orders_window_leaves_order_4(self, g):
        """g fails only in g(265 .. 272), the values the orders past ORDER add at n = 256,
        which the first block's call evaluates, so its levels are replayed with their own
        calls. With max_n = 256 the level keeps order 4's bound, above tol 1e-12, and
        nothing is raised or warned; without, level 512's own call raises the fault."""
        got, caught = outcome(g, 0.5, 1e-12, 256)
        assert got[0] == 256 and not got[-1] and caught == []
        assert bm._Numerator().level(g, 256, TOP_ORDER)[2][1:] == ()
        for max_n in (256, 2 ** 20):
            assert outcome(g, 0.5, 1e-12, max_n) == reference_outcome(g, 0.5, 1e-12, max_n)

    @pytest.mark.parametrize("k", [265, 272])
    @pytest.mark.parametrize("fault", ["non-positive", "signal", "exception"])
    def test_a_warm_representer_past_a_fault_in_the_higher_orders_window(self, fault, k):
        """g faults at k alone, in (256 + 8, 256 + 16]: the call of a block that ends at 256
        evaluates g(k) and faults, so its levels make their own calls and level 256's
        record of the orders past ORDER is a faulted quiet call, while a block that ends at
        128 stops short of k. Each point, before or after the others on one representer,
        gives the reference loop's outcome on a fresh one."""
        def fn(t):
            if fault == "exception" and np.any(t == k):
                raise ValueError(f"no value at {k}")
            return t * np.exp(np.where(t == k, 1000.0, 0.0)) if fault == "signal" else np.where(t == k, -1.0, t)

        def make():
            return Representer(fn=RealFunction(fn=fn, name="holed"))
        points = [(0.5, 1e-12, 2 ** 20), (0.5, 1e-12, 256), (0.37, 1e-12, 128)]  # blocks to 256, 256 and 128
        want = [reference_outcome(make(), *point) for point in points]
        assert [got[0][0] for got in want[1:]] == [256, 128] and want[1][1] == want[2][1] == []
        for order in (points, points[::-1]):
            warm = make()
            assert [outcome(warm, *point) for point in order] == [want[points.index(pt)] for pt in order]

    @pytest.mark.parametrize("at,value,error", [
        (16.5, 0.0, (PoleError, "g(x+k) vanishes at k=16 (x+k=16.5)")),
        (16.0, -1.0, (NonPositiveError,
                      "representer must stay positive on (0, inf); g(k) or g(x+k) <= 0 at k=16 (x=0.5)")),
    ], ids=["pole", "non-positive"])
    def test_a_fault_at_k_equal_n_raises_that_term_s_error(self, at, value, error):
        """g(16.5) = 0 or g(16) = -1 faults the first block, so level 16 makes its own calls,
        whose value at k = n fails, and raises the k = 16 term's error, as the reference
        loop and ``sandwich_bounds`` at n = 16 do."""
        g = Representer(fn=RealFunction(fn=lambda t: np.where(t == at, value, t), name="holed"))
        got = outcome(g, 0.5)
        assert got == reference_outcome(g, 0.5)
        assert got[0][:2] == error and got[1] == []
        with pytest.raises(error[0]) as raised:
            sandwich_bounds(g, 0.5, 16)
        assert (type(raised.value), str(raised.value), repr(sorted(vars(raised.value).items()))) == got[0]

    def test_a_late_fault_is_neither_raised_nor_warned_about(self):
        state, caught = outcome(representer("x + exp(5*x-600)"), 0.5, 1e-6)
        assert state[0] == 64 and state[-1] and caught == []

    def test_a_fault_the_loop_reaches_keeps_its_exception_and_warning(self):
        got, caught = outcome(representer("x + exp(5*x-600)"), 0.5, 1e-12)
        assert got[:2] == (NonFiniteError, "x + exp(5*x-600): non-finite value at x=262.0")
        assert caught == [(RuntimeWarning, "overflow encountered in exp")]
        got, caught = outcome(representer("exp(x^0.9)"), 0.5)
        assert got[:2] == (NonFiniteError, "exp(x^0.9): non-finite value at x=1473.0")
        assert caught == [(RuntimeWarning, "overflow encountered in exp")]

    def test_divergence_is_raised_at_its_level(self):
        got, caught = outcome(representer("exp(x^2/90)"), 0.5)
        assert got[0] is DivergenceError and "(n=32)" in got[1] and caught == []

    def test_a_domain_end_inside_a_block_raises_at_its_level(self):
        g = Representer(fn=RealFunction(fn=lambda t: t, domain=(-math.inf, 100.0), name="clipped"))
        got, _ = outcome(g, 0.5, 1e-12)
        assert got == reference_outcome(g, 0.5, 1e-12)[0]
        assert "x=100.0 outside open domain" in got[1]

    @pytest.mark.parametrize("x,chain", [(0.5, []), (50.37, []), (-3.5, [4])])
    def test_one_call_of_g_for_the_default_tolerance(self, monkeypatch, x, chain):
        """Gamma(1/2) stops at n = 128: the first block (levels 4 .. 256) makes the one
        call, where two calls per level made twelve. The forward chain to 50.37 takes
        its 50 factors from that call; the backward chain to -3.5 makes its own. A
        second call on the same g takes g(k) from the first and calls g at x0+k alone."""
        calls = count_calls(monkeypatch)
        g = builtin("identity")
        state = extended_state(g, x)
        assert state.n == 128 and state.converged
        assert calls == [(256 + 2 * TOP_ORDER + 1) + (256 + 1)] + chain
        calls.clear()
        assert extended_state(g, x) == state
        assert calls == [256 + 1] + chain

    @pytest.mark.parametrize("spec", ["identity", "x+0.37", "x*(x+1)", "power:c=0.7", "power:c=1.5"])
    def test_one_call_of_g_at_x0_plus_k_for_tol_1e_12(self, monkeypatch, spec):
        """Order 4 meets tol 1e-12 only at n = 2048, in the second block. The first
        block's last level, n = 256, tries the orders up to TOP_ORDER instead and stops
        there, so g(x0+k) is evaluated once, for k up to 256. The block's one call on a
        fresh g covers the values the higher orders add, g(265 .. 272), too."""
        calls = count_calls(monkeypatch)
        g = from_spec(spec)
        for i, x in enumerate((0.05, 0.37, 0.5, 0.93)):
            state = extended_state(g, x, 1e-12)
            assert state.n == 256 and state.converged, (x, state)
            first = [(256 + 2 * TOP_ORDER + 1) + (256 + 1)]
            assert calls == (first if i == 0 else [256 + 1]), (x, calls)
            calls.clear()

    def test_a_warm_point_reads_both_levels_records_from_the_cache(self, monkeypatch):
        """A tol-1e-12 point that stops at n = 256 qualifies the orders past ORDER against
        the records of levels 256 and 128. A fresh representer forms each once from its
        own window g(k .. k+2 TOP_ORDER), a slice of the block's one call, after the
        order-ORDER records of the levels the loop walks. A warm point at
        another x forms no record again and makes only its block's call; the records of
        the orders past ORDER are kept for those doubling levels alone."""
        calls = count_calls(monkeypatch)
        formed = []
        level = bm._level
        monkeypatch.setattr(bm, "_level", lambda win: formed.append(len(win)) or level(win))
        g = builtin("identity")
        assert extended_state(g, 0.37, 1e-12).n == 256
        assert formed == [2 * ORDER + 1] * 7 + [2 * TOP_ORDER + 1] * 2  # levels 4 .. 256, then 256 and 128
        assert calls == [(256 + 2 * TOP_ORDER + 1) + (256 + 1)]
        formed.clear()
        calls.clear()
        state = extended_state(g, 0.81, 1e-12)
        assert state.n == 256 and state.converged
        assert formed == [] and calls == [256 + 1]
        assert sorted(n for n, (top, _) in g.product_terms["numerator"].levels.items() if top > ORDER) == [128, 256]


WINDOW = st.floats(1e-300, 1e300) | st.floats(-2.0, 0.0)


def table(values: dict[float, float]) -> Representer:
    """g(t) = values[t] at the keys of ``values``, 1 + t/8 elsewhere."""
    def fn(t):
        return np.array([values.get(float(u), 1.0 + float(u) / 8) for u in np.ravel(t)]).reshape(np.shape(t))
    return Representer(fn=RealFunction(fn=fn, name="table"))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True),
       st.lists(st.tuples(st.floats(1e-300, 1e300), st.lists(WINDOW, min_size=2 * ORDER, max_size=2 * ORDER),
                          st.floats(1e-300, 1e300)), min_size=1, max_size=8))
def test_level_terms_are_the_scalar_rules_level_by_level(x0, rows):
    """Each level's terms have the bits of ``_gauss_tail`` and ``_sandwich_logs`` on that
    level, also for a window that holds a non-positive value. The order-p terms are
    ``_level`` and ``_gauss_terms`` on the window (a window without differences leaves
    Delta log g(n) nan and no sign: the sandwich decides); the sandwich terms are taken
    inline by the loop, so the loop's level 4 on g = the window at 4 .. 4+2p and g(x0+4),
    1 + t/8 elsewhere, is held to the reference loop's."""
    coeffs = bm._coefficients(x0, ORDER)
    for g_n, rest, g_xn in rows:
        got_g_n, log_gn, orders = bm._level([g_n, *rest])
        got = (0.0, math.inf, math.nan, 0)
        for _, d, signs, allowance in orders:  # one order, ORDER, or none
            got = (*bm._gauss_terms(coeffs, d, allowance, ORDER), d[1], signs)
        assert got_g_n == g_n and log_gn.hex() == math.log(g_n).hex()
        assert bits(got) == bits(_gauss_tail(x0, [g_n, *rest], ORDER))
        g = table({**{4.0 + i: v for i, v in enumerate([g_n, *rest])}, x0 + 4.0: g_xn})
        level = bm._base_state(g, x0, 0, 1e-8, 4)[0]
        assert level[1] == 4
        assert bits(level) == bits(reference_base_state(g, x0, 0, 1e-8, 4)[0])


CALLS = st.tuples(st.floats(-5.0, 40.0), st.floats(-12.0, -4.0).map(lambda e: 10.0 ** e), MAX_NS)


@settings(max_examples=150, deadline=None)
@given(FAMILIES | st.just("exp(x^0.9)"), st.lists(CALLS, min_size=2, max_size=5))
@example("identity", [(0.37, 1e-12, 100), (0.37, 1e-12, 300), (-2.6, 1e-10, 2 ** 20)])  # entries that grow
@example("exp(x^0.9)", [(0.5, 1e-8, 2 ** 20), (0.25, 1e-12, 5000)])  # g overflows in the second block
@example("x + 1/(x-10.5)^2", [(0.37, 1e-8, 2 ** 20), (0.5, 1e-8, 2 ** 20)])  # g(x0+k) alone faults
def test_a_warm_representer_gives_the_cold_outcomes(spec, calls):
    """One representer runs the calls in turn, each on what the earlier ones cached;
    a fresh representer per call gives the same state bits, exceptions and warnings."""
    warm = from_spec(spec)
    for x, tol, max_n in calls:
        assert outcome(warm, x, tol, max_n) == outcome(from_spec(spec), x, tol, max_n), (spec, x, tol, max_n)


@settings(max_examples=100, deadline=None)
@given(FAMILIES | st.sampled_from(["exp(x^0.9)", "x + exp(5*x-600)", "1e-288*x^-5", "x + 0.5*sin(x)"]),
       st.lists(CALLS, min_size=1, max_size=5))
@example("identity", [(0.37, 1e-12, 100), (0.5, 1e-12, 2 ** 20)])  # a short block, then the first
@example("power:c=40", [(0.05, 1e-13, 2 ** 20)])  # the higher orders past the second block
@example("x + 0.5*sin(x)", [(0.37, 1e-8, 300), (0.37, 1e-8, 20000)])  # ... and to the last block
def test_the_numerator_holds_g_s_own_values(spec, calls):
    """After any calls on one representer, the numerator's g(k) are those of a fresh call
    of g at every k < K (g(1) for g(0) := 1), each at least POLE_TOL, their logs those
    of ``np.log`` with log g(0) := 0, and K <= CHUNK + 2 TOP_ORDER + 1; both arrays own
    their memory, so the numerator keeps none of a call's g(x0+k)."""
    g = from_spec(spec)
    for x, tol, max_n in calls:
        outcome(g, x, tol, max_n)
    if all(bm.reduce_to_base(x)[0] == 1.0 for x, _, _ in calls):  # only anchors ran, and they cache nothing
        return
    num = g.product_terms["numerator"]
    ks = np.arange(num.g.size, dtype=float)
    ks[:1] = 1.0
    want = from_spec(spec).values(ks)
    logs = np.log(want)
    logs[:1] = 0.0
    assert bits(num.g.tolist()) == bits(want.tolist()) and bits(num.logs.tolist()) == bits(logs.tolist())
    assert num.g.size <= CHUNK + 2 * TOP_ORDER + 1 and not num.g.min(initial=math.inf) < POLE_TOL
    assert num.g.base is None and num.logs.base is None


def test_the_cache_holds_one_numerator_whatever_max_n():
    """Sweeping x, tol and max_n over every block leaves one numerator, g(k) for every k
    of the last block's windows, with the terms of the doubling levels alone, and no
    more memory than its g(k) and log g(k). ``x + 0.5*sin(x)`` converges like 1/n (the
    sandwich fallback), so each call runs its levels to max_n."""
    g = from_spec("x + 0.5*sin(x)")
    extended_state(g, 0.37, 1e-8, 4)
    max_ns = [*range(4, 300), *range(300, CHUNK + 1, 331), CHUNK]
    random.Random(1).shuffle(max_ns)  # entries that grow, and hits at every max_n
    tracemalloc.start()
    try:
        for i, max_n in enumerate(max_ns):
            extended_state(g, 0.01 + (0.37 * i) % 1.0, 10.0 ** -(8 + i % 5), max_n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(g.product_terms) == ["numerator"]
    num = g.product_terms["numerator"]
    assert num.g.size == num.logs.size == CHUNK + 2 * TOP_ORDER + 1
    assert all(n & (n - 1) == 0 for n in num.levels), sorted(num.levels)
    assert held < num.g.nbytes + num.logs.nbytes + 2 ** 15, held


def test_order_4_settles_the_tol_1e_8_states(monkeypatch):
    """Over seeded points of the Gamma-type families, order 4 meets tol 1e-8 inside a
    block, where no higher order is tried: with TOP_ORDER = ORDER every state keeps
    its bits. Fresh representers, so no cached terms of the higher orders are reused."""
    rng = random.Random(25)
    specs = ["identity", "x*(x+1)", *(f"x+{round(rng.uniform(0.05, 6.0), 3)!r}" for _ in range(4)),
             *(f"power:c={round(rng.uniform(0.2, 3.0), 3)!r}" for _ in range(4))]
    calls = [(spec, rng.uniform(-5.0, 40.0)) for spec in specs for _ in range(30)]
    default = [outcome(from_spec(spec), x, 1e-8) for spec, x in calls]
    monkeypatch.setattr(bm, "TOP_ORDER", ORDER)
    assert [outcome(from_spec(spec), x, 1e-8) for spec, x in calls] == default


def test_the_higher_orders_are_kept_for_doubling_levels_alone():
    """``power:c=40`` tries the higher orders at the last level of the first block for
    tol 1e-10 and below. Sweeping x, tol and max_n keeps their terms for
    the doubling levels alone, in the one numerator, within the memory bound
    of ``test_the_cache_holds_one_numerator_whatever_max_n``."""
    g = from_spec("power:c=40")
    max_ns = [*range(4, 300), *range(300, 4097, 97), 4096]
    random.Random(2).shuffle(max_ns)
    tracemalloc.start()
    try:
        for i, max_n in enumerate(max_ns):
            extended_state(g, 0.05 + 0.9 * ((0.37 * i) % 1.0), 10.0 ** -(10 + i % 4), max_n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(g.product_terms) == ["numerator"]
    num = g.product_terms["numerator"]
    highs = [n for n, (top, _) in num.levels.items() if top > ORDER]
    assert num.g.size == 4096 + 2 * TOP_ORDER + 1 and 256 in highs
    assert all(n & (n - 1) == 0 for n in highs), sorted(highs)
    assert held < num.g.nbytes + num.logs.nbytes + 2 ** 15, held


@pytest.mark.parametrize("spec,flips", [("x*exp(3*exp(-x/50))", [6]), ("x^2*exp(10*exp(-x/80))", [5, 6])])
def test_a_higher_order_must_keep_the_sign_of_the_level_before(spec, flips):
    """log g = log x^a + c exp(-x/s): the exponential's differences shrink like
    (1/s)^p and log x^a's like p!/n^p, so which one sets the sign of Delta^p log g
    can change between n = 128 and 256 for some orders p alone. Those orders keep one
    sign over each window, a different one, and are not trusted at 256; the others
    are those whose signs by ``_gauss_tail`` agree. Each level's record holds its own
    window's signs, and the loop qualifies the orders whose records share a sign."""
    g = from_spec(spec)
    wins = [g.values(k + np.arange(2 * TOP_ORDER + 1, dtype=float)).tolist() for k in (128, 256)]
    signs = {p: [_gauss_tail(0.5, w[:2 * p + 1], p)[3] for w in wins] for p in range(ORDER + 1, TOP_ORDER + 1)}
    assert [p for p, (a, b) in signs.items() if a and b and not a & b] == flips
    num = bm._Numerator()
    records = [num.level(g, k, TOP_ORDER)[2][1:] for k in (256, 128)]  # the level, then the one before
    assert [[r[2] for r in rec] for rec in records[::-1]] == [list(s) for s in zip(*signs.values())]
    qualified = [a[0] for a, b in zip(*records) if a[2] & b[2]]
    assert qualified == [p for p, (a, b) in signs.items() if a & b]


def fresh_record(g: Representer, k: int, top: int) -> tuple:
    """A ``_level`` record from its definition, on one fresh call of g at k .. k+2 top:
    (g(k), log g(k), [(p, *``_differences`` of math.log of g(k .. k+2p))]) for p = ORDER
    .. top where the whole window is > 0, for p = ORDER alone where only g(k .. k+2 ORDER)
    is, and for no p otherwise; None where the call faults."""
    try:
        with np.errstate(all="raise"):
            win = g.values(k + np.arange(2 * top + 1, dtype=float)).tolist()
    except Exception:  # noqa: BLE001 - every fault leaves no record
        return None
    ps = range(ORDER, top + 1) if min(win) > 0.0 else [ORDER] if min(win[:2 * ORDER + 1]) > 0.0 else []
    return win[0], math.log(win[0]), [(p, *bm._differences([math.log(v) for v in win[:2 * p + 1]], p)) for p in ps]


def record_bits(record: tuple) -> tuple:
    """A record with each order's differences cut to its own p + 1."""
    g_n, log_gn, orders = record
    return bits([g_n, log_gn]), repr([(p, bits(d[:p + 1]), signs, allowance) for p, d, signs, allowance in orders])


@settings(max_examples=60, deadline=None)
@given(FAMILIES, st.sampled_from([2 ** j for j in range(2, 16)]))
@example("fibonacci", 2 ** 10)  # the last doubling level before g overflows
def test_a_level_s_record_is_its_own_window_s_differences(spec, k):
    """``_level`` on a 9- or a 17-value window g(k .. k+2 top) has, for each order p, the bits
    of ``_differences`` on math.log of a fresh g(k .. k+2p), and its orders share one list
    of differences, cut at p + 1 for order p."""
    g = from_spec(spec)
    for top in (ORDER, TOP_ORDER):
        want = fresh_record(from_spec(spec), k, top)
        if want is None:
            continue
        got = bm._level(g.values(k + np.arange(2 * top + 1, dtype=float)).tolist())
        assert record_bits(got) == record_bits(want), (spec, k, top)
        assert len({id(d) for _, d, _, _ in got[2]}) <= 1 and all(len(d) == p + 1 for p, d, _, _ in got[2][-1:])


@pytest.mark.parametrize("value", [0.0, -0.5])
@pytest.mark.parametrize("at", range(1, 2 * TOP_ORDER + 1))
def test_a_value_at_most_0_leaves_the_orders_whose_windows_miss_it(at, value):
    """A 17-value window with g(n + at) <= 0 has order ORDER alone where ``at`` is past order
    ORDER's window, with the bits of the 9-value window's record, and no order otherwise."""
    win = [1.0 + k / 8 for k in range(2 * TOP_ORDER + 1)]
    win[at] = value
    got = bm._level(win)
    assert [p for p, _, _, _ in got[2]] == ([ORDER] if at > 2 * ORDER else [])
    assert record_bits(got) == record_bits(bm._level(win[:2 * ORDER + 1]))


@settings(max_examples=40, deadline=None)
@given(FAMILIES, st.lists(st.tuples(st.sampled_from([2 ** j for j in range(2, 16)]),
                                    st.sampled_from([ORDER, TOP_ORDER])), min_size=1, max_size=5))
@example("identity", [(CHUNK, TOP_ORDER), (2 * CHUNK, TOP_ORDER), (128, ORDER), (128, TOP_ORDER)])
@example("fibonacci", [(CHUNK, TOP_ORDER), (256, TOP_ORDER)])  # g overflows before 2^11: a faulted call
def test_the_numerator_s_records_are_their_windows_records(spec, asks):
    """``_Numerator.level(g, k, top)`` on a numerator that one product call filled up to
    k = 256 + 2 TOP_ORDER: a slice where it holds g(k .. k+2 top), else one quiet call of
    its own. In any order of asks, the record has the bits of ``fresh_record``; the
    orders past ``top`` of a record kept for a larger top are there too. A faulted call
    gives a record without orders, keeps nothing, and raises and warns nothing."""
    g = from_spec(spec)
    outcome(g, 0.5, 1e-8, 256)
    num = g.product_terms.setdefault("numerator", bm._Numerator())
    for k, top in asks:
        kept = num.levels.get(k, (0,))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = num.level(g, k, top)
        want = fresh_record(from_spec(spec), k, max(top, kept))
        if want is None:
            assert got[2] == () and num.levels.get(k, (0,))[0] == kept, (spec, k, top)
        else:
            assert record_bits(got) == record_bits(want), (spec, k, top)
            assert num.levels[k][0] == max(top, kept), (spec, k, top)


class TestIntegerAnchors:
    """An integer x runs no product: f(x) = prod g(1 .. x-1), from the numerator's cached
    g(k), k < K, where a representer holds them all, else from a call of g."""

    def test_a_warm_anchor_makes_no_call_of_g(self, monkeypatch):
        calls = count_calls(monkeypatch)
        g = builtin("identity")
        extended_state(g, 0.5)
        calls.clear()
        for x in range(1, 274):  # f(x) = (x-1)! leaves float range at x = 172: a NonFiniteError
            outcome(g, float(x))
        assert calls == [] and extended_state(g, 20.0).value == math.factorial(19)
        for x in (274.0, 275.0):
            outcome(g, x)
        assert calls == [273, 274]

    @pytest.mark.parametrize("spec", ["identity", "x+0.37", "x+2.5", "x*(x+1)", "power:c=0.7", "power:c=1.5",
                                      "power:c=0.5"])
    def test_a_warm_anchor_has_the_bits_of_a_cold_one(self, spec):
        """x = 1 .. 275 crosses the cache's end at x = 273 / 274; the others leave float
        range before it, power:c=0.5 (f(x) = sqrt((x-1)!)) does not. An anchor fills no
        cache, so one representer that never ran a product serves every cold call."""
        warm, cold = from_spec(spec), from_spec(spec)
        extended_state(warm, 0.5)
        assert warm.product_terms["numerator"].g.size == BLOCK_ENDS[0] + 2 * TOP_ORDER + 1
        for x in range(1, 276):
            got = outcome(warm, float(x))
            assert got == outcome(cold, float(x)), (spec, x)
        assert cold.product_terms == {}
        assert spec != "power:c=0.5" or got[0][-1] is True  # a state at x = 275

    def test_an_anchor_past_a_faulted_or_short_entry_makes_the_call(self, monkeypatch):
        """g = x + exp(5x - 600) overflows at 262. Its first block faults at tol 1e-6 and
        keeps no g(k); with max_n = 16 its call covers g(k) for k <= 32, the window of the
        orders past ORDER at its last level. Where the numerator does not hold g(1 .. x-1), the
        anchor makes the call a fresh representer makes, with its exception and warning."""
        spec = "x + exp(5*x-600)"
        faulted, short = from_spec(spec), from_spec(spec)
        assert extended_state(faulted, 0.5, 1e-6).n == 64 and faulted.product_terms["numerator"].g.size == 0
        extended_state(short, 0.5, 1e-8, 16)
        assert short.product_terms["numerator"].g.size == 16 + 2 * TOP_ORDER + 1
        calls = count_calls(monkeypatch)
        for g, x, call in [(faulted, 10.0, [9]), (faulted, 263.0, [262]), (short, 33.0, []),
                           (short, 34.0, [33]), (short, 263.0, [262])]:
            want = outcome(from_spec(spec), x)
            calls.clear()
            assert outcome(g, x) == want and calls == call, (x, call)
        assert want == ((NonFiniteError, "x + exp(5*x-600): non-finite value at x=262.0",
                         repr([("value", math.inf), ("x", 262.0)])),
                        [(RuntimeWarning, "overflow encountered in exp")])

    def test_a_warm_anchor_past_the_first_block_makes_no_call_of_g(self, monkeypatch):
        """After a call that runs every block, the numerator holds g(k) for k < CHUNK + 17,
        so the anchors up to x = CHUNK + 17 make no call of g, and give a cold call's
        state, exception and warning; the next makes the cold call, whose product leaves
        float range in its first CHUNK factors, so the chain stops there."""
        spec = "x + 0.5*sin(x)"
        warm, cold = from_spec(spec), from_spec(spec)
        extended_state(warm, 0.37, 1e-8, 20000)
        last = CHUNK + 2 * TOP_ORDER + 1
        assert warm.product_terms["numerator"].g.size == last
        want = {x: outcome(cold, x) for x in (266.0, 1000.0, float(last), last + 1.0)}
        calls = count_calls(monkeypatch)
        for x in (266.0, 1000.0, float(last)):
            assert outcome(warm, x) == want[x], x
        assert calls == []
        assert outcome(warm, last + 1.0) == want[last + 1.0] and calls == [CHUNK]

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_a_negative_integer_is_still_a_pole(self, x):
        warm = builtin("identity")
        extended_state(warm, 0.5)
        for g in (warm, builtin("identity")):
            with pytest.raises(PoleError):
                extended_state(g, x)
