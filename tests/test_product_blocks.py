"""The product loop's blocks: one call of g for a block of doubling levels.

``_base_state`` evaluates g once for all the levels up to a block end and
walks the levels over slices of that call. These tests hold it to the loop
with two calls of g per level, kept here as ``reference_base_state``: the
same state bits, the same exceptions with the same messages and attributes,
and the same warnings, also where g fails past the level where the loop
stops.
"""

import math
import warnings
from dataclasses import astuple
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconvex import NonFiniteError, RealFunction, Representer, builtin, extended_state, from_spec
from logconvex import bohrmollerup as bm
from logconvex.bohrmollerup import CHUNK, ORDER, SHRINK, ProductState, _gauss_tail, _log_terms, _sandwich_logs
from logconvex.errors import DivergenceError
from logconvex.funcore import EPS
from test_rational_family import rational


def reference_base_state(g: Representer, x0: float, m: int, tol: float, max_n: int) -> ProductState:
    """The product loop with two calls of g per level: each level sums the log terms of
    [n/2, n) with ``_log_terms``, then evaluates g at n .. n+2p and x0+n."""
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


def outcome(g: Representer, x: float, tol: float = bm.DEFAULT_TOL, max_n: int = bm.DEFAULT_MAX_N):
    """The state's fields (floats by their bits), or the exception's class, message and
    attributes, and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = tuple(v.hex() if isinstance(v, float) else v for v in astuple(extended_state(g, x, tol, max_n)))
        except Exception as exc:  # noqa: BLE001 - every exception is compared
            got = type(exc), str(exc), repr(sorted(vars(exc).items()))
    return got, [(w.category, str(w.message)) for w in caught]


def reference_outcome(g: Representer, x: float, tol: float = bm.DEFAULT_TOL, max_n: int = bm.DEFAULT_MAX_N):
    with mock.patch.object(bm, "_base_state", reference_base_state):
        return outcome(g, x, tol, max_n)


@lru_cache(maxsize=None)
def representer(spec: str) -> Representer:
    return from_spec(spec)


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

    def test_one_call_of_g_for_the_default_tolerance(self, monkeypatch):
        """Gamma(1/2) stops at n = 128: the first block (levels 4 .. 256) makes the one
        call, where two calls per level made twelve."""
        calls = []
        values = Representer.values
        monkeypatch.setattr(Representer, "values", lambda g, xs: calls.append(len(xs)) or values(g, xs))
        state = extended_state(builtin("identity"), 0.5)
        assert state.n == 128 and state.converged
        assert calls == [(256 + 2 * ORDER + 1) + (256 + 1)]
