"""Proving ground: rational representers with a closed-form interpolant.

For g(x) = c * prod_i (x + a_i) / prod_j (x + b_j), with as many a_i as b_j and
all of them positive, the log-convex solution of f(x+1) = g(x) f(x), f(1) = 1, is

    f(x) = c^(x-1) * prod_i Gamma(x + a_i) / Gamma(1 + a_i) * prod_j Gamma(1 + b_j) / Gamma(x + b_j),

so (log f)''(x) = sum_i psi1(x + a_i) - sum_j psi1(x + b_j). mpmath is the oracle.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logconvex import d2_log, extend, extended_state, logconvexity_series, parse_representer
from logconvex.bohrmollerup import POLE_TOL
from logconvex.convexity import exact_q_d2log
from logconvex.funcore import EPS

mp = pytest.importorskip("mpmath")

SHIFTS = st.floats(0.05, 6.0).map(lambda v: round(v, 3))


@st.composite
def rational(draw):
    """(spec, c, a, b) with 1 to 3 factors above and as many below."""
    degree = draw(st.integers(1, 3))
    c = draw(st.floats(0.25, 4.0).map(lambda v: round(v, 3)))
    a = draw(st.lists(SHIFTS, min_size=degree, max_size=degree))
    b = draw(st.lists(SHIFTS, min_size=degree, max_size=degree))
    num = "*".join(f"(x+{v!r})" for v in a)
    den = "*".join(f"(x+{v!r})" for v in b)
    return f"{c!r}*{num}/({den})", c, a, b


#: arguments away from the integers, where f is anchored exactly
POINTS = st.floats(0.02, 12.0).filter(lambda x: abs(x - round(x)) > 0.01)


def oracle_f(c, a, b, x):
    with mp.workdps(40):
        t = mp.mpf(x)
        out = mp.mpf(c) ** (t - 1)
        for v in a:
            out *= mp.gamma(t + v) / mp.gamma(1 + mp.mpf(v))
        for v in b:
            out *= mp.gamma(1 + mp.mpf(v)) / mp.gamma(t + v)
        return out


def oracle_d2_log(a, b, x):
    with mp.workdps(40):
        t = mp.mpf(x)
        return sum(mp.psi(1, t + v) for v in a) - sum(mp.psi(1, t + v) for v in b)


class TestRationalRepresenters:
    @settings(max_examples=60, deadline=None)
    @given(rational(), POINTS, st.sampled_from([1e-6, 1e-8, 1e-10]))
    # far past the chunks that double: x + k/2 lies before the chunk of 65536 terms
    @example(("2.0*(x+0.5)/((x+2.0))", 2.0, [0.5], [2.0]), 1e6, 1e-8)
    @example(("2.0*(x+0.5)/((x+2.0))", 2.0, [0.5], [2.0]), 1e6, 1e-12)
    def test_series_is_the_trigamma_difference(self, rep, x, tol):
        spec, _, a, b = rep
        got = logconvexity_series(parse_representer(spec), x, tol)
        want = oracle_d2_log(a, b, x)
        # the series' tolerance is relative to max(1, |sum|)
        assert float(abs(got - want)) <= tol * max(1.0, float(abs(want))), (spec, x)

    @settings(max_examples=60, deadline=None)
    @given(rational(), POINTS, st.sampled_from([1e-8, 1e-12]))
    # Delta^4 log g is < 0 at n = 8 and > 0 from n = 16 on: the order-4 bound of
    # n = 16, trusted on its own window, missed f
    @example(("1.0*(x+2.664)*(x+5.633)/((x+3.736)*(x+4.074))", 1.0, [2.664, 5.633], [3.736, 4.074]), 1.5, 1e-8)
    @example(("2.18*(x+0.866)*(x+3.054)*(x+5.553)/((x+3.877)*(x+1.742)*(x+2.851))", 2.18,
              [0.866, 3.054, 5.553], [3.877, 1.742, 2.851]), 0.4615431812936544, 1e-8)
    def test_extend_brackets_the_closed_form(self, rep, x, tol):
        spec, c, a, b = rep
        state = extended_state(parse_representer(spec), x, tol)
        want = oracle_f(c, a, b, x)
        assert state.converged, (spec, x)
        assert state.lower <= want <= state.upper, (spec, x, state)
        assert float(abs(state.value - want) / want) <= tol, (spec, x)

    @settings(max_examples=40, deadline=None)
    @given(rational(), POINTS)
    def test_normalization_and_functional_equation(self, rep, x):
        g = parse_representer(rep[0])
        assert extend(g, 1.0) == 1.0
        here, there = extended_state(g, x), extended_state(g, x + 1.0)
        gx = g(x)
        # both brackets hold f(x+1) = g(x) f(x), so they meet
        assert max(there.lower, gx * here.lower) <= min(there.upper, gx * here.upper), (rep[0], x)

    @pytest.mark.parametrize("spec,a,b", [("2*(2*x+1)/(x+2)", [0.5], [2.0]), ("2*(2*x+1)/(x+1)", [0.5], [1.0])],
                             ids=["catalan", "central binomial"])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_catalan_and_central_binomial_series_meet_tol(self, spec, a, b, x, tol):
        got = logconvexity_series(parse_representer(spec), x, tol)
        want = oracle_d2_log(a, b, x)
        assert float(abs(got - want) / abs(want)) <= tol, (spec, x, tol)


#: x^p, the other family whose scaled copies keep their (log g)''
POWERS = st.floats(0.25, 4.0).map(lambda p: f"x^{round(p, 3)!r}")


def normal(*arrays) -> bool:
    """Every value is finite and either 0 or a normal double."""
    return all(np.all(np.isfinite(v) & ((v == 0.0) | (np.abs(v) >= sys.float_info.min))) for v in arrays)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational().map(lambda r: r[0]), POWERS), st.integers(-300, 300), POINTS)
@example("x^3.0", 150, 30.0)  # f f overflows, f'' f and f'^2 do not
@example("x^3.0", -160, 2.5)  # f f is subnormal
@example("x^1.0", 200, 0.5)  # g g overflows at every term of the series
def test_scaling_leaves_log_d2_and_the_series(spec, e, x):
    """(log(c f))'' = (log f)'', and the interpolant of c g is c^(x-1) times that of
    g, so its series is the same. For c = 10^e, wherever c g, c g' and c g'' are
    finite and normal, ``d2_log`` and ``exact_q_d2log`` of c g are those of g within
    the rounding of f''/f and (f'/f)^2, and the series agree within tol. The series
    of these families stops long before x + 2^16, so c g is checked up to there."""
    c = 10.0 ** e
    g, cg = parse_representer(spec), parse_representer(f"{c!r}*({spec})")
    us = x + np.arange(2.0 ** 16)
    with np.errstate(over="ignore"):  # an overflow is an inf, which ``normal`` rejects
        cgv, *derivs = (np.asarray(fn(us), dtype=float) for fn in (cg.fn.fn, cg.fn.d1, cg.fn.d2))
    # c g below POLE_TOL is a pole to the series
    assume(normal(cgv, *derivs) and np.abs(cgv).min() >= POLE_TOL)
    fv, f1, f2 = (float(fn(x)) for fn in (g.fn.fn, g.fn.d1, g.fn.d2))
    width = 8 * EPS * ((f1 / fv) ** 2 + abs(f2 / fv))
    for rule in (lambda f: d2_log(f, x), lambda f: exact_q_d2log(f, np.array([x]))[2][0]):
        want, got = rule(g.fn), rule(cg.fn)
        assert abs(got - want) <= width, (spec, e, x, got, want)
    tol = 1e-8
    want = logconvexity_series(g, x, tol)
    assert abs(logconvexity_series(cg, x, tol) - want) <= tol * max(1.0, abs(want)), (spec, e, x)
