"""Proving ground: rational representers with a closed-form interpolant.

For g(x) = c * prod_i (x + a_i) / prod_j (x + b_j), with as many a_i as b_j and
all of them positive, the log-convex solution of f(x+1) = g(x) f(x), f(1) = 1, is

    f(x) = c^(x-1) * prod_i Gamma(x + a_i) / Gamma(1 + a_i) * prod_j Gamma(1 + b_j) / Gamma(x + b_j),

so (log f)''(x) = sum_i psi1(x + a_i) - sum_j psi1(x + b_j). mpmath is the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconvex import extend, extended_state, logconvexity_series, parse_representer

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
    def test_series_is_the_trigamma_difference(self, rep, x, tol):
        spec, _, a, b = rep
        got = logconvexity_series(parse_representer(spec), x, tol)
        want = oracle_d2_log(a, b, x)
        # the series' tolerance is relative to max(1, |sum|)
        assert float(abs(got - want)) <= tol * max(1.0, float(abs(want))), (spec, x)

    @settings(max_examples=60, deadline=None)
    @given(rational(), POINTS, st.sampled_from([1e-8, 1e-12]))
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
