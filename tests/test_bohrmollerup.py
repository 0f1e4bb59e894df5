"""Product representation, sandwich bounds, extension, series."""

import math
import tracemalloc
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logconvex import (
    DivergenceError,
    DomainError,
    LogconvexError,
    NonFiniteError,
    NonPositiveError,
    PoleError,
    RealFunction,
    Representer,
    SeriesDivergence,
    ZeroValueError,
    builtin,
    d2_log,
    evaluate,
    extend,
    extended_state,
    fib_real,
    from_spec,
    interpolation_targets,
    logconvexity_series,
    parse_representer,
    partial_product,
    sandwich_bounds,
)
from logconvex import bohrmollerup as bm
from logconvex.bohrmollerup import reduce_to_base
from logconvex.funcore import log_d2
from test_product_blocks import _gauss_tail, bits, count_calls, outcome, reference_outcome

SQRT_PI = math.sqrt(math.pi)
IDENTITY = builtin("identity")


def hurwitz_zeta2(x, terms=200_000):
    """Independent oracle for sum over k of (x+k)^-2: partial sum plus the
    integral tail bracket midpoint (tail lies between 1/(x+K) and 1/(x+K-1))."""
    ks = np.arange(terms, dtype=float)
    partial = float(np.sum((x + ks) ** -2.0))
    lo, hi = 1.0 / (x + terms), 1.0 / (x + terms - 1.0)
    return partial + 0.5 * (lo + hi), 0.5 * (hi - lo)


def order_p_terms(g, x0, n):
    """(tail, bound, Delta log g(n), the signs Delta^p log g keeps) of the product's level n at x0,
    by the scalar rule of the reference loop (``tests/test_product_blocks.py``)."""
    return _gauss_tail(x0, g.values(n + np.arange(2 * bm.ORDER + 1, dtype=float)).tolist(), bm.ORDER)


class TestReduceToBase:
    @pytest.mark.parametrize("x,x0,m", [
        (5.0, 1.0, 4), (0.5, 0.5, 0), (1.0, 1.0, 0), (-0.5, 0.5, -1),
        (-1.0, 1.0, -2), (2.7, 0.7, 2), (1e-9, 1e-9, 0),
    ])
    def test_split(self, x, x0, m):
        got_x0, got_m = reduce_to_base(x)
        assert got_m == m
        assert got_x0 == pytest.approx(x0, rel=1e-12)
        assert 0.0 < got_x0 <= 1.0

    @given(st.floats(-1e300, 1e300))
    @example(2.0 ** 53 + 2)  # x - m rounds here: m was one too large
    @example(1e20)  # ... and here one too small
    @example(-2.0 ** 60)
    def test_the_split_is_exact(self, x):
        x0, m = reduce_to_base(x)
        assert 0.0 < x0 <= 1.0 and isinstance(m, int)
        if abs(x) >= 1.0:
            assert Fraction(x0) + m == Fraction(x)

    @pytest.mark.parametrize("call", [evaluate, extended_state, extend])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_x_is_a_domain_error(self, call, x):
        with pytest.raises(DomainError):
            call(IDENTITY, x)


class TestPartialProduct:
    def test_identity_half(self):
        # 2 * (1/1.5) * (2/2.5) = 16/15
        assert partial_product(IDENTITY, 0.5, 3) == pytest.approx(16.0 / 15.0, rel=1e-14)

    def test_identity_telescopes_at_one(self):
        # 1 * (1/2) * (2/3) * (3/4) = 1/4
        assert partial_product(IDENTITY, 1.0, 4) == pytest.approx(0.25, rel=1e-14)
        for n in (1, 3, 7, 20):
            assert partial_product(IDENTITY, 1.0, n) == pytest.approx(1.0 / n, rel=1e-13)

    def test_convention_at_zero(self):
        # x = 0 makes the single factor g(0)/g(0) = 1/1 by the convention
        for g in (IDENTITY, builtin("power", c=1.5), builtin("fibonacci"),
                  builtin("constant", v=3.0)):
            assert partial_product(g, 0.0, 1) == 1.0

    def test_pole_detection(self):
        with pytest.raises(PoleError) as err:
            partial_product(IDENTITY, -1.0, 3)
        assert err.value.k == 1  # x + k = 0 at k = 1

    def test_non_positive_factor_raises(self):
        # g(x) = x is negative at x = -0.5: outside the representer contract
        with pytest.raises(NonPositiveError):
            partial_product(IDENTITY, -0.5, 3)

    def test_recurrence_consistency(self):
        """p_n(x) = p_{n+1}(x) * g(x+n)/g(n) to ulp scale."""
        for g in (IDENTITY, builtin("power", c=1.5), parse_representer("x*(x+1)")):
            for x in (0.25, 0.6, 1.0):
                for n in (2, 5, 16, 64):
                    lhs = partial_product(g, x, n)
                    rhs = partial_product(g, x, n + 1) * g(x + n) / g(float(n))
                    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_partial_product_and_sandwich_memory_is_bounded():
    """Both helpers sum their 2^20 terms in CHUNK-sized pieces: about 1 MB, where one
    array over all terms took 48 MB."""
    for helper in (partial_product, sandwich_bounds):
        tracemalloc.start()
        try:
            helper(IDENTITY, 0.5, 2 ** 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, helper.__name__


class TestSandwichBounds:
    def test_identity_half_n3(self):
        lower, upper = sandwich_bounds(IDENTITY, 0.5, 3)
        assert lower == pytest.approx((32.0 / 35.0) * math.sqrt(3.0), rel=1e-14)
        assert upper == pytest.approx((16.0 / 15.0) * math.sqrt(3.0), rel=1e-14)
        assert lower <= SQRT_PI <= upper  # bracket contains Gamma(1/2)

    def test_identity_telescoped_at_one(self):
        for n in (2, 8, 64, 512):
            lower, upper = sandwich_bounds(IDENTITY, 1.0, n)
            assert upper == pytest.approx(1.0, rel=1e-13)
            assert lower == pytest.approx(n / (n + 1.0), rel=1e-13)

    def test_constant_bounds_coincide(self):
        lower, upper = sandwich_bounds(builtin("constant", v=2.0), 0.5, 5)
        assert lower == pytest.approx(upper, rel=1e-15)
        assert lower == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_domain_restriction(self):
        with pytest.raises(DomainError):
            sandwich_bounds(IDENTITY, 1.5, 4)
        with pytest.raises(DomainError):
            sandwich_bounds(IDENTITY, 0.0, 4)
        with pytest.raises(ValueError):
            sandwich_bounds(IDENTITY, 0.5, 1)

    def test_one_pass_over_the_terms(self):
        """p_n and p_{n+1} come from one sum: about 2n points of g, not 4n."""
        points = []

        def counted(x):
            points.append(np.size(x))
            return x

        g = Representer(fn=RealFunction(fn=counted))
        points.clear()  # construction spot-checks positivity
        lower, upper = sandwich_bounds(g, 0.5, 1000)
        assert sum(points) <= 2002
        assert lower <= SQRT_PI <= upper

    def test_brackets_shrink_when_n_doubles(self):
        for x in (0.2, 0.5, 0.9):
            prev = math.inf
            for n in (2, 4, 8, 16, 32, 64):
                lower, upper = sandwich_bounds(IDENTITY, x, n)
                assert lower <= upper
                assert upper - lower < prev
                prev = upper - lower


class TestEvaluate:
    def test_normalization_at_one(self):
        state = evaluate(IDENTITY, 1.0, tol=1e-6)
        assert state.converged
        assert state.value == pytest.approx(1.0, abs=1e-6)

    def test_gamma_half(self):
        state = evaluate(IDENTITY, 0.5, tol=1e-6)
        assert state.converged
        assert state.value == pytest.approx(1.7724539, abs=1e-5)

    def test_state_invariants(self):
        state = evaluate(IDENTITY, 0.5, tol=1e-6)
        assert state.rel_gap >= 0.0
        slack = 4 * np.finfo(float).eps * state.upper
        assert state.lower - slack <= state.value <= state.upper + slack

    def test_reduction_beyond_base_interval(self):
        state = evaluate(IDENTITY, 2.5, tol=1e-6)
        # Gamma(2.5) = 1.5 * 0.5 * Gamma(0.5)
        assert state.value == pytest.approx(0.75 * SQRT_PI, rel=1e-5)
        assert state.lower <= state.value <= state.upper

    def test_constant_converges_immediately(self):
        state = evaluate(builtin("constant", v=2.0), 0.5, tol=1e-10)
        assert state.converged
        assert state.n == 4
        assert state.rel_gap == 0.0
        assert state.value == pytest.approx(2.0 ** -0.5, rel=1e-13)

    def test_exponential_representer_diverges(self):
        g = parse_representer("exp(x)")
        with pytest.raises(DivergenceError):
            evaluate(g, 0.5, tol=1e-6)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9, 3.5])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-12])
    def test_exponential_diverges_although_its_order_p_bound_reads_zero(self, x, tol):
        """Delta^p log g = 0 for exp(x), but Delta log g(n) = 1 never shrinks, so the
        order-p bound is never trusted and the stall check still fires."""
        g = parse_representer("exp(x)")
        _, bound, d1, one_sign = order_p_terms(g, x % 1.0, 16)
        assert bound <= 1e-13 and d1 == pytest.approx(1.0) and one_sign
        with pytest.raises(DivergenceError):
            evaluate(g, x, tol=tol)
        assert outcome(g, x, tol) == reference_outcome(g, x, tol)

    @pytest.mark.parametrize("v", [0.5, 2.0, 7.0])
    def test_constant_stops_at_the_first_level(self, v):
        for x in (0.01, 0.5, 0.99, 4.25):
            state = evaluate(builtin("constant", v=v), x, tol=1e-12)
            assert state.converged and state.n == 4 and state.rel_gap == 0.0
            assert state.value == pytest.approx(v ** (x - 1.0), rel=1e-14)

    def test_unreachable_tol_returns_the_tightest_level(self):
        """Below the rounding floor no level converges: the engine stops once the next
        level's rounding allowance alone exceeds the best bound, and returns that level."""
        state = evaluate(IDENTITY, 0.5, tol=1e-15)
        assert not state.converged and state.n <= 2 ** 13
        assert state.value == pytest.approx(SQRT_PI, rel=1e-12)
        assert state.lower <= SQRT_PI <= state.upper
        assert state.upper - state.lower <= 1e-11

    @pytest.mark.parametrize("x", [0.03, 0.5, 0.97, 2.3, 7.61, 30.2, -0.4, -2.75])
    def test_fibonacci_falls_back_and_stays_bracketed(self, x):
        """Delta^p log g alternates in sign for fibonacci, so the engine uses the sandwich
        fallback; its bracket still holds fib_real, to which the product telescopes."""
        g = builtin("fibonacci")
        state = extended_state(g, x, tol=1e-12)
        want = fib_real(x)
        assert state.converged
        assert abs(state.value - want) <= 1e-12 * abs(want)
        assert state.lower <= want <= state.upper
        x0, _ = reduce_to_base(x)
        assert not order_p_terms(g, x0, state.n)[3]
        assert outcome(g, x, 1e-12) == reference_outcome(g, x, 1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            evaluate(IDENTITY, 0.0)
        with pytest.raises(ValueError):
            evaluate(IDENTITY, 0.5, tol=-1.0)
        with pytest.raises(ValueError):
            evaluate(IDENTITY, 0.5, max_n=2)

    @pytest.mark.parametrize("x", [3.0, 3.5, 1.0, 0.5, 30.0, -2.5, 0.0, -3.0])
    @pytest.mark.parametrize("limits,error", [
        ({"tol": math.nan}, (ValueError, "tol must be positive")),
        ({"tol": 0.0}, (ValueError, "tol must be positive")),
        ({"tol": -1e-8}, (ValueError, "tol must be positive")),
        ({"max_n": 0}, (ValueError, "max_n must be >= 4")),
        ({"max_n": 3}, (ValueError, "max_n must be >= 4")),
        ({"max_n": 4.5}, (TypeError, "'float' object cannot be interpreted as an integer")),
        ({"max_n": 64.0}, (TypeError, "'float' object cannot be interpreted as an integer")),
    ])
    def test_tol_and_max_n_are_checked_at_every_x(self, x, limits, error):
        """An integer x, whose value the anchor gives without a product, checks them too,
        before its pole or its anchor; so does ``evaluate``, after its domain check."""
        calls = [extended_state, extend] + ([evaluate] if x > 0.0 else [])
        for fn in calls:
            with pytest.raises(error[0]) as raised:
                fn(builtin("identity"), x, **limits)
            assert str(raised.value) == error[1], (fn, x, limits)

    @pytest.mark.parametrize("x", [3.0, 0.5, -2.5])
    def test_an_integer_max_n_of_any_type_is_taken(self, x):
        assert extended_state(IDENTITY, x, max_n=np.int64(64)) == extended_state(IDENTITY, x, max_n=64)


class TestExtend:
    @pytest.mark.parametrize("spec", ["identity", "x+0.37", "x+2.5", "x*(x+1)", "power:c=0.7", "power:c=1.5",
                                      "fibonacci", "const:3"])
    def test_evaluate_at_an_integer_is_the_exact_anchor(self, spec):
        """``evaluate(g, k)`` has the bits of ``extended_state(g, k)``, on fresh and on warm
        representers: n = 0 and lower = value = upper, with no product run."""
        warm = from_spec(spec)
        extended_state(warm, 0.5)
        for k in range(1, 31):
            for g in (from_spec(spec), warm):
                state = extended_state(g, float(k))
                assert bits(astuple(evaluate(g, float(k)))) == bits(astuple(state)), (spec, k)
                assert state.n == 0 and state.lower == state.value == state.upper

    def test_factorials_exact(self):
        assert extend(IDENTITY, 5.0) == 24.0
        for n in range(2, 11):
            assert extend(IDENTITY, float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_negative_half(self):
        # Gamma(-1/2) = Gamma(1/2) / (-1/2) = -2 sqrt(pi)
        assert extend(IDENTITY, -0.5, tol=1e-6) == pytest.approx(-2.0 * SQRT_PI, abs=1e-4)

    def test_poles_at_nonpositive_integers(self):
        with pytest.raises(PoleError):
            extend(IDENTITY, 0.0)
        with pytest.raises(PoleError):
            extend(IDENTITY, -1.0)
        with pytest.raises(PoleError):
            extend(IDENTITY, -3.0)

    def test_functional_equation(self):
        """extend(g, x+1) = g(x) * extend(g, x) to relative 1e-5."""
        reps = (IDENTITY, parse_representer("x*(x+1)"), builtin("power", c=1.5))
        for g in reps:
            for x in (0.3, 0.7, 1.4, 2.6):
                lhs = extend(g, x + 1.0, tol=1e-6)
                rhs = g(x) * extend(g, x, tol=1e-6)
                assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_interpolation_targets_hit(self):
        """extend(g, n) equals prod_{k<n} g(k) to relative 1e-5 for n=1..8."""
        reps = (IDENTITY, parse_representer("x*(x+1)"), builtin("power", c=1.5))
        for g in reps:
            targets = interpolation_targets(g, 8)
            for t in targets:
                assert extend(g, float(t.n), tol=1e-6) == pytest.approx(t.a_n, rel=1e-5)

    def test_extend_is_the_value_of_extended_state(self):
        reps = (IDENTITY, parse_representer("x*(x+1)"), builtin("power", c=1.5))
        for g in reps:
            for x in (-2.5, -0.5, 0.5, 1.0, 3.0, 3.7, 12.0):
                try:
                    state = extended_state(g, x, tol=1e-6)
                except LogconvexError as exc:  # x^1.5 has no real values below 0
                    with pytest.raises(type(exc)):
                        extend(g, x, tol=1e-6)
                    continue
                assert extend(g, x, tol=1e-6) == state.value

    def test_integer_anchors_are_exact(self):
        reps = (IDENTITY, parse_representer("x*(x+1)"), builtin("power", c=1.5),
                builtin("fibonacci"), builtin("constant", v=3.0))
        for g in reps:
            targets = {t.n: t.a_n for t in interpolation_targets(g, 12)}
            for n in (1, 2, 3, 12):
                state = extended_state(g, float(n))
                assert state.n == 0 and state.converged and state.rel_gap == 0.0
                assert state.lower == state.upper == state.value
                assert state.value == pytest.approx(targets[n], rel=1e-13)
        # below 1 the anchor runs the functional equation backwards: 3^-2 at x = -1
        state = extended_state(builtin("constant", v=3.0), -1.0)
        assert state.n == 0 and state.value == state.lower == state.upper == pytest.approx(1.0 / 9.0)

    def test_underflow_to_zero_is_not_a_converged_value(self):
        # Gamma(-200.5), about 1e-375, backwards; 0.5^1499.5, about 1e-452, forwards
        half = builtin("constant", v=0.5)
        for g, x in ((IDENTITY, -200.5), (half, 1500.5)):
            with pytest.raises(NonFiniteError, match="underflows to 0"):
                extended_state(g, x)

    def test_a_subnormal_value_is_not_a_converged_value(self):
        """0.5^1069.5 is 1.118e-322 (mpmath); as a subnormal it reads 1.14e-322, outside
        its own bracket. The last normal values on either side still return."""
        half, two = builtin("constant", v=0.5), builtin("constant", v=2.0)
        for g, x in ((half, 1070.5), (half, 1023.5), (two, -1021.5)):
            with pytest.raises(NonFiniteError, match="is subnormal"):
                extended_state(g, x)
        for g, x, want in ((half, 1022.5, 0.5 ** 1021.5), (two, -1020.5, 2.0 ** -1021.5)):
            state = extended_state(g, x)
            assert state.converged and state.value == pytest.approx(want, rel=1e-13)

    def test_shift_chain_memory_is_bounded(self):
        g = builtin("constant", v=2.0)
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteError):  # 2^(-1e6) underflows
                extend(g, -1e6 - 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_float_range_is_one_rule(self):
        """A value or bound past float range raises NonFiniteError: Gamma(171.624...) is
        just below the largest double, but its upper bound is not; Gamma(500.5) is inf."""
        for x in (171.62437695621261, 500.5):
            with pytest.raises(NonFiniteError, match="leaves float range"):
                extended_state(IDENTITY, x)

    @pytest.mark.parametrize("x", [1e8, 1e20, 2.0 ** 53 + 2])
    def test_the_forward_chain_stops_once_it_leaves_float_range(self, monkeypatch, x):
        """f(x) = (x-1)! overflows within the first CHUNK factors, and no later factor of
        a chain from x0 > 0 can bring it back, so one call of g decides."""
        calls = count_calls(monkeypatch)
        with pytest.raises(NonFiniteError, match="leaves float range"):
            extended_state(builtin("identity"), x)
        assert calls == [bm.CHUNK]

    def test_the_backward_chain_evaluates_every_factor(self):
        """From x = -20000.5 the product of the first CHUNK factors g(x+k) overflows, and the
        pole of g at -0.5, a factor of the second call, still raises."""
        g = Representer(fn=RealFunction(fn=lambda t: np.where(t == -0.5, 0.0, t), name="holed"))
        with pytest.raises(PoleError, match="negative-extension chain"):
            extended_state(g, -20000.5)

    def test_shift_chain_is_one_left_to_right_product(self):
        g = builtin("power", c=0.001)
        for count in (1, bm.CHUNK - 1, bm.CHUNK, 2 * bm.CHUNK + 3):
            whole = math.prod(g.values(0.25 + np.arange(count, dtype=float)).tolist())
            assert bm._shift_product(g, 0.25, count) == whole

    def test_extended_state_brackets_negative_values(self):
        state = extended_state(IDENTITY, -0.5, tol=1e-6)
        assert state.lower <= state.value <= state.upper
        assert state.value == pytest.approx(-2.0 * SQRT_PI, abs=1e-4)


class TestInterpolationTargets:
    def test_identity_gives_factorials(self):
        a = [t.a_n for t in interpolation_targets(IDENTITY, 7)]
        assert a == [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0]

    def test_constant_gives_powers(self):
        a = [t.a_n for t in interpolation_targets(builtin("constant", v=2.0), 5)]
        assert a == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_empty_product_is_one(self):
        for g in (IDENTITY, builtin("fibonacci"), builtin("power", c=0.3)):
            assert interpolation_targets(g, 1)[0].a_n == 1.0

    def test_running_product_recurrence(self):
        g = builtin("power", c=1.5)
        ts = interpolation_targets(g, 9)
        for prev, cur in zip(ts, ts[1:]):
            assert cur.a_n == pytest.approx(prev.a_n * g(float(prev.n)), rel=1e-15)


class TestLogconvexitySeries:
    def test_identity_at_one_is_zeta2(self):
        s = logconvexity_series(IDENTITY, 1.0, tol=1e-6)
        assert s == pytest.approx(math.pi ** 2 / 6.0, abs=1e-6)
        oracle, width = hurwitz_zeta2(1.0)
        assert s == pytest.approx(oracle, abs=1e-6 + width)

    def test_identity_at_two_shifts_by_one(self):
        s = logconvexity_series(IDENTITY, 2.0, tol=1e-6)
        assert s == pytest.approx(math.pi ** 2 / 6.0 - 1.0, abs=1e-6)

    def test_constant_is_zero(self):
        assert logconvexity_series(builtin("constant", v=5.0), 1.0, tol=1e-8) == 0.0

    def test_power_scales_zeta2(self):
        # (g'/g)^2 - g''/g = c/(x+k)^2 for g = x^c
        for c in (0.5, 1.5, 3.0):
            g = builtin("power", c=c)
            for x in (0.7, 2.0):
                s = logconvexity_series(g, x, tol=1e-7)
                oracle, width = hurwitz_zeta2(x)
                assert s == pytest.approx(c * oracle, abs=1e-5 + c * width)

    def test_divergence_on_nondecaying_terms(self):
        g = parse_representer("exp(x^2/500)")  # terms are the constant -1/250
        with pytest.raises(SeriesDivergence, match="over 64 consecutive k near k=64$"):
            logconvexity_series(g, 0.5, tol=1e-8)

    def test_vanishing_g_is_named_by_a_plain_float(self):
        # x^-130 is below POLE_TOL from x+k = 203.5 on, inside the first chunk from 190.5
        with pytest.raises(ZeroValueError) as err:
            logconvexity_series(from_spec("x^-130"), 190.5, 1e-8)
        assert str(err.value) == "g vanishes at x+k=203.5"

    def test_underflowing_g_squared_keeps_the_terms(self):
        """x^-130 squares below the smallest double from x+k = 15.5 on; h never forms
        g g, so the sum is -130 psi1(1/2), with no warning (pytest makes
        RuntimeWarnings errors)."""
        mp = pytest.importorskip("mpmath")
        s = logconvexity_series(from_spec("x^-130"), 0.5, 1e-8)
        assert s == pytest.approx(float(-130 * mp.psi(1, 0.5)), rel=1e-8)

    @pytest.mark.parametrize("spec,weight", [("1e200*x", 1), ("1e150*x^3", 3)])
    def test_overflowing_g_squared_keeps_the_terms(self, spec, weight):
        """g g overflows from the first term on, but g'/g and g''/g do not: h, which
        never forms g g, sums to weight * psi1(1/2) with no warning, where the
        quotient g'^2/(g g) - g''/g summed nan terms and ran out of its budget."""
        mp = pytest.importorskip("mpmath")
        tol = 1e-10
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = logconvexity_series(from_spec(spec), 0.5, tol)
        assert caught == []
        with mp.workdps(30):
            want = weight * mp.psi(1, mp.mpf(0.5))
            assert float(abs(got - want)) <= tol * float(abs(want)), (spec, got)

    def test_identity_at_one_reaches_1e_12_in_few_terms(self, monkeypatch):
        """The Gregory tail meets tol 1e-8, which the k^-2 model missed after 2^24 terms."""
        summed = []
        values = Representer.values
        monkeypatch.setattr(Representer, "values", lambda g, xs: summed.append(len(xs)) or values(g, xs))
        s = logconvexity_series(IDENTITY, 1.0, tol=1e-8)
        assert abs(s - math.pi ** 2 / 6.0) <= 1e-12
        assert sum(summed) <= 10 ** 4

    @pytest.mark.parametrize("spec,x,tol", [
        ("identity", 1000.0, 1e-4), ("power:c=1.3", 1000.0, 1e-4), ("2*(2*x+1)/(x+2)", 1000.0, 1e-6),
        ("identity", 1e4, 1e-6), ("x*(x+1)", 1e6, 1e-6),
    ])
    def test_large_x_meets_tol(self, spec, x, tol):
        """Far past the first chunks the terms (x+k)^-2 are below tol while their tail,
        about last * (x+k), is not: the k^-2 model's stop must test that tail, or it
        stops at k = 64 with most of the sum missing."""
        mp = pytest.importorskip("mpmath")
        t = mp.mpf(x)
        want = {"identity": mp.psi(1, t), "power:c=1.3": 1.3 * mp.psi(1, t),
                "2*(2*x+1)/(x+2)": mp.psi(1, t + 0.5) - mp.psi(1, t + 2), "x*(x+1)": mp.psi(1, t) + mp.psi(1, t + 1)}
        got = logconvexity_series(from_spec(spec), x, tol)
        assert float(abs(got - want[spec])) <= tol * max(1.0, float(abs(want[spec]))), (spec, x, got)

    @pytest.mark.parametrize("spec", ["identity", "x*(x+1)", "power:c=0.7"])
    @pytest.mark.parametrize("x", [1e4, 1e5, 1e6])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_large_x_takes_the_gregory_tail_within_rounding(self, spec, x, tol):
        """Delta^4 h of (x+k)^-2 is far below the rounding of h here, so its exact values
        take both signs; counted within 2^4 eps max|h|, they keep one, and the Gregory
        tail ends the series, as exact as the double result. At x = 1e6, |(log g)'| shrinks
        to SHRINK times its value at x + k/2 only once k is about x, where the chunks
        of 65536 terms start far past x + k/2: the reference is that point itself."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            t = mp.mpf(x)
            want = {"identity": mp.psi(1, t), "x*(x+1)": mp.psi(1, t) + mp.psi(1, t + 1),
                    "power:c=0.7": 0.7 * mp.psi(1, t)}[spec]
            got = logconvexity_series(from_spec(spec), x, tol)
            assert float(abs(got - want)) <= 1e-20, (spec, x, tol, got)

    @pytest.mark.parametrize("spec,xs", [("fibonacci", (0.5, 1.0, 2.5, 5.95)), ("const:5", (0.5, 2.0)),
                                         ("exp(x)", (0.5, 2.0))])
    def test_untrusted_tails_keep_the_first_chunk_rule(self, spec, xs):
        """Where the Gregory tail's hypothesis fails ((log g)' of exp(x) stays 1; the
        fibonacci terms oscillate), the k^-2 model still ends the series after its
        first 64 terms, with the same bits: the sum plus 63 times the last term."""
        g = from_spec(spec)
        for x in xs:
            us = x + np.arange(64, dtype=float)
            gv, d1, d2 = g.values(us), g.d1_values(us), g.d2_values(us)
            terms = -log_d2(gv, d1, d2)
            want = float(np.sum(terms)) + float(terms[-1]) * 63
            for tol in (1e-6, 1e-8):
                got = logconvexity_series(g, x, tol)
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), (spec, x)

    def test_matches_fd_of_constructed_interpolant(self):
        """Series equals (log f)'' of the product construction within 1e-3."""
        f = RealFunction(fn=lambda t: extend(IDENTITY, float(t), tol=1e-9, max_n=2 ** 22))
        for x in (0.5, 1.5, 2.5):
            series = logconvexity_series(IDENTITY, x, tol=1e-6)
            fd = d2_log(f, x, h=0.01)
            assert series == pytest.approx(fd, abs=1e-3)

    def test_fibonacci_matches_fd_of_constructed_interpolant(self):
        """The Fibonacci representer's exact d1/d2 work on arrays, so the series runs."""
        g = builtin("fibonacci")
        f = RealFunction(fn=lambda t: extend(g, float(t), tol=1e-9, max_n=2 ** 22))
        for x in (1.5, 2.5):
            series = logconvexity_series(g, x, tol=1e-6)
            assert series == pytest.approx(d2_log(f, x, h=0.02), abs=1e-3)

    def test_constructed_interpolant_is_log_convex(self):
        f = RealFunction(fn=lambda t: extend(IDENTITY, float(t), tol=1e-5))
        f_pow = RealFunction(
            fn=lambda t: extend(builtin("power", c=1.0), float(t), tol=1e-5))
        for fn in (f, f_pow):
            for x in np.linspace(0.2, 5.0, 50):
                assert d2_log(fn, float(x), h=1.0 / 64.0) >= -1e-6
