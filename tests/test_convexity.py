"""Difference quotients, log-convexity criteria, sign scans, closure laws."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconvex import (
    DegenerateArguments,
    LogconvexError,
    NonPositiveError,
    RealFunction,
    ZeroValueError,
    count_sign_changes,
    d2_log,
    diff_quotient,
    function_from_source,
    iter_diff_quotient,
    q_determinant,
    sample_grid,
    scan_convexity,
    weak_convexity_test,
)
from logconvex.convexity import (
    EVALUATION_ERRORS,
    INCONCLUSIVE,
    LOG_CONVEX,
    NOT_LOG_CONVEX,
    _exact_values,
    build_report,
    exact_q_d2log,
    stencil,
)
from logconvex.funcore import Grid
from logconvex.special import fib_real_fn
from test_expr import TREES


def quadratic(a, b, c):
    return RealFunction(fn=lambda x: a * x * x + b * x + c,
                        d1=lambda x: 2 * a * x + b,
                        d2=lambda x: 2 * a)


def exp_quadratic(a, b, c):
    def fn(x):
        return math.exp(a * x * x + b * x + c)

    return RealFunction(fn=fn,
                        d1=lambda x: (2 * a * x + b) * fn(x),
                        d2=lambda x: (2 * a + (2 * a * x + b) ** 2) * fn(x))


SQUARE = quadratic(1.0, 0.0, 0.0)
IDENTITY = RealFunction(fn=lambda x: x, d1=lambda x: 1.0, d2=lambda x: 0.0)
EXP = RealFunction(fn=math.exp, d1=math.exp, d2=math.exp)


class TestDiffQuotient:
    def test_square(self):
        assert diff_quotient(SQUARE, 1.0, 3.0) == 4.0

    def test_affine_is_constant_slope(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x1, x2 = rng.uniform(-5, 5, 2)
            if abs(x1 - x2) < 1e-6:
                continue
            assert diff_quotient(IDENTITY, float(x1), float(x2)) == 1.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b, c = rng.uniform(-2, 2, 3)
            f = quadratic(a, b, c)
            x1, x2 = rng.uniform(-3, 3, 2)
            if abs(x1 - x2) < 1e-6:
                continue
            assert diff_quotient(f, float(x1), float(x2)) == diff_quotient(f, float(x2), float(x1))

    def test_degenerate(self):
        with pytest.raises(DegenerateArguments):
            diff_quotient(SQUARE, 2.0, 2.0 + 1e-14)


class TestIterDiffQuotient:
    def test_square_value_is_leading_coefficient(self):
        # second divided difference of a*x^2+b*x+c equals a at any triple
        assert iter_diff_quotient(SQUARE, 0.0, 1.0, 2.0) == pytest.approx(1.0)
        assert iter_diff_quotient(SQUARE, 2.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_affine_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-4, 4, 3)
            if min(abs(pts[0] - pts[1]), abs(pts[1] - pts[2]), abs(pts[0] - pts[2])) < 1e-3:
                continue
            v = iter_diff_quotient(IDENTITY, *map(float, pts))
            assert abs(v) < 1e-12

    def test_sign_invariant_under_permutations(self):
        rng = np.random.default_rng(11)
        perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        for _ in range(200):
            a = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            f = quadratic(a, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            pts = rng.uniform(-3, 3, 3)
            if min(abs(pts[0] - pts[1]), abs(pts[1] - pts[2]), abs(pts[0] - pts[2])) < 1e-3:
                continue
            signs = {math.copysign(1.0, iter_diff_quotient(f, *map(float, (pts[p[0]], pts[p[1]], pts[p[2]]))))
                     for p in perms}
            assert len(signs) == 1
            assert (a > 0) == (signs.pop() > 0)

    def test_degenerate_pairs(self):
        with pytest.raises(DegenerateArguments):
            iter_diff_quotient(SQUARE, 1.0, 1.0, 2.0)
        with pytest.raises(DegenerateArguments):
            iter_diff_quotient(SQUARE, 1.0, 2.0, 1.0)


class TestWeakConvexity:
    def test_convex_holds(self):
        assert weak_convexity_test(SQUARE, -1.0, 1.0, trials=100, seed=0).holds

    def test_concave_fails_with_witness(self):
        res = weak_convexity_test(quadratic(-1.0, 0.0, 0.0), -1.0, 1.0, trials=100, seed=0)
        assert not res.holds
        x1, x2 = res.witness
        assert -1.0 < x1 < 1.0 and -1.0 < x2 < 1.0
        # the witness really violates the midpoint inequality
        f = lambda t: -t * t
        assert f((x1 + x2) / 2) > 0.5 * (f(x1) + f(x2))

    def test_affine_equality_case_holds(self):
        assert weak_convexity_test(IDENTITY, -3.0, 7.0, trials=200, seed=5).holds

    def test_deterministic_in_seed(self):
        r1 = weak_convexity_test(quadratic(-1.0, 0.0, 0.0), -1.0, 1.0, trials=50, seed=9)
        r2 = weak_convexity_test(quadratic(-1.0, 0.0, 0.0), -1.0, 1.0, trials=50, seed=9)
        assert r1 == r2


class TestQDeterminant:
    def test_exp_is_log_affine(self):
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert abs(q_determinant(EXP, x)) <= 1e-8

    def test_square_not_log_convex(self):
        # x^2 * 2 - (2x)^2 = -2 x^2
        assert q_determinant(SQUARE, 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_zero_value_rejected(self):
        with pytest.raises(ZeroValueError):
            q_determinant(SQUARE, 0.0)

    def test_fd_route_agrees(self):
        bare = RealFunction(fn=math.exp)
        for x in (0.3, 1.0):
            assert q_determinant(bare, x) == pytest.approx(0.0, abs=1e-6)


class TestD2Log:
    def test_exp(self):
        assert abs(d2_log(EXP, 0.4)) <= 1e-8

    def test_exp_of_square_fd_route(self):
        f = RealFunction(fn=lambda x: math.exp(x * x))
        assert d2_log(f, 0.7) == pytest.approx(2.0, abs=1e-6)

    def test_square(self):
        assert d2_log(SQUARE, 1.0) == pytest.approx(-2.0, abs=1e-6)
        f = RealFunction(fn=lambda x: x * x)
        assert d2_log(f, 1.0) == pytest.approx(-2.0, abs=1e-6)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveError):
            d2_log(IDENTITY, -1.0)
        with pytest.raises(NonPositiveError):
            d2_log(SQUARE, 0.0)

    @pytest.mark.parametrize("x,want", [(-745.0, -9.8696044010893586), (-739.04, -10.027114521725959),
                                        (742.02, 0.0)])
    def test_exact_form_where_f_squared_overflows(self, x, want):
        """fib_real is about 1e154 to 1e155 here, so f'' f (and f f at -745 and 742.02)
        overflows and (f'' f - f'^2)/(f f) is not finite: f''/f - (f'/f)^2 gives
        (log f)'' (mpmath)."""
        f = fib_real_fn()
        assert not math.isfinite(float(f.d2(x)) * f(x))
        for got in (d2_log(f, x), exact_q_d2log(f, np.array([x]))[2][0]):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, got)

    def test_consistency_with_q(self):
        """q(f)/f^2 = (log f)'' to 1e-6 wherever f > 1e-6, on random smooth f."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            f_exact = exp_quadratic(*rng.uniform(-0.5, 0.5, 3))
            f_bare = RealFunction(fn=f_exact.fn)
            for x in rng.uniform(-1.5, 1.5, 4):
                x = float(x)
                fv = f_exact(x)
                if fv <= 1e-6:
                    continue
                for f in (f_exact, f_bare):
                    assert q_determinant(f, x) / fv ** 2 == pytest.approx(
                        d2_log(f, x), abs=1e-6 * max(1.0, abs(d2_log(f, x))))


class TestClosureLaws:
    def test_sum_and_product_stay_log_convex(self):
        rng = np.random.default_rng(42)
        xs = np.linspace(-2, 2, 16)
        for _ in range(20):
            f = exp_quadratic(rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            g = exp_quadratic(rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for fn in (f + g, f * g):
                assert min(d2_log(fn, float(x)) for x in xs) >= -1e-8

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(13)
        xs = np.linspace(-1.5, 1.5, 9)
        for _ in range(10):
            f = exp_quadratic(rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for c in (-0.5, 0.5, 2.0):
                assert min(d2_log(f.shifted(c), float(x - c)) for x in xs) >= -1e-8
                assert min(d2_log(f.scaled_arg(c), float(x / c)) for x in xs) >= -1e-8

    def test_exp_of_convex_quadratic(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f = exp_quadratic(rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for x in np.linspace(-2, 2, 11):
                assert d2_log(f, float(x)) >= -1e-10


class TestStencil:
    def test_exp_samples(self):
        h = 0.01
        q, d2 = stencil(math.exp(-h), 1.0, math.exp(h), h)
        assert d2 == pytest.approx(0.0, abs=1e-10)  # log f is affine
        assert q == pytest.approx(0.0, abs=1e-4)

    def test_square_samples(self):
        h = 0.5
        q, d2 = stencil(0.25, 1.0, 2.25, h)  # x^2 at x = 1
        assert q == 1.0 * 2.0 - 2.0 ** 2
        assert d2 == pytest.approx((math.log(2.25) + math.log(0.25)) / 0.25)

    def test_non_positive_sample_leaves_log_out(self):
        q, d2 = stencil(-1.0, 1.0, 3.0, 1.0)
        assert d2 is None
        assert q == 1.0 * 0.0 - 2.0 ** 2


class TestCountSignChanges:
    def test_sine_on_full_period(self):
        f = RealFunction(fn=math.sin)
        grid = sample_grid(f, 0.0, 2.0 * math.pi, 1000)
        locs = count_sign_changes(grid)
        assert len(locs) == 1
        assert locs[0] == pytest.approx(math.pi, abs=0.01)

    def test_constant_has_none(self):
        grid = sample_grid(RealFunction(fn=lambda x: 1.0), 0.0, 1.0, 50)
        assert len(count_sign_changes(grid)) == 0

    def test_single_root_of_identity(self):
        grid = sample_grid(IDENTITY, -1.0, 1.0, 201)
        locs = count_sign_changes(grid)
        assert len(locs) == 1
        assert abs(locs[0]) <= 0.01  # within one cell of the root

    def test_zero_attachment_rule(self):
        xs = np.linspace(0.0, 1.0, 5)
        ys = np.array([1.0, 0.0, 0.0, -1.0, -1.0])
        locs = count_sign_changes(Grid(a=0.0, b=1.0, n=5, xs=xs, ys=ys))
        assert len(locs) == 1
        assert locs[0] == pytest.approx((xs[2] + xs[3]) / 2)
        ys2 = np.array([0.0, 0.0, 1.0, 1.0, 1.0])  # leading zeros never count
        assert len(count_sign_changes(Grid(a=0.0, b=1.0, n=5, xs=xs, ys=ys2))) == 0

    def test_change_across_a_gap_is_placed_between_the_real_samples(self):
        report = build_report([0.0, 1.0, 2.0], [1.0, None, -1.0], [1.0, None, -1.0])
        assert report.sign_changes == [1.0]
        report = build_report([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 0.0, -1.0], [1.0] * 4)
        assert report.sign_changes == [2.5]  # the zero still attaches to the preceding sign


class TestConvexityReport:
    def test_log_convex_verdict(self):
        report = scan_convexity(exp_quadratic(0.5, 0.0, 0.0), -1.0, 1.0, 41)
        assert report.verdict == LOG_CONVEX
        assert report.min_margin >= -1e-7 * (1 + abs(max(v for _, v in report.d2log_values)))

    def test_not_log_convex_verdict(self):
        report = scan_convexity(SQUARE, 0.5, 2.0, 41)
        assert report.verdict == NOT_LOG_CONVEX
        assert report.min_margin < -0.1

    def test_inconclusive_on_failures(self):
        report = scan_convexity(IDENTITY, -1.0, 1.0, 21)  # crosses zero: log fails
        assert report.verdict == INCONCLUSIVE

    def test_json_contract(self):
        report = scan_convexity(exp_quadratic(0.5, 0.0, 0.0), -1.0, 1.0, 11)
        data = json.loads(report.to_json())
        assert set(data) == {"interval", "grid_n", "q_values", "d2log_values",
                             "sign_changes", "verdict", "min_margin"}
        assert data["grid_n"] == 11
        assert all(len(pair) == 2 for pair in data["q_values"])
        assert data["interval"] == [-1.0, 1.0]

    def test_unexpected_errors_propagate(self):
        def fn(x):
            raise KeyError("bug")

        with pytest.raises(KeyError):
            scan_convexity(RealFunction(fn=fn), 0.5, 1.5, 5)

    def test_sign_change_locations_interior_and_sorted(self):
        # (log f)'' of exp(x^3) is 6x: one sign change at 0
        f = RealFunction(fn=lambda x: math.exp(x ** 3),
                         d1=lambda x: 3 * x * x * math.exp(x ** 3),
                         d2=lambda x: (6 * x + 9 * x ** 4) * math.exp(x ** 3))
        report = scan_convexity(f, -1.0, 1.0, 101)
        assert report.verdict == NOT_LOG_CONVEX
        assert len(report.sign_changes) == 1
        assert -1.0 < report.sign_changes[0] < 1.0
        assert report.sign_changes == sorted(report.sign_changes)


def two_call_scan(f, a, b, n):
    """scan_convexity as q_determinant and d2_log at each point, each evaluating f, f' and f''."""
    xs = np.linspace(a, b, n)
    q_vals, d2_vals = [], []
    for x in xs:
        for criterion, vals in ((q_determinant, q_vals), (d2_log, d2_vals)):
            try:
                vals.append(criterion(f, float(x)))
            except EVALUATION_ERRORS:
                vals.append(None)
    return build_report(xs, q_vals, d2_vals)


def counting(f):
    """f with each call of fn, d1 and d2 recorded as the number of dimensions of its x."""
    calls = {"fn": [], "d1": [], "d2": []}

    def counted(name):
        def wrapped(x):
            calls[name].append(np.ndim(x))
            return getattr(f, name)(x)
        return wrapped

    return calls, RealFunction(fn=counted("fn"), d1=counted("d1"), d2=counted("d2"), domain=f.domain)


ONCE_ON_THE_GRID = {"fn": [1], "d1": [1], "d2": [1]}

#: (source, a, b) of grids whose points are exceptional although no call raises
EXCEPTIONAL_GRIDS = [
    ("-exp(x^2)", -1.0, 1.0),  # f negative
    ("x^3 - x", -1.5, 1.5),  # f changes sign
    ("exp(-400*x^2)", -1.5, 1.5),  # exp underflows to 0 at the ends, and f*f before it
]

#: (function, a, b) where a call cannot run on the whole grid
POINTWISE_GRIDS = [
    (function_from_source("log(x)"), -1.0, 3.0),  # the log guard raises inside the grid
    (function_from_source("log(x)", domain=(0.0, math.inf)), -1.0, 3.0),  # grid leaves the domain
    (EXP, -1.0, 1.0),  # scalar-only math.exp: TypeError on an array
]


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("src,a,b", [
        ("exp(-400*x^2)", -1.5, 1.5),  # f underflows to 0, and f*f underflows first
        ("-exp(-800*x^2)", -1.5, 1.5),  # tiny and non-positive
        ("x^3 - x", -1.5, 1.5),  # changes sign
        ("log(x)", -1.0, 3.0),  # domain error below 0, non-positive below 1
        ("x^2*exp(x)", -2.0, 2.0),
    ])
    def test_same_report_as_the_two_criteria(self, src, a, b):
        f = function_from_source(src)
        assert repr(scan_convexity(f, a, b, 61)) == repr(two_call_scan(f, a, b, 61))

    @pytest.mark.parametrize("src,a,b", [("exp(x^2)", -1.0, 1.0), *EXCEPTIONAL_GRIDS])
    def test_f_d1_d2_called_once_per_grid(self, src, a, b):
        f = function_from_source(src)
        calls, counted = counting(f)
        report = scan_convexity(counted, a, b, 17)
        assert calls == ONCE_ON_THE_GRID
        assert repr(report) == repr(two_call_scan(f, a, b, 17))

    @pytest.mark.parametrize("f,a,b", POINTWISE_GRIDS)
    def test_grid_a_call_cannot_run_on_is_evaluated_point_by_point(self, f, a, b):
        calls, counted = counting(f)
        report = scan_convexity(counted, a, b, 17)
        lo, hi = f.domain
        inside = sum(lo < x < hi for x in np.linspace(a, b, 17))
        assert calls["fn"].count(0) == inside
        assert calls["fn"].count(1) <= 1 and calls["d1"].count(1) <= 1 and calls["d2"].count(1) <= 1
        assert repr(report) == repr(two_call_scan(f, a, b, 17))

    def test_only_signals_the_caller_does_not_ignore_go_point_by_point(self):
        f = function_from_source("exp(-400*x^2)")  # exp underflows at the ends of the grid
        for errstate, fn_calls in (({"under": "ignore"}, [1]), ({"all": "raise"}, [1] + [0] * 17)):
            calls, counted = counting(f)
            with np.errstate(**errstate):
                report = scan_convexity(counted, -1.5, 1.5, 17)
                want = two_call_scan(f, -1.5, 1.5, 17)
            assert calls["fn"] == fn_calls, errstate
            assert repr(report) == repr(want), errstate


def _function_or_none(tree):
    try:
        return function_from_source(tree.pretty())
    except (LogconvexError, ValueError, RecursionError):
        return None


#: parsed functions of random trees, with exact derivatives
FUNCTIONS = TREES.map(_function_or_none).filter(lambda f: f is not None)


class TestGridPath:
    @pytest.mark.parametrize("f", [function_from_source("2"), IDENTITY, quadratic(1.0, 0.0, 1.0)])
    def test_scalar_derivatives_are_broadcast(self, f):
        assert _exact_values(f, np.linspace(0.5, 2.0, 33)).shape == (3, 33)
        assert repr(scan_convexity(f, 0.5, 2.0, 33)) == repr(two_call_scan(f, 0.5, 2.0, 33))

    @settings(max_examples=300, deadline=None)
    @given(FUNCTIONS, st.floats(-3.0, 3.0), st.floats(1e-3, 6.0), st.integers(2, 80))
    @example(POINTWISE_GRIDS[0][0], -1.0, 4.0, 17)
    @example(POINTWISE_GRIDS[1][0], -1.0, 4.0, 17)
    @example(function_from_source("exp(-400*x^2)"), -1.5, 3.0, 61)
    @example(function_from_source("-exp(x^2)"), -1.0, 2.0, 17)
    @example(function_from_source("x^3 - x"), -1.5, 3.0, 64)
    @example(function_from_source("exp(-400*x^2)"), -1.0, 2.0, 64)
    @example(function_from_source("2"), 0.5, 1.5, 9)
    @example(EXP, -1.0, 2.0, 17)
    @example(fib_real_fn(), 0.1, 3.8, 64)
    def test_same_report_as_the_two_criteria(self, f, a, width, n):
        for errstate in ("ignore", "raise"):
            with np.errstate(all=errstate):
                got = scan_convexity(f, a, a + width, n)
                want = two_call_scan(f, a, a + width, n)
            assert repr(got) == repr(want), (f.name, a, width, n, errstate)
