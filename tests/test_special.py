"""Gamma quadrature, Mellin probes, Fibonacci extension, curvature, multipliers."""

import math

import numpy as np
import pytest

from logconvex import (
    DomainError,
    NonPositiveError,
    RealFunction,
    ToleranceNotMet,
    builtin,
    check_inner_multiplicator,
    check_outer_multiplier,
    curvature,
    d2_log,
    extend,
    fib_d2_signchanges,
    fib_real,
    fib_real_fn,
    function_from_source,
    gamma_quadrature,
    mellin_integral,
    mellin_logconvex_probe,
)
from logconvex.convexity import LOG_CONVEX

SQRT_PI = math.sqrt(math.pi)


class TestGammaQuadrature:
    def test_normalization(self):
        assert abs(gamma_quadrature(1.0, 1e-9).value - 1.0) <= 1e-8

    def test_factorial_value(self):
        assert gamma_quadrature(5.0, 1e-9).value == pytest.approx(24.0, abs=1e-6)

    def test_half(self):
        assert gamma_quadrature(0.5, 1e-9).value == pytest.approx(SQRT_PI, abs=1e-6)

    def test_result_fields(self):
        res = gamma_quadrature(2.5, 1e-9)
        assert res.abs_error_estimate >= 0.0
        assert res.panels > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_quadrature(0.0)
        with pytest.raises(DomainError):
            gamma_quadrature(-2.0)

    def test_budget_exhaustion(self):
        with pytest.raises(ToleranceNotMet):
            gamma_quadrature(1.5, 1e-30)

    def test_recursion_property(self):
        """Gamma(x+1) = x Gamma(x) to relative 1e-6 at 20 sampled points."""
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.1, 5.0, 20):
            x = float(x)
            left = gamma_quadrature(x + 1.0, 1e-9).value
            right = x * gamma_quadrature(x, 1e-9).value
            assert abs(left - right) / left <= 1e-6

    def test_log_convex_along_grid(self):
        cache = {}

        def gq(x):
            if x not in cache:
                cache[x] = gamma_quadrature(x, 1e-10).value
            return cache[x]

        f = RealFunction(fn=gq, domain=(0.0, math.inf))
        for x in np.linspace(0.3, 5.0, 20):
            assert d2_log(f, float(x), h=0.01) >= -1e-6

    def test_agrees_with_product_representation(self):
        """|extend(identity, x) - quadrature| <= 1e-4 * Gamma(x)."""
        g = builtin("identity")
        for x in (0.25, 0.5, 1.5, 3.7, 6.0):
            quad = gamma_quadrature(x, 1e-9).value
            prod = extend(g, x, tol=1e-6)
            assert abs(prod - quad) <= 1e-4 * quad

    def test_q_determinant_of_gamma_is_positive(self):
        """q(Gamma)(2) equals Gamma(2)^2 * sum 1/(2+k)^2, by the series oracle."""
        from logconvex import builtin as rep, logconvexity_series, q_determinant

        cache = {}

        def gq(x):
            if x not in cache:
                cache[x] = gamma_quadrature(x, 1e-10).value
            return cache[x]

        gamma_fn = RealFunction(fn=gq, domain=(0.0, math.inf))
        q = q_determinant(gamma_fn, 2.0, h=0.01)
        series = logconvexity_series(rep("identity"), 2.0, tol=1e-7)
        assert q > 0.0
        assert q == pytest.approx(gq(2.0) ** 2 * series, abs=1e-3)


class TestMellin:
    def test_constant_weight_closed_form(self):
        # integral over (1,2) of t^(x-1) dt = (2^x - 1)/x
        for x in (1.0, 2.0, 3.5):
            got = mellin_integral(lambda t: 1.0, 1.0, 2.0, x, 1e-10).value
            assert got == pytest.approx((2.0 ** x - 1.0) / x, abs=1e-8)

    def test_probe_constant_weight_is_log_convex(self):
        report = mellin_logconvex_probe(lambda t: 1.0, 1.0, 2.0,
                                        np.linspace(1.0, 3.0, 9), tol=1e-10)
        assert report.verdict == LOG_CONVEX

    def test_probe_gamma_weight(self):
        xs = np.linspace(0.8, 1.4, 7)
        report = mellin_logconvex_probe(lambda t: math.exp(-t), 0.0, math.inf, xs, tol=1e-9)
        assert report.verdict == LOG_CONVEX
        at_one = dict((x, v) for x, v in report.d2log_values)[1.0]
        assert at_one == pytest.approx(1.6449, abs=1e-2)

    def test_singular_head_for_small_x(self):
        # x < 1 exercises the t = s^(1/x) substitution
        got = mellin_integral(lambda t: 1.0, 0.0, 1.0, 0.3, 1e-10).value
        assert got == pytest.approx(1.0 / 0.3, abs=1e-8)

    def test_tail_only_integral(self):
        # integral over (2, inf) of e^-t dt = e^-2 (x = 1 kills the power)
        got = mellin_integral(lambda t: math.exp(-t), 2.0, math.inf, 1.0, 1e-10).value
        assert got == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_probe_attaches_offending_x(self):
        with pytest.raises(ToleranceNotMet) as err:
            mellin_logconvex_probe(lambda t: math.exp(-t), 0.0, math.inf,
                                   [1.0, 2.0], tol=1e-30)
        assert "x=" in str(err.value)

    def test_probe_lets_unexpected_errors_through(self):
        def phi(t):
            raise KeyError("bug")

        with pytest.raises(KeyError):
            mellin_logconvex_probe(phi, 1.0, 2.0, [1.0, 2.0])


class TestFibonacci:
    def test_integers_match_the_recursion_run_both_ways(self):
        fib = {0: 0.0, 1: 1.0}
        for n in range(2, 31):
            fib[n] = fib[n - 1] + fib[n - 2]
        for n in range(-1, -7, -1):
            fib[n] = fib[n + 2] - fib[n + 1]
        assert (fib[-1], fib[-2]) == (1.0, -1.0)
        for n, want in fib.items():
            # absolute bounds only: 1e-12 up to F(8) = 21, 1e-9 above (F(30) = 832040)
            tol = 1e-12 if n <= 8 else 1e-9
            assert fib_real(float(n)) == pytest.approx(want, abs=tol), n

    def test_real_extension_at_half(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert fib_real(0.5) == pytest.approx(math.sqrt(phi) / math.sqrt(5.0), rel=1e-12)
        assert fib_real(0.5) == pytest.approx(0.5688645, abs=1e-7)

    def test_real_extension_at_two(self):
        assert fib_real(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_recursion_at_reals(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-5.0, 5.0, 100):
            x = float(x)
            assert abs(fib_real(x + 2.0) - fib_real(x + 1.0) - fib_real(x)) <= 1e-10

    def test_representer_consistency(self):
        """builtin fibonacci equals fib_real(x+1)/fib_real(x) pointwise."""
        g = builtin("fibonacci")
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.2, 8.0, 40):
            x = float(x)
            assert g(x) == pytest.approx(fib_real(x + 1.0) / fib_real(x), rel=1e-12)

    def test_exact_derivatives_match_fd(self):
        f = fib_real_fn()
        for x in (-1.3, 0.4, 2.7):
            h = 1e-6
            fd1 = (fib_real(x + h) - fib_real(x - h)) / (2 * h)
            assert f.d1(x) == pytest.approx(fd1, rel=1e-8)
            h = 1e-4
            fd2 = (fib_real(x + h) - 2 * fib_real(x) + fib_real(x - h)) / (h * h)
            assert f.d2(x) == pytest.approx(fd2, rel=1e-6)


class TestFibSignChanges:
    def test_four_changes_on_0_4(self):
        assert len(fib_d2_signchanges(0.0, 4.0, 4000)) == 4

    def test_growth_dominates_past_four(self):
        assert len(fib_d2_signchanges(5.0, 10.0, 4000)) == 0

    def test_one_change_on_unit_interval(self):
        locs = fib_d2_signchanges(0.0, 1.0, 4000)
        assert len(locs) == 1

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            fib_d2_signchanges(0.0, 4.0, 50)

    def test_not_log_convex_on_0_4(self):
        f = fib_real_fn()
        vals = [d2_log(f, float(x)) for x in np.linspace(0.1, 4.0, 200)]
        assert min(vals) < 0.0 < max(vals)


class TestCurvature:
    def test_flat_line(self):
        g = builtin("constant", v=1.0)
        ident = RealFunction(fn=lambda x: x, d1=lambda x: 1.0, d2=lambda x: 0.0)
        assert curvature(g, ident, 1.7) == 0.0

    def test_parabola_value(self):
        g = builtin("identity")
        ident = RealFunction(fn=lambda x: x, d1=lambda x: 1.0, d2=lambda x: 0.0)
        assert curvature(g, ident, 1.0) == pytest.approx(2.0 / 5.0 ** 1.5, rel=1e-12)
        assert curvature(g, ident, 1.0) == pytest.approx(0.1788854, abs=1e-7)

    def test_constant_f(self):
        g = builtin("identity")
        const = RealFunction(fn=lambda x: 1.0, d1=lambda x: 0.0, d2=lambda x: 0.0)
        assert curvature(g, const, 3.0) == 0.0

    def test_equals_classical_curvature_of_product(self):
        """The formula is the plane curvature of h = g*f, checked by FD."""
        rng = np.random.default_rng(42)
        cases = [
            (builtin("power", c=1.5), function_from_source("exp(-x/2)")),
            (builtin("identity"), function_from_source("1/(x+1)")),
            (builtin("constant", v=2.0), function_from_source("sin(x/4) + 2")),
        ]
        for g, f in cases:
            for x in rng.uniform(0.5, 3.0, 5):
                x = float(x)
                kappa = curvature(g, f, x)
                h = RealFunction(fn=lambda t, g=g, f=f: g(t) * f(t), domain=(0.0, math.inf))
                h1 = h.derivative(x, 1)
                h2 = h.derivative(x, 2)
                classical = h2 / (1.0 + h1 * h1) ** 1.5
                assert kappa == pytest.approx(classical, rel=1e-5)


class TestMultipliers:
    def test_inverse_square_inner_multiplicator(self):
        f = function_from_source("x^2", domain=(0.0, math.inf))
        m = function_from_source("x^-2", domain=(0.0, math.inf))
        assert check_inner_multiplicator(f, m, 1.0, 2.0).holds

    def test_gaussian_inner_multiplicator(self):
        f = function_from_source("x^2", domain=(0.0, math.inf))
        m = function_from_source("exp(x^2)")
        assert check_inner_multiplicator(f, m, 2.0, 3.0).holds

    def test_trivial_multiplicator_fails(self):
        f = function_from_source("x^2", domain=(0.0, math.inf))
        m = function_from_source("1")
        res = check_inner_multiplicator(f, m, 1.0, 2.0)
        assert not res.holds
        assert 1.0 < res.witness < 2.0

    def test_inner_rejects_nonpositive_product(self):
        f = function_from_source("x")
        m = RealFunction(fn=lambda x: -1.0, d1=lambda x: 0.0, d2=lambda x: 0.0)
        with pytest.raises(NonPositiveError):
            check_inner_multiplicator(f, m, 1.0, 2.0)

    def test_negated_outer_multiplier_holds_for_square(self):
        f = function_from_source("x^2", domain=(0.0, math.inf))
        m = RealFunction(fn=lambda x: -1.0, d1=lambda x: 0.0, d2=lambda x: 0.0)
        assert check_outer_multiplier(f, m, 1.0, 2.0).holds

    def test_identity_outer_multiplier_fails_for_square(self):
        f = function_from_source("x^2", domain=(0.0, math.inf))
        m = RealFunction(fn=lambda x: 1.0, d1=lambda x: 0.0, d2=lambda x: 0.0)
        res = check_outer_multiplier(f, m, 1.0, 2.0)
        assert not res.holds
        assert 1.0 < res.witness < 2.0

    def test_affine_outer_multipliers_on_exp(self):
        # (m(x) * x)'' = 2 m', fine for constant and increasing affine m
        f = RealFunction(fn=math.exp, d1=math.exp, d2=math.exp)
        const = RealFunction(fn=lambda x: 2.0, d1=lambda x: 0.0, d2=lambda x: 0.0)
        rising = RealFunction(fn=lambda x: x + 1.0, d1=lambda x: 1.0, d2=lambda x: 0.0)
        assert check_outer_multiplier(f, const, 0.5, 2.0).holds
        assert check_outer_multiplier(f, rising, 0.5, 2.0).holds

    def test_outer_rejects_nonpositive_f(self):
        f = RealFunction(fn=lambda x: x - 5.0)
        m = RealFunction(fn=lambda x: 1.0)
        with pytest.raises(NonPositiveError):
            check_outer_multiplier(f, m, 1.0, 2.0)
