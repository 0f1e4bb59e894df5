"""Foundation types: finite differences, grids, function combinators."""

import math

import numpy as np
import pytest

from logconvex import DomainError, NonFiniteError, RealFunction, fd_derivative, sample_grid
from logconvex.funcore import Grid, default_step


def quadratic(a, b, c):
    return RealFunction(fn=lambda x: a * x * x + b * x + c)


IDENTITY = RealFunction(fn=lambda x: x, d1=lambda x: 1.0, d2=lambda x: 0.0)
SQUARE = RealFunction(fn=lambda x: x * x)
EXP = RealFunction(fn=np.exp, d1=np.exp, d2=np.exp)


class TestFdDerivative:
    def test_quadratic_order1(self):
        assert fd_derivative(SQUARE, 3.0, 1, h=1e-4) == pytest.approx(6.0, rel=1e-10)

    def test_quadratic_order2(self):
        assert fd_derivative(SQUARE, 0.0, 2, h=1e-3) == pytest.approx(2.0, abs=1e-10)

    def test_exp_order1(self):
        assert abs(fd_derivative(EXP, 0.0, 1, h=1e-5) - 1.0) < 1e-9

    def test_default_step_scales_with_x(self):
        assert default_step(100.0, 1) == pytest.approx(100.0 * default_step(1.0, 1))
        assert default_step(0.0, 2) > default_step(0.0, 1)

    def test_bad_order_and_step(self):
        with pytest.raises(ValueError):
            fd_derivative(SQUARE, 1.0, 3)
        with pytest.raises(ValueError):
            fd_derivative(SQUARE, 1.0, 1, h=0.0)

    def test_stencil_outside_domain(self):
        f = RealFunction(fn=math.log, domain=(0.0, math.inf))
        with pytest.raises(DomainError):
            fd_derivative(f, 1e-7, 1, h=1e-6)

    def test_non_finite_is_an_error(self):
        f = RealFunction(fn=lambda x: math.nan)
        with pytest.raises(NonFiniteError):
            fd_derivative(f, 0.0, 1)

    def test_exact_on_random_quadratics(self):
        """Central differences are exact for degree <= 2 up to roundoff."""
        rng = np.random.default_rng(42)
        for h in (1e-5, 1e-4, 1e-3):
            for _ in range(200):
                a, b, c = rng.uniform(-1, 1, 3)
                x = float(rng.uniform(-2, 2))
                f = quadratic(a, b, c)
                exact = 2 * a * x + b
                err = abs(fd_derivative(f, x, 1, h=h) - exact)
                assert err <= 1e-10 * max(1.0, abs(exact))
                err2 = abs(fd_derivative(f, x, 2, h=1e-3) - 2 * a)
                assert err2 <= 1e-8
        # at h=1e-6 the cancellation floor eps*|f|/(2h) dominates
        for _ in range(200):
            a, b, c = rng.uniform(-1, 1, 3)
            x = float(rng.uniform(-2, 2))
            err = abs(fd_derivative(quadratic(a, b, c), x, 1, h=1e-6) - (2 * a * x + b))
            assert err <= 1e-9

    def test_convergence_order_at_least_1_9(self):
        """Halving h quarters the error for smooth functions (order ~2)."""
        cases = [
            (EXP, 0.3, 1), (EXP, 0.3, 2),
            (RealFunction(fn=np.sin, d1=np.cos, d2=lambda x: -np.sin(x)), 0.7, 1),
            (RealFunction(fn=np.sin, d1=np.cos, d2=lambda x: -np.sin(x)), 0.7, 2),
        ]
        for f, x, order in cases:
            exact = f.derivative(x, order)
            hs = [1e-2 / 2 ** k for k in range(4)]
            errs = [abs(fd_derivative(f, x, order, h=h) - exact) for h in hs]
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            assert max(orders) >= 1.9


class TestRealFunction:
    def test_domain_enforced(self):
        f = RealFunction(fn=math.log, domain=(0.0, math.inf))
        with pytest.raises(DomainError):
            f(-1.0)
        with pytest.raises(DomainError):
            f(0.0)  # domain is open

    def test_values_vectorizes_and_checks(self):
        xs = np.linspace(0.5, 2.0, 7)
        np.testing.assert_allclose(EXP.values(xs), np.exp(xs))
        scalar_only = RealFunction(fn=lambda x: math.exp(x))
        np.testing.assert_allclose(scalar_only.values(xs), np.exp(xs))

    def test_values_reports_offending_x(self):
        f = RealFunction(fn=lambda x: 1.0 / (x - 1.0) if x != 1.0 else math.inf)
        with pytest.raises(NonFiniteError) as err:
            f.values([0.5, 1.0, 1.5])
        assert err.value.x == 1.0

    def test_values_retries_pointwise_only_for_scalar_only_fns(self):
        calls = []

        def scalar_only(x):
            calls.append(x)
            return math.exp(x)  # TypeError for an array

        assert RealFunction(fn=scalar_only).values([0.5, 1.0]).tolist() == [math.exp(0.5), math.exp(1.0)]
        assert len(calls) == 3  # the vector call, then one per point

        for error in (KeyError("boom"), DomainError("outside")):
            calls.clear()

            def failing(x, error=error):
                calls.append(x)
                raise error

            with pytest.raises(type(error)):
                RealFunction(fn=failing).values([0.5, 1.0])
            assert len(calls) == 1  # propagated from the vector call, no retries

    def test_derivative_prefers_exact(self):
        assert IDENTITY.derivative(3.0, 1) == 1.0
        assert IDENTITY.derivative(3.0, 2) == 0.0

    def test_sum_product_combinators_keep_derivatives(self):
        s = EXP + IDENTITY
        p = EXP * IDENTITY
        x = 0.8
        assert s.derivative(x, 1) == pytest.approx(math.exp(x) + 1.0, rel=1e-12)
        assert p.derivative(x, 2) == pytest.approx(math.exp(x) * (x + 2.0), rel=1e-12)

    def test_shift_and_scale(self):
        f = EXP.shifted(1.0)
        assert f(0.0) == pytest.approx(math.e)
        assert f.derivative(0.0, 1) == pytest.approx(math.e)
        g = EXP.scaled_arg(2.0)
        assert g(1.0) == pytest.approx(math.exp(2.0))
        assert g.derivative(1.0, 1) == pytest.approx(2.0 * math.exp(2.0))
        assert g.derivative(1.0, 2) == pytest.approx(4.0 * math.exp(2.0))


class TestSampleGrid:
    def test_endpoints(self):
        g = sample_grid(IDENTITY, 0.0, 1.0, 2)
        np.testing.assert_array_equal(g.xs, [0.0, 1.0])
        np.testing.assert_array_equal(g.ys, [0.0, 1.0])

    def test_midpoint(self):
        g = sample_grid(IDENTITY, 0.0, 1.0, 3)
        np.testing.assert_array_equal(g.xs, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(g.ys, [0.0, 0.5, 1.0])

    def test_symmetry(self):
        g = sample_grid(SQUARE, -1.0, 1.0, 3)
        np.testing.assert_array_equal(g.ys, [1.0, 0.0, 1.0])

    def test_pairs_shape(self):
        g = sample_grid(SQUARE, 0.0, 1.0, 5)
        assert g.pairs.shape == (5, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_grid(IDENTITY, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            sample_grid(IDENTITY, 0.0, 1.0, 1)
        f = RealFunction(fn=math.log, domain=(0.0, math.inf))
        with pytest.raises(DomainError):
            sample_grid(f, -1.0, 1.0, 5)

    def test_grid_rejects_non_uniform(self):
        xs = np.array([0.0, 0.4, 1.0])
        with pytest.raises(ValueError):
            Grid(a=0.0, b=1.0, n=3, xs=xs, ys=xs)
        with pytest.raises(ValueError):
            Grid(a=0.0, b=1.0, n=3, xs=np.array([0.0, 0.0, 1.0]), ys=xs)
