"""Expression grammar, symbolic differentiation, pretty-printing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logconvex.expr as ex
from logconvex import DomainError, ParseError, UnboundParameter
from logconvex.acceptance import MALFORMED_CASES, ROUND_TRIP_CORPUS
from logconvex.representer import function_from_source

PARAMS = {"c": 2.0}


class TestGrammar:
    def test_precedence(self):
        assert ex.evaluate(ex.parse("2+3*x^2"), 2.0) == 14.0

    def test_power_right_associative(self):
        assert ex.evaluate(ex.parse("2^3^2"), 0.0) == 512.0
        assert ex.parse("2^3^2") != ex.parse("(2^3)^2")

    def test_unary_minus_binds_tighter_than_binary(self):
        assert ex.evaluate(ex.parse("-x^2 + 1"), 2.0) == -3.0
        assert ex.evaluate(ex.parse("2^-2"), 0.0) == 0.25
        assert ex.evaluate(ex.parse("1 - -x"), 3.0) == 4.0

    def test_named_constants(self):
        assert ex.evaluate(ex.parse("pi"), 0.0) == math.pi
        assert ex.evaluate(ex.parse("e"), 0.0) == math.e
        assert ex.evaluate(ex.parse("phi"), 0.0) == (1 + math.sqrt(5)) / 2

    def test_scientific_notation(self):
        assert ex.evaluate(ex.parse("1.5e2"), 0.0) == 150.0
        assert ex.evaluate(ex.parse(".5*x"), 4.0) == 2.0

    def test_unicode_minus_accepted(self):
        assert ex.evaluate(ex.parse("x − 1"), 3.0) == 2.0

    def test_parameters_resolved_at_parse_time(self):
        tree = ex.parse("x^c", PARAMS)
        assert tree == ex.parse("x^2")

    def test_unbound_parameters_collected(self):
        with pytest.raises(UnboundParameter) as err:
            ex.parse("a*x + b")
        assert err.value.names == ("a", "b")


class TestParseErrors:
    @pytest.mark.parametrize("src,offset", MALFORMED_CASES, ids=[repr(s) for s, _ in MALFORMED_CASES])
    def test_offset(self, src, offset):
        with pytest.raises(ParseError) as err:
            ex.parse(src, PARAMS)
        assert err.value.offset == offset

    def test_expected_set_for_unclosed_power(self):
        with pytest.raises(ParseError) as err:
            ex.parse("x^(2")
        assert "')'" in err.value.expected
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError) as err:
            ex.parse("foo(x)")
        assert "exp" in err.value.expected


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS, ids=ROUND_TRIP_CORPUS)
    def test_pretty_reparses_identically(self, src):
        tree = ex.parse(src, PARAMS)
        assert ex.parse(tree.pretty(), PARAMS) == tree

    def test_derivative_trees_round_trip_too(self):
        for src in ROUND_TRIP_CORPUS:
            d = ex.parse(src, PARAMS).diff()
            assert ex.parse(d.pretty(), PARAMS) == d


class TestSymbolicDerivatives:
    def test_power_with_parameter(self):
        f = function_from_source("x^c", PARAMS)
        assert f(3.0) == 9.0
        assert f.derivative(3.0, 1) == 6.0
        assert f.derivative(3.0, 2) == 2.0

    def test_identity(self):
        f = function_from_source("x")
        assert (f(3.0), f.derivative(3.0, 1), f.derivative(3.0, 2)) == (3.0, 1.0, 0.0)

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS, ids=ROUND_TRIP_CORPUS)
    def test_matches_finite_differences(self, src):
        """d1 and d2 agree with central differences at 16 points of (0.5, 8)."""
        f = function_from_source(src, PARAMS, domain=(0.0, math.inf))
        for x in np.linspace(0.5, 8.0, 16):
            x = float(x)
            h = 1e-5 * max(1.0, x)
            fd1 = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(f.derivative(x, 1) - fd1) <= 1e-6 * max(1.0, abs(fd1))
            h2 = 1e-4 * max(1.0, x)
            fd2 = (f(x + h2) - 2 * f(x) + f(x - h2)) / (h2 * h2)
            assert abs(f.derivative(x, 2) - fd2) <= 1e-5 * max(1.0, abs(fd2))

    def test_general_power_rule(self):
        # variable exponent goes through u^v (v' log u + v u'/u)
        f = function_from_source("x^x", domain=(0.0, math.inf))
        x = 1.7
        expected = x ** x * (math.log(x) + 1.0)
        assert f.derivative(x, 1) == pytest.approx(expected, rel=1e-12)


class TestEvaluationDomain:
    def test_fractional_power_needs_positive_base(self):
        f = ex.parse("x^0.5")
        with pytest.raises(DomainError):
            ex.evaluate(f, -1.0)

    def test_log_and_sqrt_domains(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("log(x)"), 0.0)
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("sqrt(x)"), -0.5)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("1/x"), 0.0)

    def test_array_evaluation(self):
        xs = np.linspace(0.5, 2.0, 5)
        tree = ex.parse("exp(-x^2/2)")
        np.testing.assert_allclose(ex.evaluate(tree, xs), np.exp(-xs ** 2 / 2))
        const = ex.parse("3")
        np.testing.assert_array_equal(ex.evaluate(const, xs), np.full(5, 3.0))


class TestOperatorTables:
    def test_parser_evaluator_and_differentiator_agree(self):
        assert set(ex._UNARY) == set(ex._UNARY_DERIVATIVE) == set(ex.FUNCTIONS) | {"neg"}
        assert set(ex._BINARY) == set("+-*/^")

    @pytest.mark.parametrize("op", ex.FUNCTIONS)
    def test_every_function_parses_evaluates_and_differentiates(self, op):
        f = function_from_source(f"{op}(x)")
        assert f(0.5) == float(ex._UNARY[op](0.5))
        assert math.isfinite(f.derivative(0.5, 1)) and math.isfinite(f.derivative(0.5, 2))


CONSTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5]),
                   st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: round(v, 3)))
TREES = st.recursive(
    st.one_of(CONSTS.map(ex.Const), st.just(ex.Var())),
    lambda kids: st.one_of(
        st.builds(ex.Unary, st.sampled_from(sorted(ex._UNARY)), kids),
        st.builds(ex.Binary, st.sampled_from(sorted(ex._BINARY)), kids, kids),
    ),
    max_leaves=8,
)


class TestConstantFolding:
    @settings(max_examples=400, deadline=None)
    @given(TREES, st.floats(-3.0, 3.0, allow_nan=False))
    @example(ex.parse("2.028^-0.467*x"), 1.0)
    def test_simplify_keeps_every_finite_value(self, tree, x):
        with np.errstate(all="ignore"):
            try:
                want = ex.evaluate(tree, x)
            except DomainError:
                return
            if math.isfinite(want):
                assert ex.evaluate(ex.simplify(tree), x) == want

    def test_folds_are_evaluations(self):
        for src in ("log(2)", "sqrt(2)", "sin(1)", "cos(1)", "exp(0.7)", "2.028^-0.467", "3/7"):
            folded = ex.simplify(ex.parse(src))
            assert folded == ex.Const(float(ex.evaluate(ex.parse(src), 0.0)))
            assert type(folded.value) is float

    @pytest.mark.parametrize("src", ["0/0", "0^-1", "exp(1000)", "log(-1)", "(-8)^(1/3)"])
    def test_unevaluable_constants_stay_unfolded(self, src):
        tree = ex.simplify(ex.parse(src))
        assert not isinstance(tree, ex.Const)
        with np.errstate(all="ignore"):
            try:
                v = ex.evaluate(tree, 0.0)
            except DomainError:
                return
        assert not math.isfinite(v)
