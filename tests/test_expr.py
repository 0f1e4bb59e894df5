"""Expression grammar, symbolic differentiation, pretty-printing, compilation.

The library evaluates an expression only through ``compile_expr``.
``tree_walk`` below, a recursive evaluation calling the same operator
functions, is the reference the compiled code and constant folding are held
to.
"""

import contextlib
import copy
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logconvex.expr as ex
from logconvex import DomainError, ParseError, UnboundParameter
from logconvex.acceptance import MALFORMED_CASES, ROUND_TRIP_CORPUS
from logconvex.representer import function_from_source

PARAMS = {"c": 2.0}


def tree_walk(node: ex.Expr, x):
    """``node`` at ``x`` by recursive descent, the operands left to right; an array
    ``x`` gives an array of its shape."""
    return ex._shaped(_walk(node, x), x)


def _walk(node: ex.Expr, x):
    if isinstance(node, ex.Const):
        return node.value
    if isinstance(node, ex.Var):
        return x
    if isinstance(node, ex.Param):
        raise UnboundParameter({node.name})
    if isinstance(node, ex.Unary):
        return ex._UNARY[node.op](_walk(node.arg, x))
    return ex._BINARY[node.op](_walk(node.lhs, x), _walk(node.rhs, x))


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


def operator_nodes(kids):
    return st.one_of(
        st.builds(ex.Unary, st.sampled_from(sorted(ex._UNARY)), kids),
        st.builds(ex.Binary, st.sampled_from(sorted(ex._BINARY)), kids, kids),
    )


TREES = st.recursive(st.one_of(CONSTS.map(ex.Const), st.just(ex.Var())), operator_nodes, max_leaves=8)


class TestConstantFolding:
    @settings(max_examples=400, deadline=None)
    @given(TREES, st.floats(-3.0, 3.0, allow_nan=False))
    @example(ex.parse("2.028^-0.467*x"), 1.0)
    def test_simplify_keeps_every_finite_value(self, tree, x):
        with np.errstate(all="ignore"):
            try:
                want = tree_walk(tree, x)
            except DomainError:
                return
            if math.isfinite(want):
                assert tree_walk(ex.simplify(tree), x) == want

    def test_folds_are_evaluations(self):
        for src in ("log(2)", "sqrt(2)", "sin(1)", "cos(1)", "exp(0.7)", "2.028^-0.467", "3/7"):
            folded = ex.simplify(ex.parse(src))
            assert folded == ex.Const(float(tree_walk(ex.parse(src), 0.0)))
            assert type(folded.value) is float

    @pytest.mark.parametrize("src", ["0/0", "0^-1", "exp(1000)", "log(-1)", "(-8)^(1/3)",
                                     "0*(0/0)", "(0/0)^0"])
    def test_unevaluable_constants_stay_unfolded(self, src):
        tree = ex.simplify(ex.parse(src))
        assert not isinstance(tree, ex.Const)
        with np.errstate(all="ignore"):
            try:
                v = tree_walk(tree, 0.0)
            except DomainError:
                return
        assert not math.isfinite(v)


EDGE_CONSTS = st.one_of(CONSTS, st.sampled_from([-0.0, math.inf, -math.inf]))
COMPILE_TREES = st.recursive(
    st.one_of(EDGE_CONSTS.map(ex.Const), st.just(ex.Var())),
    lambda kids: st.one_of(
        operator_nodes(kids),
        # the same subtree twice, once as one object and once as equal copies
        st.builds(lambda op, t: ex.Binary(op, t, t), st.sampled_from(sorted(ex._BINARY)), kids),
        st.builds(lambda op, t: ex.Binary(op, t, copy.deepcopy(t)), st.sampled_from(sorted(ex._BINARY)), kids),
        st.builds(lambda t, c: ex.Binary("^", t, ex.Const(c)), kids, st.sampled_from([math.inf, -math.inf])),
    ),
    max_leaves=10,
)
EDGE_XS = [-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0]


def outcome(fn, x):
    """What ``fn(x)`` gives, down to the type and bits, or the exception it raises."""
    try:
        v = fn(x)
    except (DomainError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes()


def assert_compiled_matches_tree_walk(tree, xs):
    """``compile_expr(tree)`` and ``ex.evaluate`` give the walk's bits or exception at every x."""
    compiled = ex.compile_expr(tree)
    for errstate in ("ignore", "raise"):
        with np.errstate(all=errstate):
            for x in list(xs) + [np.array(xs)]:
                want = outcome(lambda t: tree_walk(tree, t), x)
                assert outcome(compiled, x) == want, (tree, x, errstate)
                assert outcome(lambda t: ex.evaluate(tree, t), x) == want, (tree, x, errstate)


class TestCompiledExpressions:
    @settings(max_examples=400, deadline=None)
    @given(COMPILE_TREES, st.floats(-3.0, 3.0, allow_nan=False))
    @example(ex.Binary("^", ex.Const(-2.0), ex.Const(math.inf)), 0.0)
    @example(ex.Binary("^", ex.Const(-0.0), ex.Var()), -1.0)
    @example(ex.Binary("+", ex.Const(0.0), ex.Const(-0.0)), 0.0)
    def test_bit_identical_to_the_tree_walk(self, tree, x):
        assert_compiled_matches_tree_walk(tree, [x] + EDGE_XS)

    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS, ids=ROUND_TRIP_CORPUS)
    def test_corpus_and_derivative_trees(self, src):
        tree = ex.parse(src, PARAMS)
        d1 = tree.diff()
        for t in (tree, ex.simplify(tree), d1, d1.diff()):
            assert_compiled_matches_tree_walk(t, [float(x) for x in np.linspace(-3.0, 8.0, 23)] + EDGE_XS)

    def test_free_parameter_is_unbound(self):
        with pytest.raises(UnboundParameter):
            ex.compile_expr(ex.Binary("*", ex.Var(), ex.Param("a")))

    def test_same_shape_shares_one_code_object(self):
        f, g = (function_from_source("x^c", {"c": c}) for c in (1.3, 2.1))
        assert f(2.0) == 2.0 ** 1.3 and g(2.0) == 2.0 ** 2.1
        for name in ("fn", "d1", "d2"):
            assert getattr(f, name).__code__ is getattr(g, name).__code__

    def test_signed_zero_constants_stay_apart(self):
        # Const(0.0) == Const(-0.0), but 1/(-0)^3 and 1/0^3 differ in sign
        tree = ex.Binary("-", ex.Binary("^", ex.Const(-0.0), ex.Var()), ex.Binary("^", ex.Const(0.0), ex.Var()))
        assert np.signbit(ex.compile_expr(tree)(3.0)) == np.signbit(tree_walk(tree, 3.0))
        assert np.signbit(ex.compile_expr(ex.Binary("^", ex.Const(-0.0), ex.Var()))(3.0))


class TestScalarGuards:
    @pytest.mark.parametrize("fn,args", [(ex._log, (0.0,)), (ex._sqrt, (-1.0,)), (ex._div, (1.0, 0.0)),
                                         (ex._pow, (0.0, -1.0)), (ex._pow, (-8.0, 1.0 / 3.0)),
                                         (ex._pow, (-2.0, math.nan))],
                             ids=["log(0)", "sqrt(-1)", "1/0", "0^-1", "(-8)^(1/3)", "(-2)^nan"])
    def test_scalar_branch_raises_the_array_message(self, fn, args):
        with pytest.raises(DomainError) as scalar:
            fn(*args)
        with pytest.raises(DomainError) as array:
            fn(*(np.array([a]) for a in args))
        assert str(scalar.value) == str(array.value)

    def test_scalar_power_matches_the_array_branch_on_0d_arrays(self):
        # 0-d, as the array branch saw float operands: numpy's 1-d loops may
        # differ in sign bits, e.g. (-0)^0.5 with a 1-d exponent
        edges = [-math.inf, -8.0, -2.0, -1.0, -0.5, -1 / 3, -0.0, 0.0, 1e-300, 1 / 3, 0.5, 1.0, 2.0, 2.5, 1e300,
                 math.inf, math.nan]
        for a, b in itertools.product(edges, repeat=2):
            for errstate in ("ignore", "raise"):
                with np.errstate(all=errstate):
                    scalar = outcome(lambda t: ex._pow(*t), (a, b))
                    array = outcome(lambda t: ex._pow(*t), (np.asarray(a), np.asarray(b)))
                assert scalar == array, (a, b, errstate)

    def test_array_power_with_a_float_exponent_matches_the_general_branch(self):
        """A 1-d float64 base with a float exponent skips the general branch's errstate
        and NaN scans; it gives the same bits (signed zeros included), exceptions and
        warnings, for whole arrays and element by element, under numpy's default
        errstate and with every floating-point signal raising."""
        bases = [-math.inf, -2.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf, math.nan]
        exps = [-math.inf, -1e300, -3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.3, 2.0, 3.0, 401.0,
                1e300, math.inf, math.nan]
        arrays = [np.array([a]) for a in bases] + [np.array(bases), np.array([2.0, 0.5, -0.0, 0.0, 1e300])]

        def run(fn, a, errstate):
            with errstate, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = outcome(fn, a)
            return got, [(w.category, str(w.message)) for w in caught]

        for b, a in itertools.product(exps, arrays):
            for errstate in (contextlib.nullcontext, lambda: np.errstate(all="raise")):
                fast = run(lambda t: ex._pow(t, b), a, errstate())
                general = run(lambda t: ex._pow(t, np.asarray(b)), a, errstate())
                assert fast == general, (a, b)

    def test_exponent_array_matches_the_scalar_power(self):
        # numpy squares, inverts or takes sqrt for a scalar exponent of 2, -1 or
        # 0.5; its loop over an exponent array gave 0.363^0.5 and 0.363^-1 a last
        # bit apart from those
        exps = np.array([2.0, -1.0, 0.5, 1.0, 3.0, -0.5, 0.25])
        for c in np.linspace(0.013, 4.9, 400):
            for a, b in ((float(c), exps), (np.full(exps.size, c), exps)):
                got = ex._pow(a, b)
                want = [ex._pow(float(c), float(e)) for e in exps]
                assert got.tolist() == want, (c, got, want)

    def test_zero_powers_take_c99_signs_on_every_path(self):
        # numpy's (-0)^0.5 is sqrt(-0) = -0 for a 0-d or scalar exponent and
        # +0 in its 1-d loop; C99 pow (math.pow) gives +0
        bases = [-0.0, 0.0, -1e-200, 1e-200, -math.inf, math.inf, -0.5, 0.5]
        exps = [0.5, 1.0, 2.0, 3.0, 2.5, 1e-300, 401.0, 1e300, math.inf, -math.inf, -1.0, -2.0, -3.0]
        checked = 0
        for a, b in itertools.product(bases, exps):
            try:
                want = math.pow(a, b)
            except (ValueError, OverflowError):
                continue
            if want != 0.0:
                continue
            with np.errstate(all="ignore"):
                paths = [ex._pow(a, b), ex._pow(np.array([a, a]), b), ex._pow(np.array([a, a]), np.array([b, b]))]
            for got in paths:
                assert np.all(np.asarray(got) == 0.0), (a, b, got)
                assert np.all(np.signbit(got) == np.signbit(want)), (a, b, got)
            checked += 1
        assert checked > 20
        f = function_from_source("(-(x-1))^(x-0.5)")
        assert not np.signbit(f(1.0)) and not np.any(np.signbit(f.values(np.array([1.0, 1.0]))))
