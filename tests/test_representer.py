"""Builtin representers, parsed representers, Artinian derivative chains."""

import math

import numpy as np
import pytest

from logconvex import (
    NonPositiveError,
    ParseError,
    PoleError,
    RealFunction,
    ZeroDerivative,
    artinian_chain,
    builtin,
    from_spec,
    function_from_source,
    parse_representer,
)


def binet_sequence(n_max):
    """Independent Fibonacci oracle: the recursion itself, seeds (0, 1)."""
    seq = [0.0, 1.0]
    while len(seq) <= n_max:
        seq.append(seq[-1] + seq[-2])
    return seq


class TestBuiltins:
    def test_identity(self):
        g = builtin("identity")
        assert g(5.0) == 5.0
        assert g.d1(5.0) == 1.0
        assert g.d2(5.0) == 0.0

    def test_power(self):
        g = builtin("power", c=1.5)
        x = 2.0
        assert g(x) == pytest.approx(2.0 ** 1.5, rel=1e-15)
        assert g.d1(x) == pytest.approx(1.5 * 2.0 ** 0.5, rel=1e-12)
        assert g.d2(x) == pytest.approx(1.5 * 0.5 * 2.0 ** -0.5, rel=1e-12)
        with pytest.raises(ValueError):
            builtin("power", c=math.inf)

    def test_constant(self):
        g = builtin("constant", v=2.0)
        assert g(17.3) == 2.0
        assert g.d1(4.0) == 0.0
        with pytest.raises(ValueError):
            builtin("constant", v=0.0)
        with pytest.raises(ValueError):
            builtin("constant", v=-1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("gamma")

    def test_fibonacci_at_one(self):
        # F(2)/F(1) = 1/1 by the Binet oracle
        g = builtin("fibonacci")
        assert g(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fibonacci_pole_at_zero(self):
        g = builtin("fibonacci")
        with pytest.raises(PoleError):
            g(0.0)

    def test_fibonacci_ratio_property(self):
        """g(n) = F(n+1)/F(n) for integer n >= 1, to 1e-9."""
        g = builtin("fibonacci")
        seq = binet_sequence(13)
        for n in range(1, 13):
            assert g(float(n)) == pytest.approx(seq[n + 1] / seq[n], abs=1e-9)

    def test_fibonacci_vectorized_matches_scalar(self):
        g = builtin("fibonacci")
        xs = np.linspace(0.3, 6.0, 17)
        np.testing.assert_allclose(g.values(xs), [g(float(x)) for x in xs], rtol=1e-14)


class TestParseRepresenter:
    def test_identity_source(self):
        r = parse_representer("x")
        assert (r(3.0), r.d1(3.0), r.d2(3.0)) == (3.0, 1.0, 0.0)

    def test_power_with_param(self):
        r = parse_representer("x^c", {"c": 2.0})
        assert (r(3.0), r.d1(3.0), r.d2(3.0)) == (9.0, 6.0, 2.0)

    def test_malformed(self):
        with pytest.raises(ParseError) as err:
            parse_representer("x^(2")
        assert err.value.offset == 4

    def test_positivity_spot_check(self):
        with pytest.raises(NonPositiveError):
            parse_representer("x - 100")  # negative on most of the spot grid
        with pytest.raises(NonPositiveError):
            parse_representer("-x")
        # fine on a domain where it is positive
        parse_representer("x - 100", positivity_domain=(100.0, math.inf))

    def test_default_positivity_domain(self):
        r = parse_representer("x*(x+1)")
        assert r.positivity_domain == (0.0, math.inf)


class TestFromSpec:
    def test_reserved_names(self):
        assert from_spec("identity").name == "identity"
        assert from_spec("fibonacci").name == "fibonacci"
        assert from_spec("power:c=1.5")(4.0) == pytest.approx(8.0)
        assert from_spec("const:2.5")(9.0) == 2.5

    def test_expression_fallback(self):
        assert from_spec("x*(x+1)")(2.0) == 6.0


class TestArtinianChain:
    def test_exponential_base2_fixed_point(self):
        # (2 * 2^x ln 2) / (2^x ln 2) = 2 at every x
        f = function_from_source("2^x")
        g1 = artinian_chain(builtin("constant", v=2.0), f, 1)[0]
        for x in (0.2, 1.3, 4.5):
            assert g1(x) == pytest.approx(2.0, rel=1e-12)

    def test_identity_with_rational_g0(self):
        # (g0 * f)' = (x+1)' = 1 and f' = 1
        g0 = parse_representer("(x+1)/x")
        g1 = artinian_chain(g0, builtin("identity"), 1)[0]
        for x in (0.5, 2.5, 7.0):
            assert g1(x) == pytest.approx(1.0, rel=1e-9)

    def test_exp_fixed_point_depth_three(self):
        f = function_from_source("exp(x)")
        chain = artinian_chain(builtin("constant", v=math.e), f, 3)
        assert len(chain) == 3
        for g_k in chain:
            for x in (0.1, 0.7, 2.0):
                assert g_k(x) == pytest.approx(math.e, rel=1e-9)

    def test_zero_derivative_detected(self):
        # f = identity has f'' = 0, so the k=2 denominator vanishes
        chain = artinian_chain(parse_representer("(x+1)/x"), builtin("identity"), 2)
        with pytest.raises(ZeroDerivative):
            chain[1](1.0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_non_expression_input_rejected(self, n):
        f_num = RealFunction(fn=math.exp, d1=math.exp, d2=math.exp)
        with pytest.raises(ValueError):
            artinian_chain(builtin("constant", v=2.0), f_num, n)
        with pytest.raises(ValueError):
            artinian_chain(builtin("fibonacci"), function_from_source("exp(x)"), n)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            artinian_chain(builtin("identity"), function_from_source("x"), 0)
