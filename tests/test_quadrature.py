"""The double-exponential Mellin quadrature: closed forms, prompt failures, shared nodes.

mpmath is the oracle for the closed forms.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logconvex import (RealFunction, ToleranceNotMet, function_from_source, gamma_quadrature,
                       mellin_integral, mellin_logconvex_probe)
from logconvex.convexity import LOG_CONVEX

mp = pytest.importorskip("mpmath")

XS = st.floats(0.05, 8.0)
TOL = 1e-10


class Counted:
    """phi that records every t it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.ts = []

    def __call__(self, t):
        self.ts.extend(np.atleast_1d(t).tolist())
        return self.fn(t)


def scaled_tol(exact) -> float:
    """An absolute tol of TOL relative to the integral's size."""
    return TOL * max(1.0, float(abs(exact)))


class TestClosedForms:
    @settings(max_examples=60, deadline=None)
    @given(XS, st.floats(0.5, 3.0), st.integers(0, 3))
    def test_exponential_times_polynomial(self, x, b, j):
        # integral of e^(-bt) (1+t)^j t^(x-1) over (0, inf) = sum_k C(j,k) Gamma(x+k) / b^(x+k)
        with mp.workdps(40):
            exact = sum(mp.binomial(j, k) * mp.gamma(x + k) / mp.mpf(b) ** (x + k) for k in range(j + 1))
        tol = scaled_tol(exact)
        got = mellin_integral(lambda t: np.exp(-b * t) * (1.0 + t) ** j, 0.0, math.inf, x, tol)
        assert abs(got.value - exact) <= tol

    @settings(max_examples=60, deadline=None)
    @given(XS, st.floats(0.0, 6.0).map(lambda v: round(v, 3)))
    def test_upper_incomplete_gamma(self, x, a):
        with mp.workdps(40):
            exact = mp.gammainc(x, a)
        tol = scaled_tol(exact)
        got = mellin_integral(lambda t: np.exp(-t), a, math.inf, x, tol)
        assert abs(got.value - exact) <= tol

    @settings(max_examples=60, deadline=None)
    @given(XS, st.one_of(st.just(0.0), st.floats(0.0, 3.0).map(lambda v: round(v, 3))),
           st.floats(0.01, 3.0).map(lambda v: round(v, 3)))
    def test_constant_weight_on_a_finite_interval(self, x, a, width):
        b = a + width
        with mp.workdps(40):
            exact = (mp.mpf(b) ** x - mp.mpf(a) ** x) / x
        tol = scaled_tol(exact)
        got = mellin_integral(lambda t: 1.0, a, b, x, tol)
        assert abs(got.value - exact) <= tol

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.7])
    def test_endpoint_singularity_keeps_full_accuracy(self, x):
        # integral of t^(x-1) over (0, 1) is 1/x; the power is formed in log space
        assert mellin_integral(lambda t: 1.0, 0.0, 1.0, x, 1e-12).value == pytest.approx(1.0 / x, rel=4e-15)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0])
    def test_gamma_to_the_last_bits(self, x):
        assert gamma_quadrature(x, 1e-9).value == pytest.approx(float(mp.gamma(x)), rel=2e-15)


class TestPromptFailure:
    def test_tol_below_the_rounding_floor(self):
        # Gamma(30) is about 8.8e30, so its rounding floor is near 1e15, far above 1e-3
        phi = Counted(lambda t: np.exp(-t))
        with pytest.raises(ToleranceNotMet, match="rounding floor"):
            mellin_integral(phi, 0.0, math.inf, 30.0, 1e-3)
        assert 0 < len(phi.ts) < 1000

    def test_gamma_quadrature_tol_below_the_rounding_floor(self):
        with pytest.raises(ToleranceNotMet, match="x=30.0"):
            gamma_quadrature(30.0, 1e-3)

    @pytest.mark.parametrize("exp", [math.exp, np.exp], ids=["scalar", "vector"])
    def test_divergent_integral(self, exp):
        phi = Counted(lambda t: exp(t / 2))
        with pytest.raises(ToleranceNotMet, match="x=0.5"):
            mellin_integral(phi, 0.0, math.inf, 0.5, 1e-9)
        assert 0 < len(phi.ts) < 1000

    def test_divergent_at_zero(self):
        # t^(x-1) with x = 0 is not integrable at 0
        phi = Counted(lambda t: np.exp(-t))
        with pytest.raises(ToleranceNotMet):
            mellin_integral(phi, 0.0, math.inf, 0.0, 1e-9)
        assert len(phi.ts) < 1000

    def test_panels_count_evaluations(self):
        phi = Counted(lambda t: np.exp(-t))
        res = mellin_integral(phi, 0.0, math.inf, 2.5, 1e-9)
        assert res.panels == len(phi.ts)
        assert res.abs_error_estimate <= 1e-9


class TestProbe:
    def test_one_evaluation_per_node_across_all_xs(self):
        f = function_from_source("exp(-b*x)*(1+x)", {"b": 0.8})
        phi = Counted(f.fn)
        report = mellin_logconvex_probe(RealFunction(fn=phi), 0.0, math.inf, [1.5, 2.0, 2.5, 3.0])
        assert report.verdict == LOG_CONVEX
        assert 0 < len(phi.ts) <= 1000
        assert len(set(phi.ts)) == len(phi.ts)

    def test_stencil_failure_stays_at_its_x(self):
        # integral over (0, 1) of (1 - 1.8t) t^(x-1) is 1/x - 1.8/(x+1), negative past x = 1.25
        exact = lambda x: 1.0 / x - 1.8 / (x + 1.0)
        report = mellin_logconvex_probe(lambda t: 1.0 - 1.8 * t, 0.0, 1.0, [0.5, 2.0], tol=1e-10)
        (_, q0), (_, q1) = report.q_values
        (_, d0), (_, d1) = report.d2log_values
        assert q1 is None and d1 is None
        assert q0 is not None
        want = (math.log(exact(0.51)) - 2.0 * math.log(exact(0.5)) + math.log(exact(0.49))) / 0.01 ** 2
        assert d0 == pytest.approx(want, rel=1e-5)


def _benchmark_inputs():
    """perfbench/inputs.py (standard library only), loaded by path."""
    if "perfbench_inputs" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        if not path.exists():
            pytest.skip("perfbench/inputs.py is not beside the tests")
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        # its dataclasses look their module up in sys.modules
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_inputs"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_mellin_candidates_keep_their_verdicts(seed):
    ip = _benchmark_inputs()
    cands = [c for c in ip.candidate_inputs(seed) if c.kind == "mellin"]
    assert len(cands) == 12
    for c in cands:
        f = function_from_source(c.source, dict(c.params))
        report = mellin_logconvex_probe(f, 0.0, math.inf, c.probe_xs, ip.PROBE_TOL)
        assert report.verdict == c.verdict == LOG_CONVEX
