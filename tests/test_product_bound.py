"""Honest convergence of the product engine against an mpmath oracle.

For Gamma-type representers the interpolant has a closed form, so every
state can be scored: a state that claims convergence must be within its
tol, and the oracle must lie inside its bounds whether it converged or not.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logconvex import builtin, evaluate, extended_state, parse_representer

mp = pytest.importorskip("mpmath")

DPS = 30
#: log|f| past this leaves float range, where no finite value can be scored.
LOG_RANGE = 700.0


def _gamma_type(kind: str, a: float):
    """(representer, closed-form interpolant as an mpf function) of one family."""
    if kind == "identity":
        return builtin("identity"), mp.gamma
    if kind == "shift":
        return parse_representer(f"x+{a!r}"), lambda t: mp.gamma(t + a) / mp.gamma(1 + mp.mpf(a))
    if kind == "rising":
        return parse_representer("x*(x+1)"), lambda t: mp.gamma(t) * mp.gamma(t + 1)
    c = 1.0 + a / 2.0  # power:c with c in (1.05, 2)
    return builtin("power", c=c), lambda t: mp.gamma(t) ** c


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("identity", "shift", "rising", "power")),
       a=st.floats(0.1, 2.0).map(lambda v: round(v, 4)),
       k=st.integers(-5, 169),
       frac=st.floats(1e-3, 1.0 - 1e-3),
       tol=st.sampled_from((1e-8, 1e-12, 1e-13)))
def test_converged_means_within_tol_and_bounds_hold(kind, a, k, frac, tol):
    x = k + frac
    assume(kind != "power" or x > 0.0)  # x^c has no real values below 0, so f has none either
    # Gamma(x + a) has its poles where x + a is a non-positive integer
    assume(kind != "shift" or x + a > 0.0 or abs(x + a - round(x + a)) > 1e-3)
    g, f = _gamma_type(kind, a)
    with mp.workdps(DPS):
        want = f(mp.mpf(x))
        assume(mp.log(abs(want)) <= LOG_RANGE)
        state = extended_state(g, x, tol)
        err = float(abs(mp.mpf(state.value) - want) / abs(want))
        assert not state.converged or err <= tol, (x, state, err)
        assert mp.mpf(state.lower) <= want <= mp.mpf(state.upper), (x, state, err)


def test_most_of_the_rational_family_converges_at_tol_1e_13():
    """The rounding allowance (n + 1) eps passes 1e-13 from n = 450 on, so only the
    first block's last level, n = 256, can meet tol 1e-13, and order 4 cannot there:
    none of these 60 states converged before orders up to TOP_ORDER were tried at a
    block's last level. A state that does not converge stays within the worst error
    of that order-4 engine, 2.7e-13."""
    reps = [(builtin("identity"), mp.gamma),
            (parse_representer("x*(x+1)"), lambda t: mp.gamma(t) * mp.gamma(t + 1)),
            (builtin("power", c=0.7), lambda t: mp.gamma(t) ** mp.mpf(0.7))]
    converged = 0
    for g, f in reps:
        for i in range(20):
            x = (i + 0.5) / 20
            state = evaluate(g, x, 1e-13)
            with mp.workdps(DPS):
                want = f(mp.mpf(x))
                err = float(abs(mp.mpf(state.value) - want) / want)
                assert mp.mpf(state.lower) <= want <= mp.mpf(state.upper), (x, state)
            assert err <= (1e-13 if state.converged else 2.7e-13), (x, state, err)
            converged += state.converged
    assert converged > 30, converged


def test_identity_half_reaches_the_default_tol():
    state = evaluate(builtin("identity"), 0.5)
    assert state.converged and state.n <= 2 ** 11
    assert abs(state.value / math.sqrt(math.pi) - 1.0) <= 1e-8
    assert state.lower <= math.sqrt(math.pi) <= state.upper
