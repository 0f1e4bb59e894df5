"""Independent mpmath oracle for every answer the benchmark checks.

All values are computed before timing starts. ``self_check`` ties the oracle
to facts that do not depend on the product construction, so that a wrong
oracle cannot score the library.
"""

from __future__ import annotations

import math

import mpmath as mp

from inputs import Family

#: Working precision of the Gamma-type closed forms and trigamma sums.
DPS = 30
#: Precision and truncation index of the Fibonacci product; the product
#: converges geometrically, like phi^(-2n), so n = 200 is far below 1e-50.
FIB_DPS = 50
FIB_N = 200


def _mpf(x: float):
    return mp.mpf(x)


def _fib_F(x):
    phi = (1 + mp.sqrt(5)) / 2
    return (phi ** x - mp.cos(mp.pi * x) / phi ** x) / mp.sqrt(5)


def _fib_g(x):
    return _fib_F(x + 1) / _fib_F(x)


def fib_product(x: float):
    """The Fibonacci interpolant from its truncated product at 50 digits.

    x = x0 + m with x0 in (0, 1]; the base value is
    g(n)^x0 * prod_{k<n} g(k)/g(x0+k) with g(0) := 1, scaled forward by
    prod_{k<m} g(x0+k).
    """
    with mp.workdps(FIB_DPS):
        m = math.ceil(x) - 1
        x0 = mp.mpf(x) - m
        if x0 <= 0:
            x0 += 1
            m -= 1
        num = mp.mpf(1)
        den = mp.mpf(1)
        for k in range(FIB_N):
            if k:
                num *= _fib_g(mp.mpf(k))
            den *= _fib_g(x0 + k)
        base = _fib_g(mp.mpf(FIB_N)) ** x0 * num / den
        for k in range(m):
            base *= _fib_g(x0 + k)
        return +base


def value(fam: Family, x: float):
    """f(x) for the interpolant of ``fam``, as an mpf."""
    with mp.workdps(DPS):
        t = _mpf(x)
        if fam.kind == "identity":
            return mp.gamma(t)
        if fam.kind == "shift":
            a = _mpf(fam.param)
            return mp.gamma(t + a) / mp.gamma(1 + a)
        if fam.kind == "rising":
            return mp.gamma(t) * mp.gamma(t + 1)
        if fam.kind == "power":
            return mp.gamma(t) ** _mpf(fam.param)
    return fib_product(x)


def log_value(fam: Family, x: float):
    """log|f(x)|, as an mpf (Gamma-type families only)."""
    with mp.workdps(DPS):
        return mp.log(abs(value(fam, x)))


def trigamma_sum(fam: Family, x: float):
    """(log f)''(x): the series the library sums, in closed form."""
    with mp.workdps(DPS):
        t = _mpf(x)
        if fam.kind == "identity":
            return mp.psi(1, t)
        if fam.kind == "shift":
            return mp.psi(1, t + _mpf(fam.param))
        if fam.kind == "rising":
            return mp.psi(1, t) + mp.psi(1, t + 1)
        if fam.kind == "power":
            return _mpf(fam.param) * mp.psi(1, t)
    raise ValueError(f"no trigamma form for {fam.kind}")


def rel_err(got: float, want) -> float:
    """|got - want| / |want| in the oracle's precision, as a float."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(got) - want) / abs(want))


def self_check(lc, bm, sp, xs: list[float]) -> list[str]:
    """Problems found when tying the oracle to independent facts (empty = sound).

    - Gamma at the integer anchors 1..20 equals ``extend(identity, n)``
      exactly, since (n-1)! is a float there and the forward product is exact;
    - Gamma agrees with ``gamma_quadrature`` within 1e-9 relative at ``xs``;
    - the Fibonacci product equals the closed form fib_real, to which the
      product telescopes, within 1e-40;
    - trigamma equals the second derivative of log Gamma.
    """
    problems = []
    ident = Family("identity")
    g = lc.builtin("identity")
    for n in range(1, 21):
        want = float(value(ident, float(n)))
        got = bm.extend(g, float(n))
        if got != want:
            problems.append(f"Gamma({n}) oracle {want!r} != extend {got!r}")
    for x in xs:
        quad = sp.gamma_quadrature(x, 1e-9).value
        err = rel_err(quad, value(ident, x))
        if not err <= 1e-9:
            problems.append(f"Gamma({x!r}) oracle and gamma_quadrature differ by {err:.3e}")
    with mp.workdps(FIB_DPS):
        for x in (0.3, 1.7, 9.25):
            diff = abs(fib_product(x) - _fib_F(mp.mpf(x)))
            if not diff <= mp.mpf(10) ** -40 * abs(_fib_F(mp.mpf(x))):
                problems.append(f"Fibonacci product at {x!r} misses the closed form by {diff}")
    with mp.workdps(DPS):
        for x in xs:
            d2 = mp.diff(mp.loggamma, _mpf(x), 2)
            if not abs(d2 - trigamma_sum(ident, x)) <= mp.mpf(10) ** -20 * abs(d2):
                problems.append(f"trigamma({x!r}) disagrees with (log Gamma)''")
    return problems
