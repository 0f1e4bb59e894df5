"""The series' chunks: one call each of g, g' and g'' for a chunk and the points after it.

``logconvexity_series`` evaluates each chunk together with the 2p+1 points
Gregory's formula reads after it, and evaluates the chunk alone where that
call meets a fault. These tests hold it to the loop that evaluates the chunk
and then, once the chunk has passed its checks, its points, kept here as
``reference_series``: the same value bits, the same exceptions with the same
messages, and the same warnings.
"""

import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logconvex import Representer, builtin, from_spec, logconvexity_series
from logconvex.bohrmollerup import EPS, ORDER, SERIES_BUDGET, _gregory_tail, _series_terms
from logconvex.errors import DomainError, LogconvexError, SeriesDivergence, ToleranceNotMet
from test_rational_family import rational


def reference_series(g: Representer, x: float, tol: float = 1e-8) -> float:
    """The series with a call of g, g' and g'' for each chunk, and another for the
    2p+1 points after it once the chunk has passed its checks."""
    if not (x > 0.0):
        raise DomainError(f"series needs x > 0, got {x!r}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    total = abs_total = 0.0
    k = 0
    chunk = 64
    prev_last_abs = None
    while k < SERIES_BUDGET:
        size = min(chunk, SERIES_BUDGET - k)
        terms, dlog = _series_terms(g, x + np.arange(k, k + size, dtype=float))
        total += float(np.sum(terms))
        abs_terms = np.abs(terms)
        abs_total += float(np.sum(abs_terms))
        ref = max((k + size) // 2 - k, 0)  # x + k/2 after this chunk, if the chunk holds it
        k += size
        last = float(terms[-1])
        scale = max(1.0, abs(total))
        tail = last * (k - 1)
        fits = abs(last) < tol * scale and abs(last * (x + k - 1)) < tol * scale
        if not fits and (np.all(abs_terms[1:] >= abs_terms[:-1] * (1.0 - 1e-12))
                         and (prev_last_abs is None or abs_terms[0] >= prev_last_abs * (1.0 - 1e-12))):
            raise SeriesDivergence(
                f"series terms non-decreasing over {size} consecutive k near k={k}")
        after = _series_terms(g, x + np.arange(k, k + 2 * ORDER + 1, dtype=float))
        gregory = _gregory_tail(*after, float(abs_terms[ref]), abs(float(dlog[ref])))
        if gregory is None:
            if fits:
                return total + tail
        else:
            tail, est = gregory
            allowance = (k + 1) * EPS * abs_total
            if est <= allowance:
                if est + allowance <= tol * scale:
                    return total + tail
                raise ToleranceNotMet(
                    f"series reached its rounding floor {est + allowance:.3e} at k={k}, "
                    f"above tol={tol!r} relative to {scale!r}")
        prev_last_abs = float(abs_terms[-1])
        chunk = min(2 * chunk, 65536)
    raise ToleranceNotMet(f"series did not reach tol={tol!r} within {SERIES_BUDGET} terms")


def outcome(series, g: Representer, x: float, tol: float):
    """The value's bits, or the exception's class and message, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = series(g, x, tol).hex()
        except Exception as exc:  # noqa: BLE001 - every exception is compared
            got = type(exc), str(exc)
    return got, [(w.category, str(w.message)) for w in caught]


@lru_cache(maxsize=None)
def representer(spec: str) -> Representer:
    return from_spec(spec)


#: Chunk ends: the series reads the Gregory points x+k .. x+k+2p after each.
CHUNK_ENDS = (64, 192, 448)

BASES = st.one_of(rational().map(lambda rep: rep[0]), st.sampled_from(["x", "x*(x+1)", "exp(x^2/500)"]))


@st.composite
def cases(draw):
    """(spec, x, tol): a base representer, times a factor with a pole just past a
    chunk end k, at x+k+3, or not."""
    spec, x = draw(BASES), draw(st.floats(0.05, 12.0))
    pole = draw(st.sampled_from((None,) + CHUNK_ENDS))
    if pole is not None:
        spec = f"({spec})*(1 + 1/(x-{x + (pole + 3)!r})^2)"
    return spec, x, draw(st.sampled_from([1e-4, 1e-6, 1e-8, 1e-12]))


class TestChunks:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    @example(("x*(1 + 1/(x-70.5)^2)", 3.5, 1e-8))  # the pole faults at the first chunk's points
    @example(("exp(x^2/500)", 0.5, 1e-8))  # never decays: SeriesDivergence after the first chunk
    @example(("exp(x^2/500)*(1 + 1/(x-67.5)^2)", 0.5, 1e-8))  # ... raised before the pole is seen
    @example(("x^-130", 0.5, 1e-8))  # g below 1e-154: g*g underflows
    def test_values_and_exceptions_match_a_call_per_chunk_and_per_tail(self, case):
        spec, x, tol = case
        g = representer(spec)
        assert outcome(logconvexity_series, g, x, tol) == outcome(reference_series, g, x, tol), case

    def test_fibonacci_and_an_exceptional_chunk_match(self):
        for g, x in ((builtin("fibonacci"), 0.3), (builtin("fibonacci"), 7.7), (representer("x^-130"), 30.5)):
            for tol in (1e-6, 1e-10):
                assert outcome(logconvexity_series, g, x, tol) == outcome(reference_series, g, x, tol)

    def test_one_call_each_per_chunk(self, monkeypatch):
        """Gamma's series at 2.7 stops after three chunks: three calls each of g, g'
        and g'', where a call per chunk and per tail made six."""
        calls = Counter()
        for name in ("values", "d1_values", "d2_values"):
            orig = getattr(Representer, name)
            monkeypatch.setattr(Representer, name,
                                lambda g, xs, orig=orig, name=name: calls.update([name]) or orig(g, xs))
        got = logconvexity_series(builtin("identity"), 2.7, 1e-6)
        assert calls == {"values": 3, "d1_values": 3, "d2_values": 3}
        monkeypatch.undo()
        assert got == reference_series(builtin("identity"), 2.7, 1e-6)


#: logconvexity_series(fibonacci, x, 1e-8) at the x of 380, 390, ..., 900 that give a value
FIB_FAR_RIGHT = {380: "0x1.4c11361a11819p-53", 390: "-0x1.7b0d5e8debccbp-47", 400: "-0x1.9fdb821abe67bp-48",
                 410: "-0x1.8d523cb39c4bcp-53", 420: "0x1.b43f03ec7ed68p-53", 430: "-0x1.e8ac127a64133p-49",
                 440: "-0x1.179b3e3e3e119p-49"}


def test_fibonacci_far_right_raises_where_its_terms_leave_float_range():
    """Past x = 500 the fibonacci representer's quotient rule overflows: its g' and g''
    turn 0, nan or inf, and the sum read nan at 16 of these x, with overflow and invalid
    warnings. A term or (log g)' that is not finite now raises NonFiniteError at its
    point. The x that give a value keep its bits, and no call returns nan or warns."""
    g = builtin("fibonacci")
    for x in range(380, 901, 10):
        got, caught = outcome(logconvexity_series, g, float(x), 1e-8)
        assert caught == [], (x, caught)
        if x in FIB_FAR_RIGHT:
            assert got == FIB_FAR_RIGHT[x], x
        else:
            assert isinstance(got, tuple) and issubclass(got[0], LogconvexError), (x, got)
