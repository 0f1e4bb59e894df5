"""Convexity calculus: difference quotients, log-convexity tests, sign scans."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArguments, LogconvexError, NonPositiveError, ZeroValueError
from .funcore import Grid, RealFunction, default_step

LOG_CONVEX = "LogConvex"
NOT_LOG_CONVEX = "NotLogConvex"
INCONCLUSIVE = "Inconclusive"

#: LogConvex verdict tolerance: min d2log >= -VERDICT_TOL_SCALE * (1 + |max d2log|).
VERDICT_TOL_SCALE = 1e-7

#: What a failed evaluation at one sample point raises; scans record a gap.
EVALUATION_ERRORS = (LogconvexError, ArithmeticError, ValueError)


def diff_quotient(f: RealFunction, x1: float, x2: float) -> float:
    """Secant slope (f(x1) - f(x2)) / (x1 - x2); exactly symmetric in x1, x2."""
    if abs(x1 - x2) < 1e-12 * max(1.0, abs(x1), abs(x2)):
        raise DegenerateArguments(f"x1={x1!r} and x2={x2!r} coincide")
    return (f(x1) - f(x2)) / (x1 - x2)


def iter_diff_quotient(f: RealFunction, x1: float, x2: float, x3: float) -> float:
    """Second-order divided difference (phi(x1,x3) - phi(x2,x3)) / (x1 - x2).

    Symmetric under permutation of the three arguments; its sign at every
    triple characterizes convexity (non-negative iff f convex). For a
    quadratic a*x^2 + b*x + c the value is the leading coefficient a.
    """
    for u, v in ((x1, x2), (x1, x3), (x2, x3)):
        if abs(u - v) < 1e-12 * max(1.0, abs(u), abs(v)):
            raise DegenerateArguments(f"arguments {u!r} and {v!r} coincide")
    return (diff_quotient(f, x1, x3) - diff_quotient(f, x2, x3)) / (x1 - x2)


@dataclass(frozen=True)
class WeakConvexityResult:
    holds: bool
    witness: tuple[float, float] | None


def weak_convexity_test(f: RealFunction, a: float, b: float, trials: int, seed: int) -> WeakConvexityResult:
    """Sample pairs (x1, x2) from (a, b) and check the midpoint inequality.

    f((x1+x2)/2) <= (f(x1)+f(x2))/2 must hold for every sampled pair; the
    first violating pair is returned as witness. Sampling is deterministic
    in ``seed``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x1, x2 = rng.uniform(a, b, size=2)
        f1, f2 = f(x1), f(x2)
        mid = f((x1 + x2) / 2.0)
        slack = 4.0 * np.finfo(float).eps * max(1.0, abs(f1), abs(f2), abs(mid))
        if mid > 0.5 * (f1 + f2) + slack:
            return WeakConvexityResult(holds=False, witness=(float(x1), float(x2)))
    return WeakConvexityResult(holds=True, witness=None)


def q_determinant(f: RealFunction, x: float, h: float | None = None) -> float:
    """f(x) * f''(x) - f'(x)^2, the 2x2 determinant whose sign tests log-convexity.

    Derivatives are exact when the function carries them, otherwise central
    differences with step ``h``.
    """
    fv = f(x)
    if abs(fv) < 1e-300:
        raise ZeroValueError(f"|f({x!r})| < 1e-300; the criterion needs a zero-free f")
    f1 = f.derivative(x, 1, h)
    f2 = f.derivative(x, 2, h)
    return fv * f2 - f1 * f1


def d2_log(f: RealFunction, x: float, h: float | None = None) -> float:
    """(log f)''(x) for positive f.

    Uses (f''f - f'^2)/f^2 with exact derivatives when both are present, or
    f''/f - (f'/f)^2 where that form is not finite (f f or f'' f overflows, or
    f f underflows to 0), otherwise a central second difference of log(f)
    with step ``h``.
    """
    fv = f(x)
    if fv <= 0.0:
        raise NonPositiveError(f"f({x!r}) = {fv!r} is not positive")
    if f.d1 is not None and f.d2 is not None:
        f1 = float(f.d1(x))
        f2 = float(f.d2(x))
        d2 = (f2 * fv - f1 * f1) / (fv * fv) if fv * fv != 0.0 else math.nan
        return d2 if math.isfinite(d2) else f2 / fv - (f1 / fv) * (f1 / fv)
    if h is None:
        h = default_step(x, 2)
    fp = f(x + h)
    _, d2 = stencil(f(x - h), fv, fp, h)
    if d2 is None:
        raise NonPositiveError(f"f is not positive on the stencil around x={x!r}")
    return d2


def stencil(fm: float, fv: float, fp: float, h: float) -> tuple[float, float | None]:
    """Central-difference q and (log f)'' from f(x-h), f(x), f(x+h); (log f)'' needs all three > 0."""
    d2 = None
    if fv > 0.0 and fm > 0.0 and fp > 0.0:
        d2 = (math.log(fp) - 2.0 * math.log(fv) + math.log(fm)) / (h * h)
    f1 = (fp - fm) / (2.0 * h)
    f2 = (fp - 2.0 * fv + fm) / (h * h)
    return fv * f2 - f1 * f1, d2


def count_sign_changes(values: Grid) -> np.ndarray:
    """Midpoints of grid cells where the sampled value changes strict sign.

    Zero samples attach to the preceding sign, so tangential zeros are not
    double counted and leading zeros never produce a change.
    """
    return np.asarray(_change_locations(values.xs, map(finite, values.ys)), dtype=float)


@dataclass(frozen=True)
class ConvexityReport:
    """Per-point log-convexity diagnostics over an interval."""

    interval: tuple[float, float]
    grid_n: int
    q_values: list[tuple[float, float | None]]
    d2log_values: list[tuple[float, float | None]]
    sign_changes: list[float]
    verdict: str
    min_margin: float

    def to_dict(self) -> dict:
        return {
            "interval": [self.interval[0], self.interval[1]],
            "grid_n": self.grid_n,
            "q_values": [[x, finite(v)] for x, v in self.q_values],
            "d2log_values": [[x, finite(v)] for x, v in self.d2log_values],
            "sign_changes": list(self.sign_changes),
            "verdict": self.verdict,
            "min_margin": finite(self.min_margin),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def finite(v: float | None) -> float | None:
    """The gap rule of every reported sample: ``v`` where it is a finite float, else None."""
    return v if v is not None and math.isfinite(v) else None


def build_report(xs, q_vals, d2_vals) -> ConvexityReport:
    """Assemble a ConvexityReport from per-point samples; a sample that ``finite``
    turns into None is a gap and forces an Inconclusive verdict."""
    xs = [float(t) for t in xs]
    q_vals, d2_vals = list(map(finite, q_vals)), list(map(finite, d2_vals))
    sign_changes = sorted(set(_change_locations(xs, d2_vals)) | set(_change_locations(xs, q_vals)))
    known_d2 = [v for v in d2_vals if v is not None]
    min_margin = float(min(known_d2)) if known_d2 else math.nan
    if not known_d2 or len(known_d2) < len(d2_vals):
        verdict = INCONCLUSIVE
    else:
        tol = VERDICT_TOL_SCALE * (1.0 + abs(max(known_d2)))
        verdict = LOG_CONVEX if min_margin >= -tol else NOT_LOG_CONVEX
    return ConvexityReport(
        interval=(xs[0], xs[-1]),
        grid_n=len(xs),
        q_values=list(zip(xs, q_vals)),
        d2log_values=list(zip(xs, d2_vals)),
        sign_changes=[float(s) for s in sign_changes],
        verdict=verdict,
        min_margin=min_margin,
    )


def _change_locations(xs, vals) -> list[float]:
    """``count_sign_changes`` over paired sequences whose gaps ``finite`` has made None; gaps are skipped."""
    locations = []
    prev_sign = 0
    prev_x = None
    for x, v in zip(xs, vals):
        if v is None:
            continue
        if v != 0.0:
            s = 1 if v > 0.0 else -1
            if prev_sign != 0 and s != prev_sign:
                locations.append(0.5 * (prev_x + x))
            prev_sign = s
        prev_x = x
    return locations


def scan_convexity(f: RealFunction, a: float, b: float, n: int, h: float | None = None) -> ConvexityReport:
    """Sample q(f) and (log f)'' on a uniform n-point grid of [a, b].

    Points where evaluation raises one of EVALUATION_ERRORS are recorded as
    gaps and force an Inconclusive verdict. With exact derivatives the
    samples come from ``exact_q_d2log``; without them, ``q_determinant`` and
    ``d2_log`` run at each point on central differences of step ``h``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    xs = np.linspace(a, b, n)
    if f.d1 is not None and f.d2 is not None:
        _, q_vals, d2_vals = exact_q_d2log(f, xs)
        return build_report(xs, q_vals, d2_vals)
    q_vals: list[float | None] = []
    d2_vals: list[float | None] = []
    for x in xs:
        try:
            q_vals.append(q_determinant(f, float(x), h))
        except EVALUATION_ERRORS:
            q_vals.append(None)
        try:
            d2_vals.append(d2_log(f, float(x), h))
        except EVALUATION_ERRORS:
            d2_vals.append(None)
    return build_report(xs, q_vals, d2_vals)


def exact_q_d2log(f: RealFunction, xs: np.ndarray) -> tuple[list[float], list[float | None], list[float | None]]:
    """f, q = f f'' - f'^2 and (log f)'' = (f'' f - f'^2)/(f f) at every x, for f
    with exact derivatives; f, f' and f'' come from ``_exact_values``. Where that
    (log f)'' is not finite, it is f''/f - (f'/f)^2, as in ``d2_log``.

    f is nan where a call raises. A point's q is a gap (None) where |f| < 1e-300,
    and its (log f)'' where f <= 0: the domain gaps of ``q_determinant`` and
    ``d2_log``, whose bits every other value has. A value is nan or infinite
    where f is or the arithmetic leaves float range; ``finite`` makes it a gap.
    """
    fv, f1, f2 = _exact_values(f, xs)
    # ignore: inf and nan pass silently, as in the per-point float arithmetic
    with np.errstate(all="ignore"):
        q = fv * f2 - f1 * f1
        d2 = (f2 * fv - f1 * f1) / (fv * fv)
        if not math.isfinite(np.add.reduce(d2)):  # not finite where some value is not, or the sum overflows
            out = ~np.isfinite(d2)
            r = f1[out] / fv[out]
            d2[out] = f2[out] / fv[out] - r * r
    return fv.tolist(), _with_gaps(q, np.abs(fv) < 1e-300), _with_gaps(d2, fv <= 0.0)


def _with_gaps(values: np.ndarray, gap: np.ndarray) -> list[float | None]:
    return [None if g else v for v, g in zip(values.tolist(), gap.tolist())]


def _exact_values(f: RealFunction, xs: np.ndarray) -> np.ndarray:
    """f, f' and f'' at every x of the grid as a (3, n) array; a point where f(x),
    f'(x) or f''(x) raises is nan in all three rows.

    One call of each on the whole grid, unless the grid leaves the domain or a call
    raises: an evaluation error, a floating-point signal that ``np.geterr()`` does
    not ignore, or the TypeError of a scalar-only callable. Then each point is
    evaluated alone, where such a signal also raises and makes the point nan.
    """
    lo, hi = f.domain
    signals = {kind: ("ignore" if mode == "ignore" else "raise") for kind, mode in np.geterr().items()}
    with np.errstate(**signals):
        if lo < xs.min() and xs.max() < hi:
            out = np.empty((3, xs.size))
            try:
                for row, fn in zip(out, (f.fn, f.d1, f.d2)):
                    row[:] = fn(xs)  # a scalar (the derivative of a constant) is broadcast
                return out
            except (TypeError, *EVALUATION_ERRORS):
                pass
        out = np.full((3, xs.size), math.nan)
        for i, x in enumerate(xs.tolist()):
            try:
                out[:, i] = f(x), float(f.d1(x)), float(f.d2(x))
            except EVALUATION_ERRORS:
                pass
    return out
