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

    Uses (f''f - f'^2)/f^2 with exact derivatives when both are present,
    otherwise a central second difference of log(f) with step ``h``.
    """
    fv = f(x)
    if fv <= 0.0:
        raise NonPositiveError(f"f({x!r}) = {fv!r} is not positive")
    if f.d1 is not None and f.d2 is not None:
        f1 = float(f.d1(x))
        f2 = float(f.d2(x))
        return (f2 * fv - f1 * f1) / (fv * fv)
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
    return np.asarray(_change_locations(values.xs, values.ys), dtype=float)


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
        def pair_list(pairs):
            return [[x, (None if v is None or not math.isfinite(v) else v)] for x, v in pairs]

        return {
            "interval": [self.interval[0], self.interval[1]],
            "grid_n": self.grid_n,
            "q_values": pair_list(self.q_values),
            "d2log_values": pair_list(self.d2log_values),
            "sign_changes": list(self.sign_changes),
            "verdict": self.verdict,
            "min_margin": self.min_margin if math.isfinite(self.min_margin) else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_report(xs, q_vals, d2_vals) -> ConvexityReport:
    """Assemble a ConvexityReport from per-point samples (None marks failures)."""
    xs = [float(t) for t in xs]
    finite_d2 = [v for v in d2_vals if v is not None and math.isfinite(v)]
    any_failed = any(v is None or not math.isfinite(v) for v in d2_vals)
    sign_changes = sorted(set(_change_locations(xs, d2_vals)) | set(_change_locations(xs, q_vals)))
    if not finite_d2 or any_failed:
        verdict = INCONCLUSIVE
        min_margin = min(finite_d2) if finite_d2 else math.nan
    else:
        min_margin = min(finite_d2)
        tol = VERDICT_TOL_SCALE * (1.0 + abs(max(finite_d2)))
        verdict = LOG_CONVEX if min_margin >= -tol else NOT_LOG_CONVEX
    return ConvexityReport(
        interval=(xs[0], xs[-1]),
        grid_n=len(xs),
        q_values=list(zip(xs, q_vals)),
        d2log_values=list(zip(xs, d2_vals)),
        sign_changes=[float(s) for s in sign_changes],
        verdict=verdict,
        min_margin=float(min_margin) if finite_d2 else math.nan,
    )


def _change_locations(xs, vals) -> list[float]:
    """``count_sign_changes`` over paired sequences; None and non-finite samples are skipped."""
    locations = []
    prev_sign = 0
    prev_x = None
    for x, v in zip(xs, vals):
        if v is None or not math.isfinite(v):
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
    gaps and force an Inconclusive verdict. With exact derivatives the whole
    grid is evaluated at once (``_exact_grid``) where no point is exceptional.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    xs = np.linspace(a, b, n)
    exact = f.d1 is not None and f.d2 is not None
    if exact:
        grid = _exact_grid(f, xs)
        if grid is not None:
            return build_report(xs, *grid)
    q_vals: list[float | None] = []
    d2_vals: list[float | None] = []
    for x in xs:
        if exact:
            q, d2 = _exact_point(f, float(x))
            q_vals.append(q)
            d2_vals.append(d2)
            continue
        try:
            q_vals.append(q_determinant(f, float(x), h))
        except EVALUATION_ERRORS:
            q_vals.append(None)
        try:
            d2_vals.append(d2_log(f, float(x), h))
        except EVALUATION_ERRORS:
            d2_vals.append(None)
    return build_report(xs, q_vals, d2_vals)


def _exact_point(f: RealFunction, x: float) -> tuple[float | None, float | None]:
    """``q_determinant`` and ``d2_log`` at x (None where they raise), from one call each of f, d1 and d2."""
    try:
        fv = f(x)
        tiny = abs(fv) < 1e-300
        if tiny and fv <= 0.0:
            return None, None  # neither value is defined, so the derivatives are not needed
        f1 = float(f.d1(x))
        f2 = float(f.d2(x))
    except EVALUATION_ERRORS:
        return None, None
    q = None if tiny else fv * f2 - f1 * f1
    d2 = None
    if fv > 0.0:
        try:
            d2 = (f2 * fv - f1 * f1) / (fv * fv)
        except EVALUATION_ERRORS:  # ZeroDivisionError where f*f underflows
            pass
    return q, d2


def _exact_grid(f: RealFunction, xs: np.ndarray) -> tuple[list[float], list[float]] | None:
    """``_exact_point`` at every x of the grid, from one call each of f, d1 and d2 on
    the whole array, with the same operations in the same order.

    None, for the per-point loop to decide, unless no point is exceptional: the grid
    lies inside the domain, no call raises or signals a floating-point error (a
    scalar-only callable raises TypeError or ValueError on an array), f is finite
    and positive with f*f > 0 (so |f| >= 1e-300), and f' and f'' are finite.
    """
    lo, hi = f.domain
    if not (lo < xs.min() and xs.max() < hi):
        return None
    try:
        with np.errstate(all="raise"):
            fv, f1, f2 = (np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
                          for fn in (f.fn, f.d1, f.d2))
    except (TypeError, *EVALUATION_ERRORS):
        return None
    # ignore: inf and nan pass silently, as in the per-point float arithmetic
    with np.errstate(all="ignore"):
        fsq = fv * fv
        if not (np.isfinite(fv).all() and np.isfinite(f1).all() and np.isfinite(f2).all()
                and (fv > 0.0).all() and (fsq > 0.0).all()):
            return None
        q = fv * f2 - f1 * f1
        d2 = (f2 * fv - f1 * f1) / fsq
    return q.tolist(), d2.tolist()
