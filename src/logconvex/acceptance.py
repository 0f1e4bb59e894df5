"""Acceptance checks: every verification criterion as a runnable unit.

Used by the CLI ``checks`` subcommand and by tests/test_acceptance.py, so
both always agree on what was verified. Assertion thresholds are pinned
here; the optional ``tol`` argument only overrides computational tolerance
knobs (quadrature and product-evaluation targets), never the thresholds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bohrmollerup as bm
from . import convexity as cx
from . import expr as ex
from . import special as sp
from .errors import DivergenceError, ParseError, PoleError
from .funcore import RealFunction
from .representer import builtin, function_from_source, parse_representer

@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    measured: dict = field(default_factory=dict)
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        # timing is deliberately excluded: identical invocations must print
        # byte-identical output
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "measured": self.measured,
            "detail": self.detail,
        }


def _exp_quadratic(a: float, b: float, c: float) -> RealFunction:
    """exp(a x^2 + b x + c) with exact derivatives; log-convex when a >= 0."""
    def fn(x):
        return np.exp(a * x * x + b * x + c)

    def d1(x):
        return (2.0 * a * x + b) * np.exp(a * x * x + b * x + c)

    def d2(x):
        u = 2.0 * a * x + b
        return (2.0 * a + u * u) * np.exp(a * x * x + b * x + c)

    return RealFunction(fn=fn, d1=d1, d2=d2, name="exp-quadratic")


def _quadratic(a: float, b: float, c: float) -> RealFunction:
    return RealFunction(fn=lambda x: a * x * x + b * x + c,
                        d1=lambda x: 2.0 * a * x + b,
                        d2=lambda x: 2.0 * a)


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def check_gamma(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    qtol = tol if tol is not None else 1e-9
    expected = "Gamma(1)=1 within 1e-8; recursion residual <= 1e-6 at 20 points of (0.1,5)"
    g1 = sp.gamma_quadrature(1.0, qtol).value
    err1 = abs(g1 - 1.0)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.1, 5.0, size=20)
    worst = 0.0
    for x in xs:
        left = sp.gamma_quadrature(x + 1.0, qtol).value
        right = x * sp.gamma_quadrature(float(x), qtol).value
        worst = max(worst, abs(left - right) / abs(left))
    ok = err1 <= 1e-8 and worst <= 1e-6
    return ok, expected, {"gamma_1": g1, "norm_error": err1, "max_recursion_rel": worst}, ""


def check_factorial(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = "extend(identity, n) = (n-1)! to relative 1e-5 for n=2..10 (tol 1e-8)"
    g = builtin("identity")
    etol = tol if tol is not None else 1e-8
    worst = 0.0
    values = {}
    for n in range(2, 11):
        target = math.factorial(n - 1)
        got = bm.extend(g, float(n), tol=etol)
        values[str(n)] = got
        worst = max(worst, abs(got - target) / target)
    ok = worst <= 1e-5
    return ok, expected, {"max_rel_error": worst, "extend_10": values["10"]}, ""


def check_cross_oracle(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = "|extend - quadrature| <= 1e-4*Gamma at 4 points; Gamma(0.5) within 1e-5 of 1.7724539"
    g = builtin("identity")
    qtol = tol if tol is not None else 1e-9
    etol = tol if tol is not None else 1e-6
    worst = 0.0
    for x in (0.25, 0.5, 1.5, 3.7):
        quad = sp.gamma_quadrature(x, qtol).value
        prod = bm.extend(g, x, tol=etol)
        worst = max(worst, abs(prod - quad) / quad)
    half = sp.gamma_quadrature(0.5, qtol).value
    half_err = abs(half - 1.7724539)
    ok = worst <= 1e-4 and half_err <= 1e-5
    return ok, expected, {"max_rel_gap": worst, "gamma_half": half, "gamma_half_err": half_err}, ""


def check_sandwich(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = "lower <= Gamma(x) <= upper for n=2,4,...,1024 and widths strictly decreasing"
    g = builtin("identity")
    qtol = tol if tol is not None else 1e-9
    ok = True
    detail = ""
    widths_at_half = []
    for x in (0.25, 0.5, 0.75):
        gamma = sp.gamma_quadrature(x, qtol).value
        prev_width = math.inf
        n = 2
        while n <= 1024:
            lo, hi = bm.sandwich_bounds(g, x, n)
            if not (lo <= gamma <= hi):
                ok, detail = False, f"bracket [{lo}, {hi}] misses Gamma({x})={gamma} at n={n}"
                break
            width = hi - lo
            if not (width < prev_width):
                ok, detail = False, f"bracket width not decreasing at x={x}, n={n}"
                break
            prev_width = width
            if x == 0.5:
                widths_at_half.append(width)
            n *= 2
        if not ok:
            break
    return ok, expected, {"final_width_x0.5": widths_at_half[-1] if widths_at_half else None}, detail


def check_series(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = "series(identity, 1) = 1.644934 +/- 1e-5 and matches d2_log of the product Gamma within 1e-3"
    g = builtin("identity")
    stol = tol if tol is not None else 1e-6
    s = bm.logconvexity_series(g, 1.0, tol=stol)
    err_const = abs(s - 1.644934)
    f = RealFunction(fn=lambda t: bm.extend(g, float(t), tol=1e-9, max_n=2 ** 22))
    d2 = cx.d2_log(f, 1.0, h=0.02)
    err_d2 = abs(s - d2)
    ok = err_const <= 1e-5 and err_d2 <= 1e-3
    return ok, expected, {"series": s, "const_err": err_const, "fd_d2log": d2, "fd_err": err_d2}, ""


def check_fibonacci(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = ("fib_real matches the recursion oracle (seeds 0,1) to 1e-9 for n=0..30; "
                "recursion residual <= 1e-10 at 100 random reals; exactly 4 sign changes of f'' "
                "on (0,4); (log f)'' takes both signs on (0.1,4)")
    worst_int = 0.0
    a, b = 0.0, 1.0
    for n in range(0, 31):
        worst_int = max(worst_int, abs(sp.fib_real(float(n)) - a))
        a, b = b, a + b
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-5.0, 5.0, size=100)
    worst_rec = max(abs(sp.fib_real(x + 2.0) - sp.fib_real(x + 1.0) - sp.fib_real(float(x)))
                    for x in xs)
    changes = sp.fib_d2_signchanges(0.0, 4.0, 4000)
    d2_vals = cx.exact_q_d2log(sp.fib_real_fn(), np.linspace(0.1, 4.0, 400))[2]
    both_signs = min(d2_vals) < 0.0 < max(d2_vals)
    ok = worst_int <= 1e-9 and worst_rec <= 1e-10 and len(changes) == 4 and both_signs
    return ok, expected, {
        "max_integer_err": worst_int,
        "max_recursion_residual": worst_rec,
        "sign_changes": [float(c) for c in changes],
        "d2log_min": min(d2_vals),
        "d2log_max": max(d2_vals),
    }, ""


def check_convexity(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = ("diff_quotient symmetry exact on 1000 cases; iter_diff_quotient sign invariant "
                "under all 6 permutations on 200 quadratics; q(exp)=0 +/- 1e-8; q(x^2)(1) = -2 +/- 1e-6")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        f = _quadratic(a, b, c)
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        if abs(x1 - x2) < 1e-6:
            continue
        if cx.diff_quotient(f, float(x1), float(x2)) != cx.diff_quotient(f, float(x2), float(x1)):
            return False, expected, {}, f"symmetry broken at ({x1}, {x2})"

    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for _ in range(200):
        a = rng.uniform(0.1, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        f = _quadratic(a, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        pts = rng.uniform(-3.0, 3.0, size=3)
        if min(abs(pts[0] - pts[1]), abs(pts[0] - pts[2]), abs(pts[1] - pts[2])) < 1e-3:
            continue
        signs = set()
        for p in perms:
            v = cx.iter_diff_quotient(f, float(pts[p[0]]), float(pts[p[1]]), float(pts[p[2]]))
            signs.add(v > 0.0 if v != 0.0 else None)
        if len(signs) != 1:
            return False, expected, {}, f"sign changed under permutation of {pts.tolist()}"

    exp_fn = function_from_source("exp(x)")
    q_exp = max(abs(cx.q_determinant(exp_fn, x)) for x in (0.0, 0.5, 1.0, 2.0))
    sq = function_from_source("x^2")
    q_sq = cx.q_determinant(sq, 1.0)
    ok = q_exp <= 1e-8 and abs(q_sq + 2.0) <= 1e-6
    return ok, expected, {"max_q_exp": q_exp, "q_x2_at_1": q_sq}, ""


def check_closure(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = ("d2_log(f+g) and d2_log(f*g) >= -1e-8 at 16 points for 20 random log-convex "
                "pairs; shifted and scaled variants likewise")
    rng = np.random.default_rng(seed)
    xs = np.linspace(-2.0, 2.0, 16)
    worst = math.inf
    for _ in range(20):
        f = _exp_quadratic(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        g = _exp_quadratic(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for fn in (f + g, f * g):
            worst = min(worst, min(cx.d2_log(fn, float(x)) for x in xs))
        for c in (-0.5, 0.5, 2.0):
            worst = min(worst, min(cx.d2_log(f.shifted(c), float(x - c)) for x in xs))
            worst = min(worst, min(cx.d2_log(f.scaled_arg(c), float(x / c)) for x in xs))
        if worst < -1e-8:
            return False, expected, {"min_d2log": worst}, "closure violated"
    return True, expected, {"min_d2log": worst}, ""


def check_curvature(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = "curvature(identity, identity, x) matches FD curvature of x^2 to 1e-5 relative"
    g = builtin("identity")
    ident = RealFunction(fn=lambda x: x, d1=lambda x: 1.0, d2=lambda x: 0.0, name="id")
    square = RealFunction(fn=lambda x: x * x, name="x^2")  # derivatives via FD only
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        kappa = sp.curvature(g, ident, x)
        h1 = square.derivative(x, 1)
        h2 = square.derivative(x, 2)
        reference = h2 / (1.0 + h1 * h1) ** 1.5
        worst = max(worst, abs(kappa - reference) / abs(reference))
    return worst <= 1e-5, expected, {"max_rel_err": worst}, ""


def check_divergence(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = ("evaluate(exp(x), 0.5) raises DivergenceError; extend(identity, 0) and "
                "extend(identity, -1) raise PoleError")
    g_exp = parse_representer("exp(x)")
    ident = builtin("identity")
    results = {}
    try:
        bm.evaluate(g_exp, 0.5, tol=1e-6)
        results["exp_divergence"] = "no error"
    except DivergenceError as exc:
        results["exp_divergence"] = f"DivergenceError: {exc}"
    except Exception as exc:  # noqa: BLE001 - report whatever surfaced
        results["exp_divergence"] = f"{type(exc).__name__}: {exc}"
    for label, x in (("extend_0", 0.0), ("extend_-1", -1.0)):
        try:
            bm.extend(ident, x)
            results[label] = "no error"
        except PoleError as exc:
            results[label] = f"PoleError: {exc}"
        except Exception as exc:  # noqa: BLE001
            results[label] = f"{type(exc).__name__}: {exc}"
    ok = (results["exp_divergence"].startswith("DivergenceError")
          and results["extend_0"].startswith("PoleError")
          and results["extend_-1"].startswith("PoleError"))
    return ok, expected, results, ""


ROUND_TRIP_CORPUS = [
    "x",
    "x^2",
    "x^c",
    "2 + 3*x^2",
    "exp(x)",
    "exp(-x^2/2)",
    "log(x + 1)",
    "sqrt(x)",
    "sin(x)*cos(x)",
    "-x + 1",
    "x^-2",
    "x^2^3",
    "(x + 1)/(x + 2)",
    "x*(x + 1)",
    "1/x",
    "pi*x",
    "e^x",
    "phi^x - phi^-x",
    "2*x - 3/x",
    "x^(c + 1)",
    "-(x + 1)",
    "exp(x)*exp(-x)",
    "log(exp(x))",
    "sqrt(x^2 + 1)",
    "x/2 + x/3",
    "(x^2)^3",
    "cos(pi*x)",
    "x^0.5",
    "1.5e2*x",
    "x - -x",
    "x*x*x",
    "exp(log(x) + 1)",
]

MALFORMED_CASES = [
    ("x^(2", 4),
    ("", 0),
    ("2+", 2),
    ("(x", 2),
    ("x)", 1),
    ("foo(x)", 0),
    ("x + * 2", 4),
    ("x^", 2),
    ("2*(3+4", 6),
    ("@x", 0),
]


def check_parser(tol: float | None, seed: int) -> tuple[bool, str, dict, str]:
    expected = ("30-expression round trip; symbolic d1 matches FD to 1e-6 relative; "
                "10 malformed inputs fail at the right byte offset")
    params = {"c": 2.0}
    for src in ROUND_TRIP_CORPUS:
        tree = ex.parse(src, params)
        again = ex.parse(tree.pretty(), params)
        if tree != again:
            return False, expected, {}, f"round trip changed structure for {src!r}"

    pts = np.linspace(0.5, 8.0, 16)
    worst = 0.0
    for src in ROUND_TRIP_CORPUS:
        fn = function_from_source(src, params, domain=(0.0, math.inf))
        for x in pts:
            x = float(x)
            h = 1e-5 * max(1.0, abs(x))
            fd = (fn(x + h) - fn(x - h)) / (2.0 * h)
            sym = fn.derivative(x, 1)
            worst = max(worst, abs(sym - fd) / max(1.0, abs(sym)))
    if worst > 1e-6:
        return False, expected, {"max_d1_rel": worst}, "symbolic derivative disagrees with FD"

    for src, offset in MALFORMED_CASES:
        try:
            ex.parse(src, params)
            return False, expected, {}, f"{src!r} parsed but should not"
        except ParseError as exc:
            if exc.offset != offset:
                return False, expected, {}, f"{src!r}: offset {exc.offset} != {offset}"
    return True, expected, {"max_d1_rel": worst}, ""


CHECKS = [
    ("gamma", check_gamma),
    ("factorial", check_factorial),
    ("cross-oracle", check_cross_oracle),
    ("sandwich", check_sandwich),
    ("series", check_series),
    ("fibonacci", check_fibonacci),
    ("convexity", check_convexity),
    ("closure", check_closure),
    ("curvature", check_curvature),
    ("divergence", check_divergence),
    ("parser", check_parser),
]


def _jsonsafe(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonsafe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonsafe(v) for k, v in value.items()}
    return value


def run_checks(only: str | None = None, tol: float | None = None,
               seed: int = 0) -> list[CheckResult]:
    """Run all (or a name-filtered subset of) acceptance checks."""
    results = []
    for name, fn in CHECKS:
        if only and only not in name:
            continue
        start = time.perf_counter()
        try:
            passed, expected, measured, detail = fn(tol, seed)
        except Exception as exc:  # noqa: BLE001 - a check that blew up has failed
            passed, expected, measured, detail = False, "", {}, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(
            name=name, passed=bool(passed), expected=expected, measured=_jsonsafe(measured),
            detail=detail, seconds=time.perf_counter() - start,
        ))
    return results
