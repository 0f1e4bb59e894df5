"""Command-line front end.

    logconvex eval --representer identity --x 5
    logconvex eval --representer "x*(x+1)" --x 0.7 --tol 1e-6
    logconvex report --representer identity --range 0.5 4.5 100 --out table.csv
    logconvex report --function fib --range 0.1 4.0 512
    logconvex checks --only fibonacci

Exit codes: 0 success, 1 check failure, 2 parse/config error, 3 divergence,
4 partial evaluation failure. Identical invocations produce byte-identical
standard output.

Each command imports, inside its own function, the modules that only it
needs: ``eval`` runs on the product engine alone.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import bohrmollerup as bm
from .errors import DivergenceError, LogconvexError
from .representer import from_spec

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_PARTIAL = 4


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent notation (``--x -1.55e1``) as a value,
    as argparse reads ``-15.5``, instead of as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logconvex",
        description="Log-convex interpolants of f(x+1) = g(x) f(x) and log-convexity reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=bm.DEFAULT_TOL, help="computational tolerance")
        p.add_argument("--max-n", type=int, default=bm.DEFAULT_MAX_N, dest="max_n",
                       help="product truncation cap")
        p.add_argument("--out", dest="out_path", help="write output to this file (UTF-8)")

    p_eval = sub.add_parser("eval", help="evaluate the interpolant at one point")
    p_eval.add_argument("--representer", required=True, dest="representer_spec",
                        help='"identity", "fibonacci", "power:c=<v>", "const:<v>", or an expression in x')
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--output", choices=("json", "csv"), default="json")
    common(p_eval)

    p_rep = sub.add_parser("report", help="per-point convexity columns over a range")
    p_rep.add_argument("--representer", dest="representer_spec",
                       help="representer spec; the reported f is the constructed interpolant")
    p_rep.add_argument("--function", choices=("fib",),
                       help="report a builtin function directly instead of a representer")
    p_rep.add_argument("--range", dest="range_", nargs=3, metavar=("A", "B", "N"), required=True)
    p_rep.add_argument("--output", choices=("json", "csv"), default="csv")
    common(p_rep)

    p_chk = sub.add_parser("checks", help="run the acceptance checks and print a pass/fail table")
    p_chk.add_argument("--only", help="run only checks whose name contains this tag")
    p_chk.add_argument("--tol", type=float, default=None,
                       help="override computational tolerances inside the checks")
    p_chk.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p_chk.add_argument("--out", dest="out_path")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: object, code: int = EXIT_CONFIG) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"  # round-trips to the same double
    return str(v)


def _csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])] + [",".join(_cell(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_eval(ns: argparse.Namespace) -> int:
    try:
        g = from_spec(ns.representer_spec)
    except (LogconvexError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        return _fail(exc)
    try:
        state = bm.extended_state(g, ns.x, tol=ns.tol, max_n=ns.max_n)
    except ValueError as exc:  # --max-n out of range
        return _fail(exc)
    except DivergenceError as exc:
        return _fail(exc, EXIT_DIVERGENCE)
    except LogconvexError as exc:
        return _fail(exc, EXIT_PARTIAL)
    if not math.isfinite(state.value):
        return _fail(f"non-finite value {state.value!r} at x={ns.x!r}", EXIT_PARTIAL)
    fields = {
        "x": ns.x,
        "value": state.value,
        "n_used": state.n,
        "lower": state.lower,
        "upper": state.upper,
        "rel_gap": state.rel_gap,
        "converged": state.converged,
    }
    _emit(_csv([fields]) if ns.output == "csv" else json.dumps(fields) + "\n", ns.out_path)
    return EXIT_OK


def _report_rows_function(ns: argparse.Namespace) -> list[dict]:
    from .convexity import exact_q_d2log
    from .special import fib_real_fn

    a, b, n = ns.range_
    xs = [a + (b - a) * i / (n - 1) for i in range(n)]
    rows = []
    for x, fv, q, d2 in zip(xs, *exact_q_d2log(fib_real_fn(), np.array(xs))):
        logged = q is not None and fv > 0.0
        rows.append({"x": x, "f": fv if math.isfinite(fv) else None, "log_f": math.log(fv) if logged else None,
                     "d2_log": d2 if logged else None, "q_det": q})
    return rows


def _report_rows_representer(ns: argparse.Namespace) -> list[dict]:
    from .convexity import stencil

    g = from_spec(ns.representer_spec)
    a, b, n = ns.range_
    step = (b - a) / (n - 1)
    if step * step == 0.0:
        raise ValueError(f"range step {step!r} is too small: its square underflows to 0")
    # one extra sample either side so every row gets a centered stencil
    samples: list[float | None] = []
    for i in range(-1, n + 1):
        x = a + step * i
        try:
            v = bm.extend(g, x, tol=ns.tol, max_n=ns.max_n)
            samples.append(v if math.isfinite(v) else None)
        except LogconvexError:
            samples.append(None)
    rows = []
    for i in range(n):
        x = a + step * i
        fv, left, right = samples[i + 1], samples[i], samples[i + 2]
        row = {"x": x, "f": fv, "log_f": None, "d2_log": None, "q_det": None}
        if fv is not None and fv > 0.0:
            row["log_f"] = math.log(fv)
        if fv is not None and left is not None and right is not None:
            row["q_det"], row["d2_log"] = stencil(left, fv, right, step)
        rows.append(row)
    return rows


def cmd_report(ns: argparse.Namespace) -> int:
    if (ns.representer_spec is None) == (ns.function is None):
        return _fail("report needs exactly one of --representer or --function")
    try:
        rows = _report_rows_function(ns) if ns.function else _report_rows_representer(ns)
    except (LogconvexError, ValueError, RecursionError) as exc:  # rows catch their own evaluation errors
        return _fail(exc)
    _emit(json.dumps(rows) + "\n" if ns.output == "json" else _csv(rows), ns.out_path)
    incomplete = any(v is None for row in rows for v in row.values())
    return EXIT_PARTIAL if incomplete else EXIT_OK


def cmd_checks(ns: argparse.Namespace) -> int:
    from .acceptance import run_checks

    results = run_checks(only=ns.only, tol=ns.tol, seed=ns.seed)
    _emit(json.dumps([r.to_dict() for r in results], indent=2) + "\n", ns.out_path)
    if not results:
        return _fail(f"no check matches --only {ns.only!r}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILURE


def _check(ns: argparse.Namespace) -> None:
    """Raise ValueError for arguments argparse accepts but the commands cannot use.

    Converts ``--range`` to (a, b, n).
    """
    if ns.command == "report":
        a, b, n = float(ns.range_[0]), float(ns.range_[1]), int(ns.range_[2])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("range endpoints must be finite")
        if n < 2:
            raise ValueError("range needs n >= 2")
        if not a < b:
            raise ValueError("range needs a < b")
        ns.range_ = (a, b, n)
    if ns.command == "eval" and not math.isfinite(ns.x):
        raise ValueError("--x must be finite")
    if ns.tol is not None and not ns.tol > 0.0:
        raise ValueError("tol must be positive")


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        _check(ns)
    except ValueError as exc:
        return _fail(exc)
    command = {"eval": cmd_eval, "report": cmd_report, "checks": cmd_checks}[ns.command]
    # an overflow surfaces as a non-finite value, not as a numpy warning on stderr
    with np.errstate(over="ignore"):
        return command(ns)


if __name__ == "__main__":
    sys.exit(main())
