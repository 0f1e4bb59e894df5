"""Command-line front end.

    logconvex eval --representer identity --x 5
    logconvex eval --representer "x*(x+1)" --x 0.7 --tol 1e-6
    logconvex report --representer identity --range 0.5 4.5 100 --out table.csv
    logconvex report --function fib --range 0.1 4.0 512
    logconvex checks --only fibonacci

Exit codes: 0 success, 1 check failure, 2 parse/config error, 3 divergence,
4 partial evaluation failure. Identical invocations produce byte-identical
standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import bohrmollerup as bm
from .acceptance import run_checks
from .convexity import d2_log, q_determinant, stencil
from .errors import DivergenceError, LogconvexError
from .representer import from_spec
from .special import fib_real_fn

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_PARTIAL = 4

_NA = "NA"


@dataclass(frozen=True)
class RunConfig:
    command: str
    representer_spec: str | None = None
    function: str | None = None
    x: float | None = None
    range_: tuple[float, float, int] | None = None
    tol: float | None = 1e-8  # None only for checks: use per-check defaults
    max_n: int = 2 ** 20
    output: str = ""
    out_path: str | None = None
    seed: int = 0
    only: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logconvex",
        description="Log-convex interpolants of f(x+1) = g(x) f(x) and log-convexity reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-8, help="computational tolerance")
        p.add_argument("--max-n", type=int, default=2 ** 20, dest="max_n",
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


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def cmd_eval(cfg: RunConfig) -> int:
    try:
        g = from_spec(cfg.representer_spec)
    except (LogconvexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        state = bm.extended_state(g, cfg.x, tol=cfg.tol, max_n=cfg.max_n)
    except ValueError as exc:  # --max-n out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except LogconvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    if not math.isfinite(state.value):
        print(f"error: non-finite value {state.value!r} at x={cfg.x!r}", file=sys.stderr)
        return EXIT_PARTIAL
    fields = {
        "x": cfg.x,
        "value": state.value,
        "n_used": state.n,
        "lower": state.lower,
        "upper": state.upper,
        "rel_gap": state.rel_gap,
        "converged": state.converged,
    }
    if cfg.output == "csv":
        head = ",".join(fields)
        row = ",".join(_fmt(v) if isinstance(v, float) else str(v).lower() if isinstance(v, bool) else str(v)
                       for v in fields.values())
        _emit(head + "\n" + row + "\n", cfg.out_path)
    else:
        _emit(json.dumps(fields) + "\n", cfg.out_path)
    return EXIT_OK


def _report_rows_function(cfg: RunConfig) -> list[dict]:
    f = fib_real_fn()
    a, b, n = cfg.range_
    rows = []
    for i in range(n):
        x = a + (b - a) * i / (n - 1)
        row = {"x": x, "f": None, "log_f": None, "d2_log": None, "q_det": None}
        try:
            fv = f(x)
            row["f"] = fv
            row["q_det"] = q_determinant(f, x)
            if fv > 0.0:
                row["log_f"] = math.log(fv)
                row["d2_log"] = d2_log(f, x)
        except LogconvexError:
            pass
        rows.append(row)
    return rows


def _report_rows_representer(cfg: RunConfig) -> list[dict]:
    g = from_spec(cfg.representer_spec)
    a, b, n = cfg.range_
    step = (b - a) / (n - 1)
    # one extra sample either side so every row gets a centered stencil
    samples: list[float | None] = []
    for i in range(-1, n + 1):
        x = a + step * i
        try:
            v = bm.extend(g, x, tol=cfg.tol, max_n=cfg.max_n)
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


def cmd_report(cfg: RunConfig) -> int:
    if (cfg.representer_spec is None) == (cfg.function is None):
        print("error: report needs exactly one of --representer or --function", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = _report_rows_function(cfg) if cfg.function else _report_rows_representer(cfg)
    except (LogconvexError, ValueError) as exc:  # rows catch their own evaluation errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    columns = ("x", "f", "log_f", "d2_log", "q_det")
    if cfg.output == "json":
        _emit(json.dumps(rows) + "\n", cfg.out_path)
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_NA if row[c] is None else _fmt(row[c]) for c in columns))
        _emit("\n".join(lines) + "\n", cfg.out_path)
    incomplete = any(row[c] is None for row in rows for c in columns)
    return EXIT_PARTIAL if incomplete else EXIT_OK


def cmd_checks(cfg: RunConfig) -> int:
    results = run_checks(only=cfg.only, tol=cfg.tol, seed=cfg.seed)
    _emit(json.dumps([r.to_dict() for r in results], indent=2) + "\n", cfg.out_path)
    if not results:
        print(f"error: no check matches --only {cfg.only!r}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILURE


def _to_config(ns: argparse.Namespace) -> RunConfig:
    range_ = None
    if getattr(ns, "range_", None) is not None:
        a, b, n = ns.range_
        range_ = (float(a), float(b), int(n))
        if not (math.isfinite(range_[0]) and math.isfinite(range_[1])):
            raise ValueError("range endpoints must be finite")
        if range_[2] < 2:
            raise ValueError("range needs n >= 2")
        if not range_[0] < range_[1]:
            raise ValueError("range needs a < b")
    x = getattr(ns, "x", None)
    if x is not None and not math.isfinite(x):
        raise ValueError("--x must be finite")
    tol = getattr(ns, "tol", 1e-8)
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive")
    return RunConfig(
        command=ns.command,
        representer_spec=getattr(ns, "representer_spec", None),
        function=getattr(ns, "function", None),
        x=getattr(ns, "x", None),
        range_=range_,
        tol=tol,
        max_n=getattr(ns, "max_n", 2 ** 20),
        output=getattr(ns, "output", ""),
        out_path=getattr(ns, "out_path", None),
        seed=getattr(ns, "seed", 0),
        only=getattr(ns, "only", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _to_config(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.command == "eval":
        return cmd_eval(cfg)
    if cfg.command == "report":
        return cmd_report(cfg)
    return cmd_checks(cfg)


if __name__ == "__main__":
    sys.exit(main())
