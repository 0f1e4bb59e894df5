"""Write the outcomes of the benchmark's seeded inputs as JSON, for a bit-identity diff.

For each seed it records, with floats as ``float.hex`` and exceptions as their
type and message:

- every point_eval state, the ``eval`` points included (``extended_state``);
- every report_grid sample, the stencil sample either side included, short
  and full-size reports alike (the state ``report --representer`` takes its
  value from);
- every convexity_scan series value, scan report and Mellin probe report;
- once, not per seed, the stdout, stderr and exit code of ``report --function
  fib --output json`` on the five ranges the CLI tests pin, with every cell as
  ``float.hex`` (``fib_report``).

The point_eval and report_grid states are recorded twice: "cold", on a
representer built for that one call, and "warm", on one representer per
family (per report) that has already run every call of the list once, so
the product terms a representer caches serve it.

The library is the ``logconvex`` on the import path, so one copy of this
script serves any checkout. Run it against two checkouts and diff the files:

    PYTHONPATH=src python tools/outcomes.py --seeds 1 2 3 > new.json
    PYTHONPATH=../parent/src python tools/outcomes.py --seeds 1 2 3 > old.json
    diff old.json new.json

or summarize that diff: per section, how many floats moved and by how many
ulps, and how many other values changed:

    PYTHONPATH=src python tools/outcomes.py --compare old.json new.json

It reads ``perfbench/inputs.py`` and writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs as ip  # noqa: E402

import logconvex as lc  # noqa: E402


def _bits(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return [_bits(u) for u in v]
    if isinstance(v, dict):
        return {k: _bits(u) for k, u in v.items()}
    return v


def _outcome(call):
    """The call's result with floats as hex, or [exception type, message]; then its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = _bits(call())
        except Exception as exc:  # noqa: BLE001 - every exception is recorded
            got = [type(exc).__name__, str(exc)]
    return [got, [f"{w.category.__name__}: {w.message}" for w in caught]]


def _state(g, x, tol):
    return _outcome(lambda: astuple(lc.bohrmollerup.extended_state(g, x, tol)))


def _cold_and_warm(calls: list) -> dict:
    """The states of ``calls``, (family, x, tol) each, cold and warm."""
    cold = [_state(ip.build_representer(lc, fam), x, tol) for fam, x, tol in calls]
    reps = {fam.key: ip.build_representer(lc, fam) for fam, _, _ in calls}
    for fam, x, tol in calls:
        _state(reps[fam.key], x, tol)
    return {"cold": cold, "warm": [_state(reps[fam.key], x, tol) for fam, x, tol in calls]}


def point_eval(seed: int) -> list:
    inp = ip.point_inputs(seed)
    points = inp.points + inp.cli_points
    states = _cold_and_warm([(p.family, p.x, p.tol) for p in points])
    return [[p.family.key, p.x.hex(), p.tol, cold, warm]
            for p, cold, warm in zip(points, states["cold"], states["warm"])]


def report_grid(seed: int) -> list:
    inp = ip.report_inputs(seed)
    out = []
    for rep in inp.reports + inp.cli_reports:
        xs = [rep.a + rep.step * i for i in range(-1, rep.n + 1)]  # the CLI's samples
        with np.errstate(over="ignore"):  # as the CLI runs them
            out.append([rep.argv(), _cold_and_warm([(rep.family, x, rep.tol) for x in xs])])
    return out


def convexity_scan(seed: int) -> list:
    cands = ip.candidate_inputs(seed)
    reps = {fam.key: ip.build_representer(lc, fam) for fam in ip.candidate_families(cands)}
    out = []
    for cand in cands:
        obj = ip.build_candidate(lc, cand, reps)
        if cand.kind == "mellin":
            probe = _outcome(lambda: repr(lc.special.mellin_logconvex_probe(
                obj, 0.0, math.inf, cand.probe_xs, ip.PROBE_TOL)))
            out.append({"candidate": [cand.source, cand.params], "probe": probe})
            continue
        fn = obj.fn if cand.kind == "representer" else obj
        scan = _outcome(lambda: asdict(lc.convexity.scan_convexity(fn, *cand.interval, ip.SCAN_GRID)))
        series = [_outcome(lambda: lc.bohrmollerup.logconvexity_series(obj, x, ip.SERIES_TOL))
                  for x in cand.series_xs]
        out.append({"candidate": [cand.source, cand.params], "scan": scan, "series": series})
    return out


#: the ranges of ``report --function fib`` that ``tests/test_cli.py`` pins
FIB_RANGES = [("0.1", "4.0", "512"), ("-10", "10", "4001"), ("-745", "745", "3001"),
              ("0", "1", "2"), ("-1e300", "1e300", "3")]


def fib_report() -> dict:
    """Per range, the exit code, stderr and columns of ``report --function fib
    --output json``; JSON floats round-trip, so a cell's hex is the printed value's."""
    out = {}
    for a, b, n in FIB_RANGES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = lc.cli.main(["report", "--function", "fib", "--range", a, b, n, "--output", "json"])
        rows = json.loads(stdout.getvalue() or "[]")
        columns = {key: _bits([row[key] for row in rows]) for key in (rows[0] if rows else ())}
        out[f"{a} {b} {n}"] = {"exit": code, "stderr": stderr.getvalue(), "columns": columns}
    return out


#: what ``float.hex`` writes for the values that are not finite
NONFINITE = ("nan", "inf", "-inf")


def _ulps(a: float, b: float) -> int:
    """Doubles between a and b, for finite a and b of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def _walk(old, new, path: str, tally: dict) -> None:
    """Pair ``old`` and ``new`` leaf by leaf; a hex float leaf that moved counts its
    ulps under ``path``, the dict keys above it, and any other changed leaf (a
    changed shape included) counts as other."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _walk(old[key], new[key], f"{path}/{key}" if path else key, tally)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for u, v in zip(old, new):
            _walk(u, v, path, tally)
        return
    entry = tally.setdefault(path, {"floats": 0, "moved": {}, "other": 0})
    floats = [float.fromhex(v) for v in (old, new) if isinstance(v, str) and ("0x" in v or v in NONFINITE)]
    if len(floats) == 2:
        entry["floats"] += 1
        if old != new:
            a, b = floats
            same_sign = math.isfinite(a) and math.isfinite(b) and math.copysign(1.0, a) == math.copysign(1.0, b)
            bucket = str(2 ** max(0, (_ulps(a, b) - 1).bit_length())) if same_sign else "sign or range"
            entry["moved"][bucket] = entry["moved"].get(bucket, 0) + 1
    elif old != new:
        entry["other"] += 1


def compare(old_path: str, new_path: str) -> dict:
    """Per section, over every seed: floats seen, floats moved by bucket (at most
    1, 2, 4, ... ulps), other changes."""
    tally: dict = {}
    with open(old_path) as old, open(new_path) as new:
        old, new = json.load(old), json.load(new)
    for key in old.keys() | new.keys():
        _walk(old.get(key), new.get(key), "" if key.isdigit() else key, tally)
    return dict(sorted(tally.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="summarize the diff of two outputs")
    ns = ap.parse_args(argv)
    if ns.compare:
        json.dump(compare(*ns.compare), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    print(f"logconvex from {Path(lc.__file__).parent}", file=sys.stderr)
    out = {str(seed): {"point_eval": point_eval(seed), "report_grid": report_grid(seed),
                       "convexity_scan": convexity_scan(seed)} for seed in ns.seeds}
    out["fib_report"] = fib_report()
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
