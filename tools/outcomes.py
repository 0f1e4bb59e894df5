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
  ``float.hex`` (``fib_report``);
- once, not per seed, a deep sweep of the product (``deep``): the benchmark's
  states all stop in the first block, so this one runs its later blocks,
  faulted blocks, the higher orders and the levels past 2^14, and the integer
  anchors a long cache serves.

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
ulps, and how many other values changed; point_eval and report_grid per
(family, tol) stratum, with how many states moved and, over those, the worst
error against perfbench's mpmath oracle and how many converged, before and after:

    PYTHONPATH=src python tools/outcomes.py --compare old.json new.json

``--compare`` exits 1 when any float moved or any other value changed, and 0
when the two files hold the same outcomes, so a bit-identity claim is its exit
status.

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

sys.dont_write_bytecode = True  # import perfbench's modules without leaving a __pycache__ there
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


def _cold_and_warm(calls: list) -> list:
    """[family key, x, tol, cold state, warm state] per call of ``calls``, (family, x, tol) each."""
    cold = [_state(ip.build_representer(lc, fam), x, tol) for fam, x, tol in calls]
    reps = {fam.key: ip.build_representer(lc, fam) for fam, _, _ in calls}
    for fam, x, tol in calls:
        _state(reps[fam.key], x, tol)
    return [[fam.key, x.hex(), tol, c, _state(reps[fam.key], x, tol)] for (fam, x, tol), c in zip(calls, cold)]


def point_eval(seed: int) -> list:
    inp = ip.point_inputs(seed)
    return _cold_and_warm([(p.family, p.x, p.tol) for p in inp.points + inp.cli_points])


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


#: the representers, points, tolerances and truncation caps of ``deep``
DEEP_SPECS = ["identity", "x+0.37", "x*(x+1)", "power:c=0.7", "power:c=1.5", "power:c=40", "fibonacci",
              "x + 0.5*sin(x)", "x+sqrt(x)", "(x+1)/(x+2)*x", "x^2+x+1", "exp(x^0.9)", "x + exp(5*x-600)"]
DEEP_XS = [0.05, 0.37, 0.5, 0.93, 3.3, -2.6, 17.25]
DEEP_TOLS = [1e-8, 1e-10, 1e-12, 1e-13, 1e-14]
DEEP_MAX_NS = [300, 5000, 2 ** 20]


def deep() -> dict:
    """States of every (spec, x, tol, max_n) of the lists above, cold, on a representer
    built for that one call, and warm, on one representer per spec that runs the calls
    in turn (max_n outermost, so its cache grows from short to long); ``x + 0.5*sin(x)``,
    which converges like 1/n and so runs every level to max_n, takes max_n = 2^20 at
    x = 0.37 alone. Then the integer anchors x = 1, 8, ..., 16997, cold and after a
    max_n = 20000 call of ``x + 0.5*sin(x)``, whose cache then reaches past 2^14."""
    def state(g, x, tol, max_n):
        return _outcome(lambda: astuple(lc.bohrmollerup.extended_state(g, x, tol, max_n)))

    states = []
    for spec in DEEP_SPECS:
        warm = lc.from_spec(spec)
        for max_n in DEEP_MAX_NS:
            for x in DEEP_XS:
                if spec == "x + 0.5*sin(x)" and max_n == 2 ** 20 and x != 0.37:
                    continue
                for tol in DEEP_TOLS:
                    states.append([spec, x.hex(), tol, max_n, state(lc.from_spec(spec), x, tol, max_n),
                                   state(warm, x, tol, max_n)])
    cold, warm = lc.from_spec("x + 0.5*sin(x)"), lc.from_spec("x + 0.5*sin(x)")
    lc.bohrmollerup.extended_state(warm, 0.37, 1e-8, 20000)
    anchors = [[x, state(cold, float(x), 1e-8, 20000), state(warm, float(x), 1e-8, 20000)]
               for x in range(1, 16998, 7)]  # an anchor caches nothing, so ``cold`` stays cold
    return {"states": states, "anchors": anchors}


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


def _states(section: str, records: list) -> list:
    """The [family key, x, tol, cold, warm] records of a point_eval or report_grid section."""
    return records if section == "point_eval" else [rec for _, recs in records for rec in recs]


def _error(oracle, key: str, x: str, outcome: list) -> tuple[float, bool] | None:
    """(relative error against the oracle, converged) of a state outcome; None for an exception."""
    got = outcome[0]
    if len(got) != 7:
        return None
    kind, param = key.split(":")
    return oracle.rel_err(float.fromhex(got[4]), oracle.value(ip.Family(kind, float(param)), float.fromhex(x))), got[6]


def _strata(section: str, old: list, new: list, tally: dict) -> None:
    """Tally the states of ``section`` per (family, tol) stratum: floats as ``_walk``
    does, the states seen and moved, and over the moved states the worst error
    against the mpmath oracle and the count converged, before and after."""
    import oracle  # perfbench's, which needs mpmath: only a comparison loads it

    olds, news = _states(section, old), _states(section, new)
    if len(olds) != len(news):
        _walk(old, new, section, tally)
        return
    for a, b in zip(olds, news):
        path = f"{section}/{a[0]} tol={a[2]!r}"
        entry = tally.setdefault(path, {"floats": 0, "moved": {}, "other": 0, "states": 0, "states_moved": 0,
                                        "worst_err_moved": [0.0, 0.0], "converged_moved": [0, 0]})
        entry["states"] += 1
        _walk(a, b, path, tally)
        if a == b:
            continue
        entry["states_moved"] += 1
        for i, rec in enumerate((a, b)):
            scored = _error(oracle, rec[0], rec[1], rec[3])
            if scored is not None:
                entry["worst_err_moved"][i] = max(entry["worst_err_moved"][i], scored[0])
                entry["converged_moved"][i] += scored[1]


def compare(old_path: str, new_path: str) -> dict:
    """Per section, over every seed: floats seen, floats moved by bucket (at most
    1, 2, 4, ... ulps), other changes; point_eval and report_grid per (family,
    tol) stratum, with the states moved (``_strata``)."""
    tally: dict = {}
    with open(old_path) as old, open(new_path) as new:
        old, new = json.load(old), json.load(new)
    for key in old.keys() | new.keys():
        if not key.isdigit():
            _walk(old.get(key), new.get(key), key, tally)
            continue
        seed_old, seed_new = old.get(key, {}), new.get(key, {})
        for section in seed_old.keys() | seed_new.keys():
            a, b = seed_old.get(section), seed_new.get(section)
            if section in ("point_eval", "report_grid") and a is not None and b is not None:
                _strata(section, a, b, tally)
            else:
                _walk(a, b, section, tally)
    return dict(sorted(tally.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="summarize the diff of two outputs")
    ns = ap.parse_args(argv)
    if ns.compare:
        tally = compare(*ns.compare)
        json.dump(tally, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return int(any(entry["moved"] or entry["other"] for entry in tally.values()))
    print(f"logconvex from {Path(lc.__file__).parent}", file=sys.stderr)
    out = {str(seed): {"point_eval": point_eval(seed), "report_grid": report_grid(seed),
                       "convexity_scan": convexity_scan(seed)} for seed in ns.seeds}
    out["fib_report"] = fib_report()
    out["deep"] = deep()
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
