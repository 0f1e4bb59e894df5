"""Write the outcomes of the benchmark's seeded inputs as JSON, for a bit-identity diff.

For each seed it records, with floats as ``float.hex`` and exceptions as their
type and message:

- every point_eval state, the ``eval`` points included (``extended_state``);
- every report_grid sample, the stencil sample either side included, short
  and full-size reports alike (the state ``report --representer`` takes its
  value from);
- every convexity_scan series value, scan report and Mellin probe report.

The point_eval and report_grid states are recorded twice: "cold", on a
representer built for that one call, and "warm", on one representer per
family (per report) that has already run every call of the list once, so
the product terms a representer caches serve it.

The library is the ``logconvex`` on the import path, so one copy of this
script serves any checkout. Run it against two checkouts and diff the files:

    PYTHONPATH=src python tools/outcomes.py --seeds 1 2 3 > new.json
    PYTHONPATH=../parent/src python tools/outcomes.py --seeds 1 2 3 > old.json
    diff old.json new.json

It reads ``perfbench/inputs.py`` and writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import astuple
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
            out.append([cand.source, cand.params, probe])
            continue
        fn = obj.fn if cand.kind == "representer" else obj
        scan = _outcome(lambda: repr(lc.convexity.scan_convexity(fn, *cand.interval, ip.SCAN_GRID)))
        series = [_outcome(lambda: lc.bohrmollerup.logconvexity_series(obj, x, ip.SERIES_TOL))
                  for x in cand.series_xs]
        out.append([cand.source, cand.params, scan, series])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ns = ap.parse_args(argv)
    print(f"logconvex from {Path(lc.__file__).parent}", file=sys.stderr)
    out = {str(seed): {"point_eval": point_eval(seed), "report_grid": report_grid(seed),
                       "convexity_scan": convexity_scan(seed)} for seed in ns.seeds}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
