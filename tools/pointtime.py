"""Print the best-of-N in-process time of ``extended_state`` on a fixed list of points, warm
and cold, in µs.

A cold call runs on a representer built for that one call, so it forms the product terms a
representer caches (``Representer.product_terms``); the representer is built outside the
timed span. A warm call runs on one representer per case that has already run a product
point (x = 0.5) and the point itself, so an integer anchor reads the numerator's g(k).
The library is the ``logconvex`` on the import path, so one copy of this script times any
checkout; run two checkouts in turn, several rounds, to compare them:

    PYTHONPATH=src python tools/pointtime.py
    PYTHONPATH=../parent/src python tools/pointtime.py -n 500

It reads and writes no file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import logconvex as lc

#: (representer spec, x, tol): points that stop inside the first block at tol 1e-8, points
#: that take the orders past 4 at the first block's last level at tol 1e-12, the forward
#: and backward chains, and an integer anchor.
CASES = (
    ("identity", 0.37, 1e-8),
    ("identity", 0.63, 1e-12),
    ("identity", -2.37, 1e-12),
    ("fibonacci", 0.37, 1e-12),
    ("power:c=1.4", 0.5, 1e-12),
    ("x*(x+1)", 3.3, 1e-8),
    ("identity", 50.0, 1e-8),
)


def best_us(calls) -> float:
    """The least time, in µs, of the calls ``calls`` yields, each a function of no argument."""
    best = float("inf")
    for call in calls:
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-n", type=int, default=300, help="timed calls per case, warm and cold each (default 300)")
    n = ap.parse_args(argv).n
    print(f"logconvex from {Path(lc.__file__).parent}", file=sys.stderr)
    state = lc.bohrmollerup.extended_state
    print(f"{'case':<30}{'warm_us':>10}{'cold_us':>10}")
    for spec, x, tol in CASES:
        warm = lc.from_spec(spec)
        state(warm, 0.5)
        state(warm, x, tol)
        warm_us = best_us(lambda: state(warm, x, tol) for _ in range(n))
        cold_us = best_us(lambda g=lc.from_spec(spec): state(g, x, tol) for _ in range(n))
        print(f"{f'{spec} {x!r} @{tol:g}':<30}{warm_us:>10.1f}{cold_us:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
