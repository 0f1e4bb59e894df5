"""Time ``import logconvex`` plus construction of one workload's objects.

Run in a fresh process by run.py (the checkout's ``src`` on PYTHONPATH):

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"setup_s": ...}. Input generation happens before the clock starts
and imports only the standard library, so numpy's import is inside the
measured time; the oracle is never imported here.
"""

import json
import sys
import time

import inputs


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    families = inputs.families_for(workload, seed)
    cands = inputs.candidate_inputs(seed) if workload == "convexity_scan" else []
    start = time.process_time()
    import logconvex as lc
    import logconvex.cli  # noqa: F401 - the CLI module is part of what users import

    reps = {fam.key: inputs.build_representer(lc, fam) for fam in families}
    for cand in cands:
        inputs.build_candidate(lc, cand, reps)
    print(json.dumps({"setup_s": time.process_time() - start}))


if __name__ == "__main__":
    main()
