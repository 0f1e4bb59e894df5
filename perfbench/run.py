"""Benchmark of the logconvex library, scored against an mpmath oracle.

    python3 perfbench/run.py --workload point_eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from any directory; the library is imported from ``src`` next to this
directory, never from an installed copy. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics of
a separate traced run. A table goes to stderr; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread in this process and in every process it starts: the workloads
# are single callers, so CPU time then measures the caller alone. (numpy
# reads these when it is first imported, in main.)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Fresh processes per run for setup_s (after one unmeasured warm-up).
SETUP_PROBES = 7
#: Fresh processes per traced run for cli.startup_s.
STARTUP_PROBES = 3

#: The name each generic end-to-end metric has on each workload (README).
ALIASES = {
    "point_eval": {"op_per_s": "eval_per_s", "op_p50_ms": "eval_p50_ms", "op_p95_ms": "eval_p95_ms",
                   "cli_s": "eval_process_s", "claim_agree_frac": "converged_honest_frac"},
    "report_grid": {"op_per_s": "short_reports_per_s", "op_p50_ms": "short_report_p50_ms",
                    "op_p95_ms": "short_report_p95_ms", "cli_s": "report_s",
                    "claim_agree_frac": "d2_log_sign_agree_frac"},
    "convexity_scan": {"op_per_s": "scan_per_s", "op_p50_ms": "scan_p50_ms", "op_p95_ms": "scan_p95_ms",
                       "cli_s": "checks_s", "within_tol_frac": "series_within_tol_frac",
                       "rel_err_max": "series_rel_err_max", "claim_agree_frac": "verdict_agree_frac"},
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def machine_facts() -> dict:
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__, "platform": platform.platform()}


def setup_tasks(workload: str, seed: int, env: dict, tally, times: list[float]) -> list:
    """One unmeasured warm-up probe now, and SETUP_PROBES probes to run later.

    Each probe is a fresh process that times ``import logconvex`` plus the
    construction of the run's objects (setup_probe.py).
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]

    def probe(measured: bool = True):
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if not measured:
            return
        tally.attempted += 1
        if proc.returncode != 0:
            tally.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    probe(measured=False)  # writes bytecode caches, fills the file cache
    return [probe] * SETUP_PROBES


def _interleave(a: list, b: list) -> list:
    """Both lists merged so that each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, t) for i, t in enumerate(a)] + \
            [((i + 0.5) / len(b), 1, t) for i, t in enumerate(b)]
    return [t for *_, t in sorted(keyed, key=lambda e: e[:2])]


def run_end_to_end(wl, lc, seed: int, seconds: float, inject: bool, env: dict, runner, tally) -> tuple[dict, dict]:
    import workloads as w

    setups, cli_cpu = [], []
    side = _interleave(setup_tasks(wl.name, seed, env, tally, setups), wl.cli_tasks(runner, tally, cli_cpu))
    wl.prepare(lc)
    if wl.name == "report_grid":
        def do_op(j):
            return wl.op_process(runner, j)
        meter = w.children_cpu
    else:
        def do_op(j):
            return wl.op(lc, j)
        meter = time.process_time
    lat, first, mismatches, wall = w.timed_loop(wl, do_op, seconds, min_ops=len(wl.items), side=side,
                                                meter=meter)
    w.check_results(wl, first, len(lat), mismatches, inject, tally)
    metrics = {"setup_s": statistics.median(setups) if setups else 0.0, **w.latency_metrics(lat),
               "cli_s": statistics.median(cli_cpu), **w.accuracy_metrics(tally)}
    return metrics, {"ops": len(lat), "cli_processes": len(cli_cpu), "setup_processes": len(setups),
                     "ops_cpu_s": round(sum(lat), 3), "ops_wall_s": round(wall, 3)}


def run_traced(wl, lc, seed: int, seconds: float, inject: bool, runner, tally) -> tuple[dict, dict]:
    """Every step runs twice, untraced and then traced, until ``seconds`` have passed.

    The steps are the construction of the run's objects, each round of
    operations and the workload's CLI leg in process (the full-size reports
    on report_grid, one ``checks`` on convexity_scan). Running
    both sides close together lets them see the same host speed; the
    overhead compares their CPU time. Spans are timed by the wall clock, so
    the layers' self times add up to the traced steps' wall time.
    """
    import tracing
    import workloads as w

    startup = statistics.median(runner.python_cpu("import logconvex.cli") for _ in range(STARTUP_PROBES))
    tracer = tracing.Tracer()
    cpu = {False: 0.0, True: 0.0}
    traced_wall = 0.0

    def twice(step):
        """step() untraced, then traced; returns both results."""
        nonlocal traced_wall
        out = []
        for traced in (False, True):
            if traced:
                tracer.install(lc)
            try:
                wall, start = w.clock(), time.process_time()
                out.append(step())
                cpu[traced] += time.process_time() - start
                if traced:
                    traced_wall += w.clock() - wall
            finally:
                if traced:
                    tracer.uninstall()
        return out

    def one_round(lo: int) -> list:
        results = []
        for i in range(lo, lo + wl.round_size):
            try:
                results.append(wl.op(lc, i % len(wl.items)))
            except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
                results.append(w.error_result(exc))
        return results

    twice(lambda: wl.prepare(lc))
    first, mismatches, n_ops = [], [], 0
    deadline = w.clock() + seconds
    while n_ops == 0 or w.clock() < deadline:
        plain, traced = twice(lambda: one_round(n_ops))
        for i, (a, b) in enumerate(zip(plain, traced), start=n_ops):
            if a != b:
                mismatches.append(i % len(wl.items))
            w.note_result(i, b, first, mismatches, len(wl.items))
        n_ops += wl.round_size
    w.check_results(wl, first, n_ops, mismatches, inject, tally)
    for step, judge in wl.traced_legs(lc):
        for result in twice(step):
            judge(result, tally)
    metrics = tracing.layer_metrics(tracer, traced_wall)
    metrics.update({
        "cli.startup_s": startup,
        "trace.ops": n_ops,
        "trace.untraced_s": cpu[False],
        "trace.traced_s": cpu[True],
        "trace.overhead_frac": (cpu[True] - cpu[False]) / cpu[False],
    })
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans_{wl.name}_{seed}.jsonl")
    return metrics, {"ops": n_ops, "spans": len(tracer.spans), "traced_wall_s": round(traced_wall, 3)}


def run_workload(name: str, lc, seed: int, seconds: float, trace: int, inject: bool, env: dict,
                 spec: dict) -> dict:
    import oracle
    import workloads as w

    tally = w.Tally()
    wl = w.WORKLOADS[name](seed)
    rng = random.Random(f"oracle:{seed}")
    problems = oracle.self_check(lc, lc.bohrmollerup, lc.special, [rng.uniform(0.5, 6.0) for _ in range(4)])
    runner = w.CliRunner(sys.executable, env, str(ROOT))
    if trace:
        metrics, info = run_traced(wl, lc, seed, seconds, inject, runner, tally)
    else:
        metrics, info = run_end_to_end(wl, lc, seed, seconds, inject, env, runner, tally)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return {
        "workload": name,
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
        "info": {**info, "fail_frac": tally.failed / max(tally.attempted, 1),
                 "oracle_problems": problems, "failures": tally.problems},
    }


def print_table(res: dict, facts: dict, seed: int, trace: int) -> None:
    err = sys.stderr
    print(f"== {res['workload']}  seed={seed}  trace={trace}  correct={res['correct']}  "
          f"attempted={res['attempted']}  failed={res['failed']}  "
          f"fail_frac={res['info']['fail_frac']:.4g}", file=err)
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()), file=err)
    for key, val in res["info"].items():
        if key not in ("fail_frac", "oracle_problems", "failures"):
            print(f"   {key}: {val}", file=err)
    aliases = ALIASES[res["workload"]]
    for name, m in res["metrics"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"   {label:44s} {m['value']:>16.6g} {m['unit']}", file=err)
    for msg in res["info"]["oracle_problems"]:
        print(f"   ORACLE: {msg}", file=err)
    for msg in res["info"]["failures"]:
        print(f"   FAILED: {msg}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("point_eval", "report_grid", "convexity_scan", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also merge this run's record into a JSON file")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one answer before checking (tests the checker)")
    args = parser.parse_args(argv)

    if not (SRC / "logconvex" / "__init__.py").is_file():
        return _fail(f"no library sources at {SRC}; run from a checkout of the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import logconvex as lc
    import logconvex.cli  # noqa: F401 - binds lc.cli for in-process runs

    if Path(lc.__file__).resolve().parent != SRC / "logconvex":
        return _fail(f"imported logconvex from {lc.__file__}, not from {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    facts = machine_facts()
    names = ("point_eval", "report_grid", "convexity_scan") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, lc, args.seed, args.seconds, args.trace, args.inject_fault, env, spec)
        print_table(res, facts, args.seed, args.trace)
        results.append(res)

    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        record["machine"] = facts
        for res in results:
            record.setdefault("runs", {})[f"{res['workload']}/trace{args.trace}/seed{args.seed}"] = {
                "seconds": args.seconds, "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **res}
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
