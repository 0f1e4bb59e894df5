"""The three workloads: their operations, answer checks and timing loops.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Operations cycle through the seeded
inputs; the first pass over them is checked against the oracle, and every
later repeat must return exactly the first answer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field, replace

import mpmath as mp

import inputs as ip
import oracle

#: A value this far from the oracle is a wrong answer, whatever tol was asked
#: (the plain product at n = 2^20 errs by up to about 1e-6).
WRONG_REL = 1e-4
#: Bracket slack for rounding in the sandwich bounds, in units of eps.
BRACKET_ULPS = 8 * 2.0 ** -52
#: Per-process time limit for every CLI process the benchmark starts.
PROCESS_TIMEOUT_S = 120
#: ``logconvex checks`` processes per convexity_scan run.
CHECKS_PROCESSES = 8
#: Times each point_eval run starts its five ``logconvex eval`` processes.
EVAL_ROUNDS = 4
#: rel_err_max reads at least this: a 170-step forward scaling alone rounds
#: to about 1e-14, so smaller maxima differ by rounding, not by method.
REL_ERR_FLOOR = 1e-13

clock = time.perf_counter


def children_cpu() -> float:
    """User + system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Tally:
    """Operations attempted and failed, and the accuracy of checked answers."""

    attempted: int = 0
    failed: int = 0
    errs: list = field(default_factory=list)    # (relative error, requested tol)
    claims: list = field(default_factory=list)  # one bool per self-reported claim
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 12:
            self.problems.append(msg)


def error_result(exc: Exception) -> tuple:
    return ("error", type(exc).__name__, str(exc))


def is_error(result) -> bool:
    return isinstance(result, tuple) and len(result) == 3 and result[0] == "error"


class CliRunner:
    """Runs ``logconvex`` as a process on the checkout's sources."""

    def __init__(self, python: str, env: dict, cwd: str):
        self.python, self.env, self.cwd = python, env, cwd

    def run(self, argv: list[str]) -> tuple[int, str, float]:
        """(exit code, stdout, CPU seconds of the process)."""
        start = children_cpu()
        proc = subprocess.run([self.python, "-m", "logconvex.cli", *argv], env=self.env, cwd=self.cwd,
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, children_cpu() - start

    def python_cpu(self, code: str) -> float:
        """CPU seconds of a ``python -c code`` process."""
        start = children_cpu()
        subprocess.run([self.python, "-c", code], env=self.env, cwd=self.cwd, check=True,
                       capture_output=True, timeout=PROCESS_TIMEOUT_S)
        return children_cpu() - start


def run_in_process(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# --------------------------------------------------------------------------
# point_eval
# --------------------------------------------------------------------------

def _outside_bracket(want, lower: float, upper: float) -> bool:
    lo = lower - BRACKET_ULPS * abs(lower)
    hi = upper + BRACKET_ULPS * abs(upper)
    return not (lo <= want <= hi)


class PointEval:
    """``extended_state(g, x, tol)`` once per point of a seeded stream."""

    name = "point_eval"
    round_size = len(ip.POINT_STRATA)

    def __init__(self, seed: int):
        self.inputs = ip.point_inputs(seed)
        self.items = self.inputs.points
        self.want = [oracle.value(p.family, p.x) for p in self.items]
        self.cli_want = [oracle.value(p.family, p.x) for p in self.inputs.cli_points]

    def prepare(self, lc) -> None:
        self.reps = {fam.key: ip.build_representer(lc, fam) for fam in self.inputs.families}

    def op(self, lc, i: int):
        p = self.items[i]
        return lc.bohrmollerup.extended_state(self.reps[p.family.key], p.x, p.tol)

    @staticmethod
    def perturb(result):
        return replace(result, value=result.value * 1.01)

    def _judge(self, x, tol, value, lower, upper, converged, want, tally, label) -> bool:
        if not math.isfinite(value):
            tally.fail(f"{label}: non-finite value {value!r} at x={x!r}")
            return True
        err = oracle.rel_err(value, want)
        tally.errs.append((err, tol))
        tally.claims.append(bool(converged) == (err <= tol))
        if err > WRONG_REL or (err > tol and _outside_bracket(want, lower, upper)):
            tally.fail(f"{label}: x={x!r} value {value!r} misses the oracle by {err:.3e}")
            return True
        return False

    def check(self, i: int, result, tally: Tally) -> bool:
        p = self.items[i]
        label = f"{p.family.cli_spec()} tol={p.tol:g}"
        if is_error(result):
            tally.fail(f"{label}: x={p.x!r} raised {result[1]}: {result[2]}")
            return True
        return self._judge(p.x, p.tol, result.value, result.lower, result.upper, result.converged,
                           self.want[i], tally, label)

    def cli_tasks(self, runner: CliRunner, tally: Tally, times: list[float]) -> list:
        """One ``logconvex eval`` process per CLI point, each checked like ``op``."""
        def task(p: ip.Point, want):
            argv = ["eval", "--representer", p.family.cli_spec(), "--x", repr(p.x), "--tol", repr(p.tol)]
            rc, out, cpu = runner.run(argv)
            times.append(cpu)
            tally.attempted += 1
            if rc != 0:
                tally.fail(f"eval {argv} exited {rc}")
                return
            row = json.loads(out)
            scratch = Tally()
            if self._judge(p.x, p.tol, row["value"], row["lower"], row["upper"], row["converged"],
                           want, scratch, "eval"):
                tally.fail(scratch.problems[0])

        tasks = [functools.partial(task, p, want) for p, want in zip(self.inputs.cli_points, self.cli_want)]
        return tasks * EVAL_ROUNDS

    @staticmethod
    def traced_legs(lc) -> list:
        """None: the traced run times ``extended_state`` only."""
        return []


# --------------------------------------------------------------------------
# report_grid
# --------------------------------------------------------------------------

REPORT_HEADER = "x,f,log_f,d2_log,q_det"


class ReportGrid:
    """``logconvex report`` over seeded specs and ranges, one process each.

    The timed operations are short reports; the full-size reports of the
    documented usage form the CLI leg, whose median is ``report_s``.
    """

    name = "report_grid"
    round_size = len(ip.REPORT_KINDS)

    def __init__(self, seed: int):
        inputs = ip.report_inputs(seed)
        self.items = inputs.reports
        self.cli_items = inputs.cli_reports
        self.want = [self._oracle(rep) for rep in self.items]
        self.cli_want = [self._oracle(rep) for rep in self.cli_items]

    @staticmethod
    def _oracle(rep: ip.Report) -> tuple:
        """Rows, f, log f and the CLI's central second difference of log f."""
        xs, step = rep.xs(), rep.step
        with mp.workdps(oracle.DPS):
            logs = [oracle.log_value(rep.family, x) for x in [rep.a - step] + xs + [rep.a + step * rep.n]]
            vals = [oracle.value(rep.family, x) for x in xs]
            d2 = [(logs[i + 2] - 2 * logs[i + 1] + logs[i]) / step ** 2 for i in range(len(xs))]
        return xs, vals, logs[1:-1], d2

    def prepare(self, lc) -> None:
        """Nothing to build: every report builds its own representer."""

    def _judge_full(self, k: int, result, tally: Tally) -> None:
        """Check full-size report ``k`` like ``op``. Like the ``eval`` leg of
        point_eval it stays out of the accuracy shares: its rows next to the
        integers lie close to the tol thresholds, so their count within tol
        would hinge on the seeded parameters."""
        tally.attempted += 1
        scratch = Tally()
        if self._check(self.cli_items[k], self.cli_want[k], result, scratch):
            tally.fail(scratch.problems[0])

    def cli_tasks(self, runner: CliRunner, tally: Tally, times: list[float]) -> list:
        """One ``logconvex report`` process per full-size report."""
        def task(k: int):
            rc, out, cpu = runner.run(self.cli_items[k].argv())
            times.append(cpu)
            self._judge_full(k, (rc, out), tally)

        return [functools.partial(task, k) for k in range(len(self.cli_items))]

    def traced_legs(self, lc) -> list:
        """The full-size reports, in process: (step, judge) pairs."""
        return [(functools.partial(run_in_process, lc.cli, rep.argv()), functools.partial(self._judge_full, k))
                for k, rep in enumerate(self.cli_items)]

    def op_process(self, runner: CliRunner, i: int):
        rc, out, _ = runner.run(self.items[i].argv())
        return rc, out

    def op(self, lc, i: int):
        return run_in_process(lc.cli, self.items[i].argv())

    @staticmethod
    def perturb(result):
        rc, out = result
        lines = out.split("\n")
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) * 1.01)
        lines[1] = ",".join(cells)
        return rc, "\n".join(lines)

    def check(self, i: int, result, tally: Tally) -> bool:
        return self._check(self.items[i], self.want[i], result, tally)

    @staticmethod
    def _check(rep: ip.Report, want: tuple, result, tally: Tally) -> bool:
        """Score one report's rows; a report with any bad row is one failure."""
        label = " ".join(rep.argv())
        if is_error(result):
            tally.fail(f"{label}: raised {result[1]}: {result[2]}")
            return True
        rc, out = result
        lines = out.splitlines()
        if rc != 0 or not lines or lines[0] != REPORT_HEADER or len(lines) != rep.n + 1:
            tally.fail(f"{label}: exit {rc}, {len(lines)} lines")
            return True
        bad = []
        for line, x, f_want, log_want, d2_want in zip(lines[1:], *want):
            cells = line.split(",")
            if "NA" in cells or len(cells) != 5:
                bad.append(f"NA cell in row {line!r}")
                continue
            gx, f, log_f, d2, q_det = (float(c) for c in cells)
            if gx != x or not all(map(math.isfinite, (f, log_f, d2, q_det))):
                bad.append(f"row {line!r} has x or a non-finite cell wrong")
                continue
            err = oracle.rel_err(f, f_want)
            tally.errs.append((err, rep.tol))
            # the interpolant is log-convex, so every row should report d2_log > 0
            tally.claims.append((d2 > 0) == (d2_want > 0))
            with mp.workdps(oracle.DPS):
                log_off = float(abs(log_f - log_want)) > WRONG_REL * max(1.0, float(abs(log_want)))
                d2_off = float(abs(d2 - d2_want)) > 1e-3 * max(1.0, float(abs(d2_want)))
            if err > WRONG_REL or log_off or d2_off:
                bad.append(f"row x={x!r} f/log_f/d2_log off (f rel err {err:.3e})")
        if bad:
            tally.fail(f"{label}: {len(bad)} bad rows, first: {bad[0]}")
        return bool(bad)


# --------------------------------------------------------------------------
# convexity_scan
# --------------------------------------------------------------------------

class ConvexityScan:
    """Candidates with known verdicts: grid scans, series, Mellin probes."""

    name = "convexity_scan"
    round_size = 8 * ip.CANDIDATE_ROUND

    def __init__(self, seed: int):
        self.items = ip.candidate_inputs(seed)
        self.want = [tuple(oracle.trigamma_sum(c.family, x) for x in c.series_xs) for c in self.items]

    def prepare(self, lc) -> None:
        reps = {fam.key: ip.build_representer(lc, fam) for fam in ip.candidate_families(self.items)}
        self.objs = [ip.build_candidate(lc, c, reps) for c in self.items]

    def op(self, lc, i: int):
        cand, obj = self.items[i], self.objs[i]
        if cand.kind == "mellin":
            rep = lc.special.mellin_logconvex_probe(obj, 0.0, math.inf, cand.probe_xs, ip.PROBE_TOL)
            return rep.verdict, ()
        fn = obj.fn if cand.kind == "representer" else obj
        rep = lc.convexity.scan_convexity(fn, cand.interval[0], cand.interval[1], ip.SCAN_GRID)
        series = tuple(lc.bohrmollerup.logconvexity_series(obj, x, ip.SERIES_TOL) for x in cand.series_xs)
        return rep.verdict, series

    @staticmethod
    def perturb(result):
        verdict, series = result
        flipped = ip.NOT_LOG_CONVEX if verdict == ip.LOG_CONVEX else ip.LOG_CONVEX
        return flipped, series

    def check(self, i: int, result, tally: Tally) -> bool:
        cand = self.items[i]
        label = f"{cand.kind} {cand.source} {dict(cand.params)} on {cand.interval}"
        if is_error(result):
            tally.fail(f"{label}: raised {result[1]}: {result[2]}")
            return True
        verdict, series = result
        agree = verdict == cand.verdict
        bad = not agree
        if bad:
            tally.fail(f"{label}: verdict {verdict}, known {cand.verdict}")
        for x, got, want in zip(cand.series_xs, series, self.want[i]):
            err = oracle.rel_err(got, want) if math.isfinite(got) else math.inf
            tally.errs.append((err, ip.SERIES_TOL))
            agree = agree and err <= ip.SERIES_TOL
            if err > WRONG_REL:
                tally.fail(f"{label}: series at x={x!r} misses trigamma by {err:.3e}")
                bad = True
        tally.claims.append(agree)
        return bad

    @staticmethod
    def _judge_checks(result, tally: Tally, where: str) -> None:
        """``checks`` must exit 0 with every criterion passed."""
        rc, out = result
        tally.attempted += 1
        if rc != 0 or not all(r["passed"] for r in json.loads(out)):
            tally.fail(f"checks ({where}) exited {rc} or a criterion failed")

    def cli_tasks(self, runner: CliRunner, tally: Tally, times: list[float]) -> list:
        """``logconvex checks`` processes."""
        def task():
            rc, out, cpu = runner.run(["checks"])
            times.append(cpu)
            self._judge_checks((rc, out), tally, "process")

        return [task] * CHECKS_PROCESSES

    def traced_legs(self, lc) -> list:
        """One ``checks`` in process: a (step, judge) pair."""
        return [(functools.partial(run_in_process, lc.cli, ["checks"]),
                 functools.partial(self._judge_checks, where="in process"))]


WORKLOADS = {w.name: w for w in (PointEval, ReportGrid, ConvexityScan)}


# --------------------------------------------------------------------------
# timing loop
# --------------------------------------------------------------------------

def note_result(i: int, result, first: list, mismatches: list, k: int) -> None:
    """Keep operation ``i``'s result if it is in the first pass over the ``k``
    inputs; otherwise note its input in ``mismatches`` if it differs from the
    first answer (two raised errors count as equal)."""
    j = i % k
    if i < k:
        first.append(result)
    elif result != first[j] and not (is_error(result) and is_error(first[j])):
        mismatches.append(j)


def timed_loop(wl, do_op, seconds: float, min_ops: int, side=(), meter=time.process_time):
    """Run operations in a closed loop.

    Returns (latencies, results of the first pass, mismatches, wall seconds
    of the operations). An operation's latency is the rise of ``meter``
    over it: this process's CPU time, or ``children_cpu`` for
    operations that are processes.

    Stops at the first end of a round (``wl.round_size`` operations, after
    which the mix of input kinds is exact) once ``seconds`` have passed and
    at least ``min_ops`` operations have run. A repeat that differs from the
    first pass is returned in ``mismatches``. The ``side`` tasks (processes)
    run between operations, spread evenly over ``seconds``, so that every
    metric samples the whole run; their time is not in the latencies.
    """
    k = len(wl.items)
    lat, first, mismatches = [], [], []
    wall = 0.0
    begin = clock()
    deadline = begin + seconds
    due = [begin + seconds * (j + 0.5) / len(side) for j in range(len(side))]
    done = 0
    i = 0
    while i < min_ops or i % wl.round_size or clock() < deadline:
        if done < len(side) and clock() >= due[done]:
            side[done]()
            done += 1
        j = i % k
        start, wall_start = meter(), clock()
        try:
            result = do_op(j)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
            result = error_result(exc)
        lat.append(meter() - start)
        wall += clock() - wall_start
        note_result(i, result, first, mismatches, k)
        i += 1
    for task in side[done:]:
        task()
    return lat, first, mismatches, wall


def check_results(wl, first: list, n_ops: int, mismatches: list, inject: bool, tally: Tally) -> None:
    """Check the first pass against the oracle and charge failures to every repeat."""
    if inject and first:
        first[0] = wl.perturb(first[0])
    wrong = [wl.check(j, r, tally) for j, r in enumerate(first)]
    repeats_wrong = sum(wrong[i % len(first)] for i in range(len(first), n_ops))
    tally.failed += repeats_wrong
    for j in mismatches:
        tally.fail(f"{wl.name}: repeat of input {j} returned a different answer")
    tally.attempted += n_ops


def latency_metrics(lat: list[float]) -> dict[str, float]:
    pct = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    return {
        "op_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": pct[94] * 1e3,
    }


def accuracy_metrics(tally: Tally) -> dict[str, float]:
    errs = tally.errs
    return {
        "within_tol_frac": sum(e <= t for e, t in errs) / len(errs) if errs else 0.0,
        "rel_err_max": max([REL_ERR_FLOOR] + [e for e, _ in errs]),
        "claim_agree_frac": sum(tally.claims) / len(tally.claims) if tally.claims else 0.0,
    }
