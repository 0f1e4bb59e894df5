"""CLI contract: exit codes, JSON fields, CSV shape, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import logconvex
import logconvex.cli
from logconvex import LogconvexError
from logconvex.cli import main
from logconvex.convexity import d2_log, q_determinant
from logconvex.special import fib_real_fn
from test_expr import TREES

SQRT_PI = math.sqrt(math.pi)

#: specs with a constant subexpression that cannot be evaluated, also where an
#: identity such as 0*b would drop it, and specs nested too deeply to parse
CONFIG_ERROR_SPECS = [
    "x + 0^-1", "x + exp(1000)", "x + 0/0", "x + 0*(0/0)", "(0/0)^0*x",
    pytest.param("+".join(["x"] * 3000), id="3000-term sum"),
    pytest.param("(" * 400 + "x" + ")" * 400, id="400 nested parentheses"),
]


#: the environment of CLI processes: they import the package these tests import
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(logconvex.__file__)), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_function_rows(ns) -> list[dict]:
    """The rows of ``report --function fib`` from ``q_determinant`` and ``d2_log``,
    called point by point. A cell is NA where its call raises or its value is not
    finite; log_f is log f where f > 0."""
    f = fib_real_fn()
    a, b, n = ns.range_
    rows = []
    for i in range(n):
        x = a + (b - a) * i / (n - 1)
        row = {"x": x, "f": None, "log_f": None, "d2_log": None, "q_det": None}
        with contextlib.suppress(LogconvexError):
            row["f"] = fv = f(x)
            if fv > 0.0:
                row["log_f"] = math.log(fv)
        for key, cell in (("q_det", q_determinant), ("d2_log", d2_log)):
            with contextlib.suppress(LogconvexError):
                v = cell(f, x)
                row[key] = v if math.isfinite(v) else None
        rows.append(row)
    return rows


class TestEval:
    def test_factorial_point(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--representer", "identity", "--x", "5")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"x", "value", "n_used", "lower", "upper", "rel_gap", "converged"}
        assert abs(data["value"] - 24.0) <= 1e-6
        assert data["lower"] <= data["value"] <= data["upper"]
        # an integer anchor is exact: no product runs
        assert data["lower"] == data["upper"] == 24.0
        assert data["n_used"] == 0 and data["rel_gap"] == 0.0 and data["converged"] is True

    def test_divergent_representer_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--representer", "exp(x)", "--x", "0.5")
        assert code == 3
        assert out == ""
        assert "decrease" in err

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--representer", "x^(", "--x", "1")
        assert code == 2
        assert "offset" in err

    @pytest.mark.parametrize("spec", ["x-1", "log(x)"])
    def test_non_positive_representer_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "eval", "--representer", spec, "--x", "0.5")
        assert code == 2
        assert out == ""
        assert "not positive" in err

    @pytest.mark.parametrize("spec", CONFIG_ERROR_SPECS)
    def test_unevaluable_constant_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "eval", "--representer", spec, "--x", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_overflow_prints_no_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "eval", "--representer", "x + exp(1000)", "--x", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_representer_names_x_as_a_float(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--representer", "exp(x^0.9)", "--x", "0.5")
        assert code == 4
        assert out == ""
        assert err == "error: exp(x^0.9): non-finite value at x=1473.0\n"

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--representer", "identity", "--x", "1", "--seed", "3"])
        assert exc.value.code == 2

    def test_max_n_below_product_minimum_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--representer", "identity",
                                 "--x", "0.5", "--max-n", "2")
        assert code == 2
        assert "max_n" in err

    @pytest.mark.parametrize("x", ["3", "3.5", "1", "-2.5", "-3"])
    @pytest.mark.parametrize("limit,error", [(("--max-n", "0"), "max_n must be >= 4"),
                                             (("--tol", "nan"), "tol must be positive")])
    def test_limits_are_checked_at_every_x(self, capsys, x, limit, error):
        """An integer --x, whose value needs no product, is no exception."""
        got = run_cli(capsys, "eval", "--representer", "identity", "--x", x, *limit)
        assert got == (2, "", f"error: {error}\n")

    def test_negative_x_in_exponent_notation_is_a_value(self, capsys):
        """argparse reads -1.55e1 after --x as the value, as it reads --x=-1.55e1."""
        want = run_cli(capsys, "eval", "--representer", "identity", "--x=-1.55e1")
        assert want[0] == 0
        assert run_cli(capsys, "eval", "--representer", "identity", "--x", "-1.55e1") == want

    def test_pole_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--representer", "identity", "--x", "0")
        assert code == 4
        assert "vanishes" in err

    def test_underflowing_shift_chain_exits_4(self, capsys):
        # prod (x+k)^(x+k) from x = -24 to 0 underflows to 0.0
        code, out, err = run_cli(capsys, "eval", "--representer", "x^x", "--x=-24")
        assert code == 4
        assert out == ""
        assert "underflows" in err

    def test_underflowing_value_exits_4(self, capsys):
        # Gamma(-200.5) is about 1e-375, below the smallest double
        code, out, err = run_cli(capsys, "eval", "--representer", "identity", "--x=-200.5")
        assert code == 4
        assert out == ""
        assert "underflows" in err

    def test_subnormal_value_exits_4(self, capsys):
        # 0.5^1069.5 is a subnormal double, with fewer bits than its bracket claims
        code, out, err = run_cli(capsys, "eval", "--representer", "const:0.5", "--x", "1070.5")
        assert code == 4
        assert out == ""
        assert "subnormal" in err

    def test_expression_representer(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--representer", "x*(x+1)",
                               "--x", "0.5", "--tol", "1e-5")
        assert code == 0
        value = json.loads(out)["value"]
        # f(x+1) = x(x+1) f(x) has the squared-Gamma interpolant
        assert value == pytest.approx(SQRT_PI ** 2 / (0.5 * 1.5) / 2.0, rel=0.5)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--representer", "identity",
                               "--x", "2", "--output", "csv", "--tol", "1e-5")
        assert code == 0
        head, row = out.strip().split("\n")
        assert head == "x,value,n_used,lower,upper,rel_gap,converged"
        assert len(row.split(",")) == 7

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "eval.json"
        code, out, _ = run_cli(capsys, "eval", "--representer", "identity",
                               "--x", "1", "--tol", "1e-5", "--out", str(path))
        assert code == 0
        assert out == ""
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["converged"] is True

    def test_out_file_that_cannot_be_written_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "eval.json"
        code, out, err = run_cli(capsys, "eval", "--representer", "identity", "--x", "0.5", "--out", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and str(path) in err

    def test_bad_tol_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--representer", "identity",
                               "--x", "1", "--tol", "-1")
        assert code == 2
        assert "tol" in err

    def test_non_finite_x_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--representer", "identity", "--x", "nan")
        assert code == 2
        code, _, err = run_cli(capsys, "report", "--function", "fib",
                               "--range", "0", "inf", "5")
        assert code == 2


class TestReport:
    @pytest.mark.parametrize("range_", [("1", "3", "3"), ("0.5", "2.5", "3")])
    def test_max_n_below_the_minimum_exits_2_and_prints_no_row(self, capsys, range_):
        """Samples at integer x, the anchors, check --max-n as the others do."""
        got = run_cli(capsys, "report", "--representer", "identity", "--range", *range_, "--max-n", "0")
        assert got == (2, "", "error: max_n must be >= 4\n")

    def test_identity_range_all_log_convex(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--representer", "identity",
                               "--range", "0.5", "4.5", "100", "--tol", "1e-5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,f,log_f,d2_log,q_det"
        assert len(lines) == 101
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert float(fields[3]) > 0.0  # d2_log column

    def test_rows_round_trip_to_one_ulp(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--representer", "identity",
                               "--range", "0.5", "2.5", "9", "--tol", "1e-5")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            for field in line.split(","):
                if field == "NA":
                    continue
                v = float(field)
                assert float(f"{v:.17g}") == v

    def test_gamma_pole_rows_na(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--representer", "identity",
                               "--range", "-0.5", "0.5", "11")
        assert code == 4
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 11
        by_x = {round(float(l.split(",")[0]), 10): l.split(",") for l in lines}
        assert by_x[0.0][1] == "NA"  # f itself fails at the pole
        assert by_x[-0.5][2] == "NA"  # negative f has no log
        assert by_x[0.5][3] != "NA"

    def test_underflowing_rows_na(self, capsys):
        # Gamma(x) near x = -200 lies below the smallest double: no row is a zero
        code, out, _ = run_cli(capsys, "report", "--representer", "identity",
                               "--range", "-201.5", "-199.5", "3")
        assert code == 4
        lines = out.strip().split("\n")
        assert lines[0] == "x,f,log_f,d2_log,q_det"
        assert lines[1:] == [f"{x},NA,NA,NA,NA" for x in ("-201.5", "-200.5", "-199.5")]

    def test_subnormal_rows_na(self, capsys):
        # 0.5^(x-1) is normal at 1022.5 and subnormal from 1023.5 on
        code, out, _ = run_cli(capsys, "report", "--representer", "const:0.5",
                               "--range", "1022.5", "1024.5", "3")
        assert code == 4
        lines = out.strip().split("\n")
        assert lines[1].startswith("1022.5,3.14") and lines[1].endswith(",NA,NA")
        assert lines[2:] == [f"{x},NA,NA,NA,NA" for x in ("1023.5", "1024.5")]

    def test_fib_function_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--function", "fib",
                               "--range", "0.1", "4.0", "512")
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 512
        d2 = [float(l.split(",")[3]) for l in lines]
        signs = [v > 0 for v in d2]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert min(d2) < 0.0 < max(d2)
        assert changes == 3  # (log f)'' crosses 3 times; f'' itself crosses 4 times

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("a,b,n", [("0.1", "4.0", "512"), ("-10", "10", "4001"), ("-745", "745", "3001"),
                                       ("0", "1", "2"), ("-1e300", "1e300", "3")])
    def test_fib_rows_match_the_per_point_loop(self, capsys, monkeypatch, a, b, n, output):
        """The grid rule prints the bytes and exits with the code of q_determinant and
        d2_log called point by point, and writes nothing to stderr. At -1e300, phi^x
        underflows and the grid call divides by zero, which the CLI's errstate does not
        ignore: each point is then evaluated alone, under the same errstate. The
        reference's warnings are ignored: only its stdout and exit code are compared."""
        argv = ("report", "--function", "fib", "--range", a, b, n, "--output", output)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_cli(capsys, *argv)
        assert got[2] == "" and caught == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr(logconvex.cli, "_report_rows_function", reference_function_rows)
            want = run_cli(capsys, *argv)
        assert got[:2] == want[:2]

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--function", "fib",
                               "--range", "1.0", "2.0", "5", "--output", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert set(rows[0]) == {"x", "f", "log_f", "d2_log", "q_det"}

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "report", "--range", "0", "1", "5")
        assert code == 2
        code, _, err = run_cli(capsys, "report", "--representer", "identity",
                               "--function", "fib", "--range", "0", "1", "5")
        assert code == 2

    def test_non_positive_representer_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "report", "--representer", "x-1",
                                 "--range", "1", "2", "3")
        assert code == 2
        assert out == ""
        assert "not positive" in err

    @pytest.mark.parametrize("spec", CONFIG_ERROR_SPECS)
    def test_unevaluable_constant_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "report", "--representer", spec, "--range", "1", "2", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_negative_range_in_exponent_notation_is_a_value(self, capsys):
        want = run_cli(capsys, "report", "--representer", "identity", "--range", "-2.5", "-0.5", "5")
        assert want[0] == 4  # rows at the poles are NA
        assert run_cli(capsys, "report", "--representer", "identity", "--range", "-2.5e0", "-5e-1", "5") == want

    def test_step_too_small_to_square_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "report", "--representer", "identity",
                                 "--range", "0.0", "7.462002518855719e-207", "3")
        assert code == 2
        assert out == ""
        assert "too small" in err

    def test_out_file_that_cannot_be_written_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.csv"
        code, out, err = run_cli(capsys, "report", "--representer", "identity", "--range", "0.5", "1", "3",
                                 "--out", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("source", [["--representer", "identity"], ["--function", "fib"]])
    def test_step_past_float_range_exits_2(self, capsys, source):
        code, out, err = run_cli(capsys, "report", *source, "--range", "-1e308", "1e308", "3")
        assert (code, out) == (2, "") and "step" in err

    def test_range_validation(self, capsys):
        code, _, err = run_cli(capsys, "report", "--function", "fib",
                               "--range", "2", "1", "5")
        assert code == 2
        code, _, err = run_cli(capsys, "report", "--function", "fib",
                               "--range", "0", "1", "1")
        assert code == 2


class TestChecks:
    def test_only_filter(self, capsys):
        code, out, _ = run_cli(capsys, "checks", "--only", "fibonacci")
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["fibonacci"]
        assert rows[0]["passed"] is True

    def test_unknown_filter_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "checks", "--only", "nosuchcheck")
        assert code == 2 and out == ""
        assert err == "error: no check matches --only 'nosuchcheck'\n"
        target = tmp_path / "checks.json"
        assert run_cli(capsys, "checks", "--only", "nosuchcheck", "--out", str(target)) == (code, out, err)
        assert not target.exists()

    def test_timings_go_to_stderr_and_leave_stdout_alone(self):
        argv = [sys.executable, "-m", "logconvex.cli", "checks", "--only", "a"]
        plain = subprocess.run(argv, capture_output=True, check=False, env=CLI_ENV)
        timed = subprocess.run(argv + ["--timings"], capture_output=True, check=False, env=CLI_ENV)
        assert timed.stdout == plain.stdout and timed.returncode == plain.returncode
        assert plain.stderr == b""
        lines = [json.loads(line) for line in timed.stderr.decode().splitlines()]
        assert [t["check"] for t in lines] == [r["name"] for r in json.loads(plain.stdout)]
        assert all(set(t) == {"check", "seconds"} and t["seconds"] > 0.0 for t in lines)

    def test_out_file_that_cannot_be_written_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "checks.json"
        code, out, err = run_cli(capsys, "checks", "--only", "fibonacci", "--out", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and str(path) in err

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "checks", "--only", "gamma", "--tol", "1e-30")
        assert code == 1
        rows = json.loads(out)
        assert rows[0]["passed"] is False
        assert "ToleranceNotMet" in rows[0]["detail"]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["eval", "--representer", "identity", "--x", "3.7", "--tol", "1e-5"],
        ["report", "--function", "fib", "--range", "0.1", "4.0", "64"],
        ["checks", "--only", "parser"],
    ], ids=["eval", "report", "checks"])
    def test_byte_identical_output(self, argv):
        cmd = [sys.executable, "-m", "logconvex.cli"] + argv
        first = subprocess.run(cmd, capture_output=True, check=False, env=CLI_ENV)
        second = subprocess.run(cmd, capture_output=True, check=False, env=CLI_ENV)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        assert first.stdout  # non-empty

    def test_unknown_flag_rejected(self):
        cmd = [sys.executable, "-m", "logconvex.cli", "eval", "--representer",
               "identity", "--x", "1", "--frobnicate"]
        proc = subprocess.run(cmd, capture_output=True, check=False, env=CLI_ENV)
        assert proc.returncode == 2


#: builtin specs, also with malformed or out-of-range parameters
BUILTIN_SPECS = ["identity", "fibonacci", "power:c=0.5", "power:c=-2", "power:c=inf", "power:c=nan",
                 "power:c=", "const:2", "const:-1", "const:0", "const:inf", "const:nan", "const:x"]
#: argument values: ordinary, signed zeros, non-finite, huge and tiny magnitudes, and non-numbers
NUMBERS = st.one_of(
    st.floats(-8.0, 8.0),
    st.sampled_from(["inf", "-inf", "nan", "-0.0", "1e300", "-1e300", "5e-324", "1e-300", "x", ""]),
).map(str)
#: --x and --range endpoints: the functional-equation chain from x to (0, 1] takes
#: one step per unit of |x|, so huge |x| is left to --tol and --max-n here
POINTS = st.one_of(
    st.floats(-40.0, 40.0),
    st.sampled_from(["inf", "-inf", "nan", "-0.0", "-3", "0", "1", "1e-300", "x", ""]),
).map(str)
#: --x values that argparse must read as values also as separate tokens: negative
#: numbers in exponent notation
NEGATIVE_EXPONENTS = st.builds(lambda v, fmt: fmt.format(v), st.floats(-40.0, -1e-3),
                               st.sampled_from(["{:e}", "{:.2E}", "{:.0e}", "{:.3e}"]))
COUNTS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["2.5", "nan", "1e3", "x"]))
MAX_NS = st.one_of(st.integers(-5, 2 ** 22), st.sampled_from([10 ** 30, -10 ** 30])).map(str) \
    | st.sampled_from(["nan", "1e3", "x"])
CHECK_TAGS = st.sampled_from(["gamma", "factorial", "series", "divergence", "parser", "nosuchcheck"])


@st.composite
def cli_argv(draw):
    spec = draw(st.one_of(st.sampled_from(BUILTIN_SPECS), TREES.map(lambda t: t.pretty())))
    command = draw(st.sampled_from(["eval", "report", "checks"]))
    if command == "checks":
        argv = ["checks", "--only", draw(CHECK_TAGS)]
        if draw(st.booleans()):
            argv.append(f"--tol={draw(NUMBERS)}")
        return argv
    if command == "eval":
        if draw(st.booleans()):
            argv = ["eval", f"--representer={spec}", "--x", draw(NEGATIVE_EXPONENTS)]
        else:
            argv = ["eval", f"--representer={spec}", f"--x={draw(POINTS)}"]
    else:
        argv = ["report", f"--representer={spec}", "--range", draw(POINTS), draw(POINTS), draw(COUNTS)]
    argv.append(f"--output={draw(st.sampled_from(['json', 'csv']))}")
    if draw(st.booleans()):
        argv.append(f"--tol={draw(NUMBERS)}")
    if draw(st.booleans()):
        argv.append(f"--max-n={draw(MAX_NS)}")
    return argv


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def assert_strict_output(argv, out: str) -> None:
    """JSON output parses without NaN or Infinity; every CSV cell is a finite number,
    NA, or a boolean."""
    if "--output=csv" in argv:
        for line in out.splitlines()[1:]:
            for cell in line.split(","):
                assert cell in ("NA", "true", "false") or math.isfinite(float(cell)), (argv, line)
    elif out:
        json.loads(out, parse_constant=_not_json)


class TestFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cli_argv())
    @example(["eval", "--representer=x^x", "--x=-24"])
    @example(["report", "--representer=identity", "--range", "0.0", "7.462002518855719e-207", "3"])
    @example(["eval", "--representer=identity", "--x=171.62437695621261", "--output=json"])
    @example(["eval", "--representer=identity", "--x=171.62437695621261", "--output=csv"])
    @example(["report", "--representer=identity", "--range", "160", "170", "3", "--output=json"])
    @example(["report", "--function=fib", "--range", "1470", "1474", "3", "--output=csv"])
    @example(["report", "--function=fib", "--range", "1470", "1474", "3", "--output=json"])
    def test_every_input_maps_to_a_documented_exit_code(self, argv):
        """No traceback, whatever the arguments; exit 1 (check failure) only from checks.
        argparse ends a usage error with SystemExit(2), the config-error code. Output is
        strict JSON or CSV: a number past float range is null or NA."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        allowed = {0, 1, 2} if argv[0] == "checks" else {0, 2, 3, 4}
        assert code in allowed, argv
        assert "argument --x: expected one argument" not in err.getvalue(), argv
        if argv[0] != "checks":
            assert_strict_output(argv, out.getvalue())
