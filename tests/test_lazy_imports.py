"""Each CLI command imports only the modules it runs, and the package's names and
submodules still resolve on first access. Every check runs in a fresh interpreter,
since the pytest process itself has imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Prints the logconvex modules loaded after running the CLI with the given arguments.
AFTER_COMMAND = """
import contextlib, io, json, sys
import logconvex.cli
with contextlib.redirect_stdout(io.StringIO()):
    logconvex.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("logconvex"))))
"""


def run_python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,absent", [
    (["eval", "--representer", "identity", "--x", "0.5"], ["acceptance", "convexity", "special"]),
    (["eval", "--representer", "fibonacci", "--x", "2.5"], ["acceptance"]),  # fib_real lives in special
    (["report", "--representer", "identity", "--range", "0.5", "2.5", "5"], ["acceptance", "special"]),
])
def test_a_command_loads_only_what_it_runs(argv, absent):
    loaded = json.loads(run_python(AFTER_COMMAND, *argv))
    assert "logconvex.bohrmollerup" in loaded
    assert not {f"logconvex.{m}" for m in absent} & set(loaded), loaded


def test_every_traced_layer_and_target_resolves_after_importing_the_cli():
    """``perfbench/run.py --trace 1`` reaches each layer as ``logconvex.<layer>`` after
    importing only ``logconvex`` and ``logconvex.cli``."""
    code = """
import importlib.util, sys
import logconvex, logconvex.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for layer in tracing.LAYERS:
    assert getattr(logconvex, layer).__name__ == "logconvex." + layer, layer
for module, path in tracing.TARGETS:
    owner = getattr(logconvex, module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (module, path)
print("ok")
"""
    assert run_python(code, str(ROOT / "perfbench" / "tracing.py")) == "ok\n"


def test_public_names_resolve_lazily():
    code = """
import sys
import logconvex
assert "logconvex.special" not in sys.modules
from logconvex import ProductState, extended_state, scan_convexity, fib_real, LogconvexError
assert "logconvex.special" in sys.modules and logconvex.fib_real is fib_real
assert set(logconvex.__all__) <= set(dir(logconvex))
try:
    logconvex.no_such_name
except AttributeError:
    print("ok")
"""
    assert run_python(code) == "ok\n"
