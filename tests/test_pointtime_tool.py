"""``tools/pointtime.py``: one row per case, with a positive warm and cold time."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import pointtime  # noqa: E402


def test_each_case_gets_a_warm_and_a_cold_time():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "pointtime.py"), "-n", "2"],
                          capture_output=True, text=True, check=True, env=env)
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["case", "warm_us", "cold_us"]
    assert [row.split()[:3] for row in rows] == [[spec, repr(x), f"@{tol:g}"] for spec, x, tol in pointtime.CASES]
    assert all(float(t) > 0.0 for row in rows for t in row.split()[3:])
    assert done.stderr == f"logconvex from {ROOT / 'src' / 'logconvex'}\n"
