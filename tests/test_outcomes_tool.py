"""``tools/outcomes.py --compare OLD NEW``: exit status 0 where the two files hold the same
outcomes, 1 where a float moved or any other value changed; nothing is written under
``perfbench/``."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STATE = [256, "0x1.7492df1303ef1p-2", "0x1.f69c42084eb97p-3", "0x1.f69c42084f3d9p-3", "0x1.f69c42084efb8p-3",
         "0x1.670815038c400p-10", True]
OUTCOMES = {
    "1": {
        "point_eval": [["identity:0.0", "-0x1.d31efd5f8e75bp+1", 1e-12, [STATE, []], [list(STATE), []]]],
        "report_grid": [],
        "convexity_scan": [{"candidate": ["x^c", [["c", 2.6372]]],
                            "series": [["0x1.4c11361a11819p-53", []], [["NonFiniteError", "at x+k=519.0"], []]]}],
    },
    "fib_report": {"0 1 2": {"exit": 0, "stderr": "", "columns": {"x": ["0x0.0p+0", "0x1.0p-1", "0x1.0p+0"]}}},
    "deep": {"states": [["identity", "0x1.7ae147ae147aep-2", 1e-12, 300, [STATE, []], [list(STATE), []]]],
             "anchors": [[1, [[0, "0x1.0p+0"], []], [[0, "0x1.0p+0"], []]]]},
}


def compare(tmp_path, new) -> tuple[int, dict]:
    """Exit status and output of the tool run as a script on OUTCOMES and ``new``, bytecode
    writing left on so that an import that writes under perfbench/ would show."""
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(OUTCOMES))
    new_path.write_text(json.dumps(new))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    before = sorted((ROOT / "perfbench").rglob("*"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "outcomes.py"), "--compare", str(old_path),
                           str(new_path)], capture_output=True, text=True, env=env, timeout=120)
    assert sorted((ROOT / "perfbench").rglob("*")) == before
    return done.returncode, json.loads(done.stdout)


def moved_state():
    new = copy.deepcopy(OUTCOMES)
    new["1"]["point_eval"][0][4][0][4] = "0x1.f69c42084efb9p-3"  # the warm value, one ulp up
    return new


def other_change():
    new = copy.deepcopy(OUTCOMES)
    new["1"]["convexity_scan"][0]["series"][1][0][1] = "at x+k=520.0"
    return new


def deep_moved():
    new = copy.deepcopy(OUTCOMES)
    new["deep"]["states"][0][5][0][4] = "0x1.f69c42084efb9p-3"  # the warm value, one ulp up
    return new


def test_identical_outcomes_exit_0(tmp_path):
    code, tally = compare(tmp_path, copy.deepcopy(OUTCOMES))
    assert code == 0
    assert tally and all(not entry["moved"] and not entry["other"] for entry in tally.values())


@pytest.mark.parametrize("new,path,field", [(moved_state, "point_eval/identity:0.0 tol=1e-12", "moved"),
                                           (other_change, "convexity_scan/series", "other"),
                                           (deep_moved, "deep/states", "moved")],
                         ids=["a float moved", "another value changed", "a deep state moved"])
def test_any_change_exits_1(tmp_path, new, path, field):
    code, tally = compare(tmp_path, new())
    assert code == 1
    assert [key for key, entry in tally.items() if entry["moved"] or entry["other"]] == [path]
    assert tally[path][field] == ({"1": 1} if field == "moved" else 1)
