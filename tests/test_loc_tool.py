"""``tools/loc.py``: lines of code are the lines that are not blank, not a comment alone and
not inside a module, class or function docstring."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code is code

# a comment alone


class Box:
    """One line."""

    size = 2


def area(r):
    """A function docstring

    with a blank line in it.
    """
    text = """a string that is no docstring:
    its lines are code"""
    return math.pi * r * r, text
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows == [["empty.py", "0", "0"], ["mod.py", "22", "7"], ["total", "22", "7"]]
