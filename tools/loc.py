"""Print each module's total lines and lines of code: the lines that are not blank, not a
comment alone and not part of a docstring (module, class or function, found through ``ast``).

    python tools/loc.py            # the modules of src/logconvex
    python tools/loc.py DIR        # the modules of DIR
"""

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """The lines of ``source`` that are not blank, a comment alone, or inside a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "logconvex"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        lines, loc = len(text.splitlines()), code_lines(text)
        total, code = total + lines, code + loc
        print(f"{path.name:20} {lines:6} {loc:6}")
    print(f"{'total':20} {total:6} {code:6}")


if __name__ == "__main__":
    main(sys.argv[1:])
