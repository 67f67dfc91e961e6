"""Count the lines of ``src/dfslink`` by one rule, the line budget's.

Each line of a module is exactly one of:

* docstring: inside the AST span of a module, class or function docstring;
* comment: its first non-blank character is ``#``;
* blank: empty or whitespace only, outside docstrings;
* code: every other line.

Run from the repository root::

    python tests/src_lines.py

It prints the four counts of each module and their totals, as
``lines = docstring + comment + blank + code``.  pytest does not collect this
file; ``tests/test_src_lines.py`` pins its counts on a small synthetic
module and checks that the four parts sum to each module's length.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfslink"
KINDS = ("docstring", "comment", "blank", "code")


def _docstring_lines(tree: ast.AST) -> set:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """The docstring, comment, blank and code line counts of ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        elif not stripped:
            kind = "blank"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> int:
    totals = dict.fromkeys(KINDS, 0)
    rows = []
    for path in sorted(SRC.glob("*.py")):
        counts = count_lines(path.read_text())
        rows.append((path.name, counts))
        for kind in KINDS:
            totals[kind] += counts[kind]
    rows.append(("total", totals))
    for name, counts in rows:
        parts = " + ".join(f"{counts[k]} {k}" for k in KINDS)
        print(f"{name:16} {sum(counts.values()):5} = {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
