"""List every statement of a ``src/dfslink`` function that tier-1 never runs.

The tier-1 suite runs in this process under a ``sys.settrace`` line trace of
the ``src/dfslink`` modules.  Then each module's AST gives the statements
inside its functions, which are all the statements of a function body,
nested ones included, except docstrings.  A statement ran if any line of its
span ran, so a compound statement ran once it was entered, and a statement
in a branch that no test takes is listed on its own.

Run from the repository root::

    python tests/src_statements.py [pytest arguments...]

It prints each statement that never ran as ``path:line: source`` and a
summary.  It exits with pytest's status if a test fails, else 1 if any
statement never ran, else 0.  pytest does not collect this file;
``tests/test_src_statements.py`` pins its statement lister on a small
synthetic module.
"""

import ast
import collections
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dfslink"


def function_statements(source: str) -> list:
    """The (first, last) line spans of every statement inside a function of
    ``source``, docstrings excluded, in line order."""
    spans = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        for top in body:
            spans.update((node.lineno, node.end_lineno) for node in ast.walk(top)
                         if isinstance(node, ast.stmt))
    return sorted(spans)


def unrun(source: str, ran: set) -> list:
    """The first lines of the statements of :func:`function_statements`
    none of whose lines is in ``ran``."""
    return [first for first, last in function_statements(source)
            if ran.isdisjoint(range(first, last + 1))]


def _line_tracer(files: set, ran: dict):
    """A ``sys.settrace`` function that adds each line run in ``files`` to
    ``ran[filename]`` and leaves every other frame untraced."""
    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return start


def main(argv: list) -> int:
    paths = sorted(SRC.glob("*.py"))
    ran = collections.defaultdict(set)
    tracer = _line_tracer({str(p) for p in paths}, ran)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        total += len(function_statements(source))
        for first in unrun(source, ran[str(path)]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements in src/dfslink functions never ran")
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
