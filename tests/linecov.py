"""Line coverage of ``src/matzeta`` under the test suite, on the standard
library alone.

Run from the repository root, with any pytest arguments:

    python tests/linecov.py [pytest arguments]

It runs pytest in this process under ``sys.settrace``, traces only code
under ``src/matzeta``, and prints every statement the run never executed as
``path:line: source``, docstrings aside.  A compound statement (``if``,
``for``, ``def``, ...) counts as run when its header ran; ``try`` and
``global`` statements have no code of their own and are not listed.  A frame
stops being traced once every line of its code object has run, so hot loops
cost little.  Other threads and worker processes (``--jobs``) are not
traced.  The exit status is pytest's.  The name does not start with
``test_``, so pytest does not collect this file.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matzeta"

_left: dict = {}  # code object -> its lines not yet run, or None outside the package
_ran: dict[str, set[int]] = {}  # absolute path -> the lines that ran


def _local(frame, event, arg):
    if event == "line":
        left = _left[frame.f_code]
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
        left.discard(frame.f_lineno)
        if not left:
            return None  # stops tracing this frame
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code not in _left:
        path = os.path.abspath(code.co_filename)
        inside = path.startswith(str(PACKAGE) + os.sep)
        _left[code] = {ln for _, _, ln in code.co_lines() if ln} if inside else None
        if inside:
            _ran.setdefault(code.co_filename, set())
            _left[code].discard(code.co_firstlineno)  # the def line runs before any trace
    return _local if _left[code] else None


def _docstrings(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    out.add(id(first))
    return out


def _statements(tree: ast.AST):
    """(first line, the lines whose running marks it run) per statement."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, set(range(first, max(first, last) + 1))


def missed() -> list[tuple[Path, int, str]]:
    """Every statement under ``src/matzeta`` that no traced line reached."""
    ran = {os.path.abspath(path): lines for path, lines in _ran.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for line, marks in sorted(_statements(ast.parse(source))):
            if not marks & hit:
                out.append((path, line, lines[line - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    sys.settrace(_global)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    gaps = missed()
    for path, line, text in gaps:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(gaps)} statements under src/matzeta never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
