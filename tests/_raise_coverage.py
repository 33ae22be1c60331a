"""Every statement of the package that no test executes.

Run as `python tests/_raise_coverage.py [pytest arguments]` (default:
tests).  It runs pytest in-process under a line tracer limited to
src/deflator, re-armed before each test's call because some tests set
and clear a tracer of their own, then prints each statement that never
ran as path:line and exits 1 if there is one, or if a test fails.  A
statement counts as run when its first line ran.  Docstrings, which
compile to no code, and the body of an `if __name__ == "__main__":`
guard are not counted.  A statement that no input can reach is dead
code, to delete, not to exempt.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "deflator"
_ran, _ours = set(), {}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = pathlib.Path(name).resolve().parent == PACKAGE
    return _line if ours else None


class _Rearm:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_call)
        yield


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree) -> list[int]:
    """The line of each counted statement: every statement but a
    docstring and the body of an `if __name__ == "__main__":` guard."""
    guarded = {id(n) for node in ast.walk(tree) if _is_main_guard(node)
               for stmt in node.body for n in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in guarded and not _is_docstring(node)]


def unreached() -> list[str]:
    """path:line of every counted statement under PACKAGE that the
    tracer never saw."""
    ran = {(pathlib.Path(name).resolve(), line) for name, line in _ran
           if _ours.get(name)}
    return [f"{path.relative_to(PACKAGE.parents[1])}:{line}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(set(_statements(ast.parse(path.read_text()))))
            if (path, line) not in ran]


if __name__ == "__main__":
    sys.settrace(_call)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or ["tests"])],
                         plugins=[_Rearm()])
    sys.settrace(None)
    missed = unreached()
    print(*missed, f"{len(missed)} unreached statements", sep="\n")
    sys.exit(1 if missed or status != 0 else 0)
