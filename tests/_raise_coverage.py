"""Every `raise` statement of the package that no test executes.

Run as `python tests/_raise_coverage.py [pytest arguments]` (default:
tests).  It runs pytest in-process under a line tracer limited to
src/deflator, re-armed before each test's call because some tests set
and clear a tracer of their own, then prints each raise statement that
never ran as path:line and exits 1 if there is one, or if a test fails.
A raise that no input can reach is dead code, to delete, not to exempt.
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


def unreached() -> list[str]:
    """path:line of every raise under PACKAGE that the tracer never saw."""
    ran = {(pathlib.Path(name).resolve(), line) for name, line in _ran
           if _ours.get(name)}
    return [f"{path.relative_to(PACKAGE.parents[1])}:{line}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                               if isinstance(node, ast.Raise))
            if (path, line) not in ran]


if __name__ == "__main__":
    sys.settrace(_call)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or ["tests"])],
                         plugins=[_Rearm()])
    sys.settrace(None)
    missed = unreached()
    print(*missed, f"{len(missed)} unreached raise statements", sep="\n")
    sys.exit(1 if missed or status != 0 else 0)
