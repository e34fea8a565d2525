"""An opt-in pytest plugin that lists every statement of `src/mlidl` that no
test runs, without the `coverage` package:

    PYTHONPATH=src:tests python -m pytest -q -p unrun_lines

A `sys.settrace` tracer, armed when the plugin loads and again before each
test, records the lines run in `src/mlidl` frames, in every thread. At the
end the plugin lists each statement (or `except` clause) that has code and
whose head ran on no line.

- Hypothesis's explain phase switches a tracer off when it is done, so the
  plugin loads a profile without `Phase.explain`, and re-arms the tracer
  in `pytest_runtest_call`.
- The trace function is a module-level function: one that referred to
  itself would leave a cycle in every traced frame, and the tests that
  require nothing for the cycle collector would fail.
- A test that ends in `RecursionError` raises inside the trace function,
  and Python then switches tracing off for the rest of that test; what it
  runs after that shows as unrun. Code run in a subprocess is not seen.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import Phase, settings

SRC = Path(__file__).resolve().parents[1] / "src" / "mlidl"

_ran: set[tuple[str, int]] = set()
_mine: dict[str, str | None] = {}


def _owner(filename: str) -> str | None:
    path = os.path.realpath(filename)
    return path if path.startswith(str(SRC) + os.sep) else None


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        path = _mine[filename]
    except KeyError:
        path = _mine[filename] = _owner(filename)
    if path is None:
        return None
    _ran.add((path, frame.f_lineno))
    return _trace


def _arm() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


settings.register_profile("unrun_lines",
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("unrun_lines")
_arm()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _arm()
    yield


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _heads(tree: ast.AST):
    """Each statement and `except` clause with the lines of its head: from
    its first decorator or its own line to the line before its first
    nested statement, or to its last line if it nests none."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        inner = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
                 for child in getattr(node, field, ())]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = min(inner) - 1 if inner else node.end_lineno
        yield node, range(first, max(last, node.lineno) + 1)


def unrun_statements() -> list[tuple[Path, int, str]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        has_code = _code_lines(compile(text, str(path), "exec"))
        source = text.splitlines()
        key = os.path.realpath(path)
        for node, head in _heads(ast.parse(text)):
            if has_code.isdisjoint(head):
                continue
            if not any((key, line) in _ran for line in head):
                found.append((path, node.lineno, source[node.lineno - 1].strip()))
    return sorted(found)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    unrun = unrun_statements()
    terminalreporter.section(f"unrun statements of src/mlidl: {len(unrun)}")
    for path, line, text in unrun:
        terminalreporter.write_line(f"{path.relative_to(SRC.parent)}:{line}: {text}")
