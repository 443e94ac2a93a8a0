"""Line coverage of `src/ordbench` under a pytest run, with the stdlib only.

    PYTHONPATH=src python3 tools/linecov.py [PYTEST_ARGS...]

Run from the root of the repository, as Tier-1 is.  It runs pytest in this
process under a `sys.settrace` hook that records the lines run in frames
whose code lies in `src/ordbench`; frames elsewhere are not traced line by
line.  It then prints
the tests it ran and, for each module, its executable lines, how many ran,
and the lines that never ran.  A module's executable lines are the lines
its code objects hold instructions on, docstrings left out, read from its
file when its code first runs, so a file edited during the run is reported
against the lines that ran.  Code run in a subprocess (the CLI subprocess
tests) is not seen.

The hook makes the run several times slower, so the wall-clock budgets of
the acceptance tests fail under it: the pass/fail counts of a traced run are
never a Tier-1 result.  The exit code is 0 once the report is printed, and
pytest's own code when it ran no test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "ordbench")


class LineCoverage:
    """A pytest plugin: the library lines run while it is started, and the
    outcome of each test."""

    def __init__(self):
        self.prefix = PKG + os.sep
        self.hits: dict[str, set[int]] = {}
        # Each traced module's executable lines, read when its code first ran.
        self.lines: dict[str, set[int]] = {}
        self.outcomes: dict[str, str] = {}

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        lines = self.hits.get(path)
        if lines is None:
            self.lines[path] = executable_lines(path)
            lines = self.hits[path] = set()

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes.setdefault(report.nodeid, report.outcome)

    def report(self) -> list[str]:
        out = [f"tests run: {len(self.outcomes)}"]
        out += [f"  {outcome:7} {nodeid}" for nodeid, outcome in self.outcomes.items()]
        out.append("wall-clock budgets fail under the trace hook: "
                   "this run is not a Tier-1 result")
        total = ran = 0
        rows = []
        for name in sorted(os.listdir(self.prefix)):
            if not name.endswith(".py"):
                continue
            path = self.prefix + name
            lines = sorted(self.lines[path] if path in self.lines else executable_lines(path))
            missed = [n for n in lines if n not in self.hits.get(path, ())]
            total += len(lines)
            ran += len(lines) - len(missed)
            rows.append(f"  {name:15} {len(lines):5} {len(lines) - len(missed):5}  "
                        f"{_ranges(missed, lines)}")
        out.append(f"executable lines of src/ordbench run: {ran} of {total}")
        out.append(f"  {'module':15} {'lines':>5} {'ran':>5}  never run")
        return out + rows


def executable_lines(path: str) -> set[int]:
    """The lines the module's code objects hold instructions on, docstrings
    left out (line 0, the module's entry, has no line event)."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    docs: set[int] = set()
    for n in ast.walk(tree):
        scoped = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(n, scoped) and ast.get_docstring(n, clean=False) is not None:
            docs.update(range(n.body[0].lineno, n.body[0].end_lineno + 1))
    lines: set[int] = set()
    codes = [compile(tree, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines - docs


def _ranges(missed: list[int], lines: list[int]) -> str:
    """The missed lines as runs `a-b` of consecutive executable lines."""
    position = {n: i for i, n in enumerate(lines)}
    runs: list[list[int]] = []
    for n in missed:
        if runs and position[n] == position[runs[-1][-1]] + 1:
            runs[-1][-1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    cov = LineCoverage()
    cov.start()
    try:
        code = pytest.main(argv, plugins=[cov])
    finally:
        cov.stop()
    if not cov.outcomes:
        return int(code) or 1
    print("\n".join(cov.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
