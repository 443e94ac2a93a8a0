"""Smoke test of `tools/linecov.py`, the stdlib line-coverage report."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_linecov_on_one_ordinal_test():
    test = "tests/test_ordinal.py::test_add_section3_example"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[lines.index("tests run: 1") + 1].split() == ["passed", test]
    assert "wall-clock budgets fail under the trace hook: this run is not a Tier-1 result" in lines
    at = next(i for i, ln in enumerate(lines) if ln.startswith("executable lines"))
    ran, total = map(int, lines[at].split(": ")[1].split(" of "))
    rows = {name: (int(n), int(r)) for name, n, r, *_ in map(str.split, lines[at + 2:])}
    assert sorted(rows) == sorted(p.name for p in (ROOT / "src" / "ordbench").glob("*.py"))
    assert total == sum(n for n, _ in rows.values()) and ran == sum(r for _, r in rows.values())
    # The selection runs the ordinal kernel and never imports the CLI.
    assert 0 < rows["ordinal.py"][1] < rows["ordinal.py"][0]
    assert rows["cli.py"][1] == 0


def test_linecov_reports_a_file_edited_mid_run_against_the_lines_that_ran(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "tools" / "linecov.py")
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    src = tmp_path / "linecov_probe.py"
    src.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "linecov_probe", raising=False)
    cov = linecov.LineCoverage()
    cov.prefix = str(tmp_path) + os.sep
    tracers = sys.gettrace(), threading.gettrace()
    cov.start()
    try:
        import linecov_probe

        linecov_probe.f(1)
        # A line added above them moves every line of the file on disk.
        src.write_text("# a new first line\n" + src.read_text())
    finally:
        cov.stop()
        sys.settrace(tracers[0])
        threading.settrace(tracers[1])
    row = next(ln.split() for ln in cov.report() if ln.split()[:1] == ["linecov_probe.py"])
    # Lines 1-3 ran, line 4 (`return 2`) did not.
    assert row == ["linecov_probe.py", "4", "3", "4"]
