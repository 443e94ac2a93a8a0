"""Smoke test of `tools/linecov.py`, the stdlib line-coverage report."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

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
