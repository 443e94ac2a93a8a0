"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a wrong verdict is caught and counted, and that the command
fails cleanly where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _measure_injected(workload: str, tmp_path, inject) -> dict:
    cls = WORKLOADS[workload]
    wl = cls(3, 8, str(tmp_path)) if workload == "cli-calls" else cls(3, 8)
    inject(wl)
    return worker.measure(wl, 0.2)


def test_wrong_expected_cli_verdict_is_caught(tmp_path):
    def flip_expected_exit(wl):
        argv, expected = wl.instances[0].data
        wl.instances = [wl.instances[0]]
        wl.instances[0].data = (argv, 1 - expected if expected < 2 else 0)

    result = _measure_injected("cli-calls", tmp_path, flip_expected_exit)
    assert result["outcomes"]["wrong"] == result["verdicts"] >= 1
    assert result["messages"]


@pytest.mark.parametrize(
    "workload, name, lie",
    [
        ("ordinal-laws", "add", lambda fn: lambda a, b: fn(a, b).successor()),
        ("condition-sweep", "find_type", lambda fn: lambda p, q: (None, fn(p, q)[1])),
        ("ramsey-search", "homogenize", lambda fn: lambda F, sizes: (F.factors, 0)),
    ],
)
def test_wrong_library_answer_is_caught(workload, name, lie, tmp_path):
    def inject(wl):
        wl.api_functions = dict(wl.api_functions, **{name: lie(wl.api_functions[name])})

    result = _measure_injected(workload, tmp_path, inject)
    assert result["outcomes"]["wrong"] + result["outcomes"]["error"] >= 1


def test_a_failed_verdict_fails_the_command(capsys):
    result = {"verdicts": 4, "outcomes": {"ok": 3, "refused": 0, "wrong": 1, "error": 0},
              "messages": ["call #0: exit 0, expected 1"]}
    metrics = {"throughput": {"value": 1.0, "unit": "1/s"}}
    assert run.report("cli-calls", 3, result, metrics) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "ordinal-laws", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_exact_counts_repeat():
    counts = []
    for _ in range(2):
        wl = WORKLOADS["condition-sweep"](3, 12)
        traced = worker.trace("condition-sweep", wl, 3)["metrics"]
        counts.append({k: v for k, v in traced.items() if not k.endswith(("_s", "_ratio"))})
    assert counts[0] == counts[1] and counts[0]["ordinal.compare.calls"] > 0
