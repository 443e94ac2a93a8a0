"""`tools/bench_pairs.py summarize` on hand-made pairs."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_gives_quartiles_wins_and_attempted_per_side():
    pairs = [
        {"seed": 1, "parent": {"attempted": 100, "throughput": 10.0, "peak_rss_mb": 20.0,
                               "latency_p50_ms": 10.0, "latency_tail_ms": 10.0, "setup_s": 10.0},
         "change": {"attempted": 140, "throughput": 14.0, "peak_rss_mb": 21.0,
                    "latency_p50_ms": 13.0, "latency_tail_ms": 15.0, "setup_s": 5.0}},
        {"seed": 2, "parent": {"attempted": 120, "throughput": 12.0, "peak_rss_mb": 22.0,
                               "latency_p50_ms": 10.2, "latency_tail_ms": 20.0, "setup_s": 20.0},
         "change": {"attempted": 160, "throughput": 11.0, "peak_rss_mb": 21.0,
                    "latency_p50_ms": 13.4, "latency_tail_ms": 16.0, "setup_s": 6.0}},
    ]
    metrics = [{"name": "throughput", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
               {"name": "latency_tail_ms", "better": "lower", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    got = bench_pairs.summarize(pairs, metrics, "throughput")
    assert set(got) == {m["name"] for m in metrics}
    tp, rss = got["throughput"], got["peak_rss_mb"]
    assert tp["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5,
                            "attempted": {"median": 110, "q1": 105, "q3": 115}}
    assert tp["change"]["median"] == 12.5 and tp["change"]["q1"] == 11.75
    assert tp["change"]["attempted"] == {"median": 150, "q1": 145, "q3": 155}
    assert rss["change"]["attempted"] == tp["change"]["attempted"]
    assert tp["change_over_parent"] == pytest.approx(12.5 / 11.0)
    assert tp["parent_quartile_spread"] == pytest.approx(1.0)
    # Pair 1 is won on throughput and lost on memory; pair 2 the other way.
    assert (tp["change_wins"], rss["change_wins"], tp["pairs"]) == (1, 1, 2)
    assert tp["better"] == "higher" and rss["better"] == "lower"
    # Claimed, but won in 1 of 2 pairs: no gain, and no worse than the bound.
    assert {name: row["verdict"] for name, row in got.items()} == {
        "throughput": "held",
        "peak_rss_mb": "held",
        # 13.2 ms against 10.1 ms, 31% worse with a bound of 25%.
        "latency_p50_ms": "regressed",
        # The parent's runs spread by 5 ms around 15 ms, more than 25%.
        "latency_tail_ms": "unresolved",
        # As wide, but every run of the change beats every run of the parent.
        "setup_s": "held",
    }
    # Won in every pair by more than the parent's spread: a gain, if claimed.
    assert bench_pairs.summarize(pairs, metrics, "setup_s")["setup_s"]["verdict"] == "gain"
    assert bench_pairs.summarize(pairs, metrics, None)["setup_s"]["verdict"] == "held"


def test_a_second_run_of_a_workload_keeps_the_first(tmp_path, monkeypatch):
    """Each run of a workload is appended to `workloads[W]`, newest last,
    beside the runs of other workloads."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "parent"], cwd=tmp_path,
                   check=True)
    spec = {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "throughput", "better": "higher", "bound": 0.25}]}

    def build_trees(rev, into):
        trees = {side: os.path.join(into, side) for side in bench_pairs.SIDES}
        for tree in trees.values():
            os.makedirs(tree)
            with open(os.path.join(tree, "BENCHMARK.json"), "w") as fh:
                json.dump(spec, fh)
        return trees

    runs = iter(range(100))

    def run_once(tree, workload, seed, seconds, metrics):
        return {"attempted": 1, "failed": 0, "correct": 1, "throughput": float(next(runs))}

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "build_trees", build_trees)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for workload in ("a", "b", "a"):
        assert bench_pairs.main(["--parent", "HEAD", "--workload", workload,
                                 "--pairs", "2", "--pr", "7"]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    first, second = doc["workloads"]["a"]
    assert [p["parent"]["throughput"] for p in first["pairs"]] == [0.0, 3.0]
    assert [p["change"]["throughput"] for p in second["pairs"]] == [9.0, 10.0]
    assert len(doc["workloads"]["b"]) == 1
