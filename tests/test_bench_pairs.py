"""`tools/bench_pairs.py summarize` on hand-made pairs."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_gives_quartiles_wins_and_attempted_per_side():
    pairs = [
        {"seed": 1, "parent": {"attempted": 100, "throughput": 10.0, "peak_rss_mb": 20.0},
         "change": {"attempted": 140, "throughput": 14.0, "peak_rss_mb": 21.0}},
        {"seed": 2, "parent": {"attempted": 120, "throughput": 12.0, "peak_rss_mb": 22.0},
         "change": {"attempted": 160, "throughput": 11.0, "peak_rss_mb": 21.0}},
    ]
    metrics = [{"name": "throughput", "better": "higher"},
               {"name": "peak_rss_mb", "better": "lower"}]
    got = bench_pairs.summarize(pairs, metrics)
    assert set(got) == {"throughput", "peak_rss_mb"}
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
