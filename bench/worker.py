"""One workload in one fresh process: set up, then measure or trace.

    python3 bench/worker.py {setup|measure|trace} <workload> <seed> <seconds>

prints one JSON object on its last line. `setup` only sets up and reports
`setup_s`; `measure` runs checked verdicts untraced for `seconds`; `trace`
runs the first `trace_instances` of the pool untraced and then again under
cProfile with a span around every library call, and reports the per-layer
metrics. Run from the root of the repository, with `src/` holding the
`ordbench` package.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, BENCH]

from speed import Speed  # noqa: E402
from workloads import WORKLOADS, Api, Wrong  # noqa: E402

# The latency percentile reported as the tail, the same on every workload
# and every commit. Higher percentiles of a seeded pool are set by a handful
# of instances, or by the machine's hiccups on the uniform ordinal batches;
# at p90 every workload has more than ten verdicts beyond it in a 15-second
# run.
TAIL_PERCENTILE = 90.0


def pool_size(workload: str, seconds: float) -> int:
    return math.ceil(WORKLOADS[workload].per_second * seconds)


def setup(workload: str, seed: int, size: int, workdir: str):
    """Import the layers and generate the inputs.

    Returns (workload, seconds, seconds at the reference speed)."""
    cls = WORKLOADS[workload]
    speed = Speed()
    speed.sample(5)
    start = time.perf_counter()
    wl = cls(seed, size, workdir) if workload == "cli-calls" else cls(seed, size)
    end = time.perf_counter()
    speed.sample(5)
    # The pool is held for the whole run, which a user's sweep would not
    # do; keep the collector from re-scanning it during the timed loop.
    gc.collect()
    gc.freeze()
    return wl, end - start, (end - start) * speed.scale(start, end)


class Tally:
    """Verdict outcomes and the first few failure messages."""

    def __init__(self):
        self.counts = {"ok": 0, "refused": 0, "wrong": 0, "error": 0}
        self.messages: list[str] = []

    def add(self, outcome: str, message: str | None):
        self.counts[outcome] += 1
        if message and len(self.messages) < 5:
            self.messages.append(message)

    def result(self) -> dict:
        return {
            "verdicts": sum(self.counts.values()),
            "outcomes": self.counts,
            "messages": self.messages,
        }


def verdict(wl, inst, call) -> tuple[str, str | None]:
    """Run one checked verdict; returns (outcome, message)."""
    try:
        return call(inst), None
    except Wrong as err:
        return "wrong", f"{inst.kind} #{inst.id}: {err}"
    except wl.refusals:
        return "refused", None
    except Exception:  # an unexpected exception is a failed verdict
        return "error", f"{inst.kind} #{inst.id}: {traceback.format_exc(limit=3)}"


def percentile(durations: list[float], pct: float) -> tuple[float, int]:
    """(nearest-rank percentile, number of samples beyond it)."""
    ordered = sorted(durations)
    rank = max(0, math.ceil(len(ordered) * pct / 100.0) - 1)
    return ordered[rank], len(ordered) - rank - 1


def measure(wl, seconds: float) -> dict:
    """Checked verdicts in a closed loop, cycling the pool, for `seconds`."""
    api = Api(wl.api_functions)
    call = lambda inst: wl.check(inst, api)  # noqa: E731
    spans: list[tuple[float, float]] = []
    tally = Tally()
    speed = Speed()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while True:
        if speed.due(clock()):
            speed.sample()
        inst = wl.instances[i % len(wl.instances)]
        i += 1
        start = clock()
        outcome = verdict(wl, inst, call)
        end = clock()
        spans.append((start, end))
        tally.add(*outcome)
        if end >= deadline:
            break
    speed.sample()
    raw = [end - start for start, end in spans]
    durations = [(end - start) * speed.scale(start, end) for start, end in spans]
    tail_s, beyond = percentile(durations, TAIL_PERCENTILE)
    return {
        **tally.result(),
        "throughput": len(durations) / sum(durations),
        "latency_p50_ms": statistics.median(durations) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_beyond": beyond,
        "raw": {
            "throughput": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, TAIL_PERCENTILE)[0] * 1e3,
        },
        # For the CLI workload the process that matters is the CLI call.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN if wl.spawns else resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }


def timed_pass(wl, instances, call, tally: Tally) -> tuple[float, list[float]]:
    """(wall seconds, per-verdict seconds) of one untraced pass."""
    durations = []
    clock = time.perf_counter
    start = clock()
    for inst in instances:
        t = clock()
        outcome = verdict(wl, inst, call)
        durations.append(clock() - t)
        tally.add(*outcome)
    return clock() - start, durations


def _fresh_seconds(argv: list[str], repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter running `argv`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv], check=True, env=env, capture_output=True, timeout=60
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fresh_import_seconds(module: str, repeats: int = 5) -> float:
    """Median in-process time of `import module` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True, env=env, capture_output=True, text=True, timeout=60,
        ).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def trace(workload: str, wl, seed: int) -> dict:
    """Per-layer metrics of a fixed prefix of the pool, run untraced and then
    traced; the CLI workload is dispatched in-process through `main()`."""
    import layers

    instances = wl.instances[: wl.trace_instances]
    tracer = layers.Tracer()
    if workload == "cli-calls":
        from ordbench.cli import main

        main_traced = tracer.wrap("cli.main", main)
        plain = lambda inst: wl.dispatch(inst, main)  # noqa: E731
        traced = lambda inst: wl.dispatch(inst, main_traced)  # noqa: E731
    else:
        api, api_traced = Api(wl.api_functions), Api(wl.api_functions, tracer.wrap)
        plain = lambda inst: wl.check(inst, api)  # noqa: E731
        traced = lambda inst: wl.check(inst, api_traced)  # noqa: E731

    tally = Tally()
    untraced_s, _ = timed_pass(wl, instances, plain, tally)
    wl.certificates = 0
    traced_s, entries = tracer.run(instances, lambda inst: tally.add(*verdict(wl, inst, traced)))

    metrics = layers.per_layer(entries, wl.certificates)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    cli = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.dispatch_s": 0.0}
    if workload == "cli-calls":
        # At the reference speed, like latency_p50_ms, which they split.
        speed = Speed()
        speed.sample(5)
        start = time.perf_counter()
        cli["cli.interpreter_s"] = _fresh_seconds(["-c", "pass"])
        cli["cli.import_s"] = _fresh_import_seconds("ordbench.cli")
        cli["cli.dispatch_s"] = statistics.median(timed_pass(wl, instances, plain, tally)[1])
        speed.sample(5)
        scale = speed.scale(start, time.perf_counter())
        cli = {name: value * scale for name, value in cli.items()}
    metrics.update(cli)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
    return {**tally.result(), "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl, raw_setup_s, setup_s = setup(workload, seed, pool_size(workload, seconds), workdir)
        result: dict = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
        if mode == "measure":
            result.update(measure(wl, seconds))
        elif mode == "trace":
            result.update(trace(workload, wl, seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
