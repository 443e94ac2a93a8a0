"""The ordbench benchmark: one command, one workload, every metric checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. With `--trace 0` it reports the
end-to-end metrics of the workload, measured untraced: checked verdicts
per second, median and tail latency per verdict, peak RSS, and set-up time
(the median of three fresh processes). With `--trace 1` it reports the
per-layer metrics of a separate traced run. Every verdict is checked; the
last line of standard output is one JSON object, and the exit code is 0
only when every verdict was right.

Each workload runs in its own fresh child process, one at a time, so
caches, set-up time and memory belong to that workload alone.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(ROOT, "src", "ordbench")
SETUP_REPEATS = 3
BUDGET_S = 170  # the whole command ends within this, or fails

END_TO_END_UNITS = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def child(mode: str, workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Run one worker process and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workload, str(seed), str(seconds)]
    # Its own process group, so that a timeout also ends the CLI calls it runs.
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker for {workload} failed:\n{stderr.strip()}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """(summary, metrics) for one workload."""
    deadline = time.monotonic() + BUDGET_S
    if traced:
        result = child("trace", workload, seed, seconds, deadline)
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["metrics"].items()
        }
        return result, metrics
    setups = [
        child("setup", workload, seed, seconds, deadline) for _ in range(SETUP_REPEATS - 1)
    ]
    result = child("measure", workload, seed, seconds, deadline)
    setups.append(dict(result))
    for key in ("setup_s", "raw_setup_s"):
        result[key] = statistics.median(s[key] for s in setups)
    result["raw"]["setup_s"] = result["raw_setup_s"]
    metrics = {
        name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no ordbench package under {os.path.dirname(PACKAGE)}", file=sys.stderr)
        return 2
    compileall.compile_dir(PACKAGE, quiet=1)
    try:
        result, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return report(args.workload, args.seed, result, metrics)


def report(workload: str, seed: int, result: dict, metrics: dict) -> int:
    """Print the summary and the result line; 0 only if no verdict failed."""
    outcomes = result["outcomes"]
    attempted = result["verdicts"]
    failed = outcomes["wrong"] + outcomes["error"]
    print(
        f"{workload} seed {seed}: {attempted} verdicts, "
        f"{outcomes['ok']} ok, {outcomes['refused']} refused, {failed} failed "
        f"(failed_share {failed / attempted:.4f})"
    )
    if "tail_percentile" in result:
        beyond = result["tail_beyond"]
        print(
            f"latency_tail_ms is p{result['tail_percentile']:g} of {attempted} verdicts, "
            f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10: a rough tail)")
        )
    for message in result["messages"]:
        print(f"FAILED: {message}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result.get("raw", {}).items():
        print(f"  wall-clock {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
