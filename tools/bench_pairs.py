"""Alternating parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N --pr P [--claim METRIC]

The parent tree is `git archive REV`; the change tree is a copy of the
working tree's `src/`, `bench/` and `BENCHMARK.json`.  Each goes into a fresh
temporary directory.  Pair k (k = 1..N) runs

    bench/run.py --workload W --seed k --seconds S --trace 0

once in each tree, each run a fresh process, the parent first when k is odd.
S is `run_seconds` from the parent's `BENCHMARK.json`.  The pairs and, for
each end-to-end metric, both sides' medians and quartiles (next to those of
the verdicts each side attempted), the number of pairs the change wins and
the metric's outcome against its bound (`gain`, `regressed`, `unresolved`
or `held`, by `verdict`) go into `BENCH_<P>.json` at the root of the
repository as one run appended to the list `workloads[W]`, so each run of
a workload is kept, newest last.  Other workloads already in that file are
kept; `--claim` names the metric the change claims on W.  Run it with
nothing else running.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def build_trees(rev: str, into: str) -> dict[str, str]:
    """The parent tree from git and the change tree from the working tree."""
    parent, change = os.path.join(into, "parent"), os.path.join(into, "change")
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(parent)
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(change, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), change)
    return {"parent": parent, "change": change}


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def run_once(tree: str, workload: str, seed: int, seconds: int, metrics: list[str]) -> dict:
    """One fresh benchmark process: its counts and end-to-end metrics."""
    # The tree's own src/ must be the package the run imports.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: no result line (exit {proc.returncode}):\n{proc.stderr}")
    out = {"attempted": doc["attempted"], "failed": doc["failed"], "correct": doc["correct"]}
    out.update((name, doc["metrics"][name]["value"]) for name in metrics)
    return out


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, bound: float, claimed: bool, beats_every_run: bool) -> str:
    """`gain` when the metric is claimed, the change wins at least 9 of every
    10 pairs and the medians differ by more than the parent's quartile
    spread; else `regressed` when the change's median is worse than the
    parent's by more than `bound` (a fraction of the parent's median); else
    `unresolved` when the parent's own spread is wider than that bound,
    unless every run of the change beats every run of the parent; else
    `held`."""
    parent = row["parent"]["median"]
    gained = (1 if row["better"] == "higher" else -1) * (row["change"]["median"] - parent)
    spread = row["parent_quartile_spread"]
    if claimed and 10 * row["change_wins"] >= 9 * row["pairs"] and gained > spread:
        return "gain"
    if -gained > bound * abs(parent):
        return "regressed"
    if spread > bound * abs(parent) and not beats_every_run:
        return "unresolved"
    return "held"


def summarize(pairs: list[dict], metrics: list[dict], claim: str | None) -> dict:
    """Per metric: each side's median and quartiles, with those of the
    verdicts it attempted (a side that completes more verdicts keeps more
    of them in memory), the change's wins and the `verdict` against the
    metric's `bound`; `claim` names the metric the change claims, if any."""
    attempted = {side: quartiles([p[side]["attempted"] for p in pairs]) for side in SIDES}
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        row: dict = {"better": better}
        for side in SIDES:
            row[side] = {**quartiles(values[side]), "attempted": attempted[side]}
        row["change_over_parent"] = row["change"]["median"] / row["parent"]["median"]
        row["parent_quartile_spread"] = row["parent"]["q3"] - row["parent"]["q1"]
        sign = 1 if better == "higher" else -1
        row["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
        row["pairs"] = len(pairs)
        beats_every_run = all(sign * (c - p) > 0 for c in values["change"]
                              for p in values["parent"])
        row["verdict"] = verdict(row, metric["bound"], name == claim, beats_every_run)
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--claim", help="the end-to-end metric the change claims on --workload")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    parent_rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                                cwd=ROOT, check=True, capture_output=True,
                                text=True).stdout.strip()
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("parent") != parent_rev:
            raise SystemExit(f"{path} was measured against parent {doc.get('parent')}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = build_trees(parent_rev, tmp)
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        metrics = bench["end_to_end"]
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            parser.error(f"no workload {args.workload!r} in BENCHMARK.json")
        if args.claim and args.claim not in {m["name"] for m in metrics}:
            parser.error(f"no end-to-end metric {args.claim!r} in BENCHMARK.json")
        seconds = bench["run_seconds"]
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds,
                                      [m["name"] for m in metrics])
                print(f"{args.workload} seed {seed} {side}: {json.dumps(pair[side])}",
                      file=sys.stderr)
            pairs.append(pair)

    doc.update(
        pr=args.pr,
        command=f"python3 bench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        method=(
            "alternating parent/change pairs, each run a fresh process; the parent tree is "
            "`git archive` of the parent commit, the change tree a copy of src/, bench/ and "
            "BENCHMARK.json of the change; pair k uses --seed k and runs the parent first when "
            "k is odd; quartiles are statistics.quantiles(n=4, method='inclusive'); "
            "change_wins counts pairs where the change is strictly better; speed-scaled values "
            "as bench/run.py reports them; made by tools/bench_pairs.py"
        ),
        parent=parent_rev,
        machine={
            "cpu": cpu_name(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    )
    if args.claim:
        doc["claim"] = {"workload": args.workload, "metric": args.claim}
    doc.setdefault("workloads", {}).setdefault(args.workload, []).append({
        "pairs": pairs,
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "summary": summarize(pairs, metrics, args.claim),
    })
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: {args.workload}, {len(pairs)} pairs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
