#!/usr/bin/env python3
"""Summarize paired benchmark runs of two checkouts into one BENCH_<n>.json.

Each checkout's ``perfbench/out/<workload>-seed<N>-trace0.json`` files are
read, keeping only runs whose ``seconds`` is the ``run_seconds`` of that
checkout's BENCHMARK.json (so short runs such as the test suite's are left
out); runs pair up by workload and seed. Per workload the file records, for
the parent and the change, the median and interquartile range of the four
end-to-end metrics, the failed share of the ops, how many pairs the change
won on each metric, and whether round 0 gave the same digest on both sides;
also the line count of each checkout's ``src/embedfem``. Traced runs
(``*-trace1.json``) pair up the same way, and each side's median of every
per-layer metric over its traced runs is recorded per workload.

    python3 scripts/bench_trajectory.py --parent ../parent --change . \\
        --suite parent 292 37.6 --suite change 313 33.0 --out BENCH_9.json

``--suite SIDE TESTS SECONDS`` records one side's tier-1 test count and time.
"""

import argparse
import json
from pathlib import Path

import numpy as np

METRICS = {"setup_s": "lower", "dofs_per_s": "higher",
           "small_op_p50_s": "lower", "peak_rss_mb": "lower"}


def load(checkout, trace):
    seconds = json.loads(Path(checkout, "BENCHMARK.json").read_text())[
        "run_seconds"]
    runs = {}
    for path in sorted(Path(checkout, "perfbench", "out").glob(
            f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        if record["seconds"] == seconds:
            runs[(record["workload"], record["seed"])] = record
    return runs


def src_lines(checkout):
    return sum(len(p.read_text().splitlines())
               for p in Path(checkout, "src", "embedfem").glob("*.py"))


def spread(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "iqr": float(q3 - q1)}


def paired(parent, change):
    """(workload, seeds) for every workload with runs of a seed on both sides."""
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if seeds:
            yield workload, seeds


def summarize(parent, change):
    out = {}
    for workload, seeds in paired(parent, change):
        a = [parent[(workload, s)] for s in seeds]
        b = [change[(workload, s)] for s in seeds]
        row = {"seeds": seeds, "metrics": {}}
        for name, better in METRICS.items():
            pa = [r["summary"][name] for r in a]
            pb = [r["summary"][name] for r in b]
            wins = sum((y < x) if better == "lower" else (y > x)
                       for x, y in zip(pa, pb))
            row["metrics"][name] = {"better": better, "parent": spread(pa),
                                    "change": spread(pb), "change_wins": wins}
        row["failed_share"] = {
            side: [r["summary"]["failed"] / r["summary"]["attempted"] for r in rs]
            for side, rs in (("parent", a), ("change", b))}
        row["round0_digests_equal"] = all(
            x["digest_round0"] == y["digest_round0"] for x, y in zip(a, b))
        row["checks_correct"] = all(r["correct"] for r in a + b)
        out[workload] = row
    return out


def layer_medians(parent, change):
    """Each side's median over its traced runs of every per-layer metric."""
    out = {}
    for workload, seeds in paired(parent, change):
        names = parent[(workload, seeds[0])]["layers"]
        out[workload] = {"seeds": seeds, "layers": {
            name: {side: float(np.median([runs[(workload, s)]["layers"][name]
                                          for s in seeds]))
                   for side, runs in (("parent", parent), ("change", change))}
            for name in names}}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--suite", nargs=3, action="append", default=[],
                        metavar=("SIDE", "TESTS", "SECONDS"))
    parser.add_argument("--note", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    record = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   "--seconds 30 --trace 0",
        "note": args.note,
        "workloads": summarize(load(args.parent, 0), load(args.change, 0)),
        "traced_command": "python3 perfbench/run.py --workload W --seed N "
                          "--seconds 30 --trace 1",
        "traced_layers": layer_medians(load(args.parent, 1),
                                       load(args.change, 1)),
        "src_embedfem_lines": {"parent": src_lines(args.parent),
                               "change": src_lines(args.change)},
        "tier1_suite": {side: {"tests": int(tests), "seconds": float(seconds)}
                        for side, tests, seconds in args.suite},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
