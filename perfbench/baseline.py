#!/usr/bin/env python3
"""Record the benchmark's environment and baseline into perfbench/baseline.json.

    python3 perfbench/baseline.py

Runs two sets of untraced runs, one after the other, each of every workload
on every seed in SEEDS, for BENCHMARK.json's run_seconds. For each pairing
of result-line metric and workload it records the spread of each set (IQR
over median), how far the second set's median is from the first's in the
worse direction, and whether both stay within the metric's bound; the
pairings that do not are listed as unresolved. Then, for each seed in
TRACED_SEEDS, it runs the workload untraced and traced back to back,
alternating which goes first, and records the tracing overhead as the median
of the per-seed throughput ratios, so that each ratio compares runs that met
the machine in the same state. The record also keeps the failure classes
with their first message, the check verdicts, the round-0 digests and the
traced per-layer table. Takes about an hour.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2, 3)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
E2E_KEYS = ("setup_s", "dofs_per_s", "op_p50_s", "op_tail", "small_ops",
            "small_op_p50_s", "fail_ratio", "crash_ratio", "peak_rss_mb",
            "attempted", "failed")


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": 1,
        "solver_threads": 1,
        "thread_variables": {var: "1" for var in run.THREAD_VARS},
    }


def strict(obj):
    """``obj`` with infinite floats as the text "inf" (JSON has no infinity)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    return obj


def spread(values):
    """Median, quartiles and IQR over median, by statistics.quantiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median}


def worsening(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_one(workload, seed, trace):
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS),
                    "--trace", str(trace)],
                   cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((run.OUT / f"{stem}.json").read_text())


def run_row(r):
    return {"seed": r["seed"], "correct": r["correct"],
            "window_s": r["window_s"], "digest_round0": r["digest_round0"],
            **{k: r["summary"][k] for k in E2E_KEYS},
            "per_mesh": r["per_mesh"]}


def agreement(sets):
    """Per result-line metric: each set's spread, the second median against
    the first, and whether the pairing stays within its bound."""
    out = {}
    for name, _, better, bound in run.END_TO_END:
        spreads = [spread([r["summary"][name] for r in runs]) for runs in sets]
        worse = worsening(spreads[0]["median"], spreads[1]["median"], better)
        # setup_s is held to its bound only between medians, not in spread
        spread_ok = name == "setup_s" or all(
            s["iqr_over_median"] <= bound for s in spreads)
        out[name] = {"bound": bound, "spreads": spreads,
                     "second_worse_by": worse,
                     "within_bound": spread_ok and worse <= bound}
    return out


def traced_pairs(workload):
    """Untraced and traced runs of each traced seed, back to back."""
    pairs = []
    for i, seed in enumerate(TRACED_SEEDS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        done = {trace: run_one(workload, seed, trace) for trace in order}
        pairs.append((order[0], done[0], done[1]))
    return pairs


def main():
    sets = [{w: [run_one(w, s, 0) for s in SEEDS] for w in WORKLOADS}
            for _ in range(2)]
    doc = {
        "environment": environment(),
        "run_seconds": SECONDS,
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "per_layer_moves": {name: moves
                            for name, _, _, moves in tracing.LAYER_METRICS},
        "workloads": {},
        "unresolved": [],
    }
    for workload in WORKLOADS:
        plain = [runs[workload] for runs in sets]
        pairs = traced_pairs(workload)
        traced = [t for _, _, t in pairs]
        ratios = [u["summary"]["dofs_per_s"] / t["summary"]["dofs_per_s"]
                  for _, u, t in pairs]
        agree = agreement(plain)
        # every run of a seed, traced or not, must give the same digest
        digests = {}
        for r in (*plain[0], *plain[1], *(r for p in pairs for r in p[1:])):
            digests.setdefault(r["seed"], set()).add(r["digest_round0"])
        doc["unresolved"] += [f"{workload} {name}"
                              for name, a in agree.items()
                              if not a["within_bound"]]
        doc["workloads"][workload] = {
            "meshes": plain[0][0]["meshes"],
            "sets": [[run_row(r) for r in runs] for runs in plain],
            "agreement": agree,
            "failures": plain[0][0]["failures"],
            "checks": plain[0][0]["checks"],
            "all_correct": all(r["correct"] for runs in plain for r in runs)
            and all(t["correct"] for t in traced),
            "digests_match": all(len(d) == 1 for d in digests.values()),
            "tracing_overhead": {
                "pairs": [{"seed": u["seed"],
                           "first": "traced" if first else "untraced",
                           "untraced_dofs_per_s": u["summary"]["dofs_per_s"],
                           "traced_dofs_per_s": t["summary"]["dofs_per_s"]}
                          for first, u, t in pairs],
                "slowdown": statistics.median(ratios) - 1.0,
            },
            "per_layer_median": {
                name: statistics.median(t["layers"][name] for t in traced)
                for name, _, _, _ in tracing.LAYER_METRICS},
        }
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(strict(doc), fh, indent=1, allow_nan=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
