#!/usr/bin/env python3
"""embedfem benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. The run sets up every mesh
of the workload and times more set-ups in fresh interpreters, half of them
before the window and half after. In the window it runs ops back to back, a
whole round (one op per mesh) at a time, until ``--seconds`` have passed.
Then it checks the outputs, untimed. Every op's exception is caught and
classified, so a failing op never ends the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run of the same ops. The lines
before it are a readable report: every metric with its unit and sample count,
the failure classes with their first message, the check verdicts and the
repeatability digest. Full results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5               # one in this process, the rest in fresh
                                # ones, half before the window, half after
TAIL_BEYOND = 10                # samples a tail percentile must leave above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# (name, unit, better, bound): the metrics of the --trace 0 result line.
# The timing bounds are wide because the CPU of a shared machine can run at
# two speeds far apart for seconds at a time; the design workload's peak
# resident set depends on the inputs its ops draw, so on how far a run gets
# (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("dofs_per_s", "1/s", "higher", 0.25),
    ("small_op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)


@dataclass
class OpRecord:
    index: int
    mesh: int
    seconds: float
    ok: bool
    error: str | None       # exception class name
    clean: bool             # a failure the library reports on purpose
    unknowns: int           # credited to throughput only when ok
    digest: str


def op_digest(outputs=None, error=None):
    """SHA-256 of an op's output arrays, or of its error text."""
    import numpy as np  # loaded with the library, whose import is timed

    h = hashlib.sha256()
    if error is not None:
        h.update(error.encode())
    else:
        for a in outputs:
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; None for too few."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[max(rank, 1) - 1]


def latencies(ops):
    """Op wall times with every failed op counted as infinitely slow."""
    return [op.seconds if op.ok else math.inf for op in ops]


def summarize(ops, window, setup_s, peak_rss_mb):
    """The end-to-end figures of one run, with their sample counts."""
    n = len(ops)
    failed = sum(not op.ok for op in ops)
    crashed = sum(not op.ok and not op.clean for op in ops)
    lat = latencies(ops)
    small = latencies([op for op in ops if op.mesh == 0])
    small_p50 = statistics.median(small)
    return {
        "attempted": n,
        "failed": failed,
        "crashed": crashed,
        "setup_s": setup_s,
        "dofs_per_s": sum(op.unknowns for op in ops if op.ok) / window,
        "op_p50_s": statistics.median(lat),
        "op_tail": tail(lat),
        "small_ops": len(small),
        # JSON has no infinity: a failed median reads as the whole window
        "small_op_p50_s": small_p50 if math.isfinite(small_p50) else window,
        "fail_ratio": failed / n,
        "crash_ratio": crashed / n,
        "peak_rss_mb": peak_rss_mb,
    }


class FailureLog:
    """Failed ops by exception class, with the first message of each."""

    def __init__(self):
        self.counts = {}
        self.first = {}

    def record(self, err, clean):
        name = type(err).__name__
        self.counts[name] = self.counts.get(name, 0) + 1
        if name not in self.first:
            frame = traceback.extract_tb(err.__traceback__)[-1]
            where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
            self.first[name] = {"message": str(err), "where": where,
                                "clean": clean}

    def by_layer_class(self, classes):
        """Counts folded onto ``classes`` (last entry catches the rest)."""
        out = dict.fromkeys(classes, 0)
        for name, count in self.counts.items():
            key = name if name in out else classes[-1]
            out[key] += count
        return out


def run_op(workload, call, mesh, m, index, inputs, failures, classify):
    """One op through ``call`` (the workload's op, traced or not)."""
    t0 = time.perf_counter()
    # The failure is handled inside the except block: a reference to the
    # exception kept past it would hold the failed op's frames, and the
    # arrays in them, until the cyclic garbage collector runs.
    try:
        outputs = call(mesh, inputs)
    except Exception as err:    # every failure is data; the run goes on
        seconds = time.perf_counter() - t0
        name, clean = classify(err)
        failures.record(err, clean)
        return OpRecord(index, m, seconds, False, name, clean,
                        workload.unknowns(mesh),
                        op_digest(error=f"{name}: {err}"))
    seconds = time.perf_counter() - t0
    return OpRecord(index, m, seconds, True, None, False,
                    workload.unknowns(mesh), op_digest(outputs))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "spectral", "fd-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def build_meshes(workload, seed, sample):
    """Build every mesh of the workload and warm each up once."""
    import workloads as wl

    meshes = [workload.build(n) for n in workload.sizes]
    for m, mesh in enumerate(meshes):
        workload.warm_up(mesh, wl.rng_for(seed, wl.WARMUP_STREAM,
                                          sample * len(meshes) + m))
    return meshes


def setup_sample(name, seed, sample):
    """One whole set-up in a fresh interpreter: import, builds, warm-ups."""
    import_s = import_library()
    import workloads as wl

    t0 = time.perf_counter()
    build_meshes(wl.WORKLOADS[name], seed, sample)
    return import_s + time.perf_counter() - t0


def setup_in_subprocess(name, seed, sample):
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"print(run.setup_sample({name!r}, {seed}, {sample}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=170)
    return float(done.stdout.split()[-1])


def import_library():
    """Import embedfem from this checkout's src; returns the seconds taken."""
    if not (SRC / "embedfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no embedfem sources under {SRC}; run from a "
                         "source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import embedfem.analysis
    import embedfem.config
    import embedfem.verification  # noqa: F401
    seconds = time.perf_counter() - t0
    if Path(embedfem.__file__).resolve().parent != SRC / "embedfem":
        raise SystemExit(f"error: imported embedfem from {embedfem.__file__}, "
                         f"not from {SRC}")
    return seconds


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()

    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    installation = tracing.install(tracer) if tracer is not None else None
    failures = FailureLog()

    t0 = time.perf_counter()
    meshes = build_meshes(workload, args.seed, 0)
    setups = [import_s + time.perf_counter() - t0]
    # fresh-interpreter set-ups on both sides of the window, so that the
    # median spans two moments of the machine and not one
    fresh = range(1, SETUP_SAMPLES)
    before = len(fresh) // 2
    setups += [setup_in_subprocess(workload.name, args.seed, sample)
               for sample in fresh[:before]]

    call = workload.run if tracer is None else tracer.wrap("op", workload.run)
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        for m, mesh in enumerate(meshes):
            index = len(ops)
            inputs = workload.draw(wl.rng_for(args.seed, wl.OP_STREAM, index),
                                   mesh)
            if tracer is not None:
                tracer.op_id = index
            ops.append(run_op(workload, call, mesh, m, index, inputs,
                              failures, wl.classify))
    window = time.perf_counter() - start
    rss = peak_rss_mb()
    if installation is not None:
        installation.uninstall()
    setups += [setup_in_subprocess(workload.name, args.seed, sample)
               for sample in fresh[before:]]
    setup_s = statistics.median(setups)

    # untimed checks
    round0 = ops[:len(meshes)]
    repeat_failures = FailureLog()
    again = [run_op(workload, workload.run, mesh, m, m,
                    workload.draw(wl.rng_for(args.seed, wl.OP_STREAM, m), mesh),
                    repeat_failures, wl.classify)
             for m, mesh in enumerate(meshes)]
    mismatched = sum(a.digest != b.digest for a, b in zip(round0, again))
    checks = [wl.CheckResult("ops of round 0 whose repeat changes the digest",
                             mismatched == 0, float(mismatched), 0.0)]
    try:
        checks += workload.checks(meshes, ops, args.seed)
    except Exception as err:    # a check that cannot finish has failed
        checks.append(wl.CheckResult(
            f"{workload.name} checks raised {type(err).__name__}: {err}",
            False, math.nan, 0.0))

    summary = summarize(ops, window, setup_s, rss)
    layers = None
    if tracer is not None:
        self_times = tracer.self_times()
        bad = tracing.reconcile(tracer, {op.index: op.seconds for op in ops},
                                self_times)
        checks.append(wl.CheckResult(
            "ops whose layer self times exceed their wall time",
            not bad, float(len(bad)), 0.0))
        layers = tracing.layer_metrics(
            tracer, len(ops), failures.by_layer_class(tracing.FAILURE_CLASSES),
            summary["dofs_per_s"], self_times)

    correct = all(c.passed for c in checks)
    digest = hashlib.sha256("".join(op.digest for op in round0).encode())
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "window_s": window,
        "meshes": [mesh.label for mesh in meshes],
        "import_s": import_s, "setup_samples_s": setups,
        "summary": summary, "correct": correct,
        "checks": [asdict(c) for c in checks],
        "failures": {name: dict(count=failures.counts[name], **info)
                     for name, info in failures.first.items()},
        "digest_round0": digest.hexdigest(),
        "per_mesh": per_mesh(ops, meshes),
        "ops": [[op.mesh, op.seconds, op.ok] for op in ops],
        "layers": layers,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json.gz")

    print_report(record, checks)
    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def per_mesh(ops, meshes):
    out = []
    for m, mesh in enumerate(meshes):
        mine = [op for op in ops if op.mesh == m]
        ok = [op.seconds for op in mine if op.ok]
        out.append({"mesh": mesh.label, "ops": len(mine), "ok": len(ok),
                    "ok_p50_s": statistics.median(ok) if ok else None})
    return out


def print_report(record, checks):
    s = record["summary"]
    n = s["attempted"]
    traced = " (traced)" if record["trace"] else ""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"window {record['window_s']:.2f} s  "
          f"rounds {n // len(record['meshes'])}  "
          f"meshes {', '.join(record['meshes'])}{traced}")
    tail_txt = "n/a: needs more than 10 ops"
    if s["op_tail"] is not None:
        pct, value = s["op_tail"]
        tail_txt = f"{value:.4f} s  (p{pct} of n={n})"
    lines = [
        ("setup_s", f"{s['setup_s']:.4f} s  (import {record['import_s']:.3f} s "
                    f"in the first of n={SETUP_SAMPLES} set-ups, median)"),
        ("dofs_per_s", f"{s['dofs_per_s']:.1f} 1/s  (n={n} ops, "
                       f"{n - s['failed']} ok)"),
        ("op_p50_s", f"{s['op_p50_s']:.4f} s  (n={n}; failed ops count as "
                     "infinitely slow)"),
        ("op_tail_s", tail_txt),
        ("small_op_p50_s", f"{s['small_op_p50_s']:.4f} s  (n={s['small_ops']} "
                           f"ops on {record['meshes'][0]})"),
        ("fail_ratio", f"{s['fail_ratio']:.4f}  ({s['failed']}/{n})"),
        ("crash_ratio", f"{s['crash_ratio']:.4f}  ({s['crashed']}/{n})"),
        ("peak_rss_mb", f"{s['peak_rss_mb']:.1f} MB  (n=1)"),
    ]
    for name, text in lines:
        print(f"  {name:<20} {text}")
    for row in record["per_mesh"]:
        p50 = "-" if row["ok_p50_s"] is None else f"{row['ok_p50_s']:.4f} s"
        print(f"  mesh {row['mesh']:<8} ops {row['ops']:<4} ok {row['ok']:<4} "
              f"p50 of ok ops {p50}")
    for name, info in record["failures"].items():
        kind = "clean" if info["clean"] else "crash"
        print(f"  failure {name} x{info['count']} ({kind}) at {info['where']}: "
              f"{info['message']}")
    for check in checks:
        print(f"  check {check.line()}")
    print(f"  digest of round 0: {record['digest_round0']}")
    if record["layers"] is not None:
        for name, value in record["layers"].items():
            print(f"  layer {name:<38} {value:.6g}")
    print(f"  correct: {record['correct']}")


if __name__ == "__main__":
    sys.exit(main())
