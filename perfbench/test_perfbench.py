"""Tests of the benchmark's own logic: outcome classes, self times and their
reconciliation, the tail percentile, and the metric names it promises."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from embedfem.analysis import SolveFailure  # noqa: E402
from embedfem.config import ConfigError  # noqa: E402
from embedfem.physics import NonPhysicalStateError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def raised(err):
    try:
        raise err
    except Exception as caught:
        return caught


@pytest.mark.parametrize("err, clean", [
    (SolveFailure("Newton did not converge"), True),
    (NonPhysicalStateError("negative conductivity"), True),
    (ConfigError("unknown key"), True),
    (RuntimeError("Factor is exactly singular"), False),
    (ValueError("shapes do not match"), False),
    (workloads.ToleranceExceeded("FD error too large"), False),
])
def test_outcome_classifier(err, clean):
    assert workloads.classify(err) == (type(err).__name__, clean)


def test_failure_log_keeps_first_message_and_folds_classes():
    log = run.FailureLog()
    log.record(raised(RuntimeError("first")), False)
    log.record(raised(RuntimeError("second")), False)
    log.record(raised(ValueError("odd")), False)
    log.record(raised(SolveFailure("stalled")), True)
    assert log.counts == {"RuntimeError": 2, "ValueError": 1, "SolveFailure": 1}
    assert log.first["RuntimeError"]["message"] == "first"
    assert log.first["SolveFailure"]["clean"]
    folded = log.by_layer_class(tracing.FAILURE_CLASSES)
    assert folded == {"SolveFailure": 1, "NonPhysicalStateError": 0,
                      "ConfigError": 0, "RuntimeError": 2, "other": 1}


def record_op(tracer):
    """op [0, 10] holding a [1, 4] (which holds g [2, 3]) and b [5, 9]."""
    g = tracer.wrap("g", lambda: None)
    a = tracer.wrap("a", g)
    b = tracer.wrap("b", lambda: None)
    op = tracer.wrap("op", lambda: (a(), b()))
    tracer.op_id = 0
    op()
    return tracer.names.index("a")


def test_self_times_partition_the_op():
    tracer = tracing.Tracer(clock=iter([0, 1, 2, 3, 4, 5, 9, 10]).__next__)
    record_op(tracer)
    assert tracer.names == ["op", "a", "g", "b"]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert tracing.reconcile(tracer, {0: 10.0}) == []


def test_reconcile_flags_overlapping_spans():
    tracer = tracing.Tracer(clock=iter([0, 1, 2, 3, 4, 5, 9, 10]).__next__)
    a = record_op(tracer)
    tracer.end[a] = 7.0          # a now overlaps b: the self times over-count
    assert sum(tracer.self_times()) > 10.0
    assert tracing.reconcile(tracer, {0: 10.0}) == [0]


def test_wrap_records_failed_calls():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.names == ["boom"] and tracer.ok[0] == 0
    assert tracer.end[0] >= tracer.start[0]


def test_uninstall_restores_the_library():
    from embedfem import analysis, model, scalars, verification

    originals = (model.ThermoElectricModel.assemble, analysis.newton_solve,
                 verification.newton_solve, scalars.PCE.__rmul__)
    installation = tracing.install(tracing.Tracer())
    assert model.ThermoElectricModel.assemble is not originals[0]
    assert verification.newton_solve is analysis.newton_solve
    installation.uninstall()
    assert (model.ThermoElectricModel.assemble, analysis.newton_solve,
            verification.newton_solve, scalars.PCE.__rmul__) == originals


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9, 0)
    assert run.tail(list(range(100))) == (90, 89)
    pct, value = run.tail([1.0] * 20 + [math.inf] * 10)
    assert pct == 66 and value == 1.0


def test_summary_has_every_end_to_end_metric():
    # every op on the second mesh fails
    ops = [run.OpRecord(i, i % 2, 0.5, i % 2 == 0, None, False, 100, "")
           for i in range(6)]
    summary = run.summarize(ops, 3.0, 1.5, 80.0)
    specified = {"setup_s", "dofs_per_s", "op_p50_s", "op_tail",
                     "fail_ratio", "crash_ratio", "peak_rss_mb"}
    assert specified | {m[0] for m in run.END_TO_END} <= set(summary)
    assert summary["dofs_per_s"] == 300 / 3.0
    assert summary["op_p50_s"] == math.inf
    assert summary["small_op_p50_s"] == 0.5
    assert summary["crash_ratio"] == 0.5


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [m[:3] for m in tracing.LAYER_METRICS]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m[0] for m in tracing.LAYER_METRICS]
    assert result["attempted"] >= 3
    assert "check PASS ops whose layer self times exceed" in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
