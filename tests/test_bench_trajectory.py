"""scripts/bench_trajectory.py pairs only runs of the benchmark's own length."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, trace, seconds, value):
    summary = {name: value for name in ("setup_s", "dofs_per_s",
                                        "small_op_p50_s", "peak_rss_mb")}
    summary.update(failed=0, attempted=3)
    return {"workload": "design", "seed": seed, "trace": trace,
            "seconds": seconds, "summary": summary, "digest_round0": "d",
            "correct": True, "layers": {"graph.instantiate_s": value}}


def checkout(root, value):
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30}))
    # a test-suite run of 1 s next to full-length runs of both kinds
    for seed, trace, seconds in ((0, 1, 1.0), (1, 0, 30), (2, 1, 30)):
        (out / f"design-seed{seed}-trace{trace}.json").write_text(
            json.dumps(record(seed, trace, seconds, value)))
    return root


def test_only_runs_of_the_benchmark_length_pair_up(tmp_path):
    bt = load_script()
    parent = checkout(tmp_path / "parent", 2.0)
    change = checkout(tmp_path / "change", 1.0)
    assert set(bt.load(parent, 0)) == {("design", 1)}
    assert set(bt.load(parent, 1)) == {("design", 2)}
    rows = bt.summarize(bt.load(parent, 0), bt.load(change, 0))
    assert rows["design"]["seeds"] == [1]
    assert rows["design"]["metrics"]["setup_s"]["change_wins"] == 1
    layers = bt.layer_medians(bt.load(parent, 1), bt.load(change, 1))
    assert layers["design"]["seeds"] == [2]
    assert layers["design"]["layers"]["graph.instantiate_s"] == {
        "parent": 2.0, "change": 1.0}
