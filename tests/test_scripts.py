"""The experiment scripts run end to end and write their result files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, flags, files", [
    ("shape_study.py", [], ["response_curve.csv", "optimizer_iterates.csv"]),
    ("shape_study.py", ["--two-parameter"],
     ["response_curve.csv", "optimizer_iterates.csv"]),
    ("uq_study.py", [], ["tmax_expansion.csv", "tmax_samples.csv"]),
], ids=["shape", "shape-two-parameter", "uq"])
def test_experiment_script_runs(tmp_path, script, flags, files):
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for name in files:
        assert (out / name).stat().st_size > 0, name
    summary = json.loads((out / "summary.json").read_text())
    assert summary
    if script == "shape_study.py":   # every optimize run says why it stopped
        assert summary["optimizer_termination"]
