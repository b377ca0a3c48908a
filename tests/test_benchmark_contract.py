"""The traced benchmark reads every per-layer metric BENCHMARK.json declares.

perfbench's tracer skips an entry point that no longer exists and drops the
metrics derived from it, so a renamed or deleted library function would
shrink the traced result without an error.  The first test imports the
tracer from ``perfbench/`` unchanged and asks it for the metric names; the
second runs the traced benchmark itself, in a copy of the checkout so that
``perfbench/`` stays untouched, and reads the result line it ends on.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jetlag.monolayer import MonolayerModel, MonolayerParams

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def test_traced_run_reports_every_declared_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    with tracing.instrument(tracing.Tracer()) as tracer:
        MonolayerModel(MonolayerParams())
    assert set(tracing.layer_metrics(tracer, 1.0, 1.0)) == DECLARED


@pytest.mark.parametrize("workload", ["sweep", "resonant", "oracle", "validate"])
def test_traced_benchmark_ends_on_a_result(tmp_path, workload):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == DECLARED
