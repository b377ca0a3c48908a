"""The benchmark reads every metric BENCHMARK.json declares.

perfbench's tracer skips an entry point that no longer exists and drops the
metrics derived from it, so a renamed or deleted library function would
shrink the traced result without an error.  The first test imports the
tracer from ``perfbench/`` unchanged and asks it for the metric names; the
second runs the benchmark itself, traced and untraced, in one copy of the
checkout so that ``perfbench/`` stays untouched, and reads the result line
it ends on.  The untraced run adds the setup-only probes and the speed
scaling, and must end on every declared end-to-end metric with no failed
item.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {m["name"] for m in BENCHMARK["per_layer"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_reports_every_declared_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    with tracing.instrument(tracing.Tracer()) as tracer:
        MonolayerModel(MonolayerParams())
    assert set(tracing.layer_metrics(tracer, 1.0, 1.0)) == DECLARED


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """One copy of the checkout for every benchmark run of this module."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload + ("" if trace == "1" else "-untraced"))
    for workload in ("sweep", "resonant", "oracle", "validate")
    for trace in ("1", "0")
])
def test_traced_benchmark_ends_on_a_result(checkout, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    if trace == "1":
        assert set(result["metrics"]) == DECLARED
        if workload in ("sweep", "resonant"):
            # every trajectory's energies go through the traced hamiltonian_split
            assert result["metrics"]["dynamics.energy_calls"]["value"] > 0
    else:
        assert result["failed"] == 0
        assert set(result["metrics"]) == END_TO_END
