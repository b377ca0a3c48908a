"""The traced benchmark reads every per-layer metric BENCHMARK.json declares.

perfbench's tracer skips an entry point that no longer exists and drops the
metrics derived from it, so a renamed or deleted library function would
shrink the traced result without an error.  This test imports the tracer
from ``perfbench/`` unchanged and asks it for the metric names.
"""

import importlib
import json
from pathlib import Path

from jetlag.monolayer import MonolayerModel, MonolayerParams

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_reports_every_declared_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    with tracing.instrument(tracing.Tracer()) as tracer:
        MonolayerModel(MonolayerParams())
    assert set(tracing.layer_metrics(tracer, 1.0, 1.0)) == declared
