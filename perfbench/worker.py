"""One workload in one fresh interpreter; started by ``run.py``.

Modes:

* ``setup``  -- import jetlag, build params, model and the seeded inputs,
  report when that finished, exit;
* ``timed``  -- set up, then run items in a closed loop (one client, each
  item starts when the previous one ends) until the items have taken
  ``--seconds`` at nominal machine speed (``speed.py``) and a round of
  items is complete;
* ``trace``  -- set up, run the workload's fixed ``trace_items`` untraced,
  then the same items again on a freshly built workload with every layer
  entry point wrapped; report the per-layer metrics and write the spans.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: failed inputs listed in the notes of one run
_SHOW_FAILED = 8
#: longest wall time of a timed phase, as a multiple of --seconds
MAX_STRETCH = 1.5


def _run_item(workload, inp) -> str | None:
    try:
        return workload.run(inp)
    except Exception as exc:  # an item that raises is a failed item, not a dead run
        traceback.print_exc(file=sys.stderr)
        return f"raised:{type(exc).__name__}: {exc}"


class Tally:
    """Failures of one pass, by reason, with the first few inputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.reasons: Counter = Counter()
        self.failed_inputs: list[str] = []

    def add(self, inp, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.reasons[reason] += 1
        if len(self.failed_inputs) < _SHOW_FAILED:
            self.failed_inputs.append(self.workload.describe(inp))

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def result(self) -> dict:
        """Correct unless an item raised or returned a wrong result; a
        failure the program reported itself (a solver give-up) only counts
        as failed."""
        correct = all(r.startswith("failed:") for r in self.reasons)
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed}

    def notes(self) -> list[str]:
        out = [f"failed {n}x: {reason}" for reason, n in self.reasons.most_common()]
        out += [f"failed input: {d}" for d in self.failed_inputs]
        return out


def timed(workload, seconds: float) -> dict:
    from speed import ScaledLatencies
    from workloads import tail_percentile

    tally = Tally(workload)
    lat = ScaledLatencies()
    inputs = workload.inputs
    i = 0
    t0 = time.perf_counter()

    def more() -> bool:
        # whole rounds, for --seconds at nominal speed; a slow machine may
        # stretch the run to at most MAX_STRETCH times that
        if i % workload.round_items:
            return True
        return lat.elapsed() < seconds and time.perf_counter() - t0 < MAX_STRETCH * seconds

    while more():
        inp = inputs[i % len(inputs)]
        start = time.perf_counter()
        reason = _run_item(workload, inp)
        lat.add(time.perf_counter() - start)
        tally.add(inp, reason)
        i += 1
    wall = time.perf_counter() - t0
    lat.flush()

    n = len(lat.raw)
    tail, pct = tail_percentile(lat.scaled)
    raw_tail, _ = tail_percentile(lat.raw)
    metrics = {
        "items_per_s": n / sum(lat.scaled),
        "item_p50_ms": 1e3 * statistics.median(lat.scaled),
        "item_tail_ms": 1e3 * tail,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"{workload.name}: {tally.attempted} items in {wall:.3f} s, {tally.failed} failed",
        f"item_tail_ms is the p{pct:.1f} latency of {n} items",
        f"times scaled to nominal machine speed by {statistics.mean(lat.factors):.4f} on average; "
        f"raw: items_per_s {n / sum(lat.raw):.6g}, item_p50_ms {1e3 * statistics.median(lat.raw):.6g}, "
        f"item_tail_ms {1e3 * raw_tail:.6g}",
        *tally.notes(),
    ]
    return {**tally.result(), "metrics": metrics, "notes": notes}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(build, seed: int, workload) -> dict:
    from tracing import Tracer, instrument, layer_metrics

    n = workload.trace_items
    t0 = time.perf_counter()
    for inp in workload.inputs[:n]:
        _run_item(workload, inp)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    with instrument(tracer):
        # rebuilt so model caches start cold, as in the untraced pass
        fresh = build(seed)
        tally = Tally(fresh)
        t0 = time.perf_counter()
        for inp in fresh.inputs[:n]:
            with tracer.span("item"):
                reason = _run_item(fresh, inp)
            tally.add(inp, reason)
        traced_wall = time.perf_counter() - t0

    values = layer_metrics(tracer, untraced_wall, traced_wall)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.npz"
    tracer.save(path)
    metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    notes = [
        f"{workload.name} traced: {n} items, untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s",
        f"spans written to {path.relative_to(ROOT)}",
        *tally.notes(),
    ]
    return {**tally.result(), "metrics": metrics, "notes": notes}


def _pin_to_one_cpu() -> None:
    """Stay on one CPU: the vCPUs of a shared machine can differ in speed,
    and a migration between them would change speed inside an item."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    _pin_to_one_cpu()
    parser = argparse.ArgumentParser(description="run one jetlag benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    import workloads

    build = workloads.WORKLOADS[args.workload]
    workload = build(args.seed)
    setup_done = time.monotonic()

    if args.mode == "setup":
        out = {}
    elif args.mode == "timed":
        out = timed(workload, args.seconds)
    else:
        out = traced(build, args.seed, workload)
    print(json.dumps({**out, "setup_done": setup_done}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
