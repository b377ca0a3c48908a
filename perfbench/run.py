"""Benchmark entry point: run one jetlag workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  This process imports neither numpy nor jetlag.  It starts the
workload in a fresh interpreter (``perfbench/worker.py``), with the
numpy/BLAS thread pools pinned to one thread, and parses its result.

``--trace 0`` reports the end-to-end metrics, with item latencies scaled
to a nominal machine speed (``speed.py``).  ``setup_s`` is the median
over ``SETUP_SAMPLES`` fresh interpreters, started one after another: the
worker that runs the items plus setup-only probes that exit after set-up.
``--trace 1`` reports the per-layer metrics of a traced run instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a human reader.  Without ``src/jetlag`` the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "oracle", "validate", "resonant")

#: fresh interpreters timed for setup_s in one run (the worker included)
SETUP_SAMPLES = 3
#: a run must end within this many seconds, children included
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

_ONE_THREAD = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _ONE_THREAD})
    return env


def _run_worker(extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    cmd = [sys.executable, str(WORKER), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(extra)} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), started


def _report(result: dict, notes: list[str]) -> None:
    for note in notes:
        print(note)
    for name, entry in result["metrics"].items():
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result, allow_nan=False))


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        out, _ = _run_worker([*common, "--mode", "trace"], deadline)
        return _assemble(out, out["metrics"]), out["notes"]

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe, started = _run_worker([*common, "--mode", "setup"], deadline)
        setups.append(probe["setup_done"] - started)
    out, started = _run_worker([*common, "--mode", "timed", "--seconds", str(seconds)], deadline)
    setups.append(out["setup_done"] - started)

    values = dict(out["metrics"], setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    notes = out["notes"] + [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}"]
    return _assemble(out, metrics), notes


def _assemble(out: dict, metrics: dict) -> dict:
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "jetlag" / "__init__.py").is_file():
        print(f"no jetlag sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    _report(result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
