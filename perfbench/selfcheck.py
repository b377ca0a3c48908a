"""Self-check of the benchmark, and the one command that runs everything.

    python3 perfbench/selfcheck.py [--workloads sweep,oracle] [--e2e-seeds 0,1,2]
                                   [--seconds 20] [--out perfbench/out/check.json]

For each workload it makes the end-to-end runs at ``--e2e-seeds`` and
prints the median and quartiles of every metric; makes two traced runs
at the default seed and one at the held-out seed, and checks that every
count repeats exactly between the two default-seed runs; and reports
whether the trace confirms the workload design.  Exits with code 1 when a
run is not correct or a count does not repeat.

A change is measured on ``DEFAULT_SEED`` while it is written and confirmed
on ``HELD_OUT_SEED``, which stays unused until then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from importlib import metadata
from pathlib import Path

import run

DEFAULT_SEED = 0
HELD_OUT_SEED = 97

#: per-layer metrics that are measured times, not counts
_TIMED = ("trace.overhead_ratio",)


def _values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _is_count(name: str) -> bool:
    return not name.endswith("_s") and name not in _TIMED


def _share(trace: dict, *names: str) -> float:
    return sum(trace.get(n, 0.0) for n in names) / trace["trace.wall_s"]


def design_checks(workload: str, trace: dict, e2e: list[dict]) -> list[tuple[str, bool]]:
    """The predictions the workload was chosen for, as (claim, holds)."""
    checks = []
    if workload in ("sweep", "resonant"):
        checks.append(("fd.partials is 0", trace.get("fd.partials") == 0))
    if workload == "oracle":
        share = _share(trace, "fd.self_s", "geometry.self_s", "models.value_self_s")
        checks.append((f"fd + geometry + models self time is most of the item time ({share:.1%})", share > 0.5))
    if workload == "resonant":
        share = _share(trace, "dynamics.energy_self_s")
        checks.append((f"dynamics.energy_self_s is most of the item time ({share:.1%})", share > 0.5))
        share = _share(trace, "dynamics.energy_s")
        checks.append((f"energy calls with their Ei calls are most of the item time ({share:.1%})", share > 0.5))
    if workload == "sweep":
        ok = [r["metrics"]["ok_frac"]["value"] for r in e2e]
        checks.append((f"some items fail (ok_frac {min(ok):.3f}..{max(ok):.3f})", max(ok) < 1.0))
    return checks


def check_workload(workload: str, seeds: list[int], seconds: int) -> tuple[dict, bool]:
    e2e = []
    for seed in seeds:
        result, notes = run.run(workload, seed, seconds, trace=False)
        e2e.append(result)
        print(f"[{workload} seed {seed}] " + "  ".join(notes[:2]))
    traces = [run.run(workload, seed, seconds, trace=True)[0] for seed in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED)]
    first, second, held_out = (_values(t) for t in traces)

    mismatched = sorted(n for n in first if _is_count(n) and first[n] != second.get(n))
    correct = all(r["correct"] for r in e2e + traces)
    summary = {}
    for name in e2e[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in e2e]
        entry = {"median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"])
        summary[name] = entry
    checks = design_checks(workload, first, e2e)

    print(f"== {workload}: end to end over seeds {seeds}")
    for name, entry in summary.items():
        spread = f"  IQR/median {entry['spread']:.4f}" if "spread" in entry else ""
        print(f"  {name:<14} median {entry['median']:.6g} {e2e[0]['metrics'][name]['unit']}{spread}")
    print(f"== {workload}: traced, seed {DEFAULT_SEED} (held-out seed {HELD_OUT_SEED} in brackets)")
    for name, value in first.items():
        print(f"  {name:<30} {value:>14.6g}  [{held_out.get(name, float('nan')):.6g}]")
    print(f"  counts repeat between two traced runs: {'yes' if not mismatched else 'NO: ' + ', '.join(mismatched)}")
    for claim, holds in checks:
        print(f"  design: {claim}: {'confirmed' if holds else 'NOT confirmed'}")

    record = {
        "end_to_end": summary,
        "traced": first,
        "traced_held_out": held_out,
        "counts_repeat": not mismatched,
        "design_checks": {claim: holds for claim, holds in checks},
    }
    return record, correct and not mismatched


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--e2e-seeds", default=f"{DEFAULT_SEED},{HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="also write the results as JSON")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.e2e_seeds.split(",")]
    records, ok = {}, True
    for workload in args.workloads.split(","):
        records[workload], passed = check_workload(workload, seeds, args.seconds)
        ok &= passed
    if args.out is not None:
        payload = {
            "environment": {
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"),
                "cpus": os.cpu_count(),
                "processor": platform.processor() or platform.machine(),
            },
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "run_seconds": args.seconds,
            "e2e_seeds": seeds,
            "workloads": records,
        }
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
