"""Outputs across numpy's SIMD dispatch: a rerun with AVX-512 off.

numpy picks its SIMD kernels at run time, and the AVX-512 and AVX2 kernels
of exp and pow round some results differently.  This test runs a fixed
small set in a subprocess with ``NPY_DISABLE_CPU_FEATURES`` switching
AVX-512 off, so numpy dispatches the kernels a CPU without AVX-512 would
run, and compares it with the same set run in this process:

* the 110 pinned FD partials and the default ``deviation`` CSV are
  byte-equal: every operation they depend on is a Python-float one;
* in ``resonant.csv``, ``t``, ``r0`` and ``r0dot`` are equal (the
  resonant right-hand side runs on ``math``, in the solver and on the
  sample grid);
* in a short ``simulate``, the state columns are equal (the geodesic's
  right-hand side runs on ``math``);
* every other column, computed by numpy's array kernels, stays within the
  per-column bound below.

Where numpy dispatches no AVX-512 target the two runs are the same, and
the test skips; where numpy's dispatch tables cannot be read, it fails.
Run as a script, ``python tests/test_portability.py DIR`` writes the set
into DIR.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: numpy's runtime switch for its AVX-512 dispatch targets
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

#: the short simulate: the default start, half the default span
SIMULATE = {"t_end": 1e-3}

#: columns allowed to move across dispatch: (kind, bound), where "rel" bounds
#: |a - b| / max(|a|, |b|) and "abs" bounds |a - b| (the residual columns
#: are rounding noise near 1e-15, so a relative bound says nothing there)
BOUNDS = {
    "resonant.csv": {
        "residual_eq21": ("abs", 1e-14),
        "residual_eq22": ("abs", 1e-14),
    },
    "trajectory.csv": {
        "E_inst": ("rel", 1e-13),
        "H": ("rel", 1e-12),
        "H_YM": ("rel", 1e-13),
        "EYM": ("rel", 1e-13),
        "g11": ("rel", 1e-14),
    },
}


def _run_set(out: Path) -> None:
    """Write the compared set into ``out``: the FD pins and the CLI files."""
    from oracles import PolynomialModel, asymmetric_lagrangian
    from test_fd import SPECS

    from jetlag.cli import main
    from jetlag.fd import numeric_partials
    from jetlag.monolayer import MonolayerModel, MonolayerParams
    from jetlag.points import jet_point

    out.mkdir(parents=True, exist_ok=True)
    monolayer = MonolayerModel(MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=1.0))
    pins = {
        name: [numeric_partials(model, pt, spec).hex() for spec in SPECS]
        for name, model, pt in [
            ("monolayer", monolayer, jet_point(1e-3, 0.5, 0.0, -1.0, 0.2)),
            ("asymmetric", PolynomialModel(asymmetric_lagrangian), jet_point(0.3, 1.2, 0.4, 0.8, -0.6)),
        ]
    }
    (out / "pins.json").write_text(json.dumps(pins))
    config = out / "simulate.json"
    config.write_text(json.dumps(SIMULATE))
    for argv in (["resonant"], ["deviation"], ["simulate", "--config", str(config)]):
        assert main([*argv, "--out", str(out)]) == 0


def _avx512_dispatched() -> bool:
    """Whether numpy dispatches an AVX-512 target on this CPU.  The module
    holding the dispatch tables is ``numpy._core`` in numpy 2 and
    ``numpy.core`` in numpy 1; where neither imports, the ImportError
    propagates, so a lost check fails instead of skipping."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    features, dispatch = umath.__cpu_features__, umath.__cpu_dispatch__
    return any(features.get(t) and t in dispatch for t in AVX512_OFF.split())


def _table(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _worst(a: list[str], b: list[str], kind: str) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        if x != y:
            x, y = float(x), float(y)
            scale = max(abs(x), abs(y)) if kind == "rel" else 1.0
            worst = max(worst, abs(x - y) / scale)
    return worst


def test_outputs_across_simd_dispatch(tmp_path):
    if not _avx512_dispatched():
        pytest.skip("numpy dispatches no AVX-512 target here")
    on, off = tmp_path / "on", tmp_path / "off"
    _run_set(on)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF)
    subprocess.run([sys.executable, __file__, str(off)], env=env, check=True, capture_output=True, timeout=120)

    from test_fd import PINNED_HEX

    assert json.loads((off / "pins.json").read_text()) == PINNED_HEX
    assert (off / "deviation.csv").read_bytes() == (on / "deviation.csv").read_bytes()

    equal = {"resonant.csv": ("t", "r0"), "trajectory.csv": ("t", "r", "phi", "rdot", "phidot", "event")}
    for name, columns in equal.items():
        a, b = _table(on / name), _table(off / name)
        assert a.keys() == b.keys()
        for column in a:
            if column in columns:
                assert a[column] == b[column], (name, column)
            elif column in BOUNDS[name]:
                kind, bound = BOUNDS[name][column]
                assert len(a[column]) == len(b[column])
                assert _worst(a[column], b[column], kind) <= bound, (name, column)
            else:
                # the closed-form columns, empty without --closed-form
                assert a[column] == b[column], (name, column)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _run_set(Path(sys.argv[1]))
