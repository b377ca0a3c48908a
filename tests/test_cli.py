"""CLI contract: subcommands, exit codes, strict config, stable CSV output."""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetlag.cli import DEFAULTS, SCHEMA, TRAJECTORY_HEADER, load_config, main
from jetlag.errors import ConfigError
from jetlag.dynamics import _closed_form
from jetlag.monolayer import MonolayerParams


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = {
        "params": {"m": 1.0, "p": 10.0, "V_abs": 1000.0, "R0": 1.0},
        "initial_state": {"t": 0.0, "r": 0.5, "phi": 0.0, "rdot": -1.0, "phidot": 0.1},
        "t_end": 1e-3,
        "validate": {"n_points": 6},
        "resonant": {"n_samples": 50},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


#: the edge values each leaf key is set to, alone: by its default's type, and
#: for a list the same edits to each element
_FLOAT_EDGES = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324, 1e-300]
_INT_EDGES = [0, -1, 10**7]


def _edge_values(default):
    if isinstance(default, float):
        return _FLOAT_EDGES
    return _INT_EDGES if isinstance(default, int) else ["", "X"]


def _leaf_keys(schema, path=""):
    keys = []
    for key, entry in schema.items():
        here = f"{path}.{key}" if path else key
        keys += _leaf_keys(entry, here) if isinstance(entry, dict) else [here]
    return keys


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mdoel": "monolayer"}')
        assert run_cli("simulate", "--config", str(path)) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"params": {"mass": 2.0}}')
        assert run_cli("simulate", "--config", str(path)) == 2

    def test_wrong_type_rejected(self, tmp_path, capsys):
        # one test id over every type rule the defaults imply; a value of the
        # wrong type breaks its key's rule, with the rule's message
        grid = "must be [lo, hi, n] with lo and hi finite and n a whole number from 1 to 10^6, got"
        cases = [
            ('{"t_end": "soon"}', "t_end must be finite, got soon"),
            ('{"seed": 1.5}', "seed must be >= 0 and an int, got 1.5"),
            ('{"seed": true}', "seed must be >= 0 and an int, got True"),
            ('{"t_end": true}', "t_end must be finite, got True"),
            ('{"sweep": {"r": 3}}', f"sweep.r {grid} 3"),
            ('{"sweep": {"r": ["a", 1, 5]}}', f"sweep.r {grid} ['a', 1, 5]"),
            ('{"sweep": {"phidot_values": ["x"]}}', "sweep.phidot_values must be a list of finite numbers, got ['x']"),
            ('{"deviation": {"resonant_substitution": 1}}', "unknown configuration key: deviation.resonant_substitution"),
            ('{"params": 3}', "params must be an object, got 3"),
            ('{"sweep": {"rdot": [-1, 1]}}', f"sweep.rdot {grid} [-1, 1]"),
            ('{"sweep": {"r": [0.2, 1.0, -3]}}', f"sweep.r {grid} [0.2, 1.0, -3]"),
            ('{"sweep": {"r": [0.2, 1.0, 2.7]}}', f"sweep.r {grid} [0.2, 1.0, 2.7]"),
            ('{"sweep": {"r": [0.2, 1.0, 0]}}', f"sweep.r {grid} [0.2, 1.0, 0]"),
            ('{"sweep": {"r": [0.2, 1.0, 1e12]}}', f"sweep.r {grid} [0.2, 1.0, 1000000000000.0]"),
            ('{"sweep": {"r": [0.2, 1.0, 1000], "rdot": [-5.0, -0.5, 1000], "phidot_values": [0, 1]}}',
             "sweep.r, sweep.rdot and sweep.phidot_values make 2000000 runs, more than 10^6"),
            # solver tolerances must be positive and finite, in every section that sets them
            *[(f'{{"{section}": {{"{key}": {value}}}}}', f"{section}.{key} must be positive and finite, got {shown}")
              for section, key, value, shown in (
                  ("resonant", "rtol", "-1", "-1"), ("deviation", "atol", "-1", "-1"), ("integrator", "rtol", "-1", "-1"),
                  ("integrator", "atol", "NaN", "nan"), ("resonant", "atol", "0", "0"), ("deviation", "rtol", "0.0", "0.0"))],
            *[(f'{{"{section}": {{"{key}": Infinity}}}}', f"{section}.{key} must be positive and finite, got inf")
              for section in ("integrator", "resonant", "deviation") for key in ("rtol", "atol")],
            # max_step: 0 means no limit; NaN, a negative number and +-inf are faults
            *[(f'{{"integrator": {{"max_step": {value}}}}}', f"integrator.max_step must be nonnegative and finite, got {shown}")
              for value, shown in (("NaN", "nan"), ("-1", "-1"), ("-1e-9", "-1e-09"), ("-Infinity", "-inf"),
                                   ("Infinity", "inf"))],
        ]
        path = tmp_path / "bad.json"
        for cfg, message in cases:
            path.write_text(cfg)
            assert run_cli("simulate", "--config", str(path)) == 2, cfg
            assert capsys.readouterr().err == f"configuration error: {message}\n", cfg

    @pytest.mark.parametrize("cmd, cfg, message", [
        ("simulate", '{"params": {"m": -1}}', "params.m must be positive and finite, got -1"),
        ("simulate", '{"params": {"p": -1}}', "params.p must be nonnegative and finite, got -1"),
        ("simulate", '{"params": {"V_abs": 0}}', "params.V_abs must be positive and finite, got 0"),
        ("simulate", '{"params": {"R0": -1}}', "params.R0 must be positive and finite, got -1"),
        # NaN fails every check
        ("resonant", '{"params": {"m": NaN}}', "params.m must be positive and finite, got nan"),
        ("simulate", '{"params": {"R0": NaN}}', "params.R0 must be positive and finite, got nan"),
        ("simulate", '{"params": {"V_abs": NaN}}', "params.V_abs must be positive and finite, got nan"),
        ("simulate", '{"params": {"p": Infinity}}', "params.p must be nonnegative and finite, got inf"),
        ("simulate", '{"params": {"p": NaN}}', "params.p must be nonnegative and finite, got nan"),
        ("simulate", '{"t_end": -1}', "t_end must be finite and exceed initial_state.t = 0.0, got -1"),
        ("simulate", '{"t_end": NaN}', "t_end must be finite, got nan"),
        ("simulate", '{"initial_state": {"t": 1}}', "t_end must be finite and exceed initial_state.t = 1, got 0.002"),
        ("simulate", '{"initial_state": {"t": NaN}}', "initial_state.t must be finite, got nan"),
        ("simulate", '{"initial_state": {"r": Infinity}}', "initial_state.r must be finite, got inf"),
        ("sweep", '{"sweep": {"t_end": -1}}', "sweep.t_end must be positive and finite, got -1"),
        # the keys of validate, resonant and deviation; numpy's rng and linspace would reject some later, unnamed
        ("validate", '{"validate": {"n_points": 0}}', "validate.n_points must be an int from 1 to 10^6, got 0"),
        ("validate", '{"validate": {"n_points": -1}}', "validate.n_points must be an int from 1 to 10^6, got -1"),
        ("validate", '{"seed": -1}', "seed must be >= 0 and an int, got -1"),
        *[("validate", f'{{"tolerances": {{"oracle": {value}}}}}', f"tolerances.oracle must be positive and finite, got {shown}")
          for value, shown in (("-1", "-1"), ("0", "0"), ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"))],
        ("resonant", '{"resonant": {"n_samples": 1}}', "resonant.n_samples must be an int from 2 to 10^6, got 1"),
        ("deviation", '{"resonant": {"n_samples": -1}}', "resonant.n_samples must be an int from 2 to 10^6, got -1"),
        # capped as sweep's runs are: rejected before anything is allocated, so nothing of this size runs
        ("resonant", '{"resonant": {"n_samples": 10000001}}', "resonant.n_samples must be an int from 2 to 10^6, got 10000001"),
        ("deviation", '{"resonant": {"n_samples": 1000001}}', "resonant.n_samples must be an int from 2 to 10^6, got 1000001"),
        ("validate", '{"validate": {"n_points": 10000000}}', "validate.n_points must be an int from 1 to 10^6, got 10000000"),
        # the resonant span: t_end = 0 is the default span, which starts at 0
        ("resonant", '{"resonant": {"t_start": 5}}',
         "resonant.t_start must be 0 while resonant.t_end is 0 (the default span), got 5"),
        ("resonant", '{"resonant": {"t_start": -1}}', "resonant.t_start must be nonnegative and finite, got -1"),
        ("deviation", '{"resonant": {"t_start": NaN, "t_end": 1e-4}}', "resonant.t_start must be nonnegative and finite, got nan"),
        *[("resonant", f'{{"resonant": {{"t_end": {value}}}}}', f"resonant.t_end must be nonnegative and finite, got {shown}")
          for value, shown in (("NaN", "nan"), ("-1", "-1"), ("Infinity", "inf"))],
        ("resonant", '{"resonant": {"t_start": 2e-4, "t_end": 1e-4}}',
         "resonant.t_end must be 0 (the default span) or exceed resonant.t_start = 0.0002 "
         "and stay below R0/|V| = 0.001, got 0.0001"),
        # a span that reaches R0/|V| is decided from the config, before any solve
        ("resonant", '{"resonant": {"t_end": 0.002}}',
         "resonant.t_end must be 0 (the default span) or exceed resonant.t_start = 0.0 "
         "and stay below R0/|V| = 0.001, got 0.002"),
        # the default span [0, 0.8 R0/|V|] is decided from the config too: R0/|V| underflows or overflows
        *[(cmd, '{"params": {"R0": 5e-324}}', "params.R0 must be large enough against params.V_abs = 1000.0 for the "
           "default resonant span [0, 0.8 R0/|V|] to be nonempty and below R0/|V| = 0.0, got 5e-324")
          for cmd in ("resonant", "deviation", "validate")],
        *[(cmd, '{"params": {"V_abs": 5e-324}}', "params.V_abs must be large enough against params.R0 = 1.0 for the "
           "default resonant span [0, 0.8 R0/|V|] to be nonempty and below R0/|V| = inf, got 5e-324")
          for cmd in ("resonant", "deviation", "validate")],
        # the deviation's initial data
        *[("deviation", f'{{"deviation": {{"{key}": {value}}}}}', f"deviation.{key} must be finite, got {shown}")
          for key in ("delta_r", "c1") for value, shown in (("NaN", "nan"), ("Infinity", "inf"))],
        ("deviation", '{"deviation": {"delta_rdot": -Infinity}}', "deviation.delta_rdot must be finite, got -inf"),
        ("deviation", '{"deviation": {"c2": NaN}}', "deviation.c2 must be finite, got nan"),
        # NaN would turn off both the r event and the clamp floor
        *[("simulate", f'{{"events": {{"r_min": {value}}}}}', f"events.r_min must be positive and finite, got {shown}")
          for value, shown in (("NaN", "nan"), ("-1", "-1"), ("-Infinity", "-inf"), ("Infinity", "inf"))],
        # a non-finite sweep bound or phidot, rejected before any run is written
        *[("sweep", f'{{"sweep": {{"{key}": {grid}}}}}', f"sweep.{key} must be [lo, hi, n] with lo and hi finite "
           f"and n a whole number from 1 to 10^6, got {shown}")
          for key in ("r", "rdot")
          for grid, shown in (("[NaN, 1.0, 2]", "[nan, 1.0, 2]"), ("[0.2, Infinity, 2]", "[0.2, inf, 2]"))],
        ("sweep", '{"sweep": {"phidot_values": [0.0, NaN]}}', "sweep.phidot_values must be a list of finite numbers, got [0.0, nan]"),
    ])
    def test_bad_physical_values_rejected(self, tmp_path, capsys, cmd, cfg, message):
        # configuration errors, raised before any output directory exists
        path = tmp_path / "bad.json"
        path.write_text(cfg)
        assert run_cli(cmd, "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        assert run_cli("validate", "--seed", "-1", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0 and an int, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_dead_identity_tolerance_rejected(self, tmp_path, capsys):
        # nothing reads an identity tolerance, so the schema has no such key
        path = tmp_path / "bad.json"
        path.write_text('{"tolerances": {"identity": 1e-10}}')
        assert run_cli("validate", "--config", str(path)) == 2
        assert capsys.readouterr().err == "configuration error: unknown configuration key: tolerances.identity\n"

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"integrator": {"max_step": 1}}')
        assert load_config(str(path))["integrator"]["max_step"] == 1

    def test_missing_file(self):
        assert run_cli("simulate", "--config", "/nonexistent.json") == 2

    @pytest.mark.parametrize("cmd", ["resonant", "deviation"])
    def test_null_R0_rejected(self, tmp_path, capsys, cmd):
        path = tmp_path / "bad.json"
        path.write_text('{"params": {"R0": null}}')
        assert run_cli(cmd, "--config", str(path)) == 2
        assert "params.R0 must be positive and finite, got None" in capsys.readouterr().err

    def test_bad_model_name(self, tmp_path, capsys):
        # the free particle is params.p = 0: there is no model key
        path = tmp_path / "bad.json"
        path.write_text('{"model": "spherical_cow"}')
        assert run_cli("simulate", "--config", str(path)) == 2
        assert capsys.readouterr().err == "configuration error: unknown configuration key: model\n"

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Configuration is strict JSON")[1].split("```json\n")[1].split("```")[0]
        assert json.loads(block) == DEFAULTS

    @pytest.mark.parametrize("key", _leaf_keys(SCHEMA))
    def test_every_key_takes_its_edge_values(self, tmp_path, key):
        # each edit alone: load_config returns, or raises a ConfigError that names the key first
        *sections, leaf = key.split(".")
        default = DEFAULTS
        for section in sections:
            default = default[section]
        default = default[leaf]
        if isinstance(default, list):
            edits = [[*default[:i], v, *default[i + 1:]] for i, x in enumerate(default) for v in _edge_values(x)]
        else:
            edits = _edge_values(default)

        def check(value, *args, **kwargs):
            try:
                load_config(*args, **kwargs)
            except ConfigError as exc:
                message = str(exc)
                # a t past t_end is reported on t_end, which names it
                crossed = key == "initial_state.t" and message.startswith("t_end must be ") and key in message
                assert message.startswith(f"{key} must be ") or crossed, (value, message)

        path = tmp_path / "cfg.json"
        for value in [*edits, None, True, "x", [], {}]:
            cfg = {leaf: value}
            for section in reversed(sections):
                cfg = {section: cfg}
            path.write_text(json.dumps(cfg))
            check(value, str(path))
        if key == "seed":  # --seed takes the same walk
            for value in edits:
                check(value, None, seed_override=value)

class TestEval:
    def test_smoke(self, cfg_path, tmp_path, capsys):
        csv = tmp_path / "row.csv"
        rc = run_cli("eval", "--config", cfg_path, "--point", "0.001,0.5,0,-1,0.2",
                     "--csv", str(csv))
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("g11", "g22", "G1", "G2", "N11", "EYM"):
            assert name in out
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t,r,phi,rdot,phidot,closed_g11,oracle_g11")

    @pytest.mark.parametrize("args, fragment", [
        pytest.param("0.001,0.5,0,0,0.2", "rdot", id="rdot-zero"),
        pytest.param(
            "0.5,0.5,0,-1,0.1",
            "numerical/domain error: closed_semispray: e^E overflows at E = 2|V|t/r = 2000",
            id="overflow",
        ),
        pytest.param(
            "0.5,0.5,0,-1,0.1 --oracle-only",
            "numerical/domain error: L = nan is not finite at finite-difference probe",
            id="overflow-oracle-only",
        ),
        pytest.param(
            "0.001,0.5,0,1e-300,0.1",
            "numerical/domain error: invalid point: rdot^3 underflows to 0 at rdot = 1e-300",
            id="zero-division",
        ),
        pytest.param(
            "0.001,0.5,0,1e-107,0.1",
            "numerical/domain error: invalid point: g11 = -inf is not finite at rdot = 1e-107",
            id="step-underflow",
        ),
        pytest.param(
            # E = 200 keeps e^E finite, but e^E / rdot^3 overflows
            "0.1,1,0,-1e-100,0.2",
            "numerical/domain error: invalid point: g11 = inf is not finite at E = 200, rdot = -1e-100",
            id="stiff-overflow",
        ),
        pytest.param(
            # E = 600: the FD oracle reads g22 = 0 there, while the closed g11 is ~3.8e264
            "0.3,1,0,-1,0.2",
            "numerical/domain error: metric is singular within tolerance: g = [[",
            id="fd-metric-singular",
        ),
        pytest.param(
            # a = 2 p r^5 |V| e^E / rdot^3 is finite there, but 3 a G^1 / rdot in N11 is not
            "7.44e-4,0.125,0,-1e-100,0",
            "numerical/domain error: closed_nonlinear_connection: N11 = nan is not finite at |rdot| = 1e-100",
            id="N11-overflow",
        ),
        *[
            pytest.param(point + extra, fragment, id=name + extra)
            for name, point, fragment in [
                ("rdot3-overflow", "0,0.1,0,-1e300,0.2",
                 "numerical/domain error: invalid point: rdot^3 overflows at rdot = -1e+300"),
                ("r5-overflow", "0,1e100,0,-1,0.2",
                 "numerical/domain error: invalid point: r^5 overflows at r = 1e+100"),
                ("g22-underflow", "0,1e-300,0,-1,0.2",
                 "numerical/domain error: invalid point: g22 = m r^2 / 2 underflows to 0 at r = 1e-300"),
            ]
            for extra in ("", " --oracle-only")
        ],
        pytest.param(
            "1e308,1e-5,0,-1,0.2",
            "numerical/domain error: potential_U_dr requires a finite E = 2|V|t/r, got E = inf",
            id="E-overflow",
        ),
        pytest.param(
            "1e308,1e-5,0,-1,0.2 --oracle-only",
            "numerical/domain error: potential_U requires a finite E = 2|V|t/r, got E = inf",
            id="E-overflow --oracle-only",
        ),
    ])
    def test_rdot_zero_names_precondition(self, cfg_path, capsys, args, fragment):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("eval", "--config", cfg_path, "--point", *args.split())
        assert rc == 3
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err and "g11 = 0" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_oracle_only_leaves_closed_blank(self, cfg_path, capsys):
        rc = run_cli("eval", "--config", cfg_path, "--point", "0.001,0.5,0,-1,0.2",
                     "--oracle-only")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        g11 = next(l for l in lines if l.startswith("g11"))
        assert len(g11.split()) == 2  # name + oracle column only

    @pytest.mark.parametrize("cfg, point, extra, closed", [
        pytest.param({}, "0.001,0.5,0,-1,0.2", ["--oracle-only"], set(), id="oracle-only"),
        # the free particle, the monolayer at p = 0, fills every closed cell
        pytest.param({"params": {"p": 0}}, "0,2,0,3,0.5", [],
                     {"g11", "g22", "G1", "G2", "N11", "N12", "N21", "N22", "F21", "EYM"}, id="free_polar"),
    ])
    def test_csv_leaves_missing_closed_cells_empty(self, tmp_path, cfg, point, extra, closed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "row.csv"
        assert run_cli("eval", "--config", str(path), "--point", point, *extra, "--csv", str(out)) == 0
        with open(out, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert len(header) == len(row) == 25
        for name, cell in zip(header[5:], row[5:]):
            side, quantity = name.split("_", 1)
            assert (cell == "") == (side == "closed" and quantity not in closed), name

    def test_eym_divides_by_the_configured_mass(self, tmp_path):
        # at m = 2 the oracle's EYM = F21^2 / m reads the configured m, as the closed column does
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"m": 2.0}}))
        out = tmp_path / "row.csv"
        assert run_cli("eval", "--config", str(path), "--point", "0.001,0.5,0,-1,0.2", "--csv", str(out)) == 0
        with open(out, newline="") as fh:
            row = dict(zip(*csv.reader(fh)))
        closed = float(row["closed_EYM"])
        assert float(row["oracle_EYM"]) == pytest.approx(closed, rel=1e-5)

    def test_negative_first_value_takes_the_equals_form(self, cfg_path, capsys):
        # argparse reads "--point -0.35,..." as a missing value and an option
        assert run_cli("eval", "--config", cfg_path, "--point=-0.35,0.1,0,-1,0.2") == 0
        assert capsys.readouterr().out.startswith("point: t=-0.35 r=0.1 phi=0.0 rdot=-1.0 phidot=0.2\n")

    def test_malformed_point(self, cfg_path):
        assert run_cli("eval", "--config", cfg_path, "--point", "1,2,3") == 2

    # edge values of each coordinate, one ordinary range (so that some draws
    # are valid points) and the whole edge range; the example is a point where
    # e^E and r^5 / rdot^3 are finite but g11 overflows
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @example(t=0.1, r=1.0, rdot=-1e-100, phidot=0.2)
    @example(t=7.44e-4, r=0.125, rdot=-1e-100, phidot=0.0)  # a is finite, N11 is not
    @given(
        t=st.sampled_from([0.0, 1e-300, 1e-3, 0.5, 1e100, 1e308, -1e-3, -1e308])
        | st.floats(0.0, 1e-3) | st.floats(-1e308, 1e308),
        r=st.sampled_from([1e-300, 1e-100, 1e-5, 0.5, 1e10, 1e100]) | st.floats(0.1, 1.0) | st.floats(1e-300, 1e100),
        rdot=st.sampled_from([-1e300, -1e100, -5.0, -1e-100, -1e-300, 1e-300, 5.0])
        | st.floats(-5.0, -0.1) | st.floats(-1e300, 5.0),
        phidot=st.sampled_from([0.0, -1.0, 1e150, -1e150]) | st.floats(-1.0, 1.0) | st.floats(-1e150, 1e150),
    )
    def test_edge_points_end_in_a_result_or_a_classified_failure(self, t, r, rdot, phidot):
        point = ",".join(repr(v) for v in (t, r, 0.0, rdot, phidot))
        for extra in ([], ["--oracle-only"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_cli("eval", f"--point={point}", *extra)
            assert rc in (0, 2, 3), (point, extra)
            assert "Traceback" not in err.getvalue()
            if rc == 0:
                numbers = []
                for token in re.split(r"[\s=]+", out.getvalue()):
                    with contextlib.suppress(ValueError):
                        numbers.append(float(token))
                assert numbers and all(map(math.isfinite, numbers)), (point, extra, out.getvalue())


#: edge values of the parameters, as for the eval points above
_EDGE = [1e-300, 1e-100, 1e-5, 0.5, 1e10, 1e100, 1e300]


@st.composite
def _edge_configs(draw):
    """A command and a config of it with p, m, |V| and R0 from 1e-300 to 1e300, each
    run short: simulate to t_end <= 1e-3, a sweep of 1 or 2 runs, few resonant samples,
    validate at 1 to 3 points."""
    cmd = draw(st.sampled_from(["eval", "simulate", "sweep", "resonant", "deviation", "validate"]))
    defaults = {"p": 10.0, "m": 1.0, "V_abs": 1000.0, "R0": 1.0}
    cfg = {"params": {k: draw(st.sampled_from([v, *_EDGE]) | st.floats(1e-300, 1e300)) for k, v in defaults.items()}}
    t_end = draw(st.sampled_from([1e-6, 1e-3]) | st.floats(1e-9, 1e-3))
    if cmd == "simulate":
        cfg["t_end"] = t_end
    elif cmd == "sweep":
        n = draw(st.integers(1, 2))
        cfg["sweep"] = {"r": [0.2, 1.0, n], "rdot": [-5.0, -0.5, 1], "phidot_values": [0.0], "t_end": t_end}
    elif cmd == "validate":
        cfg["validate"] = {"n_points": draw(st.integers(1, 3))}
    elif cmd != "eval":
        cfg["resonant"] = {"n_samples": draw(st.integers(2, 30))}
    if cmd == "deviation":
        cfg["deviation"] = {
            k: draw(st.sampled_from([0.0, 1e-300, 1e-5, 1.0, 1e300]) | st.floats(0.0, 1e300))
            for k in ("delta_r", "delta_rdot")
        }
    return cmd, cfg


_SHORT = {"validate": {"n_points": 3}}
#: the explicit examples: configs that once ended in a solver give-up, a bare error, a numpy RuntimeWarning
#: or a config fault found only while running
_EDGE_EXAMPLES = [
    ("resonant", {"params": {"R0": 1e300}}),  # the solver gives up
    ("deviation", {"deviation": {"delta_r": 1e300}}),
    ("resonant", {"params": {"p": 0}}),  # the free particle, which resonant does not run
    ("resonant", {"params": {"R0": 1e-300}}),
    ("resonant", {"params": {"R0": 5e-324}}), ("deviation", {"params": {"V_abs": 5e-324}}),
    ("validate", {"params": {"m": 5e-324}, **_SHORT}), ("validate", {"params": {"p": 5e-324}, **_SHORT}),
    ("deviation", {"params": {"R0": 1e-100}, "deviation": {"delta_r": 1e-5}}),
    ("deviation", {"params": {"R0": 1e-300}, "deviation": {"delta_r": 1e-5}}),
    ("validate", {"params": {"V_abs": 1e100}, **_SHORT}), ("validate", {"params": {"V_abs": 1e300}, **_SHORT}),
    *[("resonant", {"params": {k: v}}) for k, v in (("m", 1e-300), ("p", 1e300), ("V_abs", 1e-100), ("R0", 1e-100))],
    ("validate", {"params": {"R0": 1e-300}, **_SHORT}), ("validate", {"params": {"R0": 1e-100}, **_SHORT}),
    *[(cmd, {"params": {k: v}, "t_end": 1e-4, "sweep": {"r": [0.5, 0.5, 1], "rdot": [-1.0, -1.0, 1], "t_end": 1e-4}})
      for cmd in ("simulate", "sweep") for k, v in (("p", 1e-300), ("V_abs", 1e-300), ("m", 1e100))],
]


def _edge_examples(test):
    for case in _EDGE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@_edge_examples
@given(_edge_configs())
def test_edge_configs_end_in_a_result_or_a_classified_failure(case):
    cmd, cfg = case
    point = ["--point=0.001,0.5,0,-1,0.2"] if cmd == "eval" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(cmd, "--config", str(path), "--out", str(Path(tmp) / "o"), *point)
        assert rc in (0, 1, 2, 3), (cmd, cfg)
        assert rc != 1 or cmd == "validate", (cmd, cfg)
        for bare in ("Traceback", "(34,", "division by zero"):
            assert bare not in err.getvalue(), (cmd, cfg, err.getvalue())
        if rc == 0:
            for table in Path(tmp).glob("o/*.csv"):
                with open(table, newline="") as fh:
                    for row in csv.reader(fh):
                        for cell in row:
                            with contextlib.suppress(ValueError):
                                assert math.isfinite(float(cell)), (cmd, cfg, table.name, row)


class TestSimulate:
    def test_csv_schema_and_determinism(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg_path, "--out", str(out1)) == 0
        assert run_cli("simulate", "--config", cfg_path, "--out", str(out2)) == 0
        body1 = (out1 / "trajectory.csv").read_bytes()
        body2 = (out2 / "trajectory.csv").read_bytes()
        assert body1 == body2
        header = body1.decode().splitlines()[0]
        assert header == ",".join(TRAJECTORY_HEADER)
        assert header == "t,r,phi,rdot,phidot,E_inst,H,H_YM,EYM,g11,event"

    def test_finite_time_collapse_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(
            {"initial_state": {"t": 0.0, "r": 0.2, "phi": 0.0, "rdot": -5.0, "phidot": 0.0}}
        ))
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "status=event:finite_time_collapse" in printed
        # at the solver's nodes the residual checks the spray it integrated
        assert float(printed.split("max Euler-Lagrange residual: ")[1].split()[0]) < 1e-7
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert last.endswith(",finite_time_collapse")

    def test_numbers_round_trip(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        run_cli("simulate", "--config", cfg_path, "--out", str(out))
        lines = (out / "trajectory.csv").read_text().splitlines()
        row = lines[2].split(",")
        for cell in row[:10]:
            v = float(cell)
            assert f"{v:.17g}" == cell  # 17 significant digits round-trip

    def test_free_polar_radial_column(self, tmp_path):
        cfg = {
            "params": {"p": 0},
            "initial_state": {"t": 0.0, "r": 1.0, "phi": 0.0, "rdot": 1.0, "phidot": 0.0},
            "t_end": 1.0,
        }
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            if cells[-1]:
                continue
            t, r = float(cells[0]), float(cells[1])
            assert abs(r - (1.0 + t)) < 1e-8

    def test_increasing_time_and_finite(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        run_cli("simulate", "--config", cfg_path, "--out", str(out))
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        ts = [float(l.split(",")[0]) for l in lines if not l.split(",")[-1]]
        assert all(b > a for a, b in zip(ts, ts[1:]))


class TestResonant:
    def test_columns(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("resonant", "--config", cfg_path, "--out", str(out)) == 0
        lines = (out / "resonant.csv").read_text().splitlines()
        assert lines[0] == "t,r0,r0dot,residual_eq21,residual_eq22,closed_form_r0,closed_form_residual"
        # closed-form columns stay empty without --closed-form
        assert lines[1].endswith(",,")
        for line in lines[1:]:
            assert float(line.split(",")[4]) < 1e-6  # eq22 residual

    def test_closed_form_flag_populates(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("resonant", "--config", cfg_path, "--closed-form", "--out", str(out)) == 0
        line = (out / "resonant.csv").read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[5] != "" and cells[6] != ""

    def test_closed_form_columns_sit_at_the_row_time(self, tmp_path):
        # the default config: every row's closed form is the printed solution at that row's t
        out = tmp_path / "o"
        assert run_cli("resonant", "--closed-form", "--out", str(out)) == 0
        with open(out / "resonant.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        t = np.array([float(row["t"]) for row in rows])
        want = _closed_form(t, MonolayerParams(R0=1.0))[0]
        got = np.array([float(row["closed_form_r0"]) for row in rows])
        assert np.max(np.abs(got - want) / want) <= 1e-12
        r0 = np.array([float(row["r0"]) for row in rows])
        assert np.max(np.abs(got - r0) / r0) < 1e-9

    @pytest.mark.parametrize("params", [{"p": 1.0, "V_abs": 1e-20}, {"R0": 1e10}], ids=["tiny-V", "huge-R0"])
    def test_residuals_stay_finite_where_the_exponential_overflows(self, tmp_path, params):
        # e^X passes the float range on these spans, so the residuals divide
        # through by it instead of forming it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": params}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("resonant", "--config", str(path), "--out", str(out)) == 0
        with open(out / "resonant.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(0.0 <= float(row[c]) <= 1.0 for row in rows for c in ("residual_eq21", "residual_eq22"))


class TestDeviation:
    def test_affine_column(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("deviation", "--config", cfg_path, "--out", str(out)) == 0
        lines = (out / "deviation.csv").read_text().splitlines()
        assert lines[0] == "t,delta_r,delta_rdot,delta_phi,delta_phidot,affine_residual"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[5]) < 1e-8  # slope-1 intercept-0 fit
            assert float(cells[1]) == 0.0  # zero initial data, zero forcing

    def test_affine_residual_on_an_offset_span(self, tmp_path, capsys):
        # delta_phi starts at C1 at the span's first time, so the fit is C1 + C2 (t - t0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resonant": {"t_start": 1e-4, "t_end": 2e-4, "n_samples": 5}}))
        out = tmp_path / "o"
        assert run_cli("deviation", "--config", str(path), "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert float(printed.split("max |delta_phi - (C1 + C2 (t - t0))|: ")[1]) < 1e-15
        with open(out / "deviation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["t"]) == 1e-4
        assert max(float(row["affine_residual"]) for row in rows) < 1e-15

    def test_compose_adds_r(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("deviation", "--config", cfg_path, "--compose", "--out", str(out)) == 0
        lines = (out / "deviation.csv").read_text().splitlines()
        assert lines[0].endswith(",r")
        rs = [float(l.split(",")[-1]) for l in lines[1:]]
        assert all(b < a for a, b in zip(rs, rs[1:]))  # decaying envelope


class TestValidate:
    def test_report_and_exit(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("validate", "--config", cfg_path, "--out", str(out)) == 0
        data = json.loads((out / "discrepancy_report.json").read_text())
        assert data["summary"]["n_flagged_unexplained"] == 0

    def test_determinism(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("validate", "--config", cfg_path, "--out", str(a))
        run_cli("validate", "--config", cfg_path, "--out", str(b))
        assert (a / "discrepancy_report.json").read_bytes() == (b / "discrepancy_report.json").read_bytes()

    def test_negative_control_detected(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run_cli("validate", "--config", cfg_path, "--negative-control",
                       "--out", str(out)) == 0

    def test_seed_override_changes_report(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("validate", "--config", cfg_path, "--out", str(a))
        run_cli("validate", "--config", cfg_path, "--seed", "9", "--out", str(b))
        assert (a / "discrepancy_report.json").read_bytes() != (b / "discrepancy_report.json").read_bytes()


def test_all_outputs_byte_identical(cfg_path, tmp_path):
    # the determinism contract covers every emitted file, not just simulate
    for cmd, fname, extra in (
        ("resonant", "resonant.csv", ["--closed-form"]),
        ("deviation", "deviation.csv", ["--compose"]),
    ):
        a, b = tmp_path / f"{cmd}_a", tmp_path / f"{cmd}_b"
        assert run_cli(cmd, "--config", cfg_path, *extra, "--out", str(a)) == 0
        assert run_cli(cmd, "--config", cfg_path, *extra, "--out", str(b)) == 0
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


class TestSweep:
    def test_index_written(self, tmp_path):
        cfg = {
            "sweep": {"r": [0.3, 0.5, 2], "rdot": [-2.0, -1.0, 2],
                      "phidot_values": [0.0], "t_end": 2e-4},
        }
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", path.as_posix(), "--out", str(out)) == 0
        lines = (out / "index.csv").read_text().splitlines()
        assert lines[0].startswith("run,r0,rdot0,phidot0,status")
        assert len(lines) == 5  # header + 2x2 grid
        assert (out / "run_000.csv").exists()

    def _sweep(self, tmp_path, cfg):
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", str(path), "--out", str(out)) == 0
        with open(out / "index.csv", newline="") as fh:
            return out, list(csv.reader(fh))

    def test_invalid_status_quoted_with_blank_cells(self, tmp_path):
        sweep = {"r": [0.0, 0.5, 2], "rdot": [-1.0, -1.0, 1], "phidot_values": [0.0], "t_end": 1e-4}
        _, rows = self._sweep(tmp_path, {"sweep": sweep})
        assert all(len(row) == 9 for row in rows)
        header, invalid, valid = rows
        assert invalid[header.index("status")] == "invalid:jet point requires r > 0, got r = 0.0"
        assert invalid[6:] == ["", "", ""]  # t_last, r_last, file
        assert valid[header.index("status")] == "completed"

    def test_nonfinite_cell_is_an_invalid_run(self, tmp_path):
        # p = 1e-300 leaves the zero-energy bracket ~ 1/p, whose square overflows
        # in H_YM = phidot^2 bracket^2 / 4m; at phidot = 0, H_YM is exactly 0
        sweep = {"r": [0.5, 0.5, 1], "rdot": [-1.0, -1.0, 1], "phidot_values": [0.1, 0.0], "t_end": 1e-4}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, rows = self._sweep(tmp_path, {"params": {"p": 1e-300}, "sweep": sweep})
        header, run, still = rows
        assert run[header.index("status")] == "invalid:run_000.csv: column H_YM holds the non-finite number inf"
        assert not (out / "run_000.csv").exists()
        assert still[header.index("status")] == "completed"
        series = list(csv.reader((out / "run_001.csv").open()))
        assert {row[series[0].index("H_YM")] for row in series[1:]} == {"0"}

    def test_m_squared_overflow_is_an_invalid_run(self, tmp_path):
        sweep = {"r": [0.2, 1.0, 2], "rdot": [-5.0, -0.5, 2], "phidot_values": [0.0, 0.1], "t_end": 2e-4}
        out, rows = self._sweep(tmp_path, {"params": {"m": 1e300}, "sweep": sweep})
        header, *runs = rows
        assert len(runs) == 8
        for run in runs:
            assert run[header.index("status")] == "invalid:zero_energy_bracket: m^2 overflows at m = 1e+300"
        assert not list(out.glob("run_*.csv"))

    def test_spray_overflow_is_an_invalid_run(self, tmp_path):
        sweep = {"r": [0.5, 0.5, 1], "rdot": [-1.0, -1.0, 1], "phidot_values": [1e308, 0.0], "t_end": 1e-4}
        out, rows = self._sweep(tmp_path, {"sweep": sweep})
        header, overflow, completed = rows
        assert overflow[header.index("status")] == (
            "invalid:the spray G overflows at (t, r, phi, rdot, phidot) = (0, 0.5, 0, -1, 1e+308)"
        )
        assert not (out / "run_000.csv").exists()
        assert completed[header.index("status")] == "completed"

    def test_budget_stop_is_recorded_and_the_sweep_goes_on(self, tmp_path, monkeypatch):
        # the solve of the r0 = 0.2, rdot0 = -5 run takes 3338 right-hand-side calls, that of r0 = 1 fewer than 200
        monkeypatch.setattr("jetlag.dynamics._MAX_RHS_CALLS", 1000)
        sweep = {"r": [0.2, 1.0, 2], "rdot": [-5.0, -5.0, 1], "phidot_values": [0.0]}
        out, rows = self._sweep(tmp_path, {"sweep": sweep})
        header, stopped, completed = rows
        assert stopped[header.index("status")].startswith(
            "invalid:geodesic integration over the span [0, 0.002] used up its budget of 1000 "
            "right-hand-side calls at t = "
        )
        assert not (out / "run_000.csv").exists()
        assert completed[header.index("status")] == "completed"
        assert (out / "run_001.csv").exists()

    def test_honours_integrator_max_step(self, tmp_path):
        sweep = {"r": [0.5, 0.5, 1], "rdot": [-1.0, -1.0, 1], "phidot_values": [0.0], "t_end": 1e-4}
        out, rows = self._sweep(tmp_path, {"integrator": {"max_step": 1e-6}, "sweep": sweep})
        assert int(rows[1][rows[0].index("n_samples")]) >= 100
        assert len((out / "run_000.csv").read_text().splitlines()) >= 101


def test_eval_other_models(tmp_path, capsys):
    fp = tmp_path / "fp.json"
    fp.write_text(json.dumps({"params": {"p": 0}}))
    assert run_cli("eval", "--config", str(fp), "--point", "0,2,0,3,0.5") == 0
    out = capsys.readouterr().out
    g1_line = next(l for l in out.splitlines() if l.startswith("G1"))
    assert float(g1_line.split()[1]) == pytest.approx(-0.25, rel=1e-12)

    # the charged-particle fixture is a test oracle, not a model eval runs
    for cfg, message in [
        ({"model": "electrodynamics_fixture"}, "unknown configuration key: model"),
        ({"fixture": {"m": 1.0, "c": 1.0, "e": 1.0, "a": 2.0, "b": -1.0}}, "unknown configuration key: fixture"),
    ]:
        fp.write_text(json.dumps(cfg))
        assert run_cli("eval", "--config", str(fp), "--point", "0,1.5,0.7,0.3,-0.2") == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("cmd, cfg, message", [
    # p = 0 is the free particle, which only eval, simulate and sweep run
    *[pytest.param(cmd, {"params": {"p": 0}}, f"{cmd} needs p > 0; p = 0 is the free particle, which it does not run",
                   id=f"{cmd}-p0")
      for cmd in ("resonant", "deviation", "validate")],
    # there is no model key, whatever its value
    *[pytest.param(cmd, {"model": model}, "unknown configuration key: model", id=f"{cmd}-{model}")
      for model in ("free_polar", "monolayer") for cmd in ("resonant", "deviation", "validate", "simulate", "sweep")],
    *[pytest.param(cmd, {"model": "electrodynamics_fixture"}, "unknown configuration key: model",
                   id=f"{cmd}-electrodynamics_fixture")
      for cmd in ("resonant", "deviation", "validate", "simulate", "sweep")],
])
def test_commands_reject_a_model_they_do_not_run(tmp_path, capsys, cmd, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(cmd, "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not (tmp_path / "o").exists()


#: SHA-256 of the default free-particle (p = 0) simulate and sweep files; at p = 0 the diagnostics take no
#: exp, and numpy's AVX-512 and AVX2 dispatch give the same bytes.  The
#: simulate file is the float Dormand-Prince driver's: one phi sample sits one
#: float spacing from where scipy's BLAS stage sums put it
FREE_PARTICLE_SHA256 = {
    "simulate/trajectory.csv": "724df3083bce6dbd8466d04c704e74824529b8bc2d0e9e1f458c277f7c36a8bd",
    "sweep/index.csv": "de1c7802e8772407a8b7a5ce62e0a8a54efb2f3a5472399a2cd8c4e95787b71f",
    "sweep/run_000.csv": "8216468d56cfd3714d760ca6f34b3db35f8818b39674c48cd363c83fdd699ce3",
    "sweep/run_001.csv": "8b09c211eb331d35cde15482e0fca79e2e868224bd1e245c078a2629c935d552",
    "sweep/run_002.csv": "f614a5669e1084d45173e1b38b080d86780b05b1e09a540339460d83bdc76d78",
    "sweep/run_003.csv": "225d39dae1c3eec3839ae63335a74a7129bd2988a11675951dc9a658802bdd2b",
    "sweep/run_004.csv": "f685ce031f1df2ecb85956b82b65c234da3b6a4e24cba5aa69dd910ddd8ac61f",
    "sweep/run_005.csv": "9bb3ee3e5947f47ebd5fc8294528085a090ea07d696f8320b9b439cd7878893a",
    "sweep/run_006.csv": "c702db2beb1c54061b5188ca8867a242d8a333e7f3f0ed7455bb0fd574ddff4d",
    "sweep/run_007.csv": "7686921957370e259e5ccf4c4e51ed98c39ce620e077c929f304ce1ec0574f8a",
    "sweep/run_008.csv": "8e03508d71014334c487063bfb01b64f3ad68551ad54a16eb602bdf504417ede",
    "sweep/run_009.csv": "a77f598f0f5857a658d3f258334d7711856df2600d26f3825d552f5e25b5bafe",
    "sweep/run_010.csv": "f4c5c49ed0a69914676a34be21050754f14b8847c1434349538ef07c200601c3",
    "sweep/run_011.csv": "4f53c861b87f399257ae2cb48e26a66e5a9838fc55412c455943437cf5a0da73",
    "sweep/run_012.csv": "c59912b1626b47314cbcce5ac3b9db819a4cd154631f1f8e1f9edd661338923a",
    "sweep/run_013.csv": "fce5c423cb20304b62b23c35ff440e3e8c45925a055e1ca32d45c40d88ee91df",
    "sweep/run_014.csv": "c0e70a73572b531d6dd2f6be0bcecf46437c3fb3ccd1cf3ce1bb17882bd96d8d",
    "sweep/run_015.csv": "5602a89d5d5ad2f0d30ff9c10b67129e985b49fa60a565bbb67ddb5c35d45da9",
    "sweep/run_016.csv": "009612741f97ea21d6b5b0fd24c442d4803f80730940aa47fada18655a3261af",
    "sweep/run_017.csv": "ee941ec3b73d51519488f7a62fa4e299540456f3731516a00ade57e2dc1a0a64",
    "sweep/run_018.csv": "8cd8f85f395ccb5c08ff5b06d1fb51d6c71d7c3bc6bf9e03f9bf8a306af2c50e",
    "sweep/run_019.csv": "be8b731f457918b5b0e7138ec98f5e6dedf4164bc44d00075c38ccb70b5d9258",
    "sweep/run_020.csv": "d5af1f413a8f06b709203cfaee94b2858da9485ae4f7deeae3b1d9f5db881e2f",
    "sweep/run_021.csv": "582071e257edab9140e8a14668f87281ca8c0930622829099546cf43e42a03db",
    "sweep/run_022.csv": "46d2060fa92300a4283b2180376275545aa430f23c82e200bc9bdff97879aa5d",
    "sweep/run_023.csv": "4143dc0adb09ee003673eb5933431debb8aef8aa646d8b294cf837bf92b5b65e",
    "sweep/run_024.csv": "462704900f4de2ba7d5d35150c25711c99176cb3333d54570da5cd147f0e8d43",
}


@pytest.mark.parametrize("cfg", [pytest.param({"params": {"p": 0}}, id="monolayer-p0")])
def test_free_particle_files_are_pinned(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for cmd in ("simulate", "sweep"):
        assert run_cli(cmd, "--config", str(path), "--out", str(tmp_path / cmd)) == 0
    written = {f"{f.parent.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.glob("*/*.csv")}
    assert written == FREE_PARTICLE_SHA256


@pytest.mark.parametrize("cmd, cfg, fragment", [
    pytest.param("resonant", {"params": {"R0": 1e300}}, "resonant integration failed", id="resonant-give-up"),
    pytest.param("validate", {"params": {"R0": 1e300}}, "resonant integration failed", id="validate-give-up"),
    pytest.param("deviation", {"deviation": {"delta_r": 1e300}}, "deviation integration failed", id="deviation-give-up"),
    # both terms of the resonance residual underflow to 0
    pytest.param("resonant", {"params": {"p": 1e300}},
                 "residual_eq21: |m r0dot^3 e^-X + 6 p |V| r0^5| over its larger term is not finite at t = 2.00501e-06, "
                 "r0 = 8.58859e-144", id="nonfinite-cell"),
    pytest.param("simulate", {"params": {"m": 1e300}, "t_end": 1e-4},
                 "zero_energy_bracket: m^2 overflows at m = 1e+300", id="m-squared-overflow"),
    pytest.param("resonant", {"params": {"m": 1e300}},
                 "ym_bracket_residual: m^2 overflows at m = 1e+300", id="resonant-m-squared-overflow"),
    # without the budget these two run for as long as they are let: |V| = 1e-20 makes
    # the deviation span 8e19 long, and max_step = 1e-10 asks for 2e7 steps
    pytest.param("deviation",
                 {"params": {"p": 1.0, "V_abs": 1e-20}, "deviation": {"delta_r": 1e-5}, "resonant": {"n_samples": 10}},
                 "deviation integration over the span [0, 8e+19] used up its budget of 100000 right-hand-side "
                 "calls at t = ", id="deviation-budget"),
    # r_min = 1e308 clamps r to 1e307, whose r^5 overflows; phidot^2 overflows at 1e308
    pytest.param("simulate", {"events": {"r_min": 1e308}},
                 "the spray G overflows at (t, r, phi, rdot, phidot) = (0, 1e+307, 0, -1, 0.1)", id="r_min-overflow"),
    pytest.param("simulate", {"initial_state": {"phidot": 1e308}},
                 "the spray G overflows at (t, r, phi, rdot, phidot) = (0, 0.5, 0, -1, 1e+308)", id="phidot-overflow"),
    pytest.param("simulate", {"integrator": {"max_step": 1e-10}},
                 "geodesic integration over the span [0, 0.002] used up its budget of 100000 right-hand-side "
                 "calls at t = ", id="simulate-budget"),
    # a quantity that underflows to 0 or overflows is named, never a bare division or range error
    pytest.param("validate", {"params": {"m": 5e-324}, "validate": {"n_points": 3}},
                 "dynamic_range_ratio: the fibre signal underflows to 0 at m = 4.94066e-324, r = ",
                 id="fibre-signal-underflow"),
    pytest.param("validate", {"params": {"p": 5e-324}, "validate": {"n_points": 3}},
                 "_expansion_eps: a = 2 p r^5 |V| e^E / rdot^3 underflows to 0 at p = 4.94066e-324, r = ",
                 id="eps-underflow"),
    *[pytest.param("deviation", {"params": {"R0": R0}, "deviation": {"delta_r": 1e-5}},
                   f"deviation_integrate: A = 2 p |V| r0^5 e^E0 - m rdot0^3 is 0 at t = 0, r0 = {R0:g}",
                   id=f"deviation-A-underflow-{R0:g}") for R0 in (1e-100, 1e-300)],
    *[pytest.param("validate", {"params": {"V_abs": V}, "validate": {"n_points": 3}},
                   "potential_U: E^6 overflows at E = 2|V|t/r = ", id=f"E-power-overflow-{V:g}") for V in (1e100, 1e300)],
    pytest.param("validate", {"params": {"R0": 1e-300}},
                 "the closed-form dr0/dt is not finite at t = 0, r0 = 1e-300", id="closed-form-rate"),
    pytest.param("validate", {"params": {"R0": 1e-100}},
                 "residual_eq22: |m r0dot^3 e^-X + 6 p |V| r0^5| over its larger term is not finite at t = 0, "
                 "r0 = 1e-100", id="validate-residual-underflow"),
    # an H_YM that overflows reaches the CSV writer, which names its column
    *[pytest.param("simulate", {"params": {k: v}, "t_end": 1e-4}, "trajectory.csv: column H_YM holds the non-finite "
                   "number inf", id=f"H_YM-overflow-{k}-{v:g}") for k, v in (("p", 5e-324), ("m", 1e100))],
])
def test_numerical_failures_exit_3(tmp_path, capsys, cmd, cfg, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(cmd, "--config", str(path), "--out", str(tmp_path / "o")) == 3
    assert time.monotonic() - started < 10.0
    err = capsys.readouterr().err
    assert f"numerical/domain error: {fragment}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("o/*.csv")) and not list(tmp_path.glob("o/*.json"))


def test_console_entry_point(cfg_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "eval", "--config", cfg_path,
         "--point", "0.001,0.5,0,-1,0.2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "g11" in proc.stdout


def test_log_env_var(cfg_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "simulate", "--config", cfg_path,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**__import__("os").environ, "JETLAG_LOG": "debug"},
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[0] == f"jetlag INFO: simulate: config loaded from {cfg_path}"
    assert proc.stderr.splitlines()[-1].startswith("jetlag INFO: wrote ")


# each command's flags and, in order, its stage lines at info between
# "config loaded" and the last "wrote"
_STAGES = {
    "eval": (["--point", "0.001,0.5,0,-1,0.2"], ("eval: closed forms done", "eval: oracle done")),
    "simulate": ([], ("simulate: geodesic solve done",)),
    "resonant": (["--closed-form"], ("resonant reference: solve done", "resonant: closed-form trajectory done")),
    "deviation": (["--compose"], ("resonant reference: solve done", "deviation: Jacobi solve done",
                                  "deviation: composition done")),
    "validate": ([], ("validate: validation done",)),
    "sweep": ([], ("sweep: run 0 solve done", "sweep: run 1 solve done")),
}


@pytest.mark.parametrize("cmd", list(_STAGES))
def test_log_info_emits_stage_lines_and_leaves_the_data_alone(cfg_path, tmp_path, monkeypatch, caplog, cmd):
    extra, stages = _STAGES[cmd]
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["sweep"] = {"r": [0.3, 0.5, 2], "rdot": [-1.0, -1.0, 1], "phidot_values": [0.0], "t_end": 2e-4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    files = {}
    for level in ("info", "warning", None):
        if level is None:
            monkeypatch.delenv("JETLAG_LOG", raising=False)
        else:
            monkeypatch.setenv("JETLAG_LOG", level)
        out = tmp_path / str(level)
        csv_arg = ["--csv", str(out / "point.csv")] if cmd == "eval" else []
        caplog.clear()
        assert run_cli(cmd, "--config", str(path), "--out", str(out), *extra, *csv_arg) == 0
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "jetlag"]
        if level == "info":
            assert lines[0] == f"{cmd}: config loaded from {path}"
            assert lines[-1].startswith(f"wrote {out}")
            rest = iter(lines)
            assert all(any(line.startswith(stage) for line in rest) for stage in stages), lines
        else:
            assert lines == []
        files[level] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert files["info"] and files["info"] == files["warning"] == files[None]


def test_unknown_log_level_is_a_configuration_error(cfg_path, monkeypatch, capsys):
    monkeypatch.setenv("JETLAG_LOG", "verbose")
    assert run_cli("simulate", "--config", cfg_path, "--out", "unused") == 2
    assert capsys.readouterr().err == (
        "configuration error: JETLAG_LOG must be one of debug, info, warning, error, got 'verbose'\n"
    )


def test_no_command_loads_scipy(tmp_path):
    # Ei and the ODE driver are jetlag's own: importing jetlag and running any
    # command leave no scipy module behind
    loaded = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    proc = subprocess.run([sys.executable, "-c", f"import sys, jetlag; print({loaded})"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    run = f"import sys; from jetlag.cli import main; code = main(sys.argv[1:]); print(code, {loaded})"
    for cmd, *extra in (("eval", "--point", "0.001,0.5,0,-1,0.2"), ("simulate",), ("sweep",), ("resonant",),
                        ("deviation",), ("validate",)):
        proc = subprocess.run(
            [sys.executable, "-c", run, cmd, *extra, "--out", str(tmp_path / cmd)], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", (cmd, proc.stdout)


def test_log_debug_reports_each_solve(tmp_path, monkeypatch, caplog):
    # one line per solve from the driver's own counts; the data files do not change
    files = {}
    for level in ("debug", None):
        if level is None:
            monkeypatch.delenv("JETLAG_LOG", raising=False)
        else:
            monkeypatch.setenv("JETLAG_LOG", level)
        out = tmp_path / str(level)
        caplog.clear()
        for cmd in ("simulate", "deviation"):
            assert run_cli(cmd, "--out", str(out / cmd)) == 0
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "jetlag" and rec.levelname == "DEBUG"]
        if level == "debug":
            assert lines[0] == "geodesic integration: 350 RHS calls, 56 accepted and 2 rejected steps, completed"
            assert [line.split(":")[0] for line in lines] == [
                "geodesic integration", "resonant integration", "deviation integration",
            ]
            assert all(line.endswith(", completed") for line in lines)
        else:
            assert lines == []
        files[level] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert files["debug"] and files["debug"] == files[None]


def test_log_debug_says_gave_up_for_a_collapsing_solve(tmp_path, monkeypatch, caplog):
    # the solver's status -1 is a give-up, which the run records as a collapse event
    monkeypatch.setenv("JETLAG_LOG", "debug")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_state": {"r": 0.2, "rdot": -5.0, "phidot": 0.1}}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "jetlag" and rec.levelname == "DEBUG"]
    assert lines == ["geodesic integration: 3338 RHS calls, 553 accepted and 3 rejected steps, gave up"]
    index = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert index[-1].endswith(",finite_time_collapse")
