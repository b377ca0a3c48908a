"""Command-line front end.

Subcommands: eval, simulate, resonant, deviation, validate, sweep.
Configuration is strict JSON (unknown keys are rejected) merged over the reference-parameter
defaults (m=1, p=10, |V|=1000); all numeric CSV fields are written with 17 significant digits so
repeated runs with the same config and seed are byte-identical.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical/domain failure.  JETLAG_LOG=debug|info|warning|error controls
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import monolayer as mono
from .dynamics import (
    DeviationState,
    SimConfig,
    TrajectoryState,
    compose_perturbed,
    deviation_integrate,
    integrate_geodesic,
    plateau_interval,
    resonant_trajectory,
)
from .electrodynamics import ElectrodynamicsFixtureParams, closed_em_form, electrodynamics_fixture
from .errors import ConfigError, DomainError, JetLagError
from .geometry import GeometryEvaluator, ym_energy
from .models import FreePolarModel
from .monolayer import MonolayerModel, MonolayerParams
from .points import jet_point
from .validate import run_validation

log = logging.getLogger("jetlag")

TRAJECTORY_HEADER = ["t", "r", "phi", "rdot", "phidot", "E_inst", "H", "H_YM", "EYM", "g11", "event"]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# -- configuration --------------------------------------------------------------

_NUM = (int, float)

SCHEMA = {
    "model": str,
    "params": {"m": _NUM, "p": _NUM, "V_abs": _NUM, "R0": _NUM},
    "initial_state": {"t": _NUM, "r": _NUM, "phi": _NUM, "rdot": _NUM, "phidot": _NUM},
    "t_end": _NUM,
    "integrator": {"rtol": _NUM, "atol": _NUM, "max_step": _NUM},
    "epsilon_phidot": _NUM,
    "events": {"r_min": _NUM},
    "seed": int,
    "tolerances": {"oracle": _NUM, "identity": _NUM},
    "resonant": {"t_start": _NUM, "t_end": _NUM, "n_samples": int, "rtol": _NUM, "atol": _NUM},
    "deviation": {
        "c1": _NUM,
        "c2": _NUM,
        "delta_r": _NUM,
        "delta_rdot": _NUM,
        "u_second_derivative": str,
        "resonant_substitution": bool,
        "rtol": _NUM,
        "atol": _NUM,
    },
    "validate": {"n_points": int},
    "sweep": {"r": list, "rdot": list, "phidot_values": list, "t_end": _NUM},
    "fixture": {"m": _NUM, "c": _NUM, "e": _NUM, "a": _NUM, "b": _NUM},
}

DEFAULTS = {
    "model": "monolayer",
    "params": {"m": 1.0, "p": 10.0, "V_abs": 1000.0, "R0": 1.0},
    "initial_state": {"t": 0.0, "r": 0.5, "phi": 0.0, "rdot": -1.0, "phidot": 0.1},
    "t_end": 2e-3,
    "integrator": {"rtol": 1e-9, "atol": 1e-9, "max_step": 0.0},
    "epsilon_phidot": 0.0,
    "events": {"r_min": 1e-6},
    "seed": 0,
    "tolerances": {"oracle": 1e-5, "identity": 1e-10},
    "resonant": {"t_start": 0.0, "t_end": 0.0, "n_samples": 400, "rtol": 1e-12, "atol": 1e-14},
    "deviation": {
        "c1": 0.0,
        "c2": 1.0,
        "delta_r": 0.0,
        "delta_rdot": 0.0,
        "u_second_derivative": "r",
        "resonant_substitution": True,
        "rtol": 1e-10,
        "atol": 1e-12,
    },
    "validate": {"n_points": 100},
    "sweep": {"r": [0.2, 1.0, 5], "rdot": [-5.0, -0.5, 5], "phidot_values": [0.0], "t_end": 2e-3},
    "fixture": {"m": 1.0, "c": 1.0, "e": 1.0, "a": 2.0, "b": -1.0},
}


def _check_keys(cfg: dict, schema: dict, path: str = ""):
    for key, value in cfg.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key: {here}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            _check_keys(value, expected, here)
        else:
            if expected is _NUM:
                if not isinstance(value, _NUM) or isinstance(value, bool):
                    raise ConfigError(f"{here} must be a number")
            elif not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                raise ConfigError(f"{here} must be of type {getattr(expected, '__name__', expected)}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed_override=None) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
        _check_keys(cfg, SCHEMA)
    merged = _merge(DEFAULTS, cfg)
    if merged["model"] not in ("monolayer", "free_polar", "electrodynamics_fixture"):
        raise ConfigError(f"unknown model: {merged['model']}")
    if merged["deviation"]["u_second_derivative"] not in ("r", "t"):
        raise ConfigError("deviation.u_second_derivative must be 'r' or 't'")
    if seed_override is not None:
        merged["seed"] = int(seed_override)
    return merged


def _params_from(cfg: dict) -> MonolayerParams:
    p = cfg["params"]
    pval = 0.0 if cfg["model"] == "free_polar" else p["p"]
    return MonolayerParams(m=p["m"], p=pval, V_abs=p["V_abs"], R0=p.get("R0"))


def _model_from(cfg: dict):
    if cfg["model"] == "free_polar":
        return FreePolarModel(m=cfg["params"]["m"])
    if cfg["model"] == "electrodynamics_fixture":
        fx = cfg["fixture"]
        a, b = fx["a"], fx["b"]
        params = ElectrodynamicsFixtureParams(
            m=fx["m"],
            c=fx["c"],
            e=fx["e"],
            A=lambda x, a=a, b=b: np.array([a * x[1], b * x[0]]),
            A_jac=lambda x, a=a, b=b: np.array([[0.0, a], [b, 0.0]]),
        )
        return electrodynamics_fixture(params)
    return MonolayerModel(_params_from(cfg))


def _sim_config(cfg: dict) -> SimConfig:
    s = cfg["initial_state"]
    max_step = cfg["integrator"]["max_step"]
    return SimConfig(
        params=_params_from(cfg),
        state0=TrajectoryState(s["t"], s["r"], s["phi"], s["rdot"], s["phidot"]),
        t_end=cfg["t_end"],
        rtol=cfg["integrator"]["rtol"],
        atol=cfg["integrator"]["atol"],
        max_step=max_step if max_step > 0 else float("inf"),
        r_min=cfg["events"]["r_min"],
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trajectory_csv(path: Path, series) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        for i in range(len(series.t)):
            row = [
                _fmt(series.t[i]),
                _fmt(series.r[i]),
                _fmt(series.phi[i]),
                _fmt(series.rdot[i]),
                _fmt(series.phidot[i]),
                _fmt(series.e_inst[i]),
                _fmt(series.H[i]),
                _fmt(series.H_ym[i]),
                _fmt(series.eym[i]),
                _fmt(series.g11[i]),
                "",
            ]
            fh.write(",".join(row) + "\n")
        for ev in series.events:
            idx = len(series.t) - 1
            row = [
                _fmt(ev.t_event),
                _fmt(series.r[idx]),
                _fmt(series.phi[idx]),
                _fmt(series.rdot[idx]),
                _fmt(series.phidot[idx]),
                _fmt(series.e_inst[idx]),
                _fmt(series.H[idx]),
                _fmt(series.H_ym[idx]),
                _fmt(series.eym[idx]),
                _fmt(series.g11[idx]),
                ev.kind,
            ]
            fh.write(",".join(row) + "\n")


# -- subcommands -----------------------------------------------------------------

_EVAL_QUANTITIES = ["g11", "g22", "G1", "G2", "N11", "N12", "N21", "N22", "F21", "EYM"]


def _closed_eval_columns(cfg, model, pt) -> dict:
    out = {}
    if cfg["model"] == "monolayer":
        params = _params_from(cfg)
        met = mono.closed_metric(pt, params)
        spray = mono.closed_semispray(pt, params, form="exact")
        nlc = mono.closed_nonlinear_connection(pt, params, form="exact")
        _, eym = mono.closed_em_and_ym(pt, params, form="exact")
        out = {
            "g11": met.g[0, 0],
            "g22": met.g[1, 1],
            "G1": spray.G[0],
            "G2": spray.G[1],
            "N11": nlc.N[0, 0],
            "N12": nlc.N[0, 1],
            "N21": nlc.N[1, 0],
            "N22": nlc.N[1, 1],
            "F21": mono.em_component_f21(pt, params, form="exact"),
            "EYM": eym,
        }
    elif cfg["model"] == "free_polar":
        m = cfg["params"]["m"]
        G1, G2 = model.spray(pt)
        out = {"g11": 0.5 * m, "g22": 0.5 * m * pt.r**2, "G1": G1, "G2": G2}
    else:  # electrodynamics fixture: the classical closed-form F
        F = closed_em_form(model.params, np.array(pt.x)).F
        out = {"F21": F[1, 0]}
    return out


def cmd_eval(cfg: dict, args) -> int:
    pieces = args.point.split(",")
    if len(pieces) != 5:
        raise ConfigError("--point needs 5 comma-separated values: t,r,phi,rdot,phidot")
    try:
        vals = [float(v) for v in pieces]
    except ValueError as exc:
        raise ConfigError(f"--point values must be numbers: {exc}") from exc
    model = _model_from(cfg)
    try:
        pt = jet_point(*vals)
    except ValueError as exc:
        raise DomainError(f"invalid point: {exc}") from exc
    violation = model.domain_violation(pt)
    if violation is not None:
        raise DomainError(f"invalid point: {violation}")

    ev = GeometryEvaluator(model, pt)
    met = ev.metric()
    spray = ev.semispray()
    nlc = ev.nonlinear_connection()
    em = ev.em_form()
    mass = getattr(model, "m", 1.0)
    oracle = {
        "g11": met.g[0, 0],
        "g22": met.g[1, 1],
        "G1": spray.G[0],
        "G2": spray.G[1],
        "N11": nlc.N[0, 0],
        "N12": nlc.N[0, 1],
        "N21": nlc.N[1, 0],
        "N22": nlc.N[1, 1],
        "F21": em.F[1, 0],
        "EYM": ym_energy(em, mass),
    }
    closed = {} if args.oracle_only else _closed_eval_columns(cfg, model, pt)

    print(f"model={cfg['model']} point: t={pt.t} r={pt.r} phi={pt.phi} rdot={pt.rdot} phidot={pt.phidot}")
    print(f"{'quantity':<10} {'closed_form':>24} {'oracle':>24}")
    for name in _EVAL_QUANTITIES:
        cf = _fmt(closed[name]) if name in closed else ""
        print(f"{name:<10} {cf:>24} {_fmt(oracle[name]):>24}")

    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = ["t", "r", "phi", "rdot", "phidot"]
        row = [_fmt(v) for v in vals]
        for name in _EVAL_QUANTITIES:
            header += [f"closed_{name}", f"oracle_{name}"]
            row += [_fmt(closed[name]) if name in closed else "", _fmt(oracle[name])]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(",".join(row) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    model = _model_from(cfg)
    if cfg["model"] == "electrodynamics_fixture":
        raise ConfigError("simulate supports the monolayer and free_polar models")
    series = integrate_geodesic(_sim_config(cfg), model)
    out = _out_dir(args) / "trajectory.csv"
    _write_trajectory_csv(out, series)
    print(f"wrote {out} ({len(series.t)} samples, status={series.status})")
    if series.el_residual is not None:
        finite = series.el_residual[np.isfinite(series.el_residual)]
        if len(finite):
            print(f"max Euler-Lagrange residual: {np.max(finite):.3e}")
    for evnt in series.events:
        print(f"event {evnt.kind}: t in [{_fmt(evnt.t_lo)}, {_fmt(evnt.t_hi)}], refined {_fmt(evnt.t_event)}")
    if series.status.startswith("failed"):
        print(f"integration failure; last good state t={_fmt(series.t[-1])} r={_fmt(series.r[-1])}", file=sys.stderr)
        return 3
    return 0


def cmd_resonant(cfg: dict, args) -> int:
    params = _params_from(cfg)
    if params.R0 is None:
        raise ConfigError("resonant needs params.R0")
    r = cfg["resonant"]
    t_end = r["t_end"] if r["t_end"] > 0 else None
    span = None if t_end is None else (r["t_start"], t_end)
    traj = resonant_trajectory(
        params, t_span=span, source="ode", n_samples=r["n_samples"], rtol=r["rtol"], atol=r["atol"]
    )
    res21 = traj.residual_eq21()
    res22 = traj.residual_eq22()
    closed_r0 = closed_res = None
    if args.closed_form:

        closed = resonant_trajectory(
            params, t_span=(traj.t[0], traj.t[-1]), source="closed_form", n_samples=len(traj.t)
        )
        closed_r0 = closed.r0
        closed_res = closed.residual_eq22()

    out = _out_dir(args) / "resonant.csv"
    header = ["t", "r0", "r0dot", "residual_eq21", "residual_eq22", "closed_form_r0", "closed_form_residual"]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(traj.t)):
            row = [
                _fmt(traj.t[i]),
                _fmt(traj.r0[i]),
                _fmt(traj.r0dot[i]),
                _fmt(res21[i]),
                _fmt(res22[i]),
                _fmt(closed_r0[i]) if closed_r0 is not None else "",
                _fmt(closed_res[i]) if closed_res is not None else "",
            ]
            fh.write(",".join(row) + "\n")
    t_lo, t_hi, dur = plateau_interval(traj.t, traj.r0)
    print(f"wrote {out} ({len(traj.t)} samples)")
    print(f"plateau: longest low-|dr/dt| interval [{_fmt(t_lo)}, {_fmt(t_hi)}] duration {_fmt(dur)}")
    print(f"max residual_eq22: {np.max(res22):.3e}  max YM bracket residual: {np.max(traj.ym_bracket_residual()):.3e}")
    for flag in traj.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def cmd_deviation(cfg: dict, args) -> int:
    params = _params_from(cfg)
    if params.R0 is None:
        raise ConfigError("deviation needs params.R0 (for the resonant reference)")
    r = cfg["resonant"]
    t_end = r["t_end"] if r["t_end"] > 0 else None
    span = None if t_end is None else (r["t_start"], t_end)
    reference = resonant_trajectory(
        params, t_span=span, source="ode", n_samples=r["n_samples"], rtol=r["rtol"], atol=r["atol"]
    )
    d = cfg["deviation"]
    init = DeviationState(
        delta_r=d["delta_r"], delta_rdot=d["delta_rdot"], delta_phi=d["c1"], delta_phidot=d["c2"]
    )
    dev = deviation_integrate(
        reference,
        init,
        params,
        resonant_substitution=d["resonant_substitution"],
        u_second_derivative=d["u_second_derivative"],
        rtol=d["rtol"],
        atol=d["atol"],
    )
    affine = np.abs(dev.delta_phi - (dev.c1 + dev.c2 * dev.t))
    composed = compose_perturbed(reference, dev) if args.compose else None

    out = _out_dir(args) / "deviation.csv"
    header = ["t", "delta_r", "delta_rdot", "delta_phi", "delta_phidot", "affine_residual"]
    if composed is not None:
        header.append("r")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(dev.t)):
            row = [
                _fmt(dev.t[i]),
                _fmt(dev.delta_r[i]),
                _fmt(dev.delta_rdot[i]),
                _fmt(dev.delta_phi[i]),
                _fmt(dev.delta_phidot[i]),
                _fmt(affine[i]),
            ]
            if composed is not None:
                row.append(_fmt(composed.r[i]))
            fh.write(",".join(row) + "\n")
    print(f"wrote {out} ({len(dev.t)} samples)")
    print(f"max |delta_phi - (C1 + C2 t)|: {np.max(affine):.3e}")
    return 0


def cmd_validate(cfg: dict, args) -> int:
    params = _params_from(cfg)
    report = run_validation(
        params,
        seed=cfg["seed"],
        n_points=cfg["validate"]["n_points"],
        tolerance=cfg["tolerances"]["oracle"],
        negative_control=args.negative_control,
    )
    out = _out_dir(args) / "discrepancy_report.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")

    worst: dict[str, float] = {}
    flagged: dict[str, int] = {}
    for rec in report.records:
        if rec.rel_err is not None:
            worst[rec.quantity] = max(worst.get(rec.quantity, 0.0), rec.rel_err)
        if rec.verdict == "flagged":
            flagged[rec.quantity] = flagged.get(rec.quantity, 0) + 1
    print(f"{'quantity':<26} {'worst rel err':>14} {'flagged':>8}")
    for name in sorted(worst):
        print(f"{name:<26} {worst[name]:>14.3e} {flagged.get(name, 0):>8}")
    print(
        f"points: {report.n_points} ({report.n_points_resolvable} fd-resolvable)  "
        f"records: {len(report.records)}  ok: {report.n_ok}  flagged: {report.n_flagged} "
        f"(unexplained: {report.n_flagged_unexplained})"
    )
    print(f"wrote {out}")

    if args.negative_control:
        detected = report.n_flagged_unexplained > 0
        print("negative control: " + ("perturbation detected" if detected else "NOT detected"))
        return 0 if detected else 1
    return 0 if report.passed() else 1


def cmd_sweep(cfg: dict, args) -> int:
    if cfg["model"] == "electrodynamics_fixture":
        raise ConfigError("sweep supports the monolayer and free_polar models")
    sw = cfg["sweep"]
    for key in ("r", "rdot"):
        if len(sw[key]) != 3:
            raise ConfigError(f"sweep.{key} must be [lo, hi, n]")
    r_lo, r_hi, r_n = sw["r"]
    rd_lo, rd_hi, rd_n = sw["rdot"]
    phidots = list(sw["phidot_values"])
    if cfg["epsilon_phidot"] != 0.0 and cfg["epsilon_phidot"] not in phidots:
        phidots.append(cfg["epsilon_phidot"])
    model = _model_from(cfg)
    out_dir = _out_dir(args)
    index_path = out_dir / "index.csv"
    rows = []
    run_id = 0
    for r0 in np.linspace(r_lo, r_hi, int(r_n)):
        for rd0 in np.linspace(rd_lo, rd_hi, int(rd_n)):
            for pd0 in phidots:
                sim = SimConfig(
                    params=_params_from(cfg),
                    state0=TrajectoryState(0.0, float(r0), 0.0, float(rd0), float(pd0)),
                    t_end=sw["t_end"],
                    rtol=cfg["integrator"]["rtol"],
                    atol=cfg["integrator"]["atol"],
                    r_min=cfg["events"]["r_min"],
                    compute_el_residual=False,
                )
                name = f"run_{run_id:03d}.csv"
                try:
                    series = integrate_geodesic(sim, model)
                    _write_trajectory_csv(out_dir / name, series)
                    rows.append(
                        [run_id, r0, rd0, pd0, series.status, len(series.t), series.t[-1], series.r[-1], name]
                    )
                except (DomainError, ValueError) as exc:
                    rows.append([run_id, r0, rd0, pd0, f"invalid:{exc}", 0, "", "", ""])
                run_id += 1
    with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("run,r0,rdot0,phidot0,status,n_samples,t_last,r_last,file\n")
        for row in rows:
            fh.write(
                ",".join(
                    [str(row[0]), _fmt(row[1]), _fmt(row[2]), _fmt(row[3]), str(row[4]), str(row[5])]
                    + [(_fmt(v) if v != "" else "") for v in row[6:8]]
                    + [str(row[8])]
                )
                + "\n"
            )
    print(f"wrote {index_path} ({run_id} runs)")
    return 0


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlag",
        description="Jet-Lagrange geometry and dynamics of the 2D-monolayer Lagrangian",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path (strict schema)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    p_eval = sub.add_parser("eval", help="geometry bundle at one jet point")
    common(p_eval)
    p_eval.add_argument("--point", required=True, help="t,r,phi,rdot,phidot")
    p_eval.add_argument("--oracle-only", action="store_true", help="skip closed-form columns")
    p_eval.add_argument("--csv", default=None, help="also write a one-row CSV")

    p_sim = sub.add_parser("simulate", help="integrate a geodesic trajectory")
    common(p_sim)

    p_res = sub.add_parser("resonant", help="resonant zero-Yang-Mills trajectory")
    common(p_res)
    p_res.add_argument("--closed-form", action="store_true", help="add the printed-solution columns")

    p_dev = sub.add_parser("deviation", help="Jacobi deviations along the resonant reference")
    common(p_dev)
    p_dev.add_argument("--compose", action="store_true", help="add the composed r = r0 + delta_r column")

    p_val = sub.add_parser("validate", help="closed-form vs oracle discrepancy report")
    common(p_val)
    p_val.add_argument(
        "--negative-control",
        action="store_true",
        help="inject a Cartan perturbation; the detector must flag it",
    )

    p_swp = sub.add_parser("sweep", help="grid of trajectory runs")
    common(p_swp)
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "resonant": cmd_resonant,
    "deviation": cmd_deviation,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    level = os.environ.get("JETLAG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (JetLagError, ValueError, ArithmeticError) as exc:
        print(f"numerical/domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
