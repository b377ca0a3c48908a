"""Command-line front end.

Subcommands: eval, simulate, resonant, deviation, validate, sweep.
Configuration is strict JSON checked against ``SCHEMA``, which holds each key's default and
rule, and merged over the defaults (m=1, p=10, |V|=1000, R0=1); all numeric CSV fields are
written with 17 significant digits so repeated runs with the same config and seed are
byte-identical.  Every CSV goes through one
writer: a missing value is an empty cell, a text cell holding a comma, a quote or a newline
(a sweep's ``invalid:`` status) is quoted as RFC 4180 says, and an inf or a NaN is a
numerical failure.  ``simulate`` and each ``sweep`` run build their integrator from the same
config path, so ``sweep`` honours every ``integrator`` setting, ``max_step`` included.  Each
command runs the models ``_COMMAND_MODELS`` lists for it; any other exits 2, and so does p = 0
in a command that does not run ``free_polar``, the monolayer at p = 0.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical/domain failure.  JETLAG_LOG=debug|info|warning|error (default warning) sets the
level of the ``jetlag`` logger, which writes to stderr; at info it logs one line at each stage
boundary of a command: config loaded, each solve or evaluation pass done, each file written.  Any
other value exits 2.  Logging never changes stdout or a data file.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
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
    default_span,
    deviation_integrate,
    integrate_geodesic,
    resonant_trajectory,
)
from .errors import ConfigError, DomainError, JetLagError
from .geometry import GeometryEvaluator
from .monolayer import MonolayerModel, MonolayerParams
from .points import jet_point
from .validate import run_validation

log = logging.getLogger("jetlag")
_LOG_LEVELS = ("debug", "info", "warning", "error")

TRAJECTORY_HEADER = ["t", "r", "phi", "rdot", "phidot", "E_inst", "H", "H_YM", "EYM", "g11", "event"]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows) -> None:
    """Write one CSV table: str cells as they are, None as an empty cell, numbers via _fmt.

    A non-finite number raises a DomainError naming the file and the column
    before the file is opened.  csv.writer quotes only the cells that hold a
    comma, a quote or a newline.
    """
    rows = [list(row) for row in rows]
    for row in rows:
        for name, v in zip(header, row):
            if not (v is None or isinstance(v, str) or math.isfinite(v)):
                raise DomainError(f"{path.name}: column {name} holds the non-finite number {v}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow("" if v is None else v if isinstance(v, str) else _fmt(v) for v in row)
    log.info("wrote %s (%d rows)", path, len(rows))


# -- configuration --------------------------------------------------------------

#: the models each command runs; ``eval`` runs every model there is
_COMMAND_MODELS = {
    "eval": ("monolayer", "free_polar"),
    "simulate": ("monolayer", "free_polar"),
    "sweep": ("monolayer", "free_polar"),
    "resonant": ("monolayer",),
    "deviation": ("monolayer",),
    "validate": ("monolayer",),
}


# A rule is (predicate, what the value must be); each predicate is written so
# that NaN fails it.  Every count that sizes what is held in memory is capped.
_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "nonnegative and finite")
_FINITE = (math.isfinite, "finite")
_FINITE_LIST = (lambda v: all(map(math.isfinite, v)), "a list of finite numbers")
_GRID = (
    lambda v: len(v) == 3 and all(map(math.isfinite, v[:2])) and 1 <= v[2] <= 10**6 and v[2] == int(v[2]),
    "[lo, hi, n] with lo and hi finite and n a whole number from 1 to 10^6",
)
_MODEL = (lambda v: v in _COMMAND_MODELS["eval"], f"one of {', '.join(_COMMAND_MODELS['eval'])}")


def _count(least: int):
    return (lambda v: least <= v <= 10**6, f"an int from {least} to 10^6")


#: each leaf key's (default, rule); a value must also have its default's type
SCHEMA = {
    "model": ("monolayer", _MODEL),
    "params": {"m": (1.0, _POSITIVE), "p": (10.0, _NONNEGATIVE), "V_abs": (1000.0, _POSITIVE), "R0": (1.0, _POSITIVE)},
    "initial_state": {
        "t": (0.0, _FINITE), "r": (0.5, _FINITE), "phi": (0.0, _FINITE), "rdot": (-1.0, _FINITE), "phidot": (0.1, _FINITE),
    },
    "t_end": (2e-3, _FINITE),
    "integrator": {"rtol": (1e-9, _POSITIVE), "atol": (1e-9, _POSITIVE), "max_step": (0.0, _NONNEGATIVE)},
    "events": {"r_min": (1e-6, _POSITIVE)},
    "seed": (0, (lambda v: v >= 0, ">= 0 and an int")),
    "tolerances": {"oracle": (1e-5, _POSITIVE)},
    # t_end = 0 is the default span [0, 0.8 R0/|V|]
    "resonant": {
        "t_start": (0.0, _NONNEGATIVE), "t_end": (0.0, _NONNEGATIVE), "n_samples": (400, _count(2)),
        "rtol": (1e-12, _POSITIVE), "atol": (1e-14, _POSITIVE),
    },
    "deviation": {
        "c1": (0.0, _FINITE), "c2": (1.0, _FINITE), "delta_r": (0.0, _FINITE), "delta_rdot": (0.0, _FINITE),
        "rtol": (1e-10, _POSITIVE), "atol": (1e-12, _POSITIVE),
    },
    "validate": {"n_points": (100, _count(1))},
    # a sweep run starts at t = 0
    "sweep": {
        "r": ([0.2, 1.0, 5], _GRID), "rdot": ([-5.0, -0.5, 5], _GRID), "phidot_values": ([0.0], _FINITE_LIST),
        "t_end": (2e-3, _POSITIVE),
    },
}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(entry) if isinstance(entry, dict) else entry[0] for key, entry in schema.items()}


DEFAULTS = _defaults(SCHEMA)


def _fits(value, default) -> bool:
    """A number (an int or a float, never a bool) where the default is a float,
    a list of numbers for a list, and exactly the default's type otherwise."""
    if isinstance(default, float):
        return type(value) in (int, float)
    if isinstance(default, list):
        return type(value) is list and all(type(x) in (int, float) for x in value)
    return type(value) is type(default)


def _check(cfg: dict, schema: dict = SCHEMA, path: str = "") -> None:
    """Reject keys the schema lacks, and values that do not fit their default's
    type or break their rule."""
    for key, value in cfg.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key: {here}")
        entry = schema[key]
        if isinstance(entry, dict):
            if type(value) is not dict:
                raise ConfigError(f"{here} must be an object, got {value}")
            _check(value, entry, here)
            continue
        default, (holds, must_be) = entry
        if not (_fits(value, default) and holds(value)):
            raise ConfigError(f"{here} must be {must_be}, got {value}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed_override=None) -> dict:
    """The checked config merged over DEFAULTS, with ``params`` built into
    ``MonolayerParams``; anything it rejects is a ConfigError."""
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
    if seed_override is not None:
        cfg = {**cfg, "seed": seed_override}
    _check(cfg)
    merged = _merge(DEFAULTS, cfg)
    # the checks that read two keys or more
    t0, t_end = merged["initial_state"]["t"], merged["t_end"]
    if not t_end > t0:
        raise ConfigError(f"t_end must be finite and exceed initial_state.t = {t0}, got {t_end}")
    res, p = merged["resonant"], merged["params"]
    # free_polar is the monolayer at p = 0, once the configured p has passed its check
    params = merged["params"] = MonolayerParams(**({**p, "p": 0.0} if merged["model"] == "free_polar" else p))
    if res["t_end"] == 0 and res["t_start"] != 0:
        raise ConfigError(f"resonant.t_start must be 0 while resonant.t_end is 0 (the default span), got {res['t_start']}")
    start, end = (res["t_start"], res["t_end"]) if res["t_end"] else default_span(params)
    horizon = params.R0 / params.V_abs
    if not start < end < horizon:
        if res["t_end"]:
            raise ConfigError(
                f"resonant.t_end must be 0 (the default span) or exceed resonant.t_start = {start} "
                f"and stay below R0/|V| = {horizon}, got {end}"
            )
        # the default span: R0/|V| overflows where |V| is too small, and underflows where R0 is
        key, value, other = ("params.V_abs", params.V_abs, "R0") if horizon == math.inf else ("params.R0", params.R0, "V_abs")
        raise ConfigError(
            f"{key} must be large enough against params.{other} = {getattr(params, other)} for the default resonant "
            f"span [0, 0.8 R0/|V|] to be nonempty and below R0/|V| = {horizon}, got {value}"
        )
    sw = merged["sweep"]
    runs = int(sw["r"][2]) * int(sw["rdot"][2]) * len(sw["phidot_values"])
    if runs > 10**6:
        raise ConfigError(f"sweep.r, sweep.rdot and sweep.phidot_values make {runs} runs, more than 10^6")
    return merged


def _sim_config(cfg: dict, state0: TrajectoryState, t_end: float, compute_el_residual=True) -> SimConfig:
    max_step = cfg["integrator"]["max_step"]
    return SimConfig(
        params=cfg["params"],
        state0=state0,
        t_end=t_end,
        rtol=cfg["integrator"]["rtol"],
        atol=cfg["integrator"]["atol"],
        max_step=max_step if max_step > 0 else float("inf"),
        r_min=cfg["events"]["r_min"],
        compute_el_residual=compute_el_residual,
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trajectory_csv(path: Path, series) -> None:
    cols = [series.t, series.r, series.phi, series.rdot, series.phidot,
            series.e_inst, series.H, series.H_ym, series.eym, series.g11]
    rows = [[*sample, None] for sample in zip(*cols)]
    # an event row carries the event time and the last sample's state
    rows += [[ev.t_event, *(c[-1] for c in cols[1:]), ev.kind] for ev in series.events]
    _write_csv(path, TRAJECTORY_HEADER, rows)


# -- subcommands -----------------------------------------------------------------

_EVAL_QUANTITIES = ["g11", "g22", "G1", "G2", "N11", "N12", "N21", "N22", "F21", "EYM"]


def _eval_quantities(g=None, G=None, N=None, F21=None, EYM=None) -> dict:
    """The g11...EYM table of ``eval``; a part left as None leaves its entries None."""
    g = [None] * 2 if g is None else np.diag(g)
    G = [None] * 2 if G is None else G
    N = [None] * 4 if N is None else np.ravel(N)
    return dict(zip(_EVAL_QUANTITIES, [*g, *G, *N, F21, EYM]))


def _closed_eval_columns(params: MonolayerParams, pt) -> dict:
    met = mono.closed_metric(pt, params)
    spray = mono.closed_semispray(pt, params, form="exact")
    nlc = mono.closed_nonlinear_connection(pt, params, form="exact")
    em, eym = mono.closed_em_and_ym(pt, params, form="exact")
    # + 0.0 turns the -0.0 of p = 0, where F21 = -(3/4) m r phidot * 0, into 0
    return _eval_quantities(met.g, spray.G, nlc.N, em.F[1, 0] + 0.0, eym)


def cmd_eval(cfg: dict, args) -> int:
    pieces = args.point.split(",")
    if len(pieces) != 5:
        raise ConfigError("--point needs 5 comma-separated values: t,r,phi,rdot,phidot")
    try:
        vals = [float(v) for v in pieces]
    except ValueError as exc:
        raise ConfigError(f"--point values must be numbers: {exc}") from exc
    model = MonolayerModel(cfg["params"])
    try:
        pt = jet_point(*vals)
    except ValueError as exc:
        raise DomainError(f"invalid point: {exc}") from exc
    violation = model.domain_violation(*vals)
    if violation is not None:
        raise DomainError(f"invalid point: {violation}")

    # the closed forms first: where both routes fail, theirs names the cause
    if args.oracle_only:
        closed = _eval_quantities()
    else:
        closed = _closed_eval_columns(cfg["params"], pt)
        log.info("eval: closed forms done")
    ev = GeometryEvaluator(model, pt)
    met, spray, nlc = ev.metric(), ev.semispray(), ev.nonlinear_connection()
    oracle = _eval_quantities(met.g, spray.G, nlc.N, ev.em_form().F[1, 0], ev.yang_mills_energy())
    log.info("eval: oracle done")

    print(f"model={cfg['model']} point: t={pt.t} r={pt.r} phi={pt.phi} rdot={pt.rdot} phidot={pt.phidot}")
    print(f"{'quantity':<10} {'closed_form':>24} {'oracle':>24}")
    for name in _EVAL_QUANTITIES:
        cf = "" if closed[name] is None else _fmt(closed[name])
        print(f"{name:<10} {cf:>24} {_fmt(oracle[name]):>24}")

    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = ["t", "r", "phi", "rdot", "phidot"]
        header += [f"{side}_{name}" for name in _EVAL_QUANTITIES for side in ("closed", "oracle")]
        row = vals + [v for name in _EVAL_QUANTITIES for v in (closed[name], oracle[name])]
        _write_csv(path, header, [row])
        print(f"wrote {path}")
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    sim = _sim_config(cfg, TrajectoryState(**cfg["initial_state"]), cfg["t_end"])
    series = integrate_geodesic(sim, MonolayerModel(sim.params))
    log.info("simulate: geodesic solve done (%d samples, status=%s)", len(series.t), series.status)
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


def _resonant_reference(cfg: dict, params: MonolayerParams):
    """The ODE resonant trajectory that ``resonant`` writes and ``deviation`` follows."""
    r = cfg["resonant"]
    span = (r["t_start"], r["t_end"]) if r["t_end"] > 0 else None
    traj = resonant_trajectory(
        params, t_span=span, source="ode", n_samples=r["n_samples"], rtol=r["rtol"], atol=r["atol"]
    )
    log.info("resonant reference: solve done (%d samples)", len(traj.t))
    return traj


def cmd_resonant(cfg: dict, args) -> int:
    params = cfg["params"]
    traj = _resonant_reference(cfg, params)
    res21 = traj.residual_eq21()
    res22 = traj.residual_eq22()
    ym = np.max(traj.ym_bracket_residual())
    closed_r0 = closed_res = [None] * len(traj.t)
    if args.closed_form:
        closed = resonant_trajectory(
            params, t_span=(traj.t[0], traj.t[-1]), source="closed_form", n_samples=len(traj.t)
        )
        closed_r0 = closed.r0
        closed_res = closed.residual_eq22()
        log.info("resonant: closed-form trajectory done")

    out = _out_dir(args) / "resonant.csv"
    header = ["t", "r0", "r0dot", "residual_eq21", "residual_eq22", "closed_form_r0", "closed_form_residual"]
    _write_csv(out, header, zip(traj.t, traj.r0, traj.r0dot, res21, res22, closed_r0, closed_res))
    print(f"wrote {out} ({len(traj.t)} samples)")
    print(f"max residual_eq22: {np.max(res22):.3e}  max YM bracket residual: {ym:.3e}")
    for flag in traj.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def cmd_deviation(cfg: dict, args) -> int:
    params = cfg["params"]
    reference = _resonant_reference(cfg, params)
    d = cfg["deviation"]
    init = DeviationState(
        delta_r=d["delta_r"], delta_rdot=d["delta_rdot"], delta_phi=d["c1"], delta_phidot=d["c2"]
    )
    dev = deviation_integrate(reference, init, params, rtol=d["rtol"], atol=d["atol"])
    log.info("deviation: Jacobi solve done (%d samples)", len(dev.t))
    affine = np.abs(dev.delta_phi - (dev.c1 + dev.c2 * (dev.t - dev.t[0])))
    header = ["t", "delta_r", "delta_rdot", "delta_phi", "delta_phidot", "affine_residual"]
    cols = [dev.t, dev.delta_r, dev.delta_rdot, dev.delta_phi, dev.delta_phidot, affine]
    if args.compose:
        header.append("r")
        cols.append(compose_perturbed(reference, dev).r)
        log.info("deviation: composition done")

    out = _out_dir(args) / "deviation.csv"
    _write_csv(out, header, zip(*cols))
    print(f"wrote {out} ({len(dev.t)} samples)")
    print(f"max |delta_phi - (C1 + C2 (t - t0))|: {np.max(affine):.3e}")
    return 0


def cmd_validate(cfg: dict, args) -> int:
    report = run_validation(
        cfg["params"],
        seed=cfg["seed"],
        n_points=cfg["validate"]["n_points"],
        tolerance=cfg["tolerances"]["oracle"],
        negative_control=args.negative_control,
    )
    log.info("validate: validation done (%d points, %d records)", report.n_points, len(report.records))
    out = _out_dir(args) / "discrepancy_report.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")
    log.info("wrote %s", out)

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
    sw = cfg["sweep"]
    r_lo, r_hi, r_n = sw["r"]
    rd_lo, rd_hi, rd_n = sw["rdot"]
    model = MonolayerModel(cfg["params"])
    out_dir = _out_dir(args)
    index_path = out_dir / "index.csv"
    rows = []
    run_id = 0
    for r0 in np.linspace(r_lo, r_hi, int(r_n)):
        for rd0 in np.linspace(rd_lo, rd_hi, int(rd_n)):
            for pd0 in sw["phidot_values"]:
                state0 = TrajectoryState(0.0, float(r0), 0.0, float(rd0), float(pd0))
                sim = _sim_config(cfg, state0, sw["t_end"], compute_el_residual=False)
                name = f"run_{run_id:03d}.csv"
                try:
                    series = integrate_geodesic(sim, model)
                    log.info("sweep: run %d solve done (status=%s)", run_id, series.status)
                    _write_trajectory_csv(out_dir / name, series)
                    rows.append(
                        [run_id, r0, rd0, pd0, series.status, len(series.t), series.t[-1], series.r[-1], name]
                    )
                except (JetLagError, ValueError) as exc:
                    log.info("sweep: run %d invalid: %s", run_id, exc)
                    rows.append([run_id, r0, rd0, pd0, f"invalid:{exc}", 0, None, None, None])
                run_id += 1
    header = ["run", "r0", "rdot0", "phidot0", "status", "n_samples", "t_last", "r_last", "file"]
    _write_csv(index_path, header, rows)
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
    p_eval.add_argument(
        "--point", required=True,
        help="t,r,phi,rdot,phidot; a negative t needs the = form: --point=-0.35,0.1,0,-1,0.2",
    )
    p_eval.add_argument("--oracle-only", action="store_true", help="skip closed-form columns")
    p_eval.add_argument("--csv", default=None, help="also write a one-row CSV")

    p_sim = sub.add_parser("simulate", help="integrate a geodesic trajectory")
    common(p_sim)

    zero_ym = ("resonant trajectory: the zero of the printed Yang-Mills bracket (eps = -3), where the exact "
               "EYM is (9/256) m r^2 phidot^2, nonzero for phidot != 0")
    p_res = sub.add_parser("resonant", help=zero_ym, description=zero_ym)
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


def _set_log_level() -> None:
    """The ``jetlag`` logger at the JETLAG_LOG level, to stderr."""
    level = os.environ.get("JETLAG_LOG", "warning")
    if level.lower() not in _LOG_LEVELS:
        raise ConfigError(f"JETLAG_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(format="%(name)s %(levelname)s: %(message)s")
    log.setLevel(level.upper())


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _set_log_level()
        cfg = load_config(args.config, seed_override=args.seed)
        log.info("%s: config loaded from %s", args.command, args.config or "the defaults")
        models = _COMMAND_MODELS[args.command]
        if cfg["model"] not in models:
            raise ConfigError(f"{args.command} does not run the {cfg['model']} model; it runs {', '.join(models)}")
        if cfg["params"].p == 0.0 and "free_polar" not in models:
            raise ConfigError(f"{args.command} needs p > 0; p = 0 is the free particle, which it does not run")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (JetLagError, ValueError, ArithmeticError) as exc:
        print(f"numerical/domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
