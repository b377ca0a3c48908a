"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  All
tolerances are pinned here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from jetlag.cli import main as cli_main
from jetlag.dynamics import (
    DeviationState,
    SimConfig,
    TrajectoryState,
    deviation_integrate,
    hamiltonian_split,
    integrate_geodesic,
    resonant_trajectory,
)
from jetlag.expint import exp_integral_f
from jetlag.geometry import GeometryEvaluator
from jetlag.monolayer import (
    MonolayerModel,
    MonolayerParams,
    closed_nonlinear_connection,
    closed_semispray,
)
from jetlag.points import jet_point
from jetlag.validate import (
    _closed_exact_values,
    _oracle_values,
    run_validation,
    sample_points,
)
from oracles import (
    ElectrodynamicsFixtureParams,
    closed_em_form,
    electrodynamics_fixture,
    field_partial,
    hamiltonian_displays,
    pv_exp_integral,
)

PARAMS = MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=1.0)
MODEL = MonolayerModel(PARAMS)
SEED = 0


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def test_criterion_1_special_function():
    assert rel(exp_integral_f(1.0), pv_exp_integral(1.0)) < 1e-10
    assert rel(exp_integral_f(-1.0), pv_exp_integral(-1.0)) < 1e-10
    zs = np.linspace(-5.0, 5.0, 100_000)
    zs = np.where(np.abs(zs) < 1e-3, 0.5, zs)
    start = time.perf_counter()
    out = exp_integral_f(zs)
    elapsed = time.perf_counter() - start
    assert out.shape == zs.shape and np.all(np.isfinite(out))
    assert elapsed < 1.0
    announce(1, f"f(+-1) matches the PV-quadrature oracle at 1e-10; "
                f"1e5 evaluations in {elapsed*1e3:.0f} ms")


@pytest.fixture(scope="module")
def box_report():
    return run_validation(PARAMS, seed=SEED, n_points=100, tolerance=1e-5)


def test_criterion_2_oracle_equivalence(box_report):
    start = time.perf_counter()
    # (a) the full sampling box: every record is either within 1e-5 or flagged
    # with an enumerated explanation; zero unexplained entries
    assert box_report.n_points == 100
    assert box_report.n_flagged_unexplained == 0
    for rec in box_report.records:
        if rec.verdict == "ok" and rec.oracle is not None and not rec.quantity.endswith(
            ("printed", "polynomial")
        ):
            assert rec.rel_err < 1e-5
    # (b) 100 seeded points restricted to the FD-resolvable regime: the
    # closed exact forms must all agree outright
    worst = 0.0
    for pt in sample_points(SEED + 1, 100, resolvable_for=MODEL):
        closed = _closed_exact_values(pt, PARAMS)
        oracle = _oracle_values(GeometryEvaluator(MODEL, pt))
        for name, value in closed.items():
            worst = max(worst, rel(float(value), float(oracle[name])))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    announce(2, f"metric/semispray/C/G_time/F21 oracle equivalence: worst rel err "
                f"{worst:.2e} over 100 resolvable points; box report has "
                f"{box_report.n_flagged} flagged records, 0 unexplained; {elapsed:.1f} s")


@pytest.fixture(scope="module")
def resolvable_points():
    return sample_points(SEED + 1, 100, resolvable_for=MODEL)


def test_criterion_3_metricity(resolvable_points):
    worst = 0.0
    for pt in resolvable_points:
        worst = max(worst, max(GeometryEvaluator(MODEL, pt).metricity_residuals()))
    assert worst < 1e-5
    announce(3, f"metricity residuals: max {worst:.2e} < 1e-5 over the sample")


def test_criterion_4_maxwell_vertical(resolvable_points):
    worst = 0.0
    for pt in resolvable_points[:40]:
        worst = max(worst, GeometryEvaluator(MODEL, pt).maxwell_vertical_residual())
    assert worst < 1e-5
    announce(4, f"Maxwell vertical identity: max cyclic-sum residual {worst:.2e} < 1e-5")


def test_criterion_5_electrodynamics_fixture():
    fixture = ElectrodynamicsFixtureParams(
        m=1.0,
        c=1.0,
        e=1.0,
        A=lambda x: np.array([2.0 * x[1], -1.0 * x[0]]),
        A_jac=lambda x: np.array([[0.0, 2.0], [-1.0, 0.0]]),
    )
    model = electrodynamics_fixture(fixture)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        pt = jet_point(rng.uniform(0, 1), rng.uniform(0.5, 2.0), rng.uniform(-1, 1),
                       rng.uniform(-1, 1), rng.uniform(-1, 1))
        F = GeometryEvaluator(model, pt).em_form().F
        closed = closed_em_form(fixture, np.array(pt.x)).F
        worst = max(worst, float(np.max(np.abs(F - closed))))
    assert worst < 1e-8
    announce(5, f"electrodynamics fixture reproduces -(e/2m)(dA_i/dx^j - dA_j/dx^i): "
                f"max abs dev {worst:.2e} < 1e-8 at 20 points")


def test_criterion_6_approximation_identity(resolvable_points):
    worst = 0.0
    for pt in resolvable_points[:25]:
        nlc = closed_nonlinear_connection(pt, PARAMS, form="printed")
        scales = np.array([1.0, 1.0, 1.0, abs(pt.rdot) / 3.0, 1.0])
        fd = np.empty((2, 2))
        for i in range(2):
            for j, axis in enumerate(("y1", "y2")):
                fd[i, j] = field_partial(
                    lambda q, i=i: closed_semispray(q, PARAMS, form="polynomial").G[i],
                    pt, (axis,), scales=scales,
                )
        worst = max(worst, float(np.max(np.abs(nlc.N - fd)) / np.max(np.abs(nlc.N))))
    assert worst < 1e-6
    announce(6, f"printed N equals d(polynomial G)/dy by FD: worst {worst:.2e} < 1e-6")


def test_criterion_7_geodesic_integrator():
    free = MonolayerParams(m=1.0, p=0.0, V_abs=1000.0)
    fp = MonolayerModel(MonolayerParams(p=0.0))
    start = time.perf_counter()
    cfg = SimConfig(params=free, state0=TrajectoryState(0.0, 1.0, 0.0, 1.0, 0.0), t_end=1.0)
    radial = integrate_geodesic(cfg, fp)
    line_err = float(np.max(np.abs(radial.r - (1.0 + radial.t))))
    cfg2 = SimConfig(params=free, state0=TrajectoryState(0.0, 1.0, 0.0, 0.0, 1.0), t_end=1.0)
    orbit = integrate_geodesic(cfg2, fp)
    am = orbit.r**2 * orbit.phidot
    am_err = float(np.max(np.abs(am - am[0])))
    t_free = time.perf_counter() - start

    start = time.perf_counter()
    cfg3 = SimConfig(
        params=PARAMS, state0=TrajectoryState(0.0, 0.5, 0.0, -1.0, 0.1),
        t_end=2e-3, rtol=1e-10, atol=1e-12,
    )
    mono = integrate_geodesic(cfg3, MODEL)
    el = float(np.nanmax(mono.el_residual))
    t_mono = time.perf_counter() - start

    assert line_err < 1e-8
    assert am_err < 1e-8
    assert el < 1e-5
    assert max(t_free, t_mono) < 5.0
    announce(7, f"geodesics: straight line {line_err:.1e}, r^2*phidot drift {am_err:.1e} "
                f"(<1e-8), monolayer EL residual {el:.1e} (<1e-5); "
                f"{max(t_free, t_mono):.2f} s/trajectory")


def test_criterion_8_resonance():
    traj = resonant_trajectory(PARAMS, source="ode")
    res22 = float(np.max(traj.residual_eq22()))
    bracket = float(np.max(traj.ym_bracket_residual()))
    dev = deviation_integrate(traj, DeviationState(0.0, 0.0, 0.0, 1.0), PARAMS)
    affine = float(np.max(np.abs(dev.delta_phi - dev.t)))
    assert res22 < 1e-6
    assert bracket < 1e-6
    assert affine < 1e-8
    announce(8, f"resonance: large-time residual {res22:.1e}, reversed YM bracket "
                f"{bracket:.1e} (<1e-6), |delta_phi - t| {affine:.1e} (<1e-8, C1=0 C2=1)")


def test_criterion_9_hamiltonian_identities():
    cfg = SimConfig(
        params=PARAMS, state0=TrajectoryState(0.0, 0.5, 0.0, -1.0, 0.1),
        t_end=2e-3, rtol=1e-10, atol=1e-12, compute_el_residual=False,
    )
    ser = integrate_geodesic(cfg, MODEL)
    worst = 0.0
    for i in range(len(ser.t)):
        st = TrajectoryState(ser.t[i], ser.r[i], ser.phi[i], ser.rdot[i], ser.phidot[i])
        _, H, H_ym, _, _ = hamiltonian_split(st, PARAMS)
        dL, L0 = hamiltonian_displays(st, PARAMS, H_ym)
        scale = max(1.0, abs(H), abs(H_ym), abs(dL), abs(L0))
        worst = max(worst, abs(dL + (H - H_ym)) / scale)
        g11, g22 = ser.g11[i], 0.5 * PARAMS.m * ser.r[i] ** 2
        recon = g22 * ser.phidot[i] ** 2 + g11 * ser.rdot[i] ** 2 - H_ym
        worst = max(worst, abs(L0 - recon) / scale)
    assert worst < 1e-10
    announce(9, f"Hamiltonian identities deltaL = -(H - H_YM) and the L0 "
                f"decomposition hold pointwise to {worst:.1e} (<1e-10)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "model": "monolayer",
        "params": {"m": 1.0, "p": 10.0, "V_abs": 1000.0, "R0": 1.0},
        "initial_state": {"t": 0.0, "r": 0.5, "phi": 0.0, "rdot": -1.0, "phidot": 0.1},
        "t_end": 1e-3,
        "validate": {"n_points": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    pairs = []
    for cmd, fname in (("simulate", "trajectory.csv"), ("validate", "discrepancy_report.json")):
        a, b = tmp_path / f"{cmd}_a", tmp_path / f"{cmd}_b"
        assert cli_main([cmd, "--config", str(path), "--out", str(a)]) == 0
        assert cli_main([cmd, "--config", str(path), "--out", str(b)]) == 0
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
        pairs.append(cmd)
    announce(10, f"fixed seed reruns of {pairs} are byte-identical")
