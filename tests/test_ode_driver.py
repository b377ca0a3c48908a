"""The float Dormand-Prince driver against scipy's RK45, its event roots
against scipy's brentq, and the resonant reference's samples."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from jetlag import dynamics
from jetlag.dynamics import (
    DeviationState,
    SimConfig,
    TrajectoryState,
    deviation_integrate,
    integrate_geodesic,
    resonant_rhs,
    resonant_trajectory,
)
from jetlag.monolayer import MonolayerModel, MonolayerParams
from oracles import scipy_solve

PARAMS = MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=1.0)
#: the default start, the collapsing start and an outward start that meets g11 = 0
STARTS = {
    "default": ((0.0, 0.5, 0.0, -1.0, 0.1), "completed"),
    "collapsing": ((0.0, 0.2, 0.0, -5.0, 0.1), "event:finite_time_collapse"),
    "outward": ((0.0, 0.3, 0.0, 1.0, 0.2), "event:metric_singular"),
}
#: an event root is located to 4 float spacings at 1.0, absolute and relative
EVENT_TOL = 4.0 * np.finfo(float).eps


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _geodesic(start):
    cfg = SimConfig(PARAMS, TrajectoryState(*start), 2e-3, compute_el_residual=False)
    return integrate_geodesic(cfg, MonolayerModel(PARAMS))


def _mismatches(case: str, monkeypatch) -> list[str]:
    """How the driver's run of a case differs from scipy's: its status, a
    completed end state past 1e-13 relative, an event time past the event
    tolerance."""
    if case == "resonant":
        def run():
            ref = resonant_trajectory(PARAMS)
            return "completed", ref.t[-1], [ref.r0[-1], ref.r0dot[-1]], None
    elif case == "deviation":
        reference = resonant_trajectory(PARAMS)

        def run():
            dev = deviation_integrate(reference, DeviationState(1e-5, 1e-4, 0.3, 0.2), PARAMS)
            return "completed", dev.t[-1], [dev.delta_r[-1], dev.delta_rdot[-1], dev.delta_phi[-1],
                                            dev.delta_phidot[-1]], None
    else:
        def run():
            ser = _geodesic(STARTS[case][0])
            event = ser.events[0].t_event if ser.events else None
            return ser.status, ser.t[-1], [ser.r[-1], ser.phi[-1], ser.rdot[-1], ser.phidot[-1]], event
    ours = run()
    with monkeypatch.context() as patched:
        patched.setattr(dynamics, "_solve", scipy_solve)
        theirs = run()
    (status, t_end, end, event), (status_s, t_end_s, end_s, event_s) = ours, theirs
    found = []
    if status != status_s:
        found.append(f"status {status} != {status_s}")
    elif status == "completed":
        found += [f"end state {a!r} != {b!r}" for a, b in zip(end, end_s) if not _rel(a, b) <= 1e-13]
        if t_end != t_end_s:
            found.append(f"end time {t_end!r} != {t_end_s!r}")
    elif not abs(event - event_s) <= EVENT_TOL * (1.0 + abs(event_s)):
        found.append(f"event time {event!r} != {event_s!r}")
    return found


@pytest.mark.parametrize("case", [*STARTS, "resonant", "deviation"])
def test_driver_agrees_with_solve_ivp(case, monkeypatch):
    assert _mismatches(case, monkeypatch) == []


def test_the_starts_end_as_named():
    assert {case: _geodesic(start).status for case, (start, _) in STARTS.items()} == {
        case: status for case, (_, status) in STARTS.items()
    }


@pytest.mark.parametrize("case", ["default", "resonant", "deviation"])
def test_a_perturbed_tableau_fails_the_comparison(case, monkeypatch):
    # one Butcher coefficient off by 1e-6 breaks the method's order conditions
    monkeypatch.setattr(dynamics, "_A43", dynamics._A43 + 1e-6)
    assert _mismatches(case, monkeypatch)


def test_driver_counts_its_own_work():
    model = MonolayerModel(PARAMS)
    rhs = lambda t, u: [u[2], u[3], *(-2.0 * g for g in model.spray(t, *u))]  # noqa: E731
    sol = dynamics._solve("geodesic", rhs, 0.0, 2e-3, [0.5, 0.0, -1.0, 0.1], 1e-9, 1e-9)
    assert (sol.status, sol.rhs_calls, sol.accepted, sol.rejected, len(sol.t) - 1) == (0, 350, 56, 2, 56)
    assert sol.rhs_calls == 2 + 6 * (sol.accepted + sol.rejected)
    oracle = scipy_solve("geodesic", rhs, 0.0, 2e-3, [0.5, 0.0, -1.0, 0.1], 1e-9, 1e-9)
    assert (oracle.rhs_calls, len(oracle.t)) == (sol.rhs_calls, len(sol.t))


def test_dense_output_and_t_eval_agree_with_solve_ivp():
    # y' = (-y2, y1), the rotation (cos t, sin t), sampled off the steps through
    # t_eval; the error estimate cancels to about h^4 of |y'|, so its summation
    # order moves the steps in their fifth digit: the two drivers agree to the
    # tolerance, not bit for bit
    rhs = lambda t, y: [-y[1], y[0]]  # noqa: E731
    grid = np.linspace(0.0, 3.0, 31).tolist()
    exact = lambda ts: np.array([np.cos(ts), np.sin(ts)]).T  # noqa: E731
    args = ("rotation", rhs, 0.0, 3.0, [1.0, 0.0], 1e-10, 1e-12)
    ours, theirs = dynamics._solve(*args, t_eval=grid), scipy_solve(*args, t_eval=grid)
    assert ours.t == grid == theirs.t
    assert np.allclose(ours.y, exact(grid), rtol=0.0, atol=1e-9)
    assert np.allclose(ours.y, theirs.y, rtol=0.0, atol=1e-10)


def test_give_up_reports_scipys_message():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    sol = dynamics._solve("blow-up", lambda t, y: [y[0] * y[0]], 0.0, 2.0, [1.0], 1e-9, 1e-9)
    oracle = scipy_solve("blow-up", lambda t, y: [y[0] * y[0]], 0.0, 2.0, [1.0], 1e-9, 1e-9)
    assert sol.status == oracle.status == -1
    assert oracle.message == dynamics._GIVE_UP
    assert sol.t[-1] == pytest.approx(oracle.t[-1], rel=1e-12)


@pytest.mark.parametrize("g, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0, 0.0, 2.0),
    (lambda x: math.exp(x) - 1e-3, -20.0, 5.0),
    (lambda x: x * math.exp(x) - 1.0, 0.0, 1.0),
    (lambda x: 1.0 if x > 1e-9 else -1.0, -1.0, 1.0),
])
def test_event_root_is_scipys_brentq(g, a, b):
    tol = 4.0 * np.finfo(float).eps
    assert dynamics._brent(g, a, b) == brentq(g, a, b, xtol=tol, rtol=tol)


def test_event_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        dynamics._brent(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.fixture(scope="module")
def reference():
    return resonant_trajectory(PARAMS)


@pytest.mark.parametrize("n_samples", [100, 400])
def test_spline_is_r0_at_its_nodes(n_samples):
    ref = resonant_trajectory(PARAMS, n_samples=n_samples)
    assert ref.spline()(ref.t).tolist() == ref.r0.tolist()


def test_r0dot_is_the_float_rhs_on_every_sample(reference):
    ref = reference
    per_sample = [resonant_rhs(t, r, PARAMS) for t, r in zip(ref.t.tolist(), ref.r0.tolist())]
    assert ref.r0dot.tolist() == per_sample
    assert all(type(v) is float for v in per_sample)


@pytest.mark.parametrize("field, value", [
    ("max_step", math.nan), ("max_step", -1.0), ("max_step", -math.inf), ("max_step", 0.0),
    ("rtol", math.inf), ("atol", math.inf), ("rtol", math.nan), ("atol", 0.0),
])
def test_sim_config_rejects_settings_the_driver_cannot_use(field, value):
    start = TrajectoryState(0.0, 0.5, 0.0, -1.0, 0.1)
    with pytest.raises(ValueError, match="max_step must be positive" if field == "max_step" else "tolerances must be"):
        SimConfig(PARAMS, start, 2e-3, **{field: value})
    assert SimConfig(PARAMS, start, 2e-3, max_step=math.inf).max_step == math.inf
