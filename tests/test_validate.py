"""The discrepancy report machinery."""

import json
import math

import numpy as np
import pytest

from jetlag.monolayer import MonolayerModel, MonolayerParams
from jetlag.points import jet_point
from jetlag.validate import (
    FD_RESOLVABLE_CUT,
    DiscrepancyReport,
    dynamic_range_ratio,
    run_validation,
    sample_points,
)


@pytest.fixture(scope="module")
def report():
    return run_validation(seed=0, n_points=40)


def test_deterministic_given_seed(report):
    again = run_validation(seed=0, n_points=40)
    assert report.to_json() == again.to_json()


def test_zero_unexplained(report):
    assert report.n_flagged_unexplained == 0
    assert report.passed()


def test_every_flag_carries_reason(report):
    for rec in report.records:
        if rec.verdict == "flagged":
            assert rec.explanation


def test_exact_forms_ok_at_resolvable_points(report):
    for rec in report.records:
        if rec.oracle is None or rec.quantity.endswith(("printed", "polynomial")):
            continue
        if rec.quantity.startswith(("metricity", "maxwell", "em_", "metric_")):
            continue
        assert rec.rel_err < report.tolerance, rec


def test_json_round_trips(report):
    data = json.loads(report.to_json())
    assert data["summary"]["n_flagged_unexplained"] == 0
    assert data["n_points"] == 40
    assert len(data["records"]) == len(report.records)


def test_negative_control_flags_unexplained():
    rep = run_validation(seed=0, n_points=3, negative_control=True)
    assert rep.n_flagged_unexplained > 0
    assert any(
        r.quantity.startswith("metricity") and r.verdict == "flagged" and not r.explanation
        for r in rep.records
    )


def test_resolvable_sampler():
    model = MonolayerModel(MonolayerParams())
    pts = sample_points(3, 30, resolvable_for=model)
    assert len(pts) == 30
    for pt in pts:
        assert dynamic_range_ratio(model, pt) < FD_RESOLVABLE_CUT


def test_sampler_deterministic():
    a = sample_points(7, 10)
    b = sample_points(7, 10)
    assert all(np.array_equal(x.as_array(), y.as_array()) for x, y in zip(a, b))


def test_resonant_closed_form_regression_is_unexplained(monkeypatch):
    # the closed form's r0dot is analytic, so nothing explains a residual over tolerance
    import jetlag.dynamics as dyn

    residual = dyn.ResonantTrajectory.residual_eq22
    monkeypatch.setattr(dyn.ResonantTrajectory, "residual_eq22", lambda self: residual(self) + 1.0)
    rep = run_validation(MonolayerParams(R0=1.0), seed=0, n_points=1)
    rec = next(r for r in rep.records if r.quantity == "resonant_eq_large_time_residual_closed_form")
    assert rec.verdict == "flagged"
    assert rec.explanation == ""
    assert not rep.passed()


def test_nan_residual_is_flagged(monkeypatch):
    # one verdict rule for every record, ok iff err < tol: a NaN is never ok
    import jetlag.dynamics as dyn

    monkeypatch.setattr(dyn.ResonantTrajectory, "residual_eq22", lambda self: np.full(len(self.t), np.nan))
    rep = run_validation(MonolayerParams(R0=1.0), seed=0, n_points=1)
    recs = [r for r in rep.records if r.quantity.startswith("resonant_eq_large_time_residual_")]
    assert len(recs) == 2
    assert all(r.verdict == "flagged" for r in recs)
    assert not rep.passed()


def _json_module(rep: DiscrepancyReport) -> str:
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("seed", [*range(10), "negative control"])
def test_to_json_is_the_json_module_byte_for_byte(seed):
    # the CLI validate defaults: 100 points, R0 = 1 so the resonant records ride along
    control = seed == "negative control"
    rep = run_validation(MonolayerParams(R0=1.0), seed=0 if control else seed, n_points=100, negative_control=control)
    assert rep.to_json() == _json_module(rep)


def _edge_report(params=None, point=None, explanation="") -> DiscrepancyReport:
    rep = DiscrepancyReport(seed=3, params=params or {"m": 1.0, "p": 10.0, "V_abs": 1000.0}, tolerance=1e-5, n_points=2)
    pd = point or {"t": 1e-3, "r": 0.5, "phi": 0.0, "rdot": -1.0, "phidot": 0.2}
    rep.add("g11", pd, math.nan, math.inf, math.nan, 1e-5, 'a "quoted"\nnote, na\u00efve \u2013 \u03a9 \U0001d53c')
    rep.add("G1_exact", pd, -math.inf, np.float64(2.5), 1e-17, 1e-5)
    rep.add("N21", {"t_start": 0.0, "t_end": 8e-4, "n_samples": 100}, 1.5e-300, None, None, 1e-5, "tab\there \\ back")
    rep.add("L2_12", pd, 0, 1, True, 1e-5, explanation)
    return rep


def test_to_json_edge_values_are_the_json_module():
    rep = _edge_report()
    assert rep.to_json() == _json_module(rep)
    assert '"closed_form": null' in rep.to_json()
    empty = DiscrepancyReport(seed=0, params={}, tolerance=1e-5, n_points=0)
    assert empty.to_json() == _json_module(empty)


@pytest.mark.parametrize("bad, error", [
    ({"params": {"m": math.inf}}, ValueError),
    ({"point": {"t": math.nan, "r": 0.5}}, ValueError),
    ({"explanation": object()}, TypeError),
])
def test_to_json_raises_where_the_json_module_raises(bad, error):
    rep = _edge_report(**bad)
    with pytest.raises(error):
        _json_module(rep)
    with pytest.raises(error):
        rep.to_json()


def test_resonant_closed_form_vs_ode_is_pinned():
    # the CLI validate defaults; the closed form and the ODE sit on one grid, compared at its nodes
    rep = run_validation(MonolayerParams(R0=1.0), seed=0, n_points=1)
    rec = next(r for r in rep.records if r.quantity == "resonant_closed_form_vs_ode")
    assert rec.rel_err == 4.891908418910636e-12
    assert rec.point == {"t_start": 0.0, "t_end": 8e-4, "n_samples": 100}


#: the report seed of a resolvable point (dynamic-range ratio 9.6e-14) where
#: cancellation in L1_11 grows the oracle's FD error past the tolerance
SPREAD_SEED = 2140277469


@pytest.mark.parametrize("perturb", [0.0, 1e-3])
def test_disagreement_inside_the_step_spread_is_explained(monkeypatch, perturb):
    import jetlag.validate as val
    from oracles import monolayer_reference

    closed_values = val._closed_exact_values

    def perturbed(pt, params):
        values = closed_values(pt, params)
        values["L1_11_exact"] *= 1.0 + perturb
        return values

    monkeypatch.setattr(val, "_closed_exact_values", perturbed)
    params = MonolayerParams(R0=1.0)
    rep = run_validation(params, seed=SPREAD_SEED, n_points=100)
    flagged = [r for r in rep.records if r.quantity == "L1_11_exact" and r.verdict == "flagged" and r.oracle is not None]
    if perturb == 0.0:
        # the closed form is the 40-digit value there; the oracle is 1.3e-5 off,
        # inside its own spread under halved and doubled step scales
        assert rep.passed()
        (rec,) = flagged
        assert rec.rel_err > rep.tolerance and rec.explanation.startswith("fd step spread")
        pt = jet_point(rec.point["t"], rec.point["r"], 0.0, rec.point["rdot"], rec.point["phidot"])
        ref = monolayer_reference(pt, params)["L1_11_exact"]
        assert abs(rec.closed_form - ref) < 1e-10 * abs(ref) < abs(rec.oracle - ref)
    else:
        # a closed form 1e-3 off is outside the spread at every resolvable point
        assert len(flagged) == rep.n_points_resolvable == 8
        assert all(not r.explanation for r in flagged)
        assert rep.n_flagged_unexplained == 8
