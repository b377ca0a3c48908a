"""The exact closed forms against the 40-digit symbolic reference.

The reference (``oracles.monolayer_reference``) differentiates L in sympy
and evaluates with mpmath, so it checks every point of the validator's
sampling box, the ones finite differences cannot resolve included.
"""

import math

import mpmath
import pytest
from oracles import monolayer_reference

from jetlag.monolayer import MonolayerModel, MonolayerParams, closed_cartan, closed_nonlinear_connection
from jetlag.points import jet_point
from jetlag.validate import _closed_exact_values, sample_points

PARAMS = MonolayerParams()  # the validator's defaults
POINTS = sample_points(0, 100)


def _rel_err(value, ref) -> float:
    return float(abs(mpmath.mpf(float(value)) - ref) / abs(ref))


def test_exact_closed_forms_match_reference():
    worst = {}
    for pt in POINTS:
        ref = monolayer_reference(pt, PARAMS)
        for name, value in _closed_exact_values(pt, PARAMS).items():
            worst[name] = max(worst.get(name, 0.0), _rel_err(value, ref[name]))
    assert len(worst) == 16
    assert max(worst.values()) < 1e-12, worst


def test_reference_lagrangian_matches_model():
    # the transcription guard: the reference's L is a second transcription
    # of L.  potential_U cancels poly e^E against the Ei term (L is 1.8e-11
    # off relative to |L| at E = 115), so the error is measured against the
    # sum of |term| over L's terms, the scale of L's float roundoff (7.7e-15
    # of it at worst, where the rounding of E = 2|V|t/r gains a factor E in
    # e^E); a wrong coefficient moves L by a fraction of one term
    model = MonolayerModel(PARAMS)
    worst = 0.0
    for pt in POINTS:
        ref = monolayer_reference(pt, PARAMS)
        worst = max(worst, float(abs(mpmath.mpf(model.value(pt.t, *pt.x, *pt.y)) - ref["L"]) / ref["L_terms"]))
    assert worst < 1e-14


def test_n_and_cartan_finite_past_d_squared_overflow():
    # E = 600: |D| ~ 7.6e264, so D**2 overflows, yet every entry is O(1)
    pt = jet_point(0.3, 1.0, 0.0, -1.0, 0.2)
    ref = monolayer_reference(pt, PARAMS)
    N = closed_nonlinear_connection(pt, PARAMS, form="exact").N
    cart = closed_cartan(pt, PARAMS, form="exact")
    got = {
        "N11_exact": N[0, 0],
        "N12_exact": N[0, 1],
        "N21": N[1, 0],
        "N22": N[1, 1],
        "Gtime_11": cart.G_time[0, 0],
        "C1_11": cart.C[0, 0, 0],
        "L1_11_exact": cart.L[0, 0, 0],
        "L1_12_exact": cart.L[0, 0, 1],
        "L1_22": cart.L[0, 1, 1],
        "L2_11_exact": cart.L[1, 0, 0],
        "L2_12": cart.L[1, 0, 1],
    }
    for name, value in got.items():
        assert math.isfinite(value), name
        assert _rel_err(value, ref[name]) < 1e-11, name
