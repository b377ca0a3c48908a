"""The exact closed forms against the 40-digit symbolic reference.

The reference (``oracles.monolayer_reference``) differentiates L in sympy
and evaluates with mpmath, so it checks every point of the validator's
sampling box, the ones finite differences cannot resolve included.
"""

import math

import mpmath
import pytest
from oracles import monolayer_reference

from jetlag.monolayer import (
    MonolayerModel,
    MonolayerParams,
    closed_cartan,
    closed_em_and_ym,
    closed_nonlinear_connection,
    em_component_f21,
)
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


@pytest.mark.parametrize("t, r, phidot", [(1e-4, 0.5, 0.3), (5e-4, 0.8, 1.0), (2e-5, 0.6, -0.5)])
def test_exact_f_on_the_resonance_surface(t, r, phidot):
    # The resonance m rdot^3 + 6 p |V| r^5 e^E = 0 is eps = -3, with
    # eps = m rdot^3 e^-E / (2 p r^5 |V|).  There the printed bracket, and with
    # it the printed F21, vanishes; the exact F21 = -(3/4) m r phidot / (eps - 1)
    # is (3/16) m r phidot and EYM = F21^2 / m is (9/256) m r^2 phidot^2
    m, p, V = PARAMS.m, PARAMS.p, PARAMS.V_abs
    E = 2.0 * V * t / r
    rdot = -((6.0 * p * V * r**5 * math.exp(E) / m) ** (1.0 / 3.0))
    pt = jet_point(t, r, 0.0, rdot, phidot)
    ref = monolayer_reference(pt, PARAMS)
    f21 = 3.0 / 16.0 * m * r * phidot
    assert _rel_err(f21, ref["F21_exact"]) < 1e-14
    assert _rel_err(em_component_f21(pt, PARAMS), ref["F21_exact"]) < 1e-12
    _, eym = closed_em_and_ym(pt, PARAMS, form="exact")
    assert _rel_err(eym, ref["F21_exact"] ** 2 / m) < 1e-12
    assert eym == pytest.approx(9.0 / 256.0 * m * r**2 * phidot**2, rel=1e-12)
    # the printed F21 is 0 up to the rounding of its two cancelling terms, 3mr/2
    assert abs(em_component_f21(pt, PARAMS, form="printed")) < 1e-14 * m * r * abs(phidot)
