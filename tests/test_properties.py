"""Property tests for the numerical invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.dynamics import TrajectoryState, hamiltonian_split
from jetlag.expint import exp_integral_f
from jetlag.fd import numeric_partials
from jetlag.geometry import EMForm, GeometryEvaluator, ym_energy
from jetlag.monolayer import (
    MonolayerModel,
    MonolayerParams,
    closed_metric,
    em_component_f21,
    potential_U,
)
from jetlag.points import jet_point
from jetlag.validate import FD_RESOLVABLE_CUT, dynamic_range_ratio
from oracles import PolynomialModel, hamiltonian_displays

PARAMS = MonolayerParams()
MODEL = MonolayerModel(PARAMS)

valid_t = st.floats(1e-4, 1e-2)
valid_r = st.floats(0.1, 1.0)
valid_rdot = st.floats(-5.0, -0.1)
valid_phidot = st.floats(-1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(valid_t, valid_r, valid_rdot, valid_phidot)
def test_metric_symmetry_and_inverse(t, r, rdot, phidot):
    pt = jet_point(t, r, 0.0, rdot, phidot)
    if dynamic_range_ratio(MODEL, pt) >= FD_RESOLVABLE_CUT:
        return  # outside the regime where FD can see the fibre signals
    met = GeometryEvaluator(MODEL, pt).metric()
    assert abs(met.g[0, 1] - met.g[1, 0]) < 1e-12 * max(1.0, abs(met.g[0, 0]))
    assert np.max(np.abs(met.g @ met.g_inv - np.eye(2))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(valid_t, valid_r, valid_rdot, valid_phidot)
def test_em_antisymmetry_and_ym_sign(t, r, rdot, phidot):
    pt = jet_point(t, r, 0.0, rdot, phidot)
    if dynamic_range_ratio(MODEL, pt) >= FD_RESOLVABLE_CUT:
        return
    em = GeometryEvaluator(MODEL, pt).em_form()
    assert np.max(np.abs(em.F + em.F.T)) < 1e-12 * max(1.0, np.max(np.abs(em.F)))
    assert ym_energy(em, PARAMS.m) >= 0.0


@settings(max_examples=25, deadline=None)
@given(valid_t, valid_r, valid_rdot, valid_phidot)
def test_torsion_r_antisymmetry_exact(t, r, rdot, phidot):
    pt = jet_point(t, r, 0.0, rdot, phidot)
    if dynamic_range_ratio(MODEL, pt) >= 1e-15:  # torsions nest FD twice
        return
    tor = GeometryEvaluator(MODEL, pt).torsions()
    for k in range(2):
        assert tor.R[k, 0, 1] + tor.R[k, 1, 0] == 0.0
        assert tor.R[k, 0, 0] == 0.0 and tor.R[k, 1, 1] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(-5.0, 5.0).filter(lambda z: abs(z) > 1e-3))
def test_expint_derivative_identity(z):
    h = 1e-4 * max(abs(z), 0.1)
    fd = (exp_integral_f(z + h) - exp_integral_f(z - h)) / (2.0 * h)
    want = math.exp(z) / z
    assert abs(fd - want) < 1e-4 * max(1.0, abs(want))


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    st.floats(0.5, 2.0),
    st.floats(-3.0, -0.5),
)
def test_numeric_partials_exact_on_cubics(coeffs, r0, rd0):
    a, b, c, d = coeffs

    def cubic(t, r, phi, rd, pd):
        return a * rd**3 + b * rd * r * pd + c * r**2 + d * t * rd

    model = PolynomialModel(cubic)
    pt = jet_point(0.3, r0, 0.2, rd0, 0.7)
    assert numeric_partials(model, pt, ("y1", "y1", "y1")) == pytest.approx(6 * a, abs=1e-8)
    assert numeric_partials(model, pt, ("x1", "y1", "y2")) == pytest.approx(b, abs=1e-8)
    assert numeric_partials(model, pt, ("t", "y1")) == pytest.approx(d, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(valid_r, st.floats(0.1, 50.0))
def test_potential_closed_form_at_t_zero(r, p):
    params = MonolayerParams(m=1.0, p=p, V_abs=1000.0)
    assert potential_U(0.0, r, params) == pytest.approx(-4.0 / 3.0 * p * r**5, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(valid_t, valid_r, valid_rdot, valid_phidot)
def test_hamiltonian_identities_pointwise(t, r, rdot, phidot):
    state = TrajectoryState(t, r, 0.0, rdot, phidot)
    _, H, H_ym, _, _ = hamiltonian_split(state, PARAMS)
    dL, L0 = hamiltonian_displays(state, PARAMS, H_ym)
    scale = max(1.0, abs(H), abs(H_ym), abs(dL), abs(L0))
    assert abs(dL + (H - H_ym)) < 1e-10 * scale
    met = closed_metric(jet_point(t, r, 0.0, rdot, phidot), PARAMS)
    recon = met.g[1, 1] * phidot**2 + met.g[0, 0] * rdot**2 - H_ym
    assert abs(L0 - recon) < 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(valid_t, valid_r, valid_rdot, valid_phidot)
def test_zero_energy_iff_f12_small(t, r, rdot, phidot):
    pt = jet_point(t, r, 0.0, rdot, phidot)
    f21 = em_component_f21(pt, PARAMS, form="printed")
    _, energy = __import__("jetlag.monolayer", fromlist=["closed_em_and_ym"]).closed_em_and_ym(
        pt, PARAMS, form="printed"
    )
    tol = 1e-12
    assert (energy < tol**2 / PARAMS.m) == (abs(f21) < tol)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0.5, 3.0), st.floats(-2.0, 2.0))
def test_free_polar_em_vanishes(r, rdot, phidot):
    model = MonolayerModel(MonolayerParams(p=0.0))
    em = GeometryEvaluator(model, jet_point(0.1, r, 0.0, rdot, phidot)).em_form()
    assert np.max(np.abs(em.F)) < 1e-7 * max(1.0, rdot**2)


def test_ym_zero_iff_component_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal() * 10.0 ** float(rng.integers(-6, 3))
        em = EMForm(F=np.array([[0.0, a], [-a, 0.0]]))
        energy = ym_energy(em, 1.0)
        assert (energy == 0.0) == (a == 0.0)
        assert energy >= 0.0
