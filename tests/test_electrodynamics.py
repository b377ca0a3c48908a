"""The charged-particle fixture: generic EM pipeline vs the classical form."""

import numpy as np
import pytest

from jetlag.geometry import GeometryEvaluator
from jetlag.points import jet_point
from oracles import ElectrodynamicsFixtureParams, closed_em_form, electrodynamics_fixture


def linear_fixture(a, b, m=1.0, c=1.0, e=1.0):
    return ElectrodynamicsFixtureParams(
        m=m,
        c=c,
        e=e,
        A=lambda x: np.array([a * x[1], b * x[0]]),
        A_jac=lambda x: np.array([[0.0, a], [b, 0.0]]),
    )


def test_zero_potential_gives_zero_f():
    model = electrodynamics_fixture(ElectrodynamicsFixtureParams())
    em = GeometryEvaluator(model, jet_point(0.0, 1.0, 0.3, 0.4, -0.2)).em_form()
    assert np.max(np.abs(em.F)) < 1e-10


def test_linear_potential_arithmetic():
    # A_1 = a x^2, A_2 = b x^1: F_(1)2 = -(e/2m)(a - b)
    params = linear_fixture(a=2.0, b=-1.0, e=1.0, m=1.0)
    model = electrodynamics_fixture(params)
    em = GeometryEvaluator(model, jet_point(0.0, 1.5, 0.7, 0.3, -0.2)).em_form()
    assert em.F[0, 1] == pytest.approx(-0.5 * (2.0 - (-1.0)), rel=1e-8)
    closed = closed_em_form(params, [1.5, 0.7])
    assert np.allclose(em.F, closed.F, atol=1e-8)


def test_generic_vs_closed_at_random_points():
    rng = np.random.default_rng(5)
    params = linear_fixture(a=0.8, b=1.7, e=2.0, m=1.5, c=0.7)
    model = electrodynamics_fixture(params)
    for _ in range(20):
        pt = jet_point(
            rng.uniform(0, 1), rng.uniform(0.5, 2.0), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-1, 1),
        )
        em = GeometryEvaluator(model, pt).em_form()
        closed = closed_em_form(params, np.array(pt.x))
        assert np.max(np.abs(em.F - closed.F)) < 1e-8


def test_nonlinear_potential_with_scalar_background():
    # smooth nonlinear A and a potential function F_pot: the closed form is
    # still -(e/2m)(dA_i/dx^j - dA_j/dx^i)
    params = ElectrodynamicsFixtureParams(
        m=2.0,
        e=1.3,
        A=lambda x: np.array([np.sin(x[0]) * x[1], x[0] ** 2]),
        A_jac=lambda x: np.array(
            [[np.cos(x[0]) * x[1], np.sin(x[0])], [2.0 * x[0], 0.0]]
        ),
        F_pot=lambda t, x: 0.3 * t * x[0] - x[1] ** 2,
    )
    model = electrodynamics_fixture(params)
    rng = np.random.default_rng(6)
    for _ in range(5):
        pt = jet_point(
            rng.uniform(0, 1), rng.uniform(0.5, 2.0), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-1, 1),
        )
        em = GeometryEvaluator(model, pt).em_form()
        closed = closed_em_form(params, np.array(pt.x))
        assert np.max(np.abs(em.F - closed.F)) < 1e-7


def test_curved_gravitational_background():
    # position-dependent phi_ij: F stays the classical curl of A
    params = ElectrodynamicsFixtureParams(
        m=1.0,
        e=1.0,
        phi=lambda x: np.array([[1.0 + 0.1 * x[0] ** 2, 0.05 * x[0] * x[1]],
                                [0.05 * x[0] * x[1], 1.0 + 0.1 * x[1] ** 2]]),
        A=lambda x: np.array([0.5 * x[1] ** 2, -0.3 * x[0]]),
        A_jac=lambda x: np.array([[0.0, x[1]], [-0.3, 0.0]]),
    )
    model = electrodynamics_fixture(params)
    pt = jet_point(0.2, 1.2, 0.4, 0.6, -0.5)
    em = GeometryEvaluator(model, pt).em_form()
    closed = closed_em_form(params, np.array(pt.x))
    assert np.max(np.abs(em.F - closed.F)) < 1e-6


def test_mass_zero_rejected():
    with pytest.raises(ValueError):
        ElectrodynamicsFixtureParams(m=0.0)
