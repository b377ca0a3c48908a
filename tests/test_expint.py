"""The special function f(z): oracle values frozen from the PV quadrature."""

import math

import numpy as np
import pytest
from scipy.special import exp1

from jetlag.expint import exp_integral_f
from oracles import ei_increment, pv_exp_integral

# frozen from pv_exp_integral (re-verified below before use)
F_ONE = 1.8951178163559368
F_MINUS_ONE = -0.21938393439552027


def test_oracle_reproduces_frozen_values():
    assert pv_exp_integral(1.0) == pytest.approx(F_ONE, rel=1e-12)
    assert pv_exp_integral(-1.0) == pytest.approx(F_MINUS_ONE, rel=1e-12)


def test_f_at_one():
    assert exp_integral_f(1.0) == pytest.approx(F_ONE, rel=1e-10)


def test_f_at_minus_one():
    assert exp_integral_f(-1.0) == pytest.approx(F_MINUS_ONE, rel=1e-10)


def test_increment_identity():
    # f(2) - f(1) = int_1^2 e^t/t dt, a non-singular quadrature
    lhs = exp_integral_f(2.0) - exp_integral_f(1.0)
    assert lhs == pytest.approx(ei_increment(1.0, 2.0), rel=1e-9)


@pytest.mark.parametrize("z", [-200.0, -50.0, -30.0, -6.5, -6.05, -5.95, -5.5, -2.0, -0.3, 0.001,
                               0.2, 3.0, 6.0, 25.0, 39.0, 39.9, 40.1, 41.0, 120.0, 200.0, 500.0])
def test_against_quadrature_oracle(z):
    # abs=0: approx's default 1e-12 floor would accept anything where |f| is tiny
    assert exp_integral_f(z) == pytest.approx(pv_exp_integral(z), rel=2e-10, abs=0)


@pytest.mark.parametrize("z", [-200.0, -50.0, -6.05, -5.95, 0.001, 39.9, 40.1, 200.0, 500.0])
def test_branch_boundaries_against_scipy(z):
    # a third route: f(z) = -Re E1(-z + 0i), by scipy's complex-argument E1,
    # a separate routine from the real expi that exp_integral_f wraps
    assert exp_integral_f(z) == pytest.approx(-exp1(complex(-z, 0.0)).real, rel=5e-12, abs=0)


def test_vectorized_matches_scalar():
    zs = np.array([-8.0, -1.0, 0.5, 7.0, 60.0])
    out = exp_integral_f(zs)
    assert out.shape == zs.shape
    for z, v in zip(zs, out):
        assert v == exp_integral_f(float(z))


def test_zero_raises():
    with pytest.raises(ValueError):
        exp_integral_f(0.0)
    with pytest.raises(ValueError):
        exp_integral_f(np.array([1.0, 0.0]))


def test_nonfinite_raises():
    with pytest.raises(ValueError):
        exp_integral_f(math.inf)


def test_derivative_identity_second_order():
    # |(f(z+h)-f(z-h))/(2h) - e^z/z| -> O(h^2) on [-5, 5] \ {0}
    for z in [-4.5, -2.0, -0.5, 0.7, 2.5, 4.8]:
        errs = []
        for h in (1e-3, 5e-4):
            fd = (exp_integral_f(z + h) - exp_integral_f(z - h)) / (2.0 * h)
            errs.append(abs(fd - math.exp(z) / z))
        # quartering h halves ... quarters the error (allow generous slack)
        assert errs[1] < errs[0] * 0.35 + 1e-12
