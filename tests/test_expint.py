"""The special function f(z): oracle values frozen from the PV quadrature,
a 40-digit mpmath grid, the piece edges and the coefficient tables."""

import importlib.util
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from jetlag import expint, expint_coeffs
from jetlag.expint import exp_integral_f
from oracles import ei_increment, pv_exp_integral

#: the worst relative error from Ei that the grid allows
GRID_TOL = 1e-15

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


def test_overflow_and_underflow():
    # inf where e^z overflows, -0.0 where e^z underflows
    assert exp_integral_f(expint_coeffs.EXP_MAX) < math.inf
    assert exp_integral_f(math.nextafter(expint_coeffs.EXP_MAX, math.inf)) == math.inf
    assert exp_integral_f(1e300) == math.inf
    for z in (-745.0, -800.0, -1e300):
        assert math.copysign(1.0, exp_integral_f(z)) == -1.0 and exp_integral_f(z) == 0.0


@pytest.fixture(scope="module")
def grid():
    """20000 seeded z, |z| log-uniform on [1e-3, 700] with either sign, 1000
    more within 1e-3 of the zero x0 of Ei and the floats next to x0; and
    Ei there to 40 digits, as a float pair hi + lo."""
    rnd = random.Random(37)
    x0 = expint_coeffs.X0_HI
    zs = [rnd.choice((-1.0, 1.0)) * 10.0 ** rnd.uniform(-3.0, math.log10(700.0)) for _ in range(20000)]
    zs += [x0 + rnd.uniform(-1e-3, 1e-3) for _ in range(1000)] + [math.nextafter(x0, 0.0), x0, math.nextafter(x0, 1.0)]
    with mpmath.workdps(40):
        refs = [mpmath.ei(z) for z in zs]
        lo = [float(ref - float(ref)) for ref in refs]
    return np.array(zs), np.array([float(ref) for ref in refs]), np.array(lo)


def _worst_rel_err(zs, hi, lo) -> float:
    # f - hi is exact wherever f is within a factor 2 of Ei
    return float(np.max(np.abs((exp_integral_f(zs) - hi - lo) / hi)))


def test_grid_against_mpmath(grid):
    zs = grid[0]
    assert _worst_rel_err(*grid) <= GRID_TOL
    # the array path is the float path, bit for bit
    assert [v.hex() for v in exp_integral_f(zs)] == [exp_integral_f(float(z)).hex() for z in zs]


@pytest.mark.parametrize("name", ["SERIES", "CODY", "MID", "ASYM", "NEG"])
def test_grid_catches_a_perturbed_coefficient(grid, monkeypatch, name):
    # the negative control: a 1e-14 relative change to the leading
    # coefficient of any one row fails the grid bound.  (A coefficient of
    # degree k moves Ei by about 1e-14 |a_k u^k / Ei|, so the high ones sit
    # below rounding in any table.)
    table = getattr(expint, name)
    rows, lead = (table, 1) if isinstance(table[0], tuple) else ((table,), 0)
    for i, row in enumerate(rows):
        bumped = row[:lead] + (row[lead] * (1.0 + 1e-14),) + row[lead + 1:]
        monkeypatch.setattr(expint, name, table[:i] + (bumped,) + table[i + 1:] if lead else bumped)
        assert _worst_rel_err(*grid) > GRID_TOL, (name, i)


def _row_edges():
    """(table, row, z) with z the edge a row shares with the row before it."""
    yield from (("CODY", i, i / 4) for i in range(1, 16))  # row 0 starts at 1/5
    yield from (("MID", i - 8, i / 2) for i in range(9, 96))
    yield from (("NEG", 16 * e + k, -k * 2.0 ** (e - 5)) for e in range(-1, 7) for k in range(16, 32) if 16 * e + k)


def test_neighbouring_rows_agree_at_their_edge(monkeypatch):
    # the row before, put in place of the row that holds the edge, evaluates
    # its polynomial at the edge
    edges = list(_row_edges())
    assert [len(getattr(expint, name)) for name in ("CODY", "MID", "NEG")] == [16, 88, 128]
    for name, row, z in edges:
        own = exp_integral_f(z)
        table = getattr(expint, name)
        with monkeypatch.context() as patched:
            patched.setattr(expint, name, table[:row] + (table[row - 1],) + table[row + 1:])
            assert abs(exp_integral_f(z) - own) <= 2 * math.ulp(own), (name, z)


@pytest.mark.parametrize("edge", [-64.0, -0.25, 0.2, 4.0, 48.0])
def test_neighbouring_forms_agree_across_their_edge(edge):
    # the edge and the float next to it toward 0 take different forms; the
    # step between them is Ei's own to within 2 ulp
    below = math.nextafter(edge, 0.0)
    with mpmath.workdps(40):
        jump = mpmath.mpf(exp_integral_f(edge)) - exp_integral_f(below) - (mpmath.ei(edge) - mpmath.ei(below))
    assert float(abs(jump)) <= 2 * math.ulp(exp_integral_f(edge))


def test_committed_coefficients_are_the_generators():
    # tools/gen_expint.py, rerun in memory, writes the committed module byte for byte
    path = Path(__file__).parents[1] / "tools" / "gen_expint.py"
    spec = importlib.util.spec_from_file_location("gen_expint", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render() == Path(expint_coeffs.__file__).read_text()
