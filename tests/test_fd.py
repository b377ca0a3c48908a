"""The finite-difference engine against hand-differentiable fixtures."""

import itertools
import warnings

import numpy as np
import pytest

from jetlag.errors import StencilDomainError
from jetlag.fd import MAX_ORDER, numeric_partials
from jetlag.models import FreePolarModel, PolynomialModel
from jetlag.points import AXES, jet_point
from oracles import monolayer_dL_drdot


def test_second_derivative_quadratic():
    model = PolynomialModel(lambda t, r, phi, rd, pd: rd**2)
    pt = jet_point(0.3, 1.7, 0.4, -0.8, 0.6)
    assert numeric_partials(model, pt, ("y1", "y1")) == pytest.approx(2.0, abs=1e-8)


def test_mixed_bilinear():
    model = PolynomialModel(lambda t, r, phi, rd, pd: r * pd)
    pt = jet_point(0.1, 2.0, 0.0, 1.0, -0.5)
    assert numeric_partials(model, pt, ("x1", "y2")) == pytest.approx(1.0, abs=1e-8)


def test_monolayer_first_partial_vs_hand_form(model5, params5):
    pt = jet_point(1e-3, 0.5, 0.0, -1.0, 0.2)
    want = monolayer_dL_drdot(pt.t, pt.r, pt.rdot, params5.m, params5.p, params5.V_abs)
    got = numeric_partials(model5, pt, ("y1",))
    assert got == pytest.approx(want, rel=1e-6)


def test_third_derivative_cubic():
    model = PolynomialModel(lambda t, r, phi, rd, pd: 0.5 * rd**3 + t * r * pd)
    pt = jet_point(0.4, 1.2, -0.3, 0.9, 1.1)
    assert numeric_partials(model, pt, ("y1", "y1", "y1")) == pytest.approx(3.0, abs=1e-8)
    assert numeric_partials(model, pt, ("t", "x1", "y2")) == pytest.approx(1.0, abs=1e-8)


def test_spec_order_canonical():
    model = PolynomialModel(lambda t, r, phi, rd, pd: r * rd**2)
    pt = jet_point(0.0, 1.5, 0.0, 0.7, 0.0)
    a = numeric_partials(model, pt, ("x1", "y1"))
    b = numeric_partials(model, pt, ("y1", "x1"))
    assert a == b  # mixed partials commute; the cache canonicalizes the spec


def test_order_limits():
    model = PolynomialModel(lambda t, r, phi, rd, pd: rd)
    pt = jet_point(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        numeric_partials(model, pt, ())
    with pytest.raises(ValueError):
        numeric_partials(model, pt, ("y1",) * 4)
    with pytest.raises(ValueError):
        numeric_partials(model, pt, ("bogus",))


def test_stencil_domain_error_reports_probe(model5):
    # rdot = tiny: the stiff-scaled stencil itself stays clear, but the
    # domain predicate rejects the g11-singular band for rdot > 0
    bad = PolynomialModel(lambda t, r, phi, rd, pd: rd, domain=lambda pt: pt.rdot > 0.5)
    pt = jet_point(0.0, 1.0, 0.0, 0.51, 0.0)
    with pytest.raises(StencilDomainError) as err:
        numeric_partials(bad, pt, ("y1",))
    assert err.value.probe is not None


def test_probe_below_zero_radius_reports():
    model = PolynomialModel(lambda t, r, phi, rd, pd: r**2)
    pt = jet_point(0.0, 1e-12, 0.0, 0.0, 0.0)
    with pytest.raises(StencilDomainError):
        # scales floor at max(|v|,1) capped by 2r; force a huge step
        numeric_partials(model, pt, ("x1",), scales=np.ones(5))


def test_field_partial():
    pt = jet_point(0.2, 1.3, 0.1, 0.4, -0.7)
    got = numeric_partials(PolynomialModel(lambda t, r, phi, rd, pd: r**3), pt, ("x1", "x1"))
    assert got == pytest.approx(6 * pt.r, rel=1e-9)


def test_step_product_underflow_is_named():
    model = PolynomialModel(lambda t, r, phi, rd, pd: 0.5 * rd**3)
    pt = jet_point(0.4, 1.2, -0.3, 0.9, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StencilDomainError, match=r"step product is 0\.0 for spec \('y1', 'y1', 'y1'\)"):
            numeric_partials(model, pt, ("y1", "y1", "y1"), scales=np.full(5, 1e-110))


SPECS = [s for n in range(1, MAX_ORDER + 1) for s in itertools.combinations_with_replacement(AXES, n)]


@pytest.mark.parametrize("which", ["monolayer", "free_polar"])
def test_shared_memo_is_bit_identical(which, model5, sample_pt):
    model, pt = {
        "monolayer": (model5, sample_pt),
        "free_polar": (FreePolarModel(m=1.3), jet_point(0.2, 2.0, 0.3, 3.0, 0.5)),
    }[which]
    assert len(SPECS) == 55
    fresh = [numeric_partials(model, pt, spec) for spec in SPECS]
    shared = {}
    filling = [numeric_partials(model, pt, spec, values=shared) for spec in SPECS]
    filled = [numeric_partials(model, pt, spec, values=shared) for spec in SPECS]
    assert filling == fresh
    assert filled == fresh


def test_failed_probe_is_not_memoised():
    bad = PolynomialModel(lambda t, r, phi, rd, pd: rd, domain=lambda pt: pt.rdot > 0.5)
    pt = jet_point(0.0, 1.0, 0.0, 0.51, 0.0)
    values = {}
    with pytest.raises(StencilDomainError) as first:
        numeric_partials(bad, pt, ("y1",), values=values)
    assert tuple(first.value.probe) not in values
    assert all(key[3] > 0.5 for key in values)
    with pytest.raises(StencilDomainError) as second:
        numeric_partials(bad, pt, ("y1",), values=values)
    assert str(second.value) == str(first.value)
    assert "is outside the model's valid domain" in str(second.value)
