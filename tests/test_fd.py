"""The finite-difference engine against hand-differentiable fixtures."""

import itertools
import warnings

import numpy as np
import pytest

from jetlag.errors import StencilDomainError
from jetlag.fd import MAX_ORDER, numeric_partials
from jetlag.geometry import GeometryEvaluator
from jetlag.monolayer import MonolayerModel, MonolayerParams
from jetlag.points import AXES, jet_point
from oracles import CountingMonolayer, PolynomialModel, asymmetric_lagrangian, monolayer_dL_drdot


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


# The StencilDomainError messages and probes below are pinned in full: the
# probes are Python floats, and each message prints them as a numpy array.


def test_stencil_domain_error_reports_probe():
    # the model's domain predicate rejects the probe rdot = 0.51 - 0.05
    bad = PolynomialModel(lambda t, r, phi, rd, pd: rd, domain=lambda t, r, phi, rd, pd: rd > 0.5)
    pt = jet_point(0.0, 1.0, 0.0, 0.51, 0.0)
    with pytest.raises(StencilDomainError) as err:
        numeric_partials(bad, pt, ("y1",))
    assert str(err.value) == "finite-difference probe [0.   1.   0.   0.46 0.  ] is outside the model's valid domain"
    assert err.value.probe.tolist() == [0.0, 1.0, 0.0, 0.46, 0.0]


def test_probe_below_zero_radius_reports():
    model = PolynomialModel(lambda t, r, phi, rd, pd: r**2)
    pt = jet_point(0.0, 1e-12, 0.0, 0.0, 0.0)
    with pytest.raises(StencilDomainError) as err:
        # scales floor at max(|v|,1) capped by 2r; force a huge step
        numeric_partials(model, pt, ("x1",), scales=np.ones(5))
    assert str(err.value) == (
        "finite-difference probe left the coordinate domain at [ 0.   -0.05  0.    0.    0.  ]: "
        "jet point requires r > 0, got r = -0.049999999999000004"
    )
    assert err.value.probe.tolist() == [0.0, -0.049999999999000004, 0.0, 0.0, 0.0]


def test_nonfinite_value_reports_probe(model5):
    # E = 2|V|t/r = 4000: the domain predicate leaves the overflowing e^E to
    # L, which is inf - inf there
    with pytest.raises(StencilDomainError) as err:
        numeric_partials(model5, jet_point(1.0, 0.5, 0.0, -1.0, 0.2), ("y1",))
    assert str(err.value) == (
        "L = nan is not finite at finite-difference probe [ 1.          0.5         0.         -0.98333333  0.2       ]"
    )
    assert err.value.probe.tolist() == [1.0, 0.5, 0.0, -0.9833333333333333, 0.2]


def test_field_partial():
    pt = jet_point(0.2, 1.3, 0.1, 0.4, -0.7)
    got = numeric_partials(PolynomialModel(lambda t, r, phi, rd, pd: r**3), pt, ("x1", "x1"))
    assert got == pytest.approx(6 * pt.r, rel=1e-9)


def _step_product_error(scale: float) -> StencilDomainError:
    model = PolynomialModel(lambda t, r, phi, rd, pd: 0.5 * rd**3)
    pt = jet_point(0.4, 1.2, -0.3, 0.9, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StencilDomainError) as err:
            numeric_partials(model, pt, ("y1", "y1", "y1"), scales=np.full(5, scale))
    assert err.value.probe is None
    return err.value


def test_step_product_underflow_is_named():
    assert str(_step_product_error(1e-110)) == (
        "finite-difference step product is 0.0 for spec ('y1', 'y1', 'y1') "
        "at steps [5.e-112]: the steps are too small or too large"
    )


def test_step_product_overflow_is_named():
    assert str(_step_product_error(1e200)) == (
        "finite-difference step product is inf for spec ('y1', 'y1', 'y1') "
        "at steps [5.e+198]: the steps are too small or too large"
    )


SPECS = [s for n in range(1, MAX_ORDER + 1) for s in itertools.combinations_with_replacement(AXES, n)]


@pytest.mark.parametrize("which", ["monolayer", "free_polar"])
def test_shared_memo_is_bit_identical(which, model5, sample_pt):
    model, pt = {
        "monolayer": (model5, sample_pt),
        "free_polar": (MonolayerModel(MonolayerParams(m=1.3, p=0.0)), jet_point(0.2, 2.0, 0.3, 3.0, 0.5)),
    }[which]
    assert len(SPECS) == 55
    fresh = [numeric_partials(model, pt, spec) for spec in SPECS]
    shared = {}
    filling = [numeric_partials(model, pt, spec, values=shared) for spec in SPECS]
    filled = [numeric_partials(model, pt, spec, values=shared) for spec in SPECS]
    assert filling == fresh
    assert filled == fresh


# float.hex() of the SPECS partials in order: a change to any probe, to the
# order in which the probes are summed or to one rounding moves at least one.
# The step products are Python-float products, so these bits do not depend
# on the SIMD kernels numpy dispatches (test_portability reruns them with
# AVX-512 off).
PINNED_HEX = {
    "monolayer": """
        0x1.04ac73e1b111dp+26 0x1.0a5e2a35e3be5p+15 0x0.0p+0
        0x1.0a93b002b7032p+14 0x1.999999999999bp-5 0x1.fd49fe5e83770p+37
        -0x1.5147f9a1d761fp+17 0x0.0p+0 0x1.045821e292b10p+26
        0x0.0p+0 0x1.0ab47a969ecc0p+18 0x0.0p+0
        0x1.0a97b00283bc0p+15 0x1.999999affffffp-3 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x1.0a99b0028a9a6p+15
        0x0.0p+0 0x1.0000000000000p-2 0x1.f17a0a1ba902bp+49
        -0x1.fdcc2afc805fbp+38 0x0.0p+0 0x1.fc7c22161cf5cp+37
        0x0.0p+0 0x1.04c4f0e78a452p+30 0x0.0p+0
        -0x1.42a890e09bd8dp+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x1.045821dfcec5dp+27
        0x0.0p+0 0x0.0p+0 -0x1.0bff05898e658p+19
        0x0.0p+0 0x1.0a97b003992e0p+18 0x1.9999080000000p-2
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x1.0a97affd2da00p+16 0x0.0p+0 0x1.ffffffff0cccdp-1
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x1.8fe387d92464cp+16 0x0.0p+0 0x0.0p+0
        0x0.0p+0
    """.split(),
    "asymmetric": """
        0x1.ddc1e7967cae3p-2 0x1.60b912dba4d47p+0 -0x1.bc5586445212bp-4
        0x1.f542a23bff87ap+1 -0x1.0346dc5d638a4p+1 -0x1.ca9c71c71c71cp-39
        0x1.8e219652be33bp-2 0x1.d7dbf487fd408p-3 0x1.2e48e8a71d6ccp-1
        -0x1.26e978d4fc8c9p-2 0x1.a60d4562e02f8p+0 -0x1.5e9e1b089b4b1p-2
        0x1.19691a75ccb32p+2 0x1.f3b645a1c9d89p-2 0x1.70a3d70a3cdffp-1
        0x1.86c226809b6a9p-3 -0x1.020c49ba5dfb4p+0 0x1.72ef0ae535b49p+2
        0x1.a1cac083101ffp-1 0x1.1fbe76c8b419cp+2 0x1.76fffffffffffp-37
        0x1.27238e38e38e3p-37 0x1.42eaaaaaaaaa9p-36 -0x1.4d55555555554p-40
        0x1.481ffffffffffp-35 0x0.0p+0 0x1.89374bc680110p-3
        0x1.f7ced91688158p-2 -0x1.eb851eb8ac92bp-3 -0x1.2e15555555554p-36
        0x1.26e978d4ff37fp-1 0x0.0p+0 0x1.26e978d4ee4a9p-2
        -0x1.f3ffffffffffdp-38 0x1.eb851eb7ea8fdp-2 0x1.3a92a305b62f7p-2
        -0x1.d6325ed097b43p-37 0x1.25460aa658102p+2 0x1.cef684bda12f7p-42
        -0x1.15c71c71c71c7p-42 0x1.26e978d53fac0p-3 -0x1.15c71c71c71c7p-41
        0x1.bc84b5dccde1fp+2 0x1.66666666707c0p-1 0x1.eb851eb9e12a9p-4
        -0x1.5525555555554p-35 0x1.387ffffffffffp-36 -0x1.333333332f25fp+1
        0x1.ba5e353e927fdp-3 -0x1.eb851eb6d841ap-5 0x1.ae147ae13c57dp+0
        0x1.096bb98c8b67fp+0 -0x1.4d55555555554p-38 0x1.47ae147fcc7ffp-5
        0x1.f3ffffffffffdp-35
    """.split(),
}


def test_partials_and_evaluation_count_are_pinned(model5, params5, sample_pt):
    for name, model, pt in [
        ("monolayer", model5, sample_pt),
        ("asymmetric", PolynomialModel(asymmetric_lagrangian), jet_point(0.3, 1.2, 0.4, 0.8, -0.6)),
    ]:
        assert [numeric_partials(model, pt, spec).hex() for spec in SPECS] == PINNED_HEX[name], name
    model = CountingMonolayer(params5)
    ev = GeometryEvaluator(model, sample_pt)
    ev.bundle()
    assert model.calls == 3131
    assert len(ev._partials) == 24


def test_failed_probe_is_not_memoised():
    bad = PolynomialModel(lambda t, r, phi, rd, pd: rd, domain=lambda t, r, phi, rd, pd: rd > 0.5)
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
