"""The invariants of a jet point: every component finite and r > 0."""

import math

import pytest

from jetlag.points import JetPoint, jet_point

_VALID = (0.1, 0.5, 0.3, -1.0, 0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("index", range(5), ids=["t", "r", "phi", "rdot", "phidot"])
def test_non_finite_component_is_named(index, bad):
    vals = list(_VALID)
    vals[index] = bad
    with pytest.raises(ValueError) as err:
        JetPoint(vals[0], (vals[1], vals[2]), (vals[3], vals[4]))
    assert str(err.value) == f"non-finite jet point component in {tuple(vals)}"


@pytest.mark.parametrize("r", [0.0, -0.0, -1.0])
def test_r_must_be_positive(r):
    with pytest.raises(ValueError) as err:
        jet_point(0.1, r, 0.3, -1.0, 0.2)
    assert str(err.value) == f"jet point requires r > 0, got r = {r}"
