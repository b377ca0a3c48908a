"""Points of the 1-jet space J^1(T, R^2) in polar coordinates.

Coordinate order everywhere in this package is (t, x1, x2, y1, y2) =
(t, r, phi, rdot, phidot): x are the base coordinates, y the fibre
velocities.  phi is never reduced mod 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: canonical axis order used by the finite-difference machinery
AXES = ("t", "x1", "x2", "y1", "y2")


@dataclass(frozen=True)
class JetPoint:
    """A point (t, r, phi, rdot, phidot) of the jet space.

    Invariants: r > 0 and every component finite.  Velocity constraints
    (e.g. rdot != 0 for the monolayer Lagrangian) belong to the models,
    not to the point itself.
    """

    t: float
    x: tuple[float, float]
    y: tuple[float, float]

    def __post_init__(self):
        check_coordinates(self.t, *self.x, *self.y)

    @property
    def r(self) -> float:
        return self.x[0]

    @property
    def phi(self) -> float:
        return self.x[1]

    @property
    def rdot(self) -> float:
        return self.y[0]

    @property
    def phidot(self) -> float:
        return self.y[1]

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x[0], self.x[1], self.y[0], self.y[1]])

    @staticmethod
    def from_array(arr) -> "JetPoint":
        t, x1, x2, y1, y2 = (float(v) for v in arr)
        return JetPoint(t, (x1, x2), (y1, y2))


def check_coordinates(t, r, phi, rdot, phidot) -> None:
    """The invariants of a ``JetPoint``, for callers that keep the five
    coordinates as plain floats: a ValueError unless every component is
    finite and r > 0."""
    if not (math.isfinite(t) and math.isfinite(r) and math.isfinite(phi)
            and math.isfinite(rdot) and math.isfinite(phidot)):
        raise ValueError(f"non-finite jet point component in {(t, r, phi, rdot, phidot)}")
    if r <= 0.0:
        raise ValueError(f"jet point requires r > 0, got r = {r}")


def jet_point(t, r, phi, rdot, phidot) -> JetPoint:
    """Convenience constructor from flat coordinates."""
    return JetPoint(float(t), (float(r), float(phi)), (float(rdot), float(phidot)))

