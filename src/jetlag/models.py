"""Lagrangian models the generic geometry pipeline can differentiate.

A model supplies its scalar value, a domain predicate and, optionally,
per-axis finite-difference scale hints and fast closed-form shortcuts
(spray, g11) that the dynamics integrator uses when present.  The value,
the domain predicate and the shortcuts take the five coordinates
(t, r, phi, rdot, phidot) as plain floats, already checked as a
``JetPoint`` checks them (``points.check_coordinates``), and return floats
(``domain_violation`` a message or None).  The generic geometry pipeline
itself only ever consumes ``value``, ``domain_violation`` and
``fd_scales``, so closed forms can never leak into the oracle.
"""

from __future__ import annotations

from .points import JetPoint


class LagrangianModel:
    """Base interface; subclasses implement ``value``.

    ``value`` and ``domain_violation`` must be pure functions of the five
    coordinates: the finite-difference engine memoises L per probe point
    for the life of a ``GeometryEvaluator`` (see ``fd.py``).
    """

    name = "model"
    #: True when the Lagrangian contains rdot^-1 (domain excludes rdot = 0)
    requires_nonzero_rdot = False

    def value(self, t, r, phi, rdot, phidot) -> float:
        raise NotImplementedError

    def domain_violation(self, t, r, phi, rdot, phidot) -> str | None:
        """None if valid, else a message naming the violated precondition."""
        if r <= 0.0:
            return f"r = {r} <= 0"
        return None

    def fd_scales(self, pt: JetPoint, spec=None):
        """Optional per-axis step scales for the partial ``spec`` (None = default)."""
        return None

    # optional closed-form fast paths -------------------------------------
    def spray(self, t, r, phi, rdot, phidot):
        """(G1, G2) closed form, or None when only the FD route exists."""
        return None

    def metric_g11(self, t, r, phi, rdot, phidot):
        """Closed-form g11, or None; used for cheap singularity events."""
        return None


class FreePolarModel(LagrangianModel):
    """Free particle in the polar plane: L = (m/2)(rdot^2 + r^2 phidot^2).

    The flat benchmark: geodesics are straight lines, r^2 phidot is
    conserved, all torsions and the electromagnetic form vanish.
    """

    name = "free_polar"

    def __init__(self, m: float = 1.0):
        if m <= 0:
            raise ValueError("mass must be positive")
        self.m = float(m)

    def value(self, t, r, phi, rdot, phidot) -> float:
        return 0.5 * self.m * (rdot**2 + r**2 * phidot**2)

    def spray(self, t, r, phi, rdot, phidot):
        return (-0.5 * r * phidot**2, rdot * phidot / r)

    def metric_g11(self, t, r, phi, rdot, phidot):
        return 0.5 * self.m

