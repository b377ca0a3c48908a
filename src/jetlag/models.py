"""The interface of a Lagrangian the generic geometry pipeline can differentiate.

A model supplies its scalar value, a domain predicate, the mass ``m`` the
Yang-Mills energy divides by (1 by default) and, optionally, per-axis
finite-difference scale hints.  All three take the five
coordinates (t, r, phi, rdot, phidot) as plain floats, already checked as a
``JetPoint`` checks them (``points.check_coordinates``), and return floats
(``domain_violation`` a message or None).  The generic geometry pipeline
consumes nothing else, so closed forms can never leak into the oracle.
``monolayer.MonolayerModel`` is the one model of ``src``; at p = 0 it is
the free polar particle.
"""

from __future__ import annotations

from .points import JetPoint


class LagrangianModel:
    """Base interface; subclasses implement ``value``.

    ``value`` and ``domain_violation`` must be pure functions of the five
    coordinates: the finite-difference engine memoises L per probe point
    for the life of a ``GeometryEvaluator`` (see ``fd.py``).
    """

    #: the mass EYM divides by
    m = 1.0

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
