"""Independent numerical oracles shared by the test modules.

These never touch the implementations they check: the special-function
oracle is adaptive quadrature of the defining principal-value integral,
and the mechanics oracles are hand-derived classical results.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from jetlag.fd import numeric_partials
from jetlag.models import PolynomialModel
from jetlag.points import jet_point


def pv_exp_integral(z: float) -> float:
    """f(z) = -PV int_{-z}^inf e^-t / t dt by quadrature.

    For z > 0 the pole at t = 0 is inside the range; splitting symmetric
    about 0 turns the principal value into the smooth integrand
    -2 sinh(t)/t on [0, z] plus the tail int_z^inf e^-t/t dt.  The
    tolerance is purely relative (epsabs=0): at z = -30 f is ~ -3e-15, so
    any absolute floor would let the quadrature stop without a digit.
    """
    if z == 0:
        raise ValueError("z = 0")
    if z < 0:
        tail, _ = quad(lambda t: math.exp(-t) / t, -z, np.inf, epsabs=0.0, epsrel=1e-13)
        return -tail
    sym, _ = quad(lambda t: 2.0 * math.sinh(t) / t if t != 0 else 2.0, 0.0, z,
                  epsabs=0.0, epsrel=1e-13)
    tail, _ = quad(lambda t: math.exp(-t) / t, z, np.inf, epsabs=0.0, epsrel=1e-13)
    return sym - tail


def ei_increment(z1: float, z2: float) -> float:
    """int_{z1}^{z2} e^t/t dt (non-singular for 0 < z1 < z2): equals
    f(z2) - f(z1) through the derivative identity f'(z) = e^z / z."""
    if not 0 < z1 < z2:
        raise ValueError("need 0 < z1 < z2")
    val, _ = quad(lambda t: math.exp(t) / t, z1, z2, epsabs=1e-14, epsrel=1e-13)
    return val


# -- free polar particle: classical results ------------------------------------

def polar_metric(m: float, r: float) -> np.ndarray:
    return np.diag([0.5 * m, 0.5 * m * r**2])


def polar_spray(r: float, rdot: float, phidot: float) -> tuple[float, float]:
    """From r'' - r phidot^2 = 0 and phi'' + 2 rdot phidot / r = 0."""
    return -0.5 * r * phidot**2, rdot * phidot / r


def polar_christoffel(r: float) -> dict:
    """Nonzero Christoffel symbols of the flat metric in polar coordinates."""
    return {"L1_22": -r, "L2_12": 1.0 / r}


def monolayer_dL_drdot(t, r, rdot, m, p, V) -> float:
    """Hand-differentiated dL/drdot = m rdot + p r^5 |V| e^(2|V|t/r) rdot^-2."""
    return m * rdot + p * r**5 * V * math.exp(2.0 * V * t / r) / rdot**2


# -- finite differences of derived fields ----------------------------------------

def field_partial(fn, pt, spec, scales=None) -> float:
    """numeric_partials of a plain callable JetPoint -> float, wrapped as a
    model: the same probes and default scales as for any Lagrangian."""
    model = PolynomialModel(lambda *coords: fn(jet_point(*coords)))
    return numeric_partials(model, pt, spec, scales=scales)
