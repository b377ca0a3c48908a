"""The special function f(z) = -PV integral_{-z}^inf e^{-t}/t dt.

Mathematically this is the exponential integral Ei(z) (Abramowitz & Stegun
§5.1), evaluated here by ``scipy.special.expi``.  Accepts scalars or numpy
arrays; z = 0 is a logarithmic singularity and raises, as does non-finite
z.  The tests check it against an independent principal-value quadrature
oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expi


def exp_integral_f(z):
    """f(z) of the monolayer potential; equals the exponential integral Ei(z).

    Scalar in, scalar out; array in, array out.  Raises ValueError on z = 0
    and on non-finite z.
    """
    if isinstance(z, (int, float)):  # the closed forms' hot path skips numpy
        zero, finite = z == 0, math.isfinite(z)
    else:
        z = np.asarray(z, dtype=float)
        zero, finite = (z == 0.0).any(), np.isfinite(z).all()
    if zero:
        raise ValueError("f(z) has a logarithmic singularity at z = 0")
    if not finite:
        raise ValueError("f(z) requires finite z")
    out = expi(z)
    return out if isinstance(out, np.ndarray) else float(out)
