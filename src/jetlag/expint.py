"""The special function f(z) = -PV integral_{-z}^inf e^{-t}/t dt.

Mathematically this is the exponential integral Ei(z) (Abramowitz & Stegun
§5.1), evaluated here on Python floats with :mod:`math` alone, in pieces
whose coefficients ``tools/gen_expint.py`` fits with mpmath
(:mod:`jetlag.expint_coeffs`):

* -1/4 < z < 1/5: the convergent series ln|z| + gamma + z P(z) (A&S 5.1.10);
* 1/5 <= z < 4: Cody's ln(z/x0) + (z - x0) R(z) about the zero x0 of Ei,
  with x0 split into high and low parts and ln(z/x0) = log1p((z - x0)/x0),
  so that the relative error stays small through the zero (Cody & Thacher,
  Math. Comp. 23 (1969)); R is entire, one polynomial per row of width 1/4;
* 4 <= z < 48: Ei itself, one polynomial per row of width 1/2;
* 48 <= z: e^z/z G(1/z), G(t) = 1 + t + 2t^2 + ... asymptotically, and inf
  where e^z overflows;
* 1/4 <= -z < 64: e^z times a polynomial of e^-z Ei(z), sixteen rows to an
  octave of -z;
* -z >= 64: the continued fraction of E1 (A&S 5.1.22) to five levels, which
  converges there to below float rounding; -0.0 once e^z underflows.

Each row is picked by one table index and summed by unrolled Horner in the
offset from its centre.  Over |z| in [1e-3, 700] the result is within
1e-15 relative of Ei.  An array is evaluated element by element on the
float path, so every element equals the float result bit for bit, whatever
SIMD kernels numpy dispatches to.  z = 0 is a logarithmic singularity and
raises, as does non-finite z.
"""

from __future__ import annotations

import math

import numpy as np

from .expint_coeffs import ASYM, CODY, EXP_MAX, GAMMA, MID, NEG, SERIES, X0_HI, X0_LO

_exp, _floor, _frexp, _log, _log1p = math.exp, math.floor, math.frexp, math.log, math.log1p
_INF = math.inf


def exp_integral_f(z):
    """f(z) of the monolayer potential; equals the exponential integral Ei(z).

    Scalar in, scalar out; array in, array out.  Raises ValueError on z = 0
    and on non-finite z.
    """
    if type(z) is not float:
        if not isinstance(z, (int, float)):
            return _array(z)
        z = float(z)
    if z >= 0.2:
        if z < 4.0:
            c, a0, a1, a2, a3, a4, a5, a6, a7, a8 = CODY[_floor(z * 4.0)]
            u = z - c
            d = (z - X0_HI) - X0_LO
            return _log1p(d / X0_HI) + d * (a0 + u * (a1 + u * (a2 + u * (a3 + u * (a4 + u * (a5 + u * (a6 + u * (a7 + u * a8))))))))
        if z < 48.0:
            c, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = MID[_floor(z * 2.0) - 8]
            u = z - c
            return a0 + u * (a1 + u * (a2 + u * (a3 + u * (a4 + u * (a5 + u * (a6 + u * (a7 + u * (a8 + u * (a9 + u * a10)))))))))
        if z <= EXP_MAX:
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = ASYM
            t = 1.0 / z
            return _exp(z) * t * (a0 + t * (a1 + t * (a2 + t * (a3 + t * (a4 + t * (a5 + t * (a6 + t * (a7 + t * (a8 + t * (a9 + t * (a10 + t * a11)))))))))))
        if z < _INF:
            return _INF  # e^z overflows
    elif z > -0.25:
        if z != 0.0:
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = SERIES
            return _log(z if z > 0.0 else -z) + (GAMMA + z * (a0 + z * (a1 + z * (a2 + z * (a3 + z * (a4 + z * (a5 + z * (a6 + z * (a7 + z * a8)))))))))
        raise ValueError("f(z) has a logarithmic singularity at z = 0")
    elif z > -64.0:
        m, e = _frexp(z)
        c, a0, a1, a2, a3, a4, a5, a6, a7, a8 = NEG[16 * e + _floor(m * -32.0)]
        u = z - c
        return _exp(z) * (a0 + u * (a1 + u * (a2 + u * (a3 + u * (a4 + u * (a5 + u * (a6 + u * (a7 + u * a8))))))))
    elif z > -_INF:
        x = -z
        return -_exp(z) / (x + 1.0 - 1.0 / (x + 3.0 - 4.0 / (x + 5.0 - 9.0 / (x + 7.0 - 16.0 / (x + 9.0 - 25.0 / (x + 11.0))))))
    raise ValueError("f(z) requires finite z")


def _array(z) -> np.ndarray | float:
    """exp_integral_f on each element of an array; a 0-d array gives a float."""
    z = np.asarray(z, dtype=float)
    if (z == 0.0).any():
        raise ValueError("f(z) has a logarithmic singularity at z = 0")
    if not np.isfinite(z).all():
        raise ValueError("f(z) requires finite z")
    out = np.fromiter(map(exp_integral_f, z.ravel().tolist()), float, z.size).reshape(z.shape)
    return out if out.ndim else float(out)
