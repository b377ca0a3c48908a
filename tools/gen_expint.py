"""Generate ``src/jetlag/expint_coeffs.py``, the coefficients of jetlag's Ei.

Run from anywhere, with mpmath installed (the ``test`` extra)::

    python tools/gen_expint.py

It overwrites the module next to ``expint.py``.  ``render()`` returns the
module text; ``tests/test_expint.py`` compares it with the committed file,
so the tables cannot drift from this script.

Each polynomial is mpmath's Chebyshev interpolant (``chebyfit``, 40 digits)
of its piece, written as monomial coefficients, lowest degree first, and
rounded to the nearest float.  The pieces and their forms (Abramowitz &
Stegun 5.1.10 and 5.1.22; Cody & Thacher, Math. Comp. 23 (1969)):

* ``SERIES``: P(z) = (Ei(z) - gamma - ln|z|) / z on [-1/4, 1/5], in z.
* ``CODY``: 16 rows on [1/5, 4); row 0 covers [1/5, 1/4] and row i > 0
  [i/4, (i+1)/4].  Each holds R(z) = (Ei(z) - ln(z/x0)) / (z - x0), which
  is entire, x0 the positive zero of Ei.
* ``MID``: 88 rows of width 1/2 on [4, 48); row i - 8 covers [i/2, (i+1)/2]
  and holds Ei.
* ``ASYM``: G(t) = z e^-z Ei(z), t = 1/z, on 48 <= z <= EXP_MAX, in t;
  G(t) = 1 + t + 2t^2 + ... asymptotically.
* ``NEG``: 128 rows, sixteen to an octave of -z in [1/4, 64).  With z split
  as m 2^e by ``math.frexp`` (-m in [1/2, 1)), row 16e + k covers
  k 2^(e-5) <= -z <= (k+1) 2^(e-5), k = 16..31.  Each holds e^-z Ei(z).

A row is ``(c, a0, a1, ...)``: the polynomial in u = z - c, c the centre of
the row.  Every row of a table has the same degree.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp

TARGET = Path(__file__).resolve().parent.parent / "src" / "jetlag" / "expint_coeffs.py"
DPS = 40
SERIES_EDGES = (-0.25, 0.2)  # the series covers -1/4 < z < 1/5
MID_END = 48.0  # ASYM takes over here


def _fit(f, lo, hi, degree: int) -> list[float]:
    """Monomial coefficients, lowest first, of f's interpolant on [lo, hi]."""
    coeffs = mp.chebyfit(f, [mp.mpf(lo), mp.mpf(hi)], degree + 1)
    return [float(c) for c in reversed(coeffs)]


def _rows(f, edges, degree: int) -> tuple[tuple[float, ...], ...]:
    """One row ``(c, a0, ..., a_degree)`` per pair of neighbouring edges:
    f(c + u) ~ sum a_k u^k between them, c their midpoint."""
    rows = []
    for lo, hi in zip(edges, edges[1:]):
        c = (lo + hi) / 2.0
        rows.append((c, *_fit(lambda u: f(c + u), lo - c, hi - c, degree)))
    return tuple(rows)


def tables() -> dict[str, object]:
    """Every constant and table of ``expint_coeffs``, by name."""
    with mp.workdps(DPS):
        x0 = mp.findroot(mp.ei, mp.mpf("0.3725"))
        x0_hi = float(x0)
        exp_max = float(mp.log(sys.float_info.max))
        if math.isinf(math.exp(exp_max)):  # rounded up past the float range
            exp_max = math.nextafter(exp_max, 0.0)

        def series(z):
            return (mp.ei(z) - mp.euler - mp.log(abs(z))) / z if z else mp.mpf(1)

        def cody(z):
            with mp.workdps(2 * DPS):  # the quotient cancels near x0
                return (mp.ei(z) - mp.log(z / x0)) / (z - x0)

        def asym(t):
            return mp.exp(-1 / t) * mp.ei(1 / t) / t

        def neg(z):
            return mp.exp(-z) * mp.ei(z)

        octaves = range(-1, 7)  # frexp exponents of 1/4 <= -z < 64
        neg_edges = [-k * 2.0 ** (e - 5) for e in reversed(octaves) for k in range(32, 16, -1)] + [SERIES_EDGES[0]]
        return {
            "GAMMA": float(mp.euler),
            "X0_HI": x0_hi,
            "X0_LO": float(x0 - x0_hi),
            "EXP_MAX": exp_max,
            "SERIES": tuple(_fit(series, *SERIES_EDGES, 8)),
            "CODY": _rows(cody, [SERIES_EDGES[1]] + [i / 4 for i in range(1, 17)], 8),
            "MID": _rows(mp.ei, [i / 2 for i in range(8, 2 * int(MID_END) + 1)], 10),
            "ASYM": tuple(_fit(asym, 1 / mp.mpf(exp_max), 1 / mp.mpf(MID_END), 11)),
            "NEG": _rows(neg, neg_edges, 8)[::-1],
        }


_HEADER = '''"""Coefficients of :mod:`jetlag.expint`'s Ei; generated by tools/gen_expint.py.

Do not edit: rerun ``python tools/gen_expint.py``, which writes this file.
The script's docstring defines each table.
"""

'''


def _floats(values, indent: str) -> list[str]:
    """``values`` as repr literals, four to a line."""
    return [indent + " ".join(f"{v!r}," for v in values[i:i + 4]) for i in range(0, len(values), 4)]


def render() -> str:
    lines = []
    for name, value in tables().items():
        if isinstance(value, float):
            lines.append(f"{name} = {value!r}")
        elif isinstance(value[0], float):
            lines += [f"{name} = (", *_floats(value, "    "), ")"]
        else:
            lines.append(f"{name} = (")
            for row in value:
                lines += ["    (", *_floats(row, "        "), "    ),"]
            lines.append(")")
    return _HEADER + "\n".join(lines) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
