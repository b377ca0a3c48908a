"""Central-difference engine for partial derivatives on the jet space.

``numeric_partials`` is the one entry point for partials of a scalar L:
anything to be differentiated is a model (``models.LagrangianModel``).
``noisy_field_partial`` differentiates the FD-computed fields of the
geometry once more.  Derivatives are requested as a tuple of axis names
with repetition, e.g. ``("y1", "y1")`` for d2/drdot2 or ``("x1", "y2")``
for the mixed d2/dr dphidot.  Total order <= 3.

Step policy (Ridders): the composite symmetric stencil is evaluated on a
geometric ladder of steps h0 / 2^i starting from h0 = 0.05 * scale per
axis, extrapolated in h^2 through a Neville tableau, and the entry with
the smallest error estimate wins.  This adapts automatically both to stiff
axes (exponential factors, where only the small steps converge) and to
axes whose contribution to L is tiny relative to |L| (where only the large
steps survive roundoff).  ``scale`` defaults to max(|coordinate|, 1)
(capped along r so probes respect r > 0); models may refine it via
``fd_scales`` -- the monolayer supplies 1/log-derivative scales for its
stiff axes.  ``scales_for`` is that one policy; the nested steps of
``noisy_field_partial`` in the geometry take their scales from it too.
A probe where L is not finite raises ``StencilDomainError``.  Everything
is deterministic for fixed inputs.

Plain floats per ladder: the stencil, weights and step factors of a spec
are a plan built once (``_plan``).  A level's steps and probes are formed
on Python floats only when the Neville tableau reaches that level, as
h_i = (scale * 0.05) * 2^-i and q = base + offset * h_i: one product and
one sum per coordinate, each correctly rounded.  The level's step product
(the denominator) is formed first, by repeated multiplication in axis
order: h_t^a h_r^b ... as h_t * ... * h_t * h_r * ...  So the partials do
not depend on which SIMD kernels numpy dispatches (its array ``power``
rounds some squares and cubes differently on different CPUs).

Probe memo: each probe is looked up in a ``values`` dict keyed by its five
exact coordinates before they are checked (``points.check_coordinates``),
the domain checked or ``model.value`` called, and L is stored only for
probes that pass every check.  The dict defaults to one per call;
``geometry.GeometryEvaluator`` shares one across the partials at its
point.  The torsions differentiate N once more with
``noisy_field_partial``, through one nested evaluator per probe point,
each with its own memo, as no probe of one evaluator recurs in another.
Nothing is cached on the model.  This relies on ``value`` and ``domain_violation``
being pure functions of the point.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import StencilDomainError
from .points import AXES, JetPoint, check_coordinates

_H0_FACTOR = 0.05
_CON = 2.0
_CON2 = _CON * _CON
_NTAB = 8
_SAFE = 4.0
#: the step ladder h0 / CON^i, i < NTAB, as factors of h0
_SHRINK = tuple(_CON**-i for i in range(_NTAB))

# symmetric central stencils per axis order: (offset, weight) pairs
_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}

MAX_ORDER = 3


def default_scales(pt: JetPoint) -> np.ndarray:
    """Per-axis base scale max(|v|, 1); r capped so probes keep r > 0."""
    scales = np.maximum(np.abs(pt.as_array()), 1.0)
    scales[1] = min(scales[1], 2.0 * pt.r)
    return scales


def scales_for(model, pt: JetPoint, spec=None) -> np.ndarray:
    """The step scales for the partial ``spec``: the model's ``fd_scales``
    hint, or ``default_scales`` when it gives none."""
    scales = model.fd_scales(pt, spec)
    return np.asarray(default_scales(pt) if scales is None else scales, dtype=float)


@functools.cache
def _plan(spec: tuple):
    """What a partial takes from its spec alone, built once per spec: the
    composite stencil (offsets and weights, one tuple per stencil point),
    the indices of the active axes, and the factors of the step product as
    indices into the active steps, each axis repeated as often as it is
    differentiated, in axis order."""
    unknown = set(spec) - set(AXES)
    if unknown:
        raise ValueError(f"unknown axes in derivative spec: {sorted(unknown)}")
    orders = [spec.count(a) for a in AXES]
    per_axis = [_STENCILS[order] if order else ((0, 1.0),) for order in orders]
    combos = list(itertools.product(*per_axis))
    offsets = tuple(tuple(float(c[0]) for c in combo) for combo in combos)
    active = tuple(a for a, order in enumerate(orders) if order)
    factors = tuple(i for i, order in enumerate(o for o in orders if o) for _ in range(order))
    return offsets, tuple(math.prod(c[1] for c in combo) for combo in combos), active, factors


def _probe_value(model, q: tuple) -> float:
    """L at the probe q, or StencilDomainError naming it (also when L is not finite)."""
    try:
        check_coordinates(*q)
    except ValueError as exc:
        q = np.array(q)
        raise StencilDomainError(
            f"finite-difference probe left the coordinate domain at {q}: {exc}",
            probe=q,
        ) from exc
    if model.domain_violation(*q) is not None:
        q = np.array(q)
        raise StencilDomainError(
            f"finite-difference probe {q} is outside the model's valid domain",
            probe=q,
        )
    value = model.value(*q)
    if not math.isfinite(value):
        q = np.array(q)
        raise StencilDomainError(f"L = {value} is not finite at finite-difference probe {q}", probe=q)
    return value


def numeric_partials(model, pt: JetPoint, spec, scales=None, values=None) -> float:
    """Finite-difference partial derivative of model.value at pt.

    spec is a tuple of axis names from ("t", "x1", "x2", "y1", "y2"), one
    entry per differentiation, total order <= 3.  Raises
    StencilDomainError when a probe point leaves the model's valid domain,
    naming the probe that failed, or when the product of the steps
    underflows to 0 or overflows.  ``values`` is the probe memo (see the
    module docstring); it defaults to a fresh dict.
    """
    spec = tuple(spec)
    total = len(spec)
    if not 1 <= total <= MAX_ORDER:
        raise ValueError(f"derivative order must be 1..{MAX_ORDER}, got {total}")
    offsets, weights, active, factors = _plan(spec)
    if values is None:
        values = {}

    scales = scales_for(model, pt, spec) if scales is None else np.asarray(scales, dtype=float)
    h0 = [s * _H0_FACTOR for s in scales.tolist()]
    t, r, phi, rdot, phidot = pt.t, *pt.x, *pt.y

    def apply(i: int) -> float:
        """The stencil sum over level i's step product; the product is
        checked before any probe of the level is formed."""
        ht, hr, hphi, hrdot, hphidot = hs = [h * _SHRINK[i] for h in h0]
        steps = [hs[a] for a in active]
        denom = 1.0
        for a in factors:
            denom *= steps[a]
        if denom == 0.0 or not math.isfinite(denom):
            raise StencilDomainError(
                f"finite-difference step product is {denom} for spec {spec} "
                f"at steps {np.array(steps)}: the steps are too small or too large"
            )
        acc = 0.0
        for (ot, o_r, ophi, ordot, ophidot), weight in zip(offsets, weights):
            q = (t + ot * ht, r + o_r * hr, phi + ophi * hphi, rdot + ordot * hrdot, phidot + ophidot * hphidot)
            v = values.get(q)
            if v is None:
                v = values[q] = _probe_value(model, q)
            acc += weight * v
        return acc / denom

    # Ridders: Neville tableau in h^2 over steps h0 / CON^i
    tableau = [[apply(0)]]
    best = tableau[0][0]
    err = math.inf
    for i in range(1, _NTAB):
        row = [apply(i)]
        fac = _CON2
        for j in range(1, i + 1):
            prev = tableau[i - 1]
            row.append((row[j - 1] * fac - prev[j - 1]) / (fac - 1.0))
            fac *= _CON2
            errt = max(abs(row[j] - row[j - 1]), abs(row[j] - prev[j - 1]))
            if errt <= err:
                err, best = errt, row[j]
        tableau.append(row)
        if i >= 3 and abs(row[i] - tableau[i - 1][i - 1]) >= _SAFE * err:
            break
    return best


def noisy_field_partial(fn, pt: JetPoint, axis: str, scale: float, rel_step=2e-3):
    """First derivative of a field that is itself FD-computed (noisy).

    Plain central difference with a step sized for ~1e-9..1e-7 relative
    noise in fn; Richardson would only amplify the noise, so none is used.
    fn may return a float or an ndarray.
    """
    idx = AXES.index(axis)
    h = scale * rel_step
    base = pt.as_array()
    up, dn = base.copy(), base.copy()
    up[idx] += h
    dn[idx] -= h
    return (fn(JetPoint.from_array(up)) - fn(JetPoint.from_array(dn))) / (2.0 * h)
