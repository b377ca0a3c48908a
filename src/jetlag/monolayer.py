"""Closed forms for the 2D-monolayer Lagrangian and its geometry.

The Lagrangian is

    L = (m/2) rdot^2 + (m r^2/2) phidot^2 - p r^5 |V| e^(2|V|t/r) / rdot + U(t, r)

with the layer potential U = p r^5 u(E), E = 2|V|t/r, built on f = Ei (see
:mod:`jetlag.expint`): u = P e^E - (E^6/720) Ei with P = -4/3 + 8E/15 +
E^2/120 + E^3/360 + E^4/720 + E^5/720.  Each derivative of U the code uses
is a form A e^E + B Ei with polynomials A and B, derived at import in exact
rationals by (A e^E + B Ei)' = (A + A' + B/E) e^E + B' Ei and the chain rule
(dE/dr = -E/r, dE/dt = 2|V|/r), and evaluated by ``_ei_form``.  Two families
of closed forms coexist:

* ``form="exact"``   -- algebraically exact expressions (the rational
  fraction for G^1, N = dG/dy, and the Cartan and F entries that follow
  from them).  These must agree with the generic FD pipeline to oracle
  tolerance.
* ``form="printed"`` -- the leading-order display expansions (polynomial
  G^1, the series N built on the script-U function, the approximate L
  entries, the approximate F).  These are expansions in eps (below) and are
  only close to the exact values where |eps| is small; the validation
  report tracks them.

The exact geometry depends on the stiff factor e^E, E = 2|V|t/r, only
through one term, ``_stiff_term``:

    a = 2 p r^5 |V| e^E / rdot^3,   eps = m / a,   D = m - a = 2 g11
      = m (1 - 1/eps),

so every exact form past the spray is rational in a and D; the Cartan
entries and F go through q = a / D = 1 / (eps - 1).  D = 0 (eps = 1) is the
singular locus of the metric, and every exact form raises a ``DomainError``
there.  The printed torsions take P_(1)i(j)^(k)(1) = dN^k_i/dy^j - L^k_ij
from the printed N and Cartan L, the definition the FD pipeline uses.

e^E has two overflow policies.  It saturates to inf (``_exp``) in the
potential, its derivatives and ``_denominator``, which stray FD probes
and bisection iterates may push past the float range.  Everywhere else,
``_stiff_term`` included, an overflow raises a ``DomainError`` naming the
function and E.  a itself stays finite far past the point where D^2 would
overflow, so N and the Cartan entries are finite wherever e^E is.

All functions are pure; parameter records are frozen.  The pieces that
``dynamics.hamiltonian_split`` reads for the trajectory energies
(``potential_U``, ``_denominator``, ``zero_energy_bracket``,
``em_component_f21``) take floats, or a point-like record (``pt``) or
coordinates of equal-length arrays; floats stay on :mod:`math`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .expint import exp_integral_f
from .geometry import CartanConnection, EMForm, Metric, NonlinearConnection, Semispray, TorsionSet
from .models import LagrangianModel
from .points import JetPoint

_G11_REL_FLOOR = 1e-9  # |g11| > floor * m, the valid-domain cut near g11 = 0
_ndarray = np.ndarray  # the float/array dispatch: np.ndarray costs a lookup per call


def _exp(x):
    """exp of a float or an array that saturates to inf instead of raising
    (stray FD probes and bisection iterates can push 2|V|t/r past the float
    range)."""
    if type(x) is _ndarray:
        return np.where(x < 709.0, np.exp(np.minimum(x, 709.0)), math.inf)
    return math.exp(x) if x < 709.0 else math.inf


def _overflow(where: str, E) -> DomainError:
    return DomainError(f"{where}: e^E overflows at E = 2|V|t/r = {E:.6g}")


def _exp_checked(E, where: str):
    """e^E; a DomainError naming ``where`` and E when it overflows."""
    if type(E) is _ndarray:
        with np.errstate(over="ignore"):
            out = np.exp(E)
        over = np.isinf(out) & np.isfinite(E)
        if over.any():
            raise _overflow(where, E[over].max())
        return out
    try:
        return math.exp(E)
    except OverflowError:
        raise _overflow(where, E) from None


def _any(cond) -> bool:
    """A scalar condition, or whether it holds anywhere in an array."""
    return cond.any() if type(cond) is _ndarray else cond


def _full_like(x, value: float):
    """value as a float, or an array of it shaped like an array x."""
    return np.full(np.shape(x), value) if type(x) is _ndarray else value


def _finite(value, what: str, **at):
    """value, a float or an array, if it is finite throughout; else a DomainError naming
    ``what`` and ``at`` (floats, or arrays shaped like value) at its first non-finite entry."""
    bad = ~np.isfinite(value)
    if _any(bad):
        coords = ", ".join(f"{k} = {np.ravel(v)[np.argmax(bad)] if np.ndim(v) else v:.6g}" for k, v in at.items())
        raise DomainError(f"{what} is not finite at {coords}")
    return value


@dataclass(frozen=True)
class MonolayerParams:
    """Physical constants of the monolayer model, each finite.

    p >= 0 is allowed: p = 0 switches the potential off and reduces the
    model to the free polar particle (the printed approximate forms, which
    divide by p, then refuse to evaluate).  Each ValueError message starts
    with the name of the field it rejects.
    """

    m: float = 1.0
    p: float = 10.0
    V_abs: float = 1000.0
    R0: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("m", "V_abs", "R0"):
            value = getattr(self, name)
            if not (value is None or 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.p < math.inf:
            raise ValueError(f"p must be nonnegative and finite, got {self.p}")


def _require_printed(params: MonolayerParams, what: str):
    if params.p == 0.0:
        raise ValueError(f"{what} divides by p; the printed approximate form needs p > 0")


# -- the layer potential -------------------------------------------------------
# A form (A, B) is A e^E + B Ei with polynomials A and B, held as _N exact
# coefficients from the lowest degree up; _N exceeds every degree here.

_N = 9


def _poly_dE(p):
    return [k * c for k, c in enumerate(p)][1:] + [0]


def _dE(form):
    """(A e^E + B Ei)' = (A + A' + B/E) e^E + B' Ei; B/E needs B(0) = 0."""
    A, B = form
    assert B[0] == 0, "B/E must be a polynomial"
    return [a + da + b for a, da, b in zip(A, _poly_dE(A), B[1:] + [0])], _poly_dE(B)


def _combine(*terms):
    """The form sum c E^k f over the terms (c, k, f)."""
    return tuple([sum(c * f[i][j - k] for c, k, f in terms if j >= k) for j in range(_N)] for i in (0, 1))


def _compiled(form):
    """(A, B~, k) with B = E^k B~, in floats from the top nonzero degree down."""
    A, B = form
    k = next(j for j, c in enumerate(B) if c)
    A, B = (tuple(itertools.dropwhile(lambda c: c == 0, map(float, p[::-1]))) for p in (A, B[k:]))
    return A, B, k


_F = Fraction
# u = P e^E - (E^6/720) Ei with U = p r^5 u
_u = [_F(-4, 3), _F(8, 15), _F(1, 120), _F(1, 360), _F(1, 720), _F(1, 720), 0, 0, 0], [0] * 6 + [_F(-1, 720), 0, 0]
_u1 = _dE(_u)
_u2 = _dE(_u1)
_u_r = _combine((5, 0, _u), (-1, 1, _u1))  # r^-4 dU/dr / p = 5u - E u', as dE/dr = -E/r
_U = _compiled(_u)
_U_R = _compiled(_u_r)
_U_RR = _compiled(_combine((20, 0, _u), (-8, 1, _u1), (1, 2, _u2)))  # r^-3 d2U/dr2 / p
_SCRIPT_U_DT = _compiled(_combine((1, 0, _dE(_u_r)), (-1, 0, _u_r)))  # e^E d/dE [e^-E (5u - E u')]


def _ei_form(form, E, where: str, scaled: bool = False, expE=None):
    """A e^E + B Ei at E for a compiled form, or with ``scaled`` A + B e^-E Ei;
    floats stay on :mod:`math`.  The Ei term is 0 at E = 0, where B(0) = 0.
    e^E saturates to inf (``_exp``), or is the caller's ``expE``, ``_exp(E)``
    formed once; e^-E raises on overflow, a float E^k a DomainError naming ``where``."""
    A, B, k = form
    a = b = 0.0
    for c in A:
        a = a * E + c
    for c in B:
        b = b * E + c
    vec = type(E) is _ndarray
    if not vec and E == 0.0:
        return a
    try:
        ei = b * E**k * exp_integral_f(np.where(E == 0.0, 1.0, E) if vec else E)
    except OverflowError:
        raise DomainError(f"{where}: E^{k} overflows at E = 2|V|t/r = {E:.6g}") from None
    if scaled:
        return a + (np.exp(-E) if vec else math.exp(-E)) * ei
    return a * (_exp(E) if expE is None else expE) + ei


def _finite_E(t, r, params: MonolayerParams, where: str):
    """E = 2|V|t/r; a DomainError naming ``where`` and E where E is not finite."""
    E = 2.0 * params.V_abs * t / r
    if type(E) is _ndarray:
        if not np.isfinite(E).all():
            raise DomainError(f"{where} requires a finite E = 2|V|t/r, got E = {E[~np.isfinite(E)][0]}")
    elif not math.isfinite(E):
        raise DomainError(f"{where} requires a finite E = 2|V|t/r, got E = {E} at t = {t}, r = {r}")
    return E


def _potential(form, power: int, t, r, params: MonolayerParams, where: str, expE=None):
    """p r^power times the form at E = 2|V|t/r; 0 at p = 0.  A DomainError
    naming ``where`` for r <= 0 or, at p != 0, a non-finite E.  ``expE`` is
    the caller's ``_exp(E)``, if it has formed it."""
    if _any(r <= 0):
        raise DomainError(f"{where} requires r > 0, got r = {np.min(r)}")
    if params.p == 0.0:
        return _full_like(r, 0.0)
    return params.p * r**power * _ei_form(form, _finite_E(t, r, params, where), where, expE=expE)


def potential_U(t, r, params: MonolayerParams):
    """U(t, r) = p r^5 u(E); the Ei-term is 0 at |V|t = 0 (removable limit)."""
    return _potential(_U, 5, t, r, params, "potential_U")


def potential_U_dr(t: float, r: float, params: MonolayerParams) -> float:
    """dU/dr = p r^4 (5u - E u')."""
    return _potential(_U_R, 4, t, r, params, "potential_U_dr")


def potential_U_drr(t: float, r: float, params: MonolayerParams) -> float:
    """d2U/dr2 = p r^3 (20u - 8E u' + E^2 u''), the deviation equation's Udd."""
    return _potential(_U_RR, 3, t, r, params, "potential_U_drr")


# -- shared subexpressions -----------------------------------------------------


def _denominator(t, r, rdot, params, expE=None):
    """D = m - 2 p r^5 |V| e^E / rdot^3 = 2 g11; ``expE`` is the caller's
    ``_exp(E)``, if it has formed it."""
    if params.p == 0.0:
        return _full_like(r, params.m)
    if expE is None:
        expE = _exp(2.0 * params.V_abs * t / r)
    return params.m - 2.0 * params.p * r**5 * params.V_abs * expE / rdot**3


def _stiff_term(t, r, rdot, params, where: str):
    """a = 2 p r^5 |V| e^E / rdot^3, 0 at p = 0; m - a is ``_denominator``
    bit for bit wherever e^E is finite.  An overflowing e^E, rdot^3 = 0 or
    an a that overflows raises a DomainError naming ``where``."""
    if params.p == 0.0:
        return _full_like(r, 0.0)
    rdot3 = rdot**3
    if _any(rdot3 == 0.0):
        raise DomainError(f"{where} requires rdot^3 != 0 (the Lagrangian contains rdot^-1)")
    expE = _exp_checked(2.0 * params.V_abs * t / r, where)
    with np.errstate(over="ignore"):
        a = 2.0 * params.p * r**5 * params.V_abs * expE / rdot3
    if _any(~np.isfinite(a)):
        raise DomainError(f"{where}: a = 2 p r^5 |V| e^E / rdot^3 is not finite at |rdot| = {np.min(np.abs(rdot)):.6g}")
    return a


def _nonsingular(D, what: str):
    """D = m - a itself; a DomainError naming ``what`` on the locus D = 0."""
    if _any(D == 0.0):
        raise DomainError(f"singular {what} denominator m - 2 p r^5 |V| e^E rdot^-3 = 0")
    return D


def closed_metric(pt: JetPoint, params: MonolayerParams) -> Metric:
    """g = diag((m - 2 p r^5 |V| e^E rdot^-3)/2, m r^2/2) and its inverse."""
    if params.p != 0.0 and pt.rdot == 0.0:
        raise DomainError("metric requires rdot != 0 (rdot^-3 in g11)")
    g11 = 0.5 * _denominator(pt.t, pt.r, pt.rdot, params)
    g22 = 0.5 * params.m * pt.r**2
    if abs(g11) <= _G11_REL_FLOOR * params.m:
        raise DomainError(
            f"g11 = {g11} is within {_G11_REL_FLOOR}*m of the singular locus"
        )
    g = np.array([[g11, 0.0], [0.0, g22]])
    g_inv = np.array([[1.0 / g11, 0.0], [0.0, 1.0 / g22]])
    return Metric(g=g, g_inv=g_inv, det_g=float(g11 * g22))


def _scaled_form(form, t: float, r: float, params: MonolayerParams, where: str) -> float:
    """e^-E times the form at E = 2|V|t/r, the printed series' building block;
    a DomainError naming ``where`` for r <= 0 or a non-finite E."""
    if r <= 0:
        raise DomainError(f"{where} requires r > 0, got r = {r}")
    return _ei_form(form, _finite_E(t, r, params, where), where, scaled=True)


def _series_bracket(t: float, r: float, params: MonolayerParams, where: str) -> float:
    return -_scaled_form(_U_R, t, r, params, where) / (4.0 * r)


def semispray_series_bracket(t: float, r: float, params: MonolayerParams) -> float:
    """The series bracket of the polynomial (approximate) G^1:
    -e^-E (dU/dr) / (4 p r^5) = -e^-E (5u - E u') / (4r)."""
    return _series_bracket(t, r, params, "semispray_series_bracket")


def _exact_spray(t: float, r: float, rdot: float, phidot: float, params: MonolayerParams):
    """(G^1, G^2) of the exact spray on floats: G^1 = num / D with
    D = m - 2 p r^5 |V| e^E / rdot^3 and G^2 = (rdot/r) phidot.

    The one transcription that ``closed_semispray(form="exact")``, the
    exact N and the geodesic right-hand side read.  e^E is formed once:
    saturated as ``_denominator`` and dU/dr take it, and checked as the
    numerator takes it where the two differ, at E >= 709.
    """
    if params.p != 0.0 and rdot == 0.0:
        raise DomainError("semispray requires rdot != 0")
    V = params.V_abs
    E = 2.0 * V * t / r
    if params.p == 0.0:  # D = m > 0
        return -0.5 * r * phidot**2, rdot * phidot / r
    expE = _exp(E)
    D = _nonsingular(_denominator(t, r, rdot, params, expE), "semispray")
    num = (
        params.p * r**3 * V * (expE if E < 709.0 else _exp_checked(E, "closed_semispray"))
        * (5.0 * r / rdot - 2.0 * V * t / rdot + V * r / rdot**2)
        - 0.5 * _potential(_U_R, 4, t, r, params, "potential_U_dr", expE)
        - 0.5 * params.m * r * phidot**2
    )
    return num / D, rdot * phidot / r


def closed_semispray(pt: JetPoint, params: MonolayerParams, form: str = "exact") -> Semispray:
    """Spatial semispray: the exact fraction (``_exact_spray``) or its
    polynomial expansion.

    G^2 = (rdot/r) phidot in both forms.
    """
    t, (r, _), (rdot, phidot) = pt.t, pt.x, pt.y
    if form == "exact":
        return Semispray(G=np.array(_exact_spray(t, r, rdot, phidot, params)))
    if params.p != 0.0 and rdot == 0.0:
        raise DomainError("semispray requires rdot != 0")
    V = params.V_abs
    E = 2.0 * V * t / r
    if form == "polynomial":
        _require_printed(params, "the polynomial G^1")
        G1 = (
            -0.5 * V / r * rdot
            + (V * t / r**2 - 2.5 / r) * rdot**2
            - rdot**3 / V * semispray_series_bracket(t, r, params)
            + params.m / (4.0 * params.p * V) * r**-4 * math.exp(-E) * rdot**3 * phidot**2
        )
    else:
        raise ValueError(f"unknown semispray form {form!r}")
    return Semispray(G=np.array([G1, rdot * phidot / r]))


def script_U(t: float, r: float, params: MonolayerParams) -> float:
    """The curly-U(t, r) series entering the printed N11: 3/|V| times the
    polynomial-semispray bracket."""
    return 3.0 * _series_bracket(t, r, params, "script_U") / params.V_abs


def script_U_dt(t: float, r: float, params: MonolayerParams) -> float:
    """d(curly-U)/dt = -(3 / (2 r^2)) d/dE [e^-E (5u - E u')], used by the
    printed H torsion."""
    form = _scaled_form(_SCRIPT_U_DT, t, r, params, "script_U_dt")
    return -1.5 / r**2 * form


def closed_nonlinear_connection(
    pt: JetPoint, params: MonolayerParams, form: str = "printed"
) -> NonlinearConnection:
    """N_(1)j^(i): the printed display components or the exact dG/dy.

    Exact: the spray is G^1 = num / D and da/drdot = -3a/rdot, so
    N^1_1 = (dnum/drdot - 3 a G^1 / rdot) / D and N^1_2 = -m r phidot / D.
    """
    t, r, rdot, phidot = pt.t, pt.r, pt.rdot, pt.phidot
    V = params.V_abs
    N = np.empty((2, 2))
    N[1, 0] = phidot / r
    N[1, 1] = rdot / r
    if form == "printed":
        _require_printed(params, "the printed N")
        if rdot == 0.0:
            raise DomainError("N requires rdot != 0")
        E = 2.0 * V * t / r
        N[0, 0] = (
            -0.5 * V / r
            + (2.0 * V * t / r**2 - 5.0 / r) * rdot
            - script_U(t, r, params) * rdot**2
            + 3.0 * params.m * math.exp(-E) / (4.0 * params.p * V * r**4) * rdot**2 * phidot**2
        )
        N[0, 1] = params.m * math.exp(-E) / (2.0 * params.p * V * r**4) * rdot**3 * phidot
    elif form == "exact":
        a = _stiff_term(t, r, rdot, params, "closed_nonlinear_connection")
        D = _nonsingular(params.m - a, "nonlinear-connection")
        N[0, 0] = 0.0  # at p = 0, where rdot = 0 is a valid free-polar point
        if params.p != 0.0:
            G1 = _exact_spray(t, r, rdot, phidot, params)[0]
            num_rd = -a * (rdot * (5.0 * r - 2.0 * V * t) + 2.0 * V * r) / (2.0 * r**2)
            with np.errstate(over="ignore", invalid="ignore"):
                N[0, 0] = (num_rd - 3.0 * a * G1 / rdot) / D
            if not math.isfinite(N[0, 0]):
                raise DomainError(
                    f"closed_nonlinear_connection: N11 = {N[0, 0]} is not finite at |rdot| = {abs(rdot):.6g}"
                )
        N[0, 1] = -params.m * r * phidot / D
    else:
        raise ValueError(f"unknown nonlinear-connection form {form!r}")
    return NonlinearConnection(N=N)


def closed_cartan(pt: JetPoint, params: MonolayerParams, form: str = "printed") -> CartanConnection:
    """Cartan coefficients through q = a / D = 1 / (eps - 1): G_time and C
    are exact in both forms; the L entries follow the printed displays or
    the exact N."""
    t, r, rdot, phidot = pt.t, pt.r, pt.rdot, pt.phidot
    if form not in ("printed", "exact"):
        raise ValueError(f"unknown cartan form {form!r}")
    if form == "printed":
        _require_printed(params, "the printed Cartan L entries")
    a = _stiff_term(t, r, rdot, params, "closed_cartan")
    D = _nonsingular(params.m - a, "Cartan")
    q = a / D
    N = closed_nonlinear_connection(pt, params, form=form).N

    G_time = np.zeros((2, 2))
    C = np.zeros((2, 2, 2))
    L = np.zeros((2, 2, 2))
    G_time[0, 0] = -params.V_abs * q / r
    # at p = 0, rdot = 0 is a valid free-polar point
    c111 = C[0, 0, 0] = 0.0 if params.p == 0.0 else 1.5 * q / rdot
    L[0, 0, 0] = (2.0 * params.V_abs * t - 5.0 * r) * q / (2.0 * r**2) - N[0, 0] * c111
    L[0, 0, 1] = L[0, 1, 0] = -N[0, 1] * c111
    L[0, 1, 1] = -params.m * r / D
    L[1, 0, 0] = 1.5 * phidot / (r * rdot) if form == "printed" else -c111 * phidot / r
    L[1, 0, 1] = L[1, 1, 0] = 1.0 / r
    return CartanConnection(G_time=G_time, L=L, C=C)


def closed_torsions(pt: JetPoint, params: MonolayerParams) -> TorsionSet:
    """The printed torsion components (built on the printed N and exact C)."""
    _require_printed(params, "the printed torsions")
    t, r, rdot, phidot = pt.t, pt.r, pt.rdot, pt.phidot
    if rdot == 0.0:
        raise DomainError("torsions require rdot != 0")
    V = params.V_abs
    E = 2.0 * V * t / r
    k = params.m * math.exp(-E) / (2.0 * params.p * V * r**4)  # N^1_2 = k rdot^3 phidot
    cart = closed_cartan(pt, params, form="printed")
    N11 = closed_nonlinear_connection(pt, params, form="printed").N[0, 0]
    # drdot of the printed N11
    dN11_drdot = (
        (2.0 * V * t / r**2 - 5.0 / r) - 2.0 * script_U(t, r, params) * rdot + 3.0 * k * rdot * phidot**2
    )

    H_tor = np.zeros((2, 2))
    H_tor[0, 0] = (
        script_U_dt(t, r, params) * rdot**2
        - 2.0 * V / r**2 * rdot
        + 3.0 * k * V / r * rdot**2 * phidot**2
    )
    H_tor[0, 1] = 2.0 * k * V / r * rdot**3 * phidot

    R = np.zeros((2, 2, 2))
    R[0, 0, 1] = (
        2.0 * k * (1.5 * N11 - 0.5 * dN11_drdot * rdot + (1.0 / r - V * t / r**2) * rdot) * rdot**2 * phidot
    )
    R[0, 1, 0] = -R[0, 0, 1]
    R[1, 0, 1] = N11 / r
    R[1, 1, 0] = -R[1, 0, 1]

    # dN_dy[k, i, j] = d N^k_i / dy^j of the printed N
    dN12_drdot = 3.0 * k * rdot**2 * phidot
    dN_dy = np.array(
        [
            [[dN11_drdot, dN12_drdot], [dN12_drdot, k * rdot**3]],
            [[0.0, 1.0 / r], [1.0 / r, 0.0]],
        ]
    )

    return TorsionSet(
        T=-cart.G_time.copy(),
        H_tor=H_tor,
        R=R,
        P_mixed=dN_dy - cart.L,
        P_vert=cart.C.copy(),
        calP=-cart.G_time.copy(),
    )


def em_component_f21(pt: JetPoint, params: MonolayerParams, form: str = "exact"):
    """F_(2)1^(1) = -F_(1)2^(1): exactly -(3/4) m r phidot q with q = a / D,
    or the printed display."""
    if form == "exact":
        a = _stiff_term(pt.t, pt.r, pt.rdot, params, "em_component_f21")
        D = _nonsingular(params.m - a, "EM")
        return -0.75 * params.m * pt.r * pt.phidot * (a / D)
    if form == "printed":
        _require_printed(params, "the printed F")
        return 0.5 * zero_energy_bracket(pt.t, pt.r, pt.rdot, params) * pt.phidot
    raise ValueError(f"unknown EM form {form!r}")


def _bracket(E, r, rdot, params: MonolayerParams, where: str):
    """3mr/2 + m^2 e^-E rdot^3 / (4 p |V| r^4) at the exponent E: the zero-energy bracket
    at E = 2|V|t/r, the resonant one at the large-time exponent.  An m^2 or e^-E that
    overflows raises a DomainError naming ``where``; on arrays an overflow is silent."""
    try:
        m2 = params.m**2  # once per call, also for a whole series
    except OverflowError:
        raise DomainError(f"{where}: m^2 overflows at m = {params.m:.6g}") from None
    exp_mE = _exp_checked(-E, where)
    with np.errstate(all="ignore"):
        return 1.5 * params.m * r + m2 * exp_mE * rdot**3 / (4.0 * params.p * params.V_abs * r**4)


def zero_energy_bracket(t, r, rdot, params: MonolayerParams):
    """[3mr/2 + m^2 e^-E rdot^3 / (4 p |V| r^4)] of the cancellation condition."""
    _require_printed(params, "the zero-energy bracket")
    return _bracket(2.0 * params.V_abs * t / r, r, rdot, params, "zero_energy_bracket")


def closed_em_and_ym(
    pt: JetPoint, params: MonolayerParams, form: str = "printed"
) -> tuple[EMForm, float]:
    """(F, Yang-Mills energy) with F_(2)1 = -F_(1)2 and EYM = F_(1)2^2 / m."""
    if pt.r <= 0:
        raise DomainError("EM form requires r > 0")
    f21 = em_component_f21(pt, params, form=form)
    F = np.array([[0.0, -f21], [f21, 0.0]])
    try:
        eym = f21**2 / params.m
    except OverflowError:
        raise DomainError(f"closed_em_and_ym: F21^2 overflows in EYM = F21^2 / m at F21 = {f21:.6g}") from None
    return EMForm(F=F), eym


class MonolayerModel(LagrangianModel):
    """The monolayer Lagrangian as a differentiable model; at p = 0 it is the
    free polar particle L = (m/2)(rdot^2 + r^2 phidot^2), the flat benchmark.

    The (t, r)-dependent pieces (e^E, U) are memoized because FD stencils
    in the fibre directions revisit the same base point hundreds of times.
    """

    def __init__(self, params: MonolayerParams):
        self.params = params
        self._tr = functools.lru_cache(maxsize=4096)(self._tr_uncached)

    @property
    def m(self) -> float:
        return self.params.m

    def _tr_uncached(self, t: float, r: float) -> tuple[float, float]:
        params = self.params
        return _exp(2.0 * params.V_abs * t / r), potential_U(t, r, params)

    def value(self, t, r, phi, rdot, phidot) -> float:
        p = self.params
        expE, U = self._tr(t, r)
        out = 0.5 * p.m * (rdot**2 + r**2 * phidot**2) + U
        if p.p != 0.0:
            out -= p.p * r**5 * p.V_abs * expE / rdot
        return out

    def domain_violation(self, t, r, phi, rdot, phidot) -> str | None:
        params = self.params
        if r <= 0.0:
            return f"r = {r} <= 0"
        if params.p != 0.0:
            if rdot == 0.0:
                return "rdot = 0 (the Lagrangian contains rdot^-1)"
            try:
                rdot3 = rdot**3
            except OverflowError:
                return f"rdot^3 overflows at rdot = {rdot} (g11 divides by rdot^3)"
            try:
                r5 = r**5
            except OverflowError:
                return f"r^5 overflows at r = {r} (L contains p r^5 |V| e^E / rdot)"
            if rdot3 == 0.0:
                return f"rdot^3 underflows to 0 at rdot = {rdot} (g11 divides by rdot^3)"
            g11 = 0.5 * _denominator(t, r, rdot, params)
            if not math.isfinite(r5 / rdot3):
                return f"g11 = {g11} is not finite at rdot = {rdot} (r^5 / rdot^3 overflows)"
            if not math.isfinite(g11):
                # where e^E itself overflows, L and the closed forms name it
                E = 2.0 * params.V_abs * t / r
                if math.isfinite(_exp(E)):
                    return f"g11 = {g11} is not finite at E = {E:.6g}, rdot = {rdot} (2 p r^5 |V| e^E / rdot^3 overflows)"
            if abs(g11) <= _G11_REL_FLOOR * params.m:
                return f"g11 = {g11} within {_G11_REL_FLOOR}*m of the singular locus"
        if 0.5 * params.m * r**2 == 0.0:
            return f"g22 = m r^2 / 2 underflows to 0 at r = {r} (the metric inverse divides by g22)"
        return None

    def fd_scales(self, pt: JetPoint, spec=None):
        """Per-axis FD scales.

        The stiff axes (t, r, rdot sit inside e^(2|V|t/r) and rdot^-1) get
        1/log-derivative scales.  But L is independent of phi and exactly
        quadratic in phidot, so any stencil containing a phi or phidot leg
        annihilates the stiff terms exactly -- for those specs every axis
        takes large steps, which is what keeps the tiny fibre-signal
        quantities (e.g. dG/dphidot) above the e^E roundoff floor.
        """
        if self.params.p == 0.0:
            return None
        V = self.params.V_abs
        w = abs(V * pt.t)
        t_scale = pt.r / (2.0 * V)
        x1_scale = pt.r**2 / (2.0 * w + 5.0 * pt.r)
        if spec is not None and any(a in ("x2", "y2") for a in spec):
            # a phi/phidot leg cancels the stiff terms exactly, so the
            # power-law rdot axis may stretch too; t and r stay stiff-scaled
            # because their probes inflate |L| itself (e^E growth)
            y1 = 9.0 * abs(pt.rdot)
        else:
            y1 = abs(pt.rdot) / 3.0
        return np.array([t_scale, x1_scale, 100.0, y1, 100.0])

    def spray(self, t, r, phi, rdot, phidot):
        return _exact_spray(t, r, rdot, phidot, self.params)

    def metric_g11(self, t, r, phi, rdot, phidot):
        return 0.5 * _denominator(t, r, rdot, self.params)
