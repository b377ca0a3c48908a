"""Closed forms for the 2D-monolayer Lagrangian and its geometry.

The Lagrangian is

    L = (m/2) rdot^2 + (m r^2/2) phidot^2 - p r^5 |V| e^(2|V|t/r) / rdot + U(t, r)

with the layer potential U built from the special function f (see
:mod:`jetlag.expint`).  Two families of closed forms coexist:

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
potential, its r-derivatives and ``_denominator``, which stray FD probes
and bisection iterates may push past the float range.  Everywhere else,
``_stiff_term`` included, an overflow raises a ``DomainError`` naming the
function and E.  a itself stays finite far past the point where D^2 would
overflow, so N and the Cartan entries are finite wherever e^E is.

All functions are pure; parameter records are frozen.  The pieces of the
trajectory diagnostics (``potential_U``, ``electrocapillarity_U_s``,
``lagrangian_value``, ``_denominator``, ``zero_energy_bracket``,
``em_component_f21``) take floats, or a point-like record (``pt``) or
coordinates of equal-length arrays; floats stay on :mod:`math`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expint import exp_integral_f
from .geometry import CartanConnection, EMForm, Metric, NonlinearConnection, Semispray, TorsionSet
from .models import LagrangianModel
from .points import JetPoint

_G11_REL_FLOOR = 1e-9  # |g11| > floor * m, the valid-domain cut near g11 = 0
_ndarray = np.ndarray  # the float/array dispatch: np.ndarray costs a lookup per call


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising (stray FD probes and
    bisection iterates can push 2|V|t/r past the float range)."""
    return math.exp(x) if x < 709.0 else math.inf


def _exp_array(x: np.ndarray) -> np.ndarray:
    """_exp elementwise, in one numpy pass."""
    return np.where(x < 709.0, np.exp(np.minimum(x, 709.0)), math.inf)


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


@dataclass(frozen=True)
class MonolayerParams:
    """Physical constants of the monolayer model.

    p >= 0 is allowed: p = 0 switches the potential off and reduces the
    model to the free polar particle (the printed approximate forms, which
    divide by p, then refuse to evaluate).
    """

    m: float = 1.0
    p: float = 10.0
    V_abs: float = 1000.0
    R0: float | None = None

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.V_abs <= 0:
            raise ValueError("V_abs must be positive")
        if self.R0 is not None and self.R0 <= 0:
            raise ValueError("R0 must be positive when given")


@dataclass(frozen=True)
class PhysicalSubParams:
    """Sub-parameters defining p = pi^2 q^2 rho0^2 / (eps eps0 R0^2)."""

    q: float
    epsilon: float
    epsilon0: float
    rho0: float
    R0: float

    def __post_init__(self):
        for name in ("q", "epsilon", "epsilon0", "rho0", "R0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def pressure_param(sub: PhysicalSubParams) -> float:
    """Monolayer parameter p from the physical sub-parameters."""
    return math.pi**2 * sub.q**2 * sub.rho0**2 / (sub.epsilon * sub.epsilon0 * sub.R0**2)


def _require_printed(params: MonolayerParams, what: str):
    if params.p == 0.0:
        raise ValueError(f"{what} divides by p; the printed approximate form needs p > 0")


# -- the layer potential -------------------------------------------------------


def potential_U(t, r, params: MonolayerParams):
    """U(t, r); the f-term is defined as 0 at |V|t = 0 (removable limit)."""
    vec = type(r) is _ndarray
    if (r <= 0).any() if vec else r <= 0:
        raise DomainError(f"potential_U requires r > 0, got r = {np.min(r)}")
    if params.p == 0.0:
        return _full_like(r, 0.0)
    w = params.V_abs * t
    E = 2.0 * w / r
    poly = (
        -4.0 / 3.0 * r**5
        + 16.0 / 15.0 * w * r**4
        + 1.0 / 30.0 * w**2 * r**3
        + 1.0 / 45.0 * w**3 * r**2
        + 1.0 / 45.0 * w**4 * r
        + 2.0 / 45.0 * w**5
    )
    out = poly * (_exp_array(E) if vec else math.exp(E) if E < 709.0 else math.inf)
    if vec:  # f(0) is singular, but w^6 = 0 zeroes the term there anyway
        E = np.where(w == 0.0, 1.0, E)
    elif w == 0.0:
        return params.p * out
    out -= 4.0 / 45.0 * (w**6 / r) * exp_integral_f(E)
    return params.p * out


def _dU_dr_poly(w: float, r: float) -> float:
    """Q(w, r) with dU/dr = p [Q e^E + 4 w^6 f(E) / (45 r^2)], w = |V| t."""
    return (
        -20.0 / 3.0 * r**4
        + 104.0 / 15.0 * w * r**3
        - 61.0 / 30.0 * w**2 * r**2
        - 1.0 / 45.0 * w**3 * r
        - 1.0 / 45.0 * w**4
        - 2.0 / 45.0 * w**5 / r
    )


def potential_U_dr(t: float, r: float, params: MonolayerParams) -> float:
    """dU/dr in closed form (cross-validated against FD in the tests)."""
    if r <= 0:
        raise DomainError(f"potential_U_dr requires r > 0, got r = {r}")
    if params.p == 0.0:
        return 0.0
    w = params.V_abs * t
    E = 2.0 * w / r
    out = _dU_dr_poly(w, r) * _exp(E)
    if w != 0.0:
        out += 4.0 / 45.0 * w**6 * exp_integral_f(E) / r**2
    return params.p * out


def potential_U_drr(t: float, r: float, params: MonolayerParams) -> float:
    """d2U/dr2 in closed form (the deviation equation's U-double-dot)."""
    if r <= 0:
        raise DomainError(f"potential_U_drr requires r > 0, got r = {r}")
    if params.p == 0.0:
        return 0.0
    w = params.V_abs * t
    E = 2.0 * w / r
    Q = _dU_dr_poly(w, r)
    Qr = (
        -80.0 / 3.0 * r**3
        + 104.0 / 5.0 * w * r**2
        - 61.0 / 15.0 * w**2 * r
        - 1.0 / 45.0 * w**3
        + 2.0 / 45.0 * w**5 / r**2
    )
    out = (Qr - 2.0 * w / r**2 * Q) * _exp(E)
    if w != 0.0:
        out -= 4.0 / 45.0 * w**6 * _exp(E) / r**3
        out -= 8.0 / 45.0 * w**6 * exp_integral_f(E) / r**3
    return params.p * out


def potential_U_dtt(t: float, r: float, params: MonolayerParams) -> float:
    """d2U/dt2 in closed form (the alternative U-double-dot reading):
    p |V|^2 [(-r^3 + 14/3 w r^2 + 2/3 w^2 r + 4/3 w^3) e^E - 8 w^4 f(E) / (3 r)]."""
    if r <= 0:
        raise DomainError(f"potential_U_dtt requires r > 0, got r = {r}")
    if params.p == 0.0:
        return 0.0
    w = params.V_abs * t
    E = 2.0 * w / r
    out = (-(r**3) + 14.0 / 3.0 * w * r**2 + 2.0 / 3.0 * w**2 * r + 4.0 / 3.0 * w**3) * _exp(E)
    if w != 0.0:
        out -= 8.0 / 3.0 * w**4 * exp_integral_f(E) / r
    return params.p * params.V_abs**2 * out


def electrocapillarity_U_s(t, r, rdot, params: MonolayerParams):
    """U_s(t, r) = -p r^5 |V| e^(2|V|t/r) / rdot + U(t, r)."""
    if params.p != 0.0 and _any(rdot == 0.0):
        raise DomainError("U_s contains rdot^-1; rdot = 0 is singular")
    out = potential_U(t, r, params)
    if params.p != 0.0:
        expE = _exp_checked(2.0 * params.V_abs * t / r, "electrocapillarity_U_s")
        out -= params.p * r**5 * params.V_abs * expE / rdot
    return out


def lagrangian_value(pt: JetPoint, params: MonolayerParams):
    kinetic = 0.5 * params.m * (pt.rdot**2 + pt.r**2 * pt.phidot**2)
    return kinetic + electrocapillarity_U_s(pt.t, pt.r, pt.rdot, params)


# -- shared subexpressions -----------------------------------------------------


def _denominator(t, r, rdot, params):
    """D = m - 2 p r^5 |V| e^E / rdot^3 = 2 g11."""
    if params.p == 0.0:
        return _full_like(r, params.m)
    E = 2.0 * params.V_abs * t / r
    # _exp inlined for floats, here and in potential_U: they run for every
    # FD probe, model-cache miss and RHS call
    expE = _exp_array(E) if type(E) is _ndarray else math.exp(E) if E < 709.0 else math.inf
    return params.m - 2.0 * params.p * r**5 * params.V_abs * expE / rdot**3


def _stiff_term(t, r, rdot, params, where: str):
    """a = 2 p r^5 |V| e^E / rdot^3, 0 at p = 0; m - a is ``_denominator``
    bit for bit wherever e^E is finite.  An overflowing e^E or rdot^3 = 0
    raises a DomainError naming ``where``."""
    if params.p == 0.0:
        return _full_like(r, 0.0)
    rdot3 = rdot**3
    if _any(rdot3 == 0.0):
        raise DomainError(f"{where} requires rdot^3 != 0 (the Lagrangian contains rdot^-1)")
    expE = _exp_checked(2.0 * params.V_abs * t / r, where)
    return 2.0 * params.p * r**5 * params.V_abs * expE / rdot3


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


def semispray_series_bracket(t: float, r: float, params: MonolayerParams) -> float:
    """The series bracket of the polynomial (approximate) G^1."""
    w = params.V_abs * t
    E = 2.0 * w / r
    out = (
        5.0 / 3.0 / r
        - 26.0 * w / (15.0 * r**2)
        + 61.0 * w**2 / (120.0 * r**3)
        + w**3 / (180.0 * r**4)
        + w**4 / (180.0 * r**5)
        + w**5 / (90.0 * r**6)
    )
    if w != 0.0:
        out -= w**6 / (45.0 * r**7) * math.exp(-E) * exp_integral_f(E)
    return out


def closed_semispray(pt: JetPoint, params: MonolayerParams, form: str = "exact") -> Semispray:
    """Spatial semispray: the exact fraction or its polynomial expansion.

    G^2 = (rdot/r) phidot in both forms.
    """
    # the ODE right-hand side: it reads the coordinate tuples, not the point's
    # properties, to stay lean
    t, (r, _), (rdot, phidot) = pt.t, pt.x, pt.y
    if params.p != 0.0 and rdot == 0.0:
        raise DomainError("semispray requires rdot != 0")
    V = params.V_abs
    E = 2.0 * V * t / r
    if form == "exact":
        D = _nonsingular(_denominator(t, r, rdot, params), "semispray")
        if params.p == 0.0:
            G1 = -0.5 * r * phidot**2
        else:
            expE = _exp_checked(E, "closed_semispray")
            num = (
                params.p * r**3 * V * expE
                * (5.0 * r / rdot - 2.0 * V * t / rdot + V * r / rdot**2)
                - 0.5 * potential_U_dr(t, r, params)
                - 0.5 * params.m * r * phidot**2
            )
            G1 = num / D
    elif form == "polynomial":
        _require_printed(params, "the polynomial G^1")
        G1 = (
            -0.5 * V / r * rdot
            + (V * t / r**2 - 2.5 / r) * rdot**2
            - rdot**3 / V * semispray_series_bracket(t, r, params)
            + params.m / (4.0 * params.p * V) * r**-4 * math.exp(-E) * rdot**3 * phidot**2
        )
    else:
        raise ValueError(f"unknown semispray form {form!r}")
    return Semispray(H=np.zeros(2), G=np.array([G1, rdot * phidot / r]))


def script_U(t: float, r: float, params: MonolayerParams) -> float:
    """The curly-U(t, r) series entering the printed N11: 3/|V| times the
    polynomial-semispray bracket."""
    return 3.0 * semispray_series_bracket(t, r, params) / params.V_abs


def script_U_dt(t: float, r: float, params: MonolayerParams) -> float:
    """d(curly-U)/dt in closed form, used by the printed H torsion."""
    V = params.V_abs
    w = V * t
    E = 2.0 * w / r
    out = (
        -26.0 / (5.0 * r**2)
        + 61.0 * w / (20.0 * r**3)
        + w**2 / (20.0 * r**4)
        + w**3 / (15.0 * r**5)
        + w**4 / (6.0 * r**6)
    )
    if w != 0.0:
        ef = math.exp(-E) * exp_integral_f(E)
        out -= 2.0 * w**5 / (5.0 * r**7) * ef
        out -= w**5 / (15.0 * r**7)
        out += 2.0 * w**6 / (15.0 * r**8) * ef
    return out


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
            G1 = closed_semispray(pt, params, form="exact").G[0]
            num_rd = -a * (rdot * (5.0 * r - 2.0 * V * t) + 2.0 * V * r) / (2.0 * r**2)
            N[0, 0] = (num_rd - 3.0 * a * G1 / rdot) / D
        N[0, 1] = -params.m * r * phidot / D
    else:
        raise ValueError(f"unknown nonlinear-connection form {form!r}")
    return NonlinearConnection(M=np.zeros(2), N=N)


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
    return CartanConnection(G_time=G_time, L=L, C=C, kappa111=0.0)


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


def zero_energy_bracket(t, r, rdot, params: MonolayerParams):
    """[3mr/2 + m^2 e^-E rdot^3 / (4 p |V| r^4)] of the cancellation condition."""
    _require_printed(params, "the zero-energy bracket")
    E = 2.0 * params.V_abs * t / r
    exp_mE = _exp_checked(-E, "zero_energy_bracket")
    return 1.5 * params.m * r + params.m**2 * exp_mE * rdot**3 / (4.0 * params.p * params.V_abs * r**4)


def closed_em_and_ym(
    pt: JetPoint, params: MonolayerParams, form: str = "printed"
) -> tuple[EMForm, float]:
    """(F, Yang-Mills energy) with F_(2)1 = -F_(1)2 and EYM = F_(1)2^2 / m."""
    if pt.r <= 0:
        raise DomainError("EM form requires r > 0")
    f21 = em_component_f21(pt, params, form=form)
    F = np.array([[0.0, -f21], [f21, 0.0]])
    return EMForm(F=F), f21**2 / params.m


def is_zero_energy(pt: JetPoint, params: MonolayerParams, tol: float = 1e-12) -> bool:
    """Zero-Yang-Mills predicate: |F_(1)2| < tol (printed form)."""
    return abs(em_component_f21(pt, params, form="printed")) < tol


class MonolayerModel(LagrangianModel):
    """The monolayer Lagrangian as a differentiable model.

    The (t, r)-dependent pieces (e^E, U) are memoized because FD stencils
    in the fibre directions revisit the same base point hundreds of times.
    """

    name = "monolayer"

    def __init__(self, params: MonolayerParams):
        self.params = params
        self.m = params.m
        self.requires_nonzero_rdot = params.p != 0.0
        self._tr = functools.lru_cache(maxsize=4096)(self._tr_uncached)

    def _tr_uncached(self, t: float, r: float) -> tuple[float, float]:
        params = self.params
        return _exp(2.0 * params.V_abs * t / r), potential_U(t, r, params)

    def value(self, pt: JetPoint) -> float:
        p = self.params
        expE, U = self._tr(pt.t, pt.r)
        out = 0.5 * p.m * (pt.rdot**2 + pt.r**2 * pt.phidot**2) + U
        if p.p != 0.0:
            out -= p.p * pt.r**5 * p.V_abs * expE / pt.rdot
        return out

    def domain_violation(self, pt: JetPoint) -> str | None:
        if pt.r <= 0.0:
            return f"r = {pt.r} <= 0"
        if self.params.p != 0.0:
            if pt.rdot == 0.0:
                return "rdot = 0 (the Lagrangian contains rdot^-1)"
            if pt.rdot**3 == 0.0:
                return f"rdot^3 underflows to 0 at rdot = {pt.rdot} (g11 divides by rdot^3)"
            g11 = 0.5 * _denominator(pt.t, pt.r, pt.rdot, self.params)
            if not math.isfinite(pt.r**5 / pt.rdot**3):
                return f"g11 = {g11} is not finite at rdot = {pt.rdot} (r^5 / rdot^3 overflows)"
            if abs(g11) <= _G11_REL_FLOOR * self.params.m:
                return f"g11 = {g11} within {_G11_REL_FLOOR}*m of the singular locus"
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

    def spray(self, pt: JetPoint):
        G = closed_semispray(pt, self.params, form="exact").G
        return float(G[0]), float(G[1])

    def metric_g11(self, pt: JetPoint):
        return 0.5 * _denominator(pt.t, pt.r, pt.rdot, self.params)
