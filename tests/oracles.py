"""Independent numerical oracles shared by the test modules.

These never touch the implementations they check: the special-function
oracle is adaptive quadrature of the defining principal-value integral,
the mechanics oracles are hand-derived classical results, the
charged-particle fixture has the classical field strength as its F, and
the monolayer reference differentiates L symbolically and evaluates at 40
digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

from jetlag.fd import numeric_partials
from jetlag.geometry import EMForm
from jetlag.models import LagrangianModel
from jetlag.monolayer import MonolayerModel, potential_U
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


# -- Lagrangians given as plain callables ---------------------------------------

class PolynomialModel(LagrangianModel):
    """L given by a plain callable of (t, r, phi, rdot, phidot); the
    optional ``domain`` predicate takes the same five floats.

    Handy for unit tests of the differentiation engine (quadratic and
    bilinear fixtures from the operation contracts).
    """

    name = "polynomial"

    def __init__(self, fn, domain=None):
        self._fn = fn
        self._domain = domain

    def value(self, t, r, phi, rdot, phidot) -> float:
        return float(self._fn(t, r, phi, rdot, phidot))

    def domain_violation(self, t, r, phi, rdot, phidot) -> str | None:
        base = super().domain_violation(t, r, phi, rdot, phidot)
        if base is not None:
            return base
        if self._domain is not None and not self._domain(t, r, phi, rdot, phidot):
            return "point outside user-supplied domain"
        return None


# -- charged particle: the classical field strength -------------------------------
#
# L = m c phi_ij(x) y^i y^j + (2e/m) A_i(x) y^i + F_pot(t, x)  (usual time,
# h11 = 1).  For this family the electromagnetic d-form collapses to the
# classical field strength
#
#     F_(i)j = -(e/2m) (dA_i/dx^j - dA_j/dx^i),
#
# independent of phi_ij and F_pot, which is what makes it a good end-to-end
# check of the generic pipeline.

Vec2Field = Callable[[np.ndarray], np.ndarray]


def _flat_phi(x: np.ndarray) -> np.ndarray:
    return np.eye(2)


def _zero_vec(x: np.ndarray) -> np.ndarray:
    return np.zeros(2)


def _zero_jac(x: np.ndarray) -> np.ndarray:
    return np.zeros((2, 2))


def _zero_pot(t: float, x: np.ndarray) -> float:
    return 0.0


@dataclass(frozen=True)
class ElectrodynamicsFixtureParams:
    """Fixture inputs: fields are callables of the base point x.

    A_jac must be the analytic Jacobian dA_i/dx^j of A; it feeds the
    closed-form F the generic pipeline is checked against.
    """

    m: float = 1.0
    c: float = 1.0
    e: float = 1.0
    phi: Callable[[np.ndarray], np.ndarray] = _flat_phi
    A: Vec2Field = _zero_vec
    A_jac: Callable[[np.ndarray], np.ndarray] = _zero_jac
    F_pot: Callable[[float, np.ndarray], float] = _zero_pot

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("fixture needs m != 0")


class ElectrodynamicsModel(LagrangianModel):
    name = "electrodynamics_fixture"

    def __init__(self, params: ElectrodynamicsFixtureParams):
        self.params = params
        self.m = abs(params.m)

    def value(self, t, r, phi, rdot, phidot) -> float:
        x = np.array([r, phi])
        y = np.array([rdot, phidot])
        par = self.params
        phi_ij = np.asarray(par.phi(x), dtype=float)
        if abs(np.linalg.det(phi_ij)) < 1e-14:
            raise ValueError("phi_ij is singular at this point")
        return float(
            par.m * par.c * y @ phi_ij @ y
            + 2.0 * par.e / par.m * np.dot(par.A(x), y)
            + par.F_pot(t, x)
        )


def electrodynamics_fixture(params: ElectrodynamicsFixtureParams) -> ElectrodynamicsModel:
    return ElectrodynamicsModel(params)


def closed_em_form(params: ElectrodynamicsFixtureParams, x) -> EMForm:
    """F_(i)j = -(e/2m)(dA_i/dx^j - dA_j/dx^i) from the analytic Jacobian."""
    jac = np.asarray(params.A_jac(np.asarray(x, dtype=float)), dtype=float)
    F = -params.e / (2.0 * params.m) * (jac - jac.T)
    return EMForm(F=F)


# -- free polar particle: classical results ------------------------------------

def polar_metric(m: float, r: float) -> np.ndarray:
    return np.diag([0.5 * m, 0.5 * m * r**2])


def polar_spray(r: float, rdot: float, phidot: float) -> tuple[float, float]:
    """From r'' - r phidot^2 = 0 and phi'' + 2 rdot phidot / r = 0."""
    return -0.5 * r * phidot**2, rdot * phidot / r


def polar_christoffel(r: float) -> dict:
    """Nonzero Christoffel symbols of the flat metric in polar coordinates."""
    return {"L1_22": -r, "L2_12": 1.0 / r}


def asymmetric_lagrangian(t, r, phi, rd, pd):
    """No symmetry of g, N, L or C can hide a transposed index here."""
    return (
        (1 + r**2 + 0.3 * t * r * phi) * rd**2 + 0.7 * r * rd * pd + (2 + phi**2 + 0.2 * t * r) * pd**2
        + 0.1 * r**3 * rd**3 + 0.05 * phi * rd * pd**2 - 0.4 * r * phi + 0.3 * t * r * rd
    )


class CountingMonolayer(MonolayerModel):
    """The monolayer model, counting its L-evaluations."""

    calls = 0

    def value(self, t, r, phi, rdot, phidot):
        self.calls += 1
        return super().value(t, r, phi, rdot, phidot)


def monolayer_dL_drdot(t, r, rdot, m, p, V) -> float:
    """Hand-differentiated dL/drdot = m rdot + p r^5 |V| e^(2|V|t/r) rdot^-2."""
    return m * rdot + p * r**5 * V * math.exp(2.0 * V * t / r) / rdot**2


def hamiltonian_displays(state, params, H_ym) -> tuple[float, float]:
    """(delta_L, L0) of one state from their printed displays, so that
    delta_L = -(H - H_YM) and L0 = g22 phidot^2 + g11 rdot^2 - H_YM are
    genuine cross-checks of ``hamiltonian_split``; delta_L = 0 at p = 0."""
    t, r, rdot, phidot = state.t, state.r, state.rdot, state.phidot
    m, p, V = params.m, params.p, params.V_abs
    if p == 0.0:
        return 0.0, 0.5 * m * r**2 * phidot**2 + 0.5 * m * rdot**2
    E = 2.0 * V * t / r
    # e^(-2E) (m rdot^3 + 6 p |V| r^5 e^E)^2 grouped as (m rdot^3 e^-E + ...)^2
    # so the huge exponentials cancel before they can overflow
    stable = (m * rdot**3 * math.exp(-E) + 6.0 * p * V * r**5) ** 2
    delta_L = potential_U(t, r, params) + m * phidot**2 * stable / (64.0 * p**2 * V**2 * r**8)
    L0 = -H_ym + 0.5 * m * r**2 * phidot**2 + 0.5 * rdot**2 * (m - 2.0 * p * V * r**5 * math.exp(E) / rdot**3)
    return delta_L, L0


# -- finite differences of derived fields ----------------------------------------

def field_partial(fn, pt, spec, scales=None) -> float:
    """numeric_partials of a plain callable JetPoint -> float, wrapped as a
    model: the same probes and default scales as for any Lagrangian."""
    model = PolynomialModel(lambda *coords: fn(jet_point(*coords)))
    return numeric_partials(model, pt, spec, scales=scales)


# -- the monolayer geometry at 40 digits ------------------------------------------

REFERENCE_DPS = 40


@functools.lru_cache(maxsize=None)
def _monolayer_reference_fn():
    """L of the monolayer in sympy (f = Ei) and the geometry derived from it:
    the quantity names, with the 16 of ``validate._exact_table`` under its
    keys, and their values lambdified to mpmath as a function of
    (coordinates, m, p, |V|).  Built once, on first use.

    The conventions are ``geometry.py``'s: g_ij = d2L/dy^i dy^j / 2,
    G = g^-1 B / 4 with B_s = d2L/dx^q dy^s y^q - dL/dx^s + d2L/dt dy^s,
    N^i_j = dG^i/dy^j, G_time = g^-1 dg/dt / 2, L and C the Christoffel
    symbols of delta g / delta x^k = dg/dx^k - N^q_k dg/dy^q and of dg/dy,
    and F_ij = [g_js N^s_i - g_is N^s_j + (g_iq L^q_js - g_jq L^q_is) y^s] / 2.
    """
    import sympy as sp

    t, r, phi, rdot, phidot, m, p, V = sp.symbols("t r phi rdot phidot m p V", real=True)
    X, Y = (r, phi), (rdot, phidot)
    w = V * t
    E = 2 * w / r
    poly = (
        -sp.Rational(4, 3) * r**5
        + sp.Rational(16, 15) * w * r**4
        + sp.Rational(1, 30) * w**2 * r**3
        + sp.Rational(1, 45) * w**3 * r**2
        + sp.Rational(1, 45) * w**4 * r
        + sp.Rational(2, 45) * w**5
    )
    U = p * (poly * sp.exp(E) - sp.Rational(4, 45) * w**6 / r * sp.Ei(E))
    L = m * rdot**2 / 2 + m * r**2 * phidot**2 / 2 - p * r**5 * V * sp.exp(E) / rdot + U

    two = range(2)
    g = sp.Matrix(2, 2, lambda i, j: sp.diff(L, Y[i], Y[j]) / 2)
    ginv = g.inv()
    B = [sum(sp.diff(L, X[q], Y[s]) * Y[q] for q in two) - sp.diff(L, X[s]) + sp.diff(L, t, Y[s]) for s in two]
    G = [sum(ginv[i, s] * B[s] for s in two) / 4 for i in two]
    N = [[sp.diff(G[i], Y[j]) for j in two] for i in two]

    def christoffel(d):
        """[i][j][k] = g^is (d(k, j, s) + d(j, k, s) - d(s, j, k)) / 2, d(k, i, j) = d_k g_ij."""
        return [
            [[sum(ginv[i, s] * (d(k, j, s) + d(j, k, s) - d(s, j, k)) for s in two) / 2 for k in two] for j in two]
            for i in two
        ]

    def delta_g(k, i, j):
        return sp.diff(g[i, j], X[k]) - sum(N[q][k] * sp.diff(g[i, j], Y[q]) for q in two)

    Lc = christoffel(delta_g)
    C = christoffel(lambda k, i, j: sp.diff(g[i, j], Y[k]))
    G_time = [[sum(ginv[k, s] * sp.diff(g[s, j], t) for s in two) / 2 for j in two] for k in two]
    F21 = (
        sum(g[0, s] * N[s][1] - g[1, s] * N[s][0] for s in two)
        + sum((g[1, q] * Lc[q][0][s] - g[0, q] * Lc[q][1][s]) * Y[s] for q in two for s in two)
    ) / 2
    quantities = {
        "L": L,
        # the sum of |term| over L's expanded terms: the scale of L's float roundoff
        "L_terms": sum(abs(term) for term in sp.Add.make_args(sp.expand(L))),
        "g11": g[0, 0],
        "g22": g[1, 1],
        "G1_exact": G[0],
        "G2": G[1],
        "Gtime_11": G_time[0][0],
        "C1_11": C[0][0][0],
        "N11_exact": N[0][0],
        "N12_exact": N[0][1],
        "N21": N[1][0],
        "N22": N[1][1],
        "L1_11_exact": Lc[0][0][0],
        "L1_12_exact": Lc[0][0][1],
        "L1_22": Lc[0][1][1],
        "L2_11_exact": Lc[1][0][0],
        "L2_12": Lc[1][0][1],
        "F21_exact": F21,
    }
    fn = sp.lambdify([t, r, phi, rdot, phidot, m, p, V], list(quantities.values()), modules="mpmath", cse=True)
    return tuple(quantities), fn


def monolayer_reference(pt, params) -> dict:
    """L, the sum of |term| over L's terms, and the 16 exact quantities at a
    jet point, as 40-digit mpf values (every float input converts exactly)."""
    names, fn = _monolayer_reference_fn()
    args = (pt.t, pt.r, pt.phi, pt.rdot, pt.phidot, params.m, params.p, params.V_abs)
    with mpmath.workdps(REFERENCE_DPS):
        values = fn(*map(mpmath.mpf, args))
    return dict(zip(names, values))


def scipy_solve(what, rhs, t0, t1, y0, rtol, atol, max_step=math.inf, events=(), t_eval=None):
    """``dynamics._solve`` on scipy's RK45 (``solve_ivp``), the differential
    oracle of the float Dormand-Prince driver: the same samples, status and
    fired event, with scipy's RHS count and message."""
    y0 = np.asarray(y0, dtype=float)  # solve_ivp hands the events y0 as given
    terminal = []
    for ev in events:
        def on_lists(t, y, ev=ev):
            return ev(float(t), y.tolist())

        on_lists.terminal = True
        terminal.append(on_lists)
    sol = solve_ivp(
        lambda t, y: rhs(float(t), y.tolist()), (t0, t1), y0, method="RK45", rtol=rtol, atol=atol,
        max_step=max_step, events=terminal or None, t_eval=t_eval,
    )
    fired = [i for i, te in enumerate(sol.t_events or ()) if len(te)]
    return SimpleNamespace(
        t=sol.t.tolist(), y=sol.y.T.tolist(), status=sol.status, message=sol.message, rhs_calls=sol.nfev,
        event=fired[0] if fired else None,
    )
