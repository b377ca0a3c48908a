"""Trajectory dynamics on the jet space: geodesics, resonant zero-Yang-Mills
trajectories and the Jacobi-type deviation equations along them.  Every
trajectory carries its per-sample energies (instanton energy, renormalized
Hamiltonian, printed and exact Yang-Mills energies, g11), all from one pass,
``hamiltonian_split``.

The geodesic system is dy/dt + 2G(t, x, y) = 0, dx/dt = y, integrated with
an adaptive embedded Runge-Kutta pair (4/5) with terminal events at the
singular loci (g11 -> 0, rdot -> 0, r -> 0).  G is the closed exact spray
of a ``MonolayerModel``, on floats; at p = 0 that model is the free polar
particle, and the rdot -> 0 event is off.  When the solver gives up
because rdot blows up in finite time before r reaches r_min, the run ends
in the ``finite_time_collapse`` event instead of a failure.  An independent
Euler-Lagrange residual is recorded along every run: a
``GeometryEvaluator`` check at the solver's own nodes, with every
Lagrangian partial by finite differences and the state derivative
ydot = -2G from the spray the solver integrated.  At a node that is the
derivative itself, so the check does not depend on the solver tolerances
(Hairer, Norsett & Wanner, Solving ODEs I, section II.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, JetLagError
from .expint import exp_integral_f
from .geometry import GeometryEvaluator
from .monolayer import (
    MonolayerModel,
    MonolayerParams,
    _any,
    _denominator,
    _exp_checked,
    _full_like,
    em_component_f21,
    potential_U,
    potential_U_drr,
    zero_energy_bracket,
)
from .points import JetPoint, check_coordinates, jet_point

#: at most this many samples of a run get the FD Euler-Lagrange residual
_EL_MAX_POINTS = 400
#: every ODE solve stops with a JetLagError past this many right-hand-side calls
_MAX_RHS_CALLS = 100_000
#: a give-up with r/|rdot| within this many float spacings of t is a collapse
_COLLAPSE_SPACINGS = 2**20


@dataclass(frozen=True)
class TrajectoryState:
    """One state, or a series of them as equal-length arrays."""

    t: float
    r: float
    phi: float
    rdot: float
    phidot: float

    def point(self) -> JetPoint:
        return jet_point(self.t, self.r, self.phi, self.rdot, self.phidot)


@dataclass(frozen=True)
class DeviationState:
    """Deviation components; on resonance delta_phi(t) = C1 + C2 t with
    C1 = delta_phi(t0) and C2 = delta_phidot(t0)."""

    delta_r: float = 0.0
    delta_rdot: float = 0.0
    delta_phi: float = 0.0
    delta_phidot: float = 0.0


@dataclass(frozen=True)
class SingularEvent:
    kind: str  # metric_singular | rdot_zero | r_collapse | finite_time_collapse
    t_lo: float
    t_hi: float
    t_event: float


@dataclass
class SimConfig:
    params: MonolayerParams
    state0: TrajectoryState
    t_end: float
    rtol: float = 1e-9
    atol: float = 1e-9
    max_step: float = math.inf
    r_min: float = 1e-6
    compute_el_residual: bool = True

    def __post_init__(self):
        if self.t_end <= self.state0.t:
            raise ValueError("t_end must exceed the initial time")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("integrator tolerances must be positive")


@dataclass
class TrajectorySeries:
    """Sampled trajectory plus per-sample diagnostics; t strictly increasing."""

    params: MonolayerParams
    t: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    rdot: np.ndarray
    phidot: np.ndarray
    e_inst: np.ndarray
    H: np.ndarray
    H_ym: np.ndarray
    eym: np.ndarray
    g11: np.ndarray
    el_residual: np.ndarray | None = None
    events: list[SingularEvent] = field(default_factory=list)
    status: str = "completed"


@dataclass
class DeviationSeries:
    t: np.ndarray
    delta_r: np.ndarray
    delta_rdot: np.ndarray
    delta_phi: np.ndarray
    delta_phidot: np.ndarray
    c1: float
    c2: float


@dataclass
class ResonantTrajectory:
    """Samples of the resonant radius r0 (rdot0 < 0 throughout).

    These samples already carry the time-reversal convention of the source
    material (they satisfy the post-reversal resonance equation), so they
    play the role of r0(-t) in the perturbed decomposition directly.
    """

    t: np.ndarray
    r0: np.ndarray
    r0dot: np.ndarray
    params: MonolayerParams
    R0: float
    source: str
    flags: list[str] = field(default_factory=list)

    def spline(self):
        from scipy.interpolate import CubicHermiteSpline

        return CubicHermiteSpline(self.t, self.r0, self.r0dot)

    def rdot_spline(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.t, self.r0dot)

    def _resonance_residual(self, exponent) -> np.ndarray:
        """Relative residual of m r0dot^3 + 6 p |V| r0^5 e^exponent = 0, taken
        as |m r0dot^3 e^-exponent + 6 p |V| r0^5| over the larger term: the
        exponent is >= 0 on every span ``resonant_trajectory`` accepts, so
        e^-exponent cannot overflow."""
        p = self.params
        drive = 6.0 * p.p * p.V_abs * self.r0**5
        kinetic = p.m * self.r0dot**3 * np.exp(-exponent)
        return np.abs(kinetic + drive) / np.maximum(np.abs(kinetic), drive)

    def residual_eq21(self) -> np.ndarray:
        """Relative residual of the r0-exponent resonance condition."""
        return self._resonance_residual(2.0 * self.params.V_abs * self.t / self.r0)

    def residual_eq22(self) -> np.ndarray:
        """Relative residual of the large-time resonance condition."""
        V = self.params.V_abs
        return self._resonance_residual(2.0 * V * self.t / (self.R0 - V * self.t))

    def ym_bracket_residual(self) -> np.ndarray:
        """Relative residual of the time-reversed zero-Yang-Mills bracket,
        3 m r0 / 2 + m^2 e^(-X) rdot0^3 / (4 p |V| r0^4) with the large-time
        exponent X; identically zero on resonance.  A DomainError names an
        m^2 that overflows."""
        p = self.params
        try:
            m2 = p.m**2
        except OverflowError:
            raise DomainError(f"ym_bracket_residual: m^2 overflows at m = {p.m:.6g}") from None
        X = 2.0 * p.V_abs * self.t / (self.R0 - p.V_abs * self.t)
        lead = 1.5 * p.m * self.r0
        bracket = lead + m2 * np.exp(-X) * self.r0dot**3 / (4.0 * p.p * p.V_abs * self.r0**4)
        return np.abs(bracket) / lead


# -- pointwise diagnostics -----------------------------------------------------


def _require_sample(state: TrajectoryState):
    """The invariants a JetPoint enforces, with the exception class it raises."""
    if not all(np.isfinite(v).all() for v in vars(state).values()) or _any(state.r <= 0.0):
        raise ValueError("a trajectory sample needs finite components and r > 0")


def hamiltonian_split(state: TrajectoryState, params: MonolayerParams):
    """(E_inst, H, H_YM, EYM, g11) of one state, or per sample of a series of
    them, in one pass over the potential.

    With the kinetic term K = (m/2)(rdot^2 + r^2 phidot^2) and
    U_s = U - p r^5 |V| e^E / rdot, L = K + U_s: E_inst = K - U_s is the
    instanton energy, H = g11 rdot^2 + g22 phidot^2 - L the renormalized
    Hamiltonian (algebraically -U), H_YM the printed Yang-Mills energy and
    EYM = F_(2)1^(1)^2 / m the exact one.  At p = 0 H = H_YM = EYM = 0.
    An rdot = 0 sample raises a DomainError when p != 0.
    """
    t, r, rdot, phidot = state.t, state.r, state.rdot, state.phidot
    m, p, V = params.m, params.p, params.V_abs
    if p != 0.0 and _any(rdot == 0.0):
        raise DomainError("U_s contains rdot^-1; rdot = 0 is singular")
    U_s = potential_U(t, r, params)
    if p != 0.0:
        U_s -= p * r**5 * V * _exp_checked(2.0 * V * t / r, "hamiltonian_split") / rdot
    _require_sample(state)
    kinetic = 0.5 * m * (rdot**2 + r**2 * phidot**2)
    g11 = 0.5 * _denominator(t, r, rdot, params)
    H = g11 * rdot**2 + 0.5 * m * r**2 * phidot**2 - (kinetic + U_s)
    if p == 0.0:
        return kinetic - U_s, H, _full_like(r, 0.0), _full_like(r, 0.0), g11
    H_ym = phidot**2 * zero_energy_bracket(t, r, rdot, params) ** 2 / (4.0 * m)
    return kinetic - U_s, H, H_ym, em_component_f21(state, params) ** 2 / m, g11


# -- the ODE driver and geodesic integration ----------------------------------


def _solve(what: str, rhs, span, y0, rtol, atol, **options):
    """scipy's RK45 on dy/dt = rhs(t, y) over span, returning its OdeResult; the
    right-hand-side call past _MAX_RHS_CALLS raises a JetLagError naming the
    solve, the budget, the t reached and the span, and solve_ivp passes it on."""
    from scipy.integrate import solve_ivp  # here, so `import jetlag` skips scipy.integrate

    calls, budget = 0, _MAX_RHS_CALLS

    def counted(t, y):
        nonlocal calls
        calls += 1
        if calls > budget:
            over = f"{what} over the span [{span[0]:.6g}, {span[1]:.6g}]"
            raise JetLagError(f"{over} used up its budget of {budget} right-hand-side calls at t = {t:.6g}")
        return rhs(t, y)

    return solve_ivp(counted, span, y0, method="RK45", rtol=rtol, atol=atol, **options)


def _spray_of(model: MonolayerModel):
    """(t, r, phi, rdot, phidot) -> (G1, G2) on floats: the model's exact
    spray, the coordinates checked as a JetPoint checks them."""

    def spray(t, r, phi, rdot, phidot):
        check_coordinates(t, r, phi, rdot, phidot)
        return model.spray(t, r, phi, rdot, phidot)

    return spray


def _safe_state(u: list, r_floor, needs_rdot):
    """Clamp trial-stage states so the RHS stays finite past the event loci;
    u = [r, phi, rdot, phidot] as Python floats."""
    r, phi, rdot, phidot = u
    if r < r_floor:
        r = r_floor
    if needs_rdot and abs(rdot) < 1e-12:
        rdot = math.copysign(1e-12, rdot if rdot != 0.0 else -1.0)
    return r, phi, rdot, phidot


def _finite_time_collapse(spray, t, u) -> SingularEvent | None:
    """Classify a solver give-up at state u = (r, phi, rdot, phidot), time t.

    It is a finite-time collapse when the motion is inward (rdot < 0) and
    accelerating inward (-2 G^1 < 0), and r/|rdot| -- which then bounds the
    time left until r = 0 -- is within _COLLAPSE_SPACINGS float spacings of
    t, a scale of t's own resolution and not of the solver tolerances."""
    t = float(t)
    r, phi, rdot, phidot = (float(v) for v in u)
    if not rdot < 0.0:
        return None
    try:
        G1, _ = spray(t, r, phi, rdot, phidot)
    except (JetLagError, ValueError, ArithmeticError):
        return None
    left = r / -rdot
    if -2.0 * G1 < 0.0 and left <= _COLLAPSE_SPACINGS * math.ulp(t):
        return SingularEvent("finite_time_collapse", t, t + left, t)
    return None


def integrate_geodesic(config: SimConfig, model: MonolayerModel) -> TrajectorySeries:
    """Integrate dy/dt = -2G, dx/dt = y adaptively until t_end or a
    singularity event; diagnostics and the EL residual come along."""
    pt0 = config.state0.point()
    violation = model.domain_violation(pt0.t, *pt0.x, *pt0.y)
    if violation is not None:
        raise DomainError(f"initial state invalid: {violation}")

    # the right-hand side and the events run on Python floats: u.tolist()
    # and float(t), the values a JetPoint per call used to hold
    spray = _spray_of(model)
    needs_rdot = model.params.p != 0.0  # L contains rdot^-1
    r_floor = config.r_min / 10.0

    def rhs(t, u):
        r, phi, rdot, phidot = _safe_state(u.tolist(), r_floor, needs_rdot)
        G1, G2 = spray(float(t), r, phi, rdot, phidot)
        return [rdot, phidot, -2.0 * G1, -2.0 * G2]

    events = []
    kinds = []

    def ev_r(t, u):
        return u[0] - config.r_min

    ev_r.terminal = True
    events.append(ev_r)
    kinds.append("r_collapse")

    if needs_rdot:

        def ev_rdot(t, u):
            return u[2]

        ev_rdot.terminal = True
        events.append(ev_rdot)
        kinds.append("rdot_zero")

    def ev_g11(t, u):
        state = (float(t), *_safe_state(u.tolist(), r_floor, needs_rdot))
        check_coordinates(*state)
        return model.metric_g11(*state)

    ev_g11.terminal = True
    events.append(ev_g11)
    kinds.append("metric_singular")

    # an array, as the events see it at t0 too
    u0 = np.array([config.state0.r, config.state0.phi, config.state0.rdot, config.state0.phidot], dtype=float)
    # only with dense output does solve_ivp drop a repeated t
    sol = _solve(
        "geodesic integration", rhs, (config.state0.t, config.t_end), u0, config.rtol, config.atol,
        max_step=config.max_step, events=events, dense_output=True,
    )

    t = sol.t
    r, phi, rdot, phidot = sol.y

    recorded = []
    status = "completed"
    if sol.status == 1:  # a terminal event fired
        for kind, tev in zip(kinds, sol.t_events):
            if len(tev):
                below = t[t < tev[0]]
                t_lo = below[-1] if len(below) else t[0]
                recorded.append(SingularEvent(kind, float(t_lo), float(tev[0]), float(tev[0])))
                status = f"event:{kind}"
    elif sol.status < 0:
        collapse = _finite_time_collapse(spray, t[-1], sol.y[:, -1])
        if collapse is None:
            status = f"failed:{sol.message}"
        else:
            recorded.append(collapse)
            status = f"event:{collapse.kind}"

    e_inst, H, H_ym, eym, g11 = hamiltonian_split(TrajectoryState(t, r, phi, rdot, phidot), config.params)

    el = None
    if config.compute_el_residual and len(t) >= 3:
        stride = max(1, int(math.ceil(len(t) / _EL_MAX_POINTS)))
        el = np.full(len(t), np.nan)
        nodes = np.vstack([t, sol.y]).T.tolist()
        for i in range(0, len(t), stride):
            node = nodes[i]
            try:
                G1, G2 = spray(*node)
                ev = GeometryEvaluator(model, jet_point(*node))
                el[i] = ev.euler_lagrange_residual([-2.0 * G1, -2.0 * G2])
            except (ValueError, DomainError):
                el[i] = np.nan

    return TrajectorySeries(
        params=config.params,
        t=t,
        r=r,
        phi=phi,
        rdot=rdot,
        phidot=phidot,
        e_inst=e_inst,
        H=H,
        H_ym=H_ym,
        eym=eym,
        g11=g11,
        el_residual=el,
        events=recorded,
        status=status,
    )


# -- resonant trajectory -------------------------------------------------------


def resonant_rhs(t, r0, params: MonolayerParams, R0: float):
    """rdot0 = -(6 p |V| / m)^(1/3) r0^(5/3) e^(2|V|t / (3(R0 - |V|t))).

    A float r0, the solver's call, stays on :mod:`math`, with numpy's
    answers where math would raise: NaN for r0 < 0 and inf for an
    overflowing power or exponential.  numpy's SIMD exp and pow round
    differently on different CPUs, and the solver's accepted steps join
    the sample grid.  An array r0 (the r0dot pass on that grid) goes
    through numpy.
    """
    c = (6.0 * params.p * params.V_abs / params.m) ** (1.0 / 3.0)
    exponent = 2.0 * params.V_abs * t / (3.0 * (R0 - params.V_abs * t))
    if type(r0) is not float:
        return -c * np.asarray(r0) ** (5.0 / 3.0) * np.exp(exponent)
    if not r0 >= 0.0:
        return math.nan
    try:
        power = r0 ** (5.0 / 3.0)
    except OverflowError:
        power = math.inf
    try:
        growth = math.exp(exponent)
    except OverflowError:
        growth = math.inf
    return -c * power * growth


def _closed_form(t, params: MonolayerParams, R0: float):
    """(r0, dr0/dt) of the printed large-time solution, with the unhoused
    symbol v read as |V| (confirmed algebraically and by the ODE oracle).

    r0 = 27 sqrt(m) R0 |V| e^g B^(-3/2) with g = -|V|t/w, w = R0 - |V|t and
    B = -4 c R0^(5/3) e^(-a) (f(2/3) - f(a)) + e^(2/3 - a) K - 6 c R0^(2/3) w,
    a = 2 R0 / (3w), c = (6p)^(1/3).  With df(a)/da = e^a / a, da/dt =
    2 R0 |V| / (3 w^2) and dg/dt = -R0 |V| / w^2 the rate is analytic:
    dr0/dt = r0 (dg/dt - 3/2 dB/dt / B).
    """
    t = np.asarray(t, dtype=float)
    m, p, V = params.m, params.p, params.V_abs
    om = R0 - V * t
    if np.any(om <= 0.0):
        raise ValueError("t reaches R0/|V|: the large-time denominator blows up")
    alpha = 2.0 * R0 / (3.0 * om)
    cbrt6p = (6.0 * p) ** (1.0 / 3.0)
    e_alpha = np.exp(-alpha)
    f_diff = exp_integral_f(2.0 / 3.0) - exp_integral_f(alpha)
    growth = np.exp(-2.0 * V * t / (3.0 * om))
    K = 9.0 * m ** (1.0 / 3.0) * V ** (2.0 / 3.0) + 6.0 * cbrt6p * R0 ** (5.0 / 3.0)
    B = (
        -4.0 * cbrt6p * R0 ** (5.0 / 3.0) * e_alpha * f_diff
        + growth * K
        - 6.0 * cbrt6p * R0 ** (2.0 / 3.0) * om
    )
    if np.any(B <= 0.0):
        raise ValueError("negative radicand in the closed-form resonant solution")
    r0 = 27.0 * math.sqrt(m) * R0 * V * np.exp(t * V / (t * V - R0)) * B ** (-1.5)
    alpha_dot = 2.0 * R0 * V / (3.0 * om**2)
    B_dot = (
        4.0 * cbrt6p * R0 ** (5.0 / 3.0) * alpha_dot * (e_alpha * f_diff + 1.0 / alpha)
        - alpha_dot * growth * K
        + 6.0 * cbrt6p * R0 ** (2.0 / 3.0) * V
    )
    return r0, r0 * (-R0 * V / om**2 - 1.5 * B_dot / B)


def resonant_trajectory(
    params: MonolayerParams,
    t_span=None,
    source: str = "ode",
    n_samples: int = 400,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> ResonantTrajectory:
    """Resonant r0(t) over t_span (default [0, 0.8 R0/|V|]).

    source="ode" integrates the cube root of the large-time resonance
    condition, seeded with r0(t0) = R0 (1 - t0 |V| / R0); rdot0 samples are
    the RHS itself, so the large-time residual vanishes by construction.
    source="closed_form" evaluates the printed solution; its rdot0 is the
    analytic derivative of that closed form, so the residual is a genuine
    check of the printed expression, down to rounding.
    """
    if params.R0 is None:
        raise ValueError("resonant trajectory needs params.R0")
    if params.p == 0.0:
        raise ValueError("resonant trajectory needs p > 0")
    R0 = params.R0
    V = params.V_abs
    horizon = R0 / V
    if t_span is None:
        t_span = (0.0, 0.8 * horizon)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not 0.0 <= t0 < t1:
        raise ValueError("need 0 <= t_start < t_end")
    if t1 >= horizon:
        raise ValueError(
            f"t_end = {t1} reaches R0/|V| = {horizon}: the resonance exponent blows up"
        )

    grid = np.linspace(t0, t1, n_samples)
    flags: list[str] = []
    if source == "ode":
        seed = R0 * (1.0 - t0 * V / R0)
        sol = _solve(
            "resonant integration", lambda t, r: [resonant_rhs(t, float(r[0]), params, R0)],
            (t0, t1), [seed], rtol, atol, dense_output=True,
        )
        if sol.status != 0:
            raise JetLagError(f"resonant integration failed: {sol.message}")
        # merge the solver's accepted steps into the grid: steep initial
        # decay (large R0) is then resolved well enough for the Hermite
        # interpolation the deviation equations ride on
        grid = np.union1d(grid, sol.t)
        r0 = sol.sol(grid)[0]
        r0dot = resonant_rhs(grid, r0, params, R0)
    elif source == "closed_form":
        r0, r0dot = _closed_form(grid, params, R0)
    else:
        raise ValueError(f"unknown resonant source {source!r}")

    if np.any(r0 <= 0.0):
        flags.append("r0 reached zero inside the span")
    if np.any(r0dot >= 0.0):
        flags.append("rdot0 >= 0 somewhere: resonance sign analysis violated")
    return ResonantTrajectory(
        t=grid, r0=r0, r0dot=r0dot, params=params, R0=R0, source=source, flags=flags
    )


# -- deviation equations -------------------------------------------------------


def deviation_integrate(
    reference: ResonantTrajectory,
    init: DeviationState,
    params: MonolayerParams,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> DeviationSeries:
    """Integrate the explicit deviation ODEs along a resonant reference,
    sampled on the reference's own grid.

    delta_r obeys

        (2 p |V| r0^5 e^E0 - m rdot0^3) ddot(dr)
          + p |V| r0^3 e^E0 (2t|V| - 5 r0) rdot0 dot(dr)
          + rdot0^3 d2U/dr2(t, r0) dr = 0

    Each term has the units of the first, M L^4 T^-5; d2U/dt2 in place of
    d2U/dr2 would carry an extra (L/T)^2.  On resonant references the
    delta_phi friction coefficient is identically reduced to zero (the
    resonance-condition substitution), so delta_phi = C1 + C2 t.
    """
    spl = reference.spline()
    rdot_spl = reference.rdot_spline()
    # coarse-grid guard: the Hermite derivative must agree with the stored
    # velocities between the nodes, up to the rounding floor of its slope,
    # 1.5 (ulp(r0_i) + ulp(r0_i+1)) / h_i on each interval
    mids = 0.5 * (reference.t[:-1] + reference.t[1:])
    ulp = np.spacing(np.abs(reference.r0))
    tol = 1e-5 * np.max(np.abs(reference.r0dot)) + 1.5 * (ulp[:-1] + ulp[1:]) / np.diff(reference.t)
    if np.any(np.abs(spl.derivative()(mids) - rdot_spl(mids)) > tol):
        raise ValueError("reference grid too coarse for deviation interpolation")

    m, p, V = params.m, params.p, params.V_abs

    def coeffs(t):
        r0 = float(spl(t))
        rd0 = float(rdot_spl(t))
        expE0 = math.exp(2.0 * V * t / r0)
        A = 2.0 * p * V * r0**5 * expE0 - m * rd0**3
        B = p * V * r0**3 * expE0 * (2.0 * t * V - 5.0 * r0) * rd0
        C = rd0**3 * potential_U_drr(t, r0, params)
        return A, B, C

    # delta_r = delta_rdot = 0 is an exact solution of its (decoupled,
    # homogeneous) equation, so the radial block is skipped entirely then;
    # this also keeps collapsed references (r0 -> 0, exploding e^(2|V|t/r0)
    # coefficients) usable for the purely angular deviation scenario
    radial_active = init.delta_r != 0.0 or init.delta_rdot != 0.0

    def rhs(t, w):
        dr, drd, dphi, dphid = w
        ddr = 0.0
        if radial_active:
            A, B, C = coeffs(t)
            ddr = -(B * drd + C * dr) / A
        return [drd, ddr, dphid, 0.0]

    w0 = [init.delta_r, init.delta_rdot, init.delta_phi, init.delta_phidot]
    sol = _solve("deviation integration", rhs, reference.t[[0, -1]], w0, rtol, atol, t_eval=reference.t)
    if sol.status != 0:
        raise JetLagError(f"deviation integration failed: {sol.message}")
    return DeviationSeries(
        t=sol.t,
        delta_r=sol.y[0],
        delta_rdot=sol.y[1],
        delta_phi=sol.y[2],
        delta_phidot=sol.y[3],
        c1=init.delta_phi,
        c2=init.delta_phidot,
    )


def compose_perturbed(
    reference: ResonantTrajectory, deviations: DeviationSeries
) -> TrajectorySeries:
    """r(t) = r0 + delta_r(t) on the reference's convention (the stored r0
    already carries the time reversal: it satisfies the post-reversal
    resonance equations with rdot0 < 0).  The unperturbed angle is constant
    (the fully separated phidot0 = 0 case), so phi(t) = delta_phi(t).  The
    deviations must sit on the reference's grid, as ``deviation_integrate``
    leaves them."""
    dev = deviations
    t = reference.t
    if len(dev.t) != len(t) or not np.allclose(dev.t, t, rtol=0.0, atol=1e-12 * max(1.0, t[-1])):
        raise ValueError("deviations are not sampled on the reference grid")
    r = reference.r0 + dev.delta_r
    rdot = reference.r0dot + dev.delta_rdot
    phi = dev.delta_phi.copy()
    phidot = dev.delta_phidot.copy()
    e_inst, H, H_ym, eym, g11 = hamiltonian_split(TrajectoryState(t, r, phi, rdot, phidot), reference.params)
    return TrajectorySeries(
        params=reference.params,
        t=t,
        r=r,
        phi=phi,
        rdot=rdot,
        phidot=phidot,
        e_inst=e_inst,
        H=H,
        H_ym=H_ym,
        eym=eym,
        g11=g11,
    )

