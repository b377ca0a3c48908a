"""Trajectory dynamics on the jet space: geodesics, resonant zero-Yang-Mills
trajectories and the Jacobi-type deviation equations along them.  Every
trajectory carries its per-sample energies (instanton energy, renormalized
Hamiltonian, printed and exact Yang-Mills energies, g11), all from one pass,
``hamiltonian_split``.

Every ODE solve goes through ``_solve``, one Dormand-Prince 5(4) driver on
lists of Python floats that follows scipy's RK45 step for step (initial
step, error norm and step control, dense output, give-up) and counts its
own right-hand-side calls and accepted and rejected steps; at
JETLAG_LOG=debug it logs them, one line per solve.  The deviation
equations carry the resonant radius r0 as one more state component,
integrated by the same float right-hand side as the reference, so
``deviation_integrate`` reads only the reference's grid and first sample.

The geodesic system is dy/dt + 2G(t, x, y) = 0, dx/dt = y, integrated by
that driver with terminal events at the singular loci (g11 -> 0,
rdot -> 0, r -> 0).  G is the closed exact spray of a ``MonolayerModel``,
on floats; at p = 0 that model is the free polar particle, and the
rdot -> 0 event is off.  When the solver gives up
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

import bisect
import logging
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
    _bracket,
    _denominator,
    _exp_checked,
    _finite,
    _full_like,
    em_component_f21,
    potential_U,
    potential_U_drr,
    zero_energy_bracket,
)
from .points import JetPoint, check_coordinates, jet_point

log = logging.getLogger("jetlag")

#: at most this many samples of a run get the FD Euler-Lagrange residual
_EL_MAX_POINTS = 400
#: no ODE solve makes more right-hand-side calls: a step that would raises a JetLagError
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
    """Deviation components; on resonance delta_phi(t) = C1 + C2 (t - t0)
    with C1 = delta_phi(t0) and C2 = delta_phidot(t0)."""

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
        # written so that NaN fails every check
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError(f"integrator tolerances must be positive and finite, got rtol = {self.rtol}, atol = {self.atol}")
        if not self.max_step > 0.0:
            raise ValueError(f"max_step must be positive (inf means no limit), got {self.max_step}")


@dataclass
class TrajectorySeries:
    """Sampled trajectory plus per-sample diagnostics, the energies in
    ``hamiltonian_split``'s order; t strictly increasing."""

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
    source: str
    flags: list[str] = field(default_factory=list)

    def spline(self):
        """r0(t), piecewise linear between the samples and r0 itself at them."""
        return lambda s: np.interp(s, self.t, self.r0)

    def _resonance_residual(self, exponent, what: str) -> np.ndarray:
        """Relative residual of m r0dot^3 + 6 p |V| r0^5 e^exponent = 0, taken
        as |m r0dot^3 e^-exponent + 6 p |V| r0^5| over the larger term (the
        exponent is >= 0 on every span ``resonant_trajectory`` accepts, so
        e^-exponent cannot overflow); a DomainError names ``what`` where it is not finite."""
        p = self.params
        drive = 6.0 * p.p * p.V_abs * self.r0**5
        kinetic = p.m * self.r0dot**3 * np.exp(-exponent)
        out = np.abs(kinetic + drive) / np.maximum(np.abs(kinetic), drive)
        return _finite(out, f"{what}: |m r0dot^3 e^-X + 6 p |V| r0^5| over its larger term", t=self.t, r0=self.r0)

    def _large_time_exponent(self) -> np.ndarray:
        """X = 2 |V| t / (R0 - |V| t)."""
        V = self.params.V_abs
        return 2.0 * V * self.t / (self.params.R0 - V * self.t)

    @np.errstate(all="ignore")
    def residual_eq21(self) -> np.ndarray:
        """Relative residual of the r0-exponent resonance condition."""
        return self._resonance_residual(2.0 * self.params.V_abs * self.t / self.r0, "residual_eq21")

    @np.errstate(all="ignore")
    def residual_eq22(self) -> np.ndarray:
        """Relative residual of the large-time resonance condition."""
        return self._resonance_residual(self._large_time_exponent(), "residual_eq22")

    @np.errstate(all="ignore")
    def ym_bracket_residual(self) -> np.ndarray:
        """Relative residual of the time-reversed zero-Yang-Mills bracket,
        3 m r0 / 2 + m^2 e^(-X) rdot0^3 / (4 p |V| r0^4) with the large-time
        exponent X, over its first term; identically zero on resonance.  A
        DomainError names an m^2 that overflows or a residual that is not finite."""
        p = self.params
        bracket = _bracket(self._large_time_exponent(), self.r0, self.r0dot, p, "ym_bracket_residual")
        return _finite(np.abs(bracket) / (1.5 * p.m * self.r0), "ym_bracket_residual", t=self.t, r0=self.r0)


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
    An rdot = 0 sample raises a DomainError when p != 0.  On arrays, an H_YM
    or EYM that overflows is an inf or a NaN, without a warning; H_YM is
    +0.0 wherever phidot = 0.
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
    bracket = zero_energy_bracket(t, r, rdot, params)
    with np.errstate(all="ignore"):
        # exactly 0 at phidot = 0, also where the bracket's square overflows (0 * inf)
        if type(phidot) is np.ndarray:
            H_ym = phidot**2 * bracket**2 / (4.0 * m)
            H_ym[phidot == 0.0] = 0.0
        else:
            H_ym = _full_like(bracket, 0.0) if phidot == 0.0 else phidot**2 * bracket**2 / (4.0 * m)
        return kinetic - U_s, H, H_ym, em_component_f21(state, params) ** 2 / m, g11


# -- the ODE driver -------------------------------------------------------------
# Dormand-Prince 5(4) with the coefficients of scipy's RK45, as float literals:
# the stage nodes _C*, the stage rows _A*, the 5th-order weights _B, the error
# weights _E (5th minus 4th order, the last for the step's end derivative) and
# Shampine's dense output _P, for each power x .. x^4 the weights of the
# stages (Dormand & Prince 1980; Shampine, Math. Comp. 46, 1986).  The zero
# weights of the second stage are left out of the sums.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 0.8888888888888888
_A21 = 0.2
_A31, _A32 = 0.075, 0.225
_A41, _A42, _A43 = 0.9777777777777777, -3.7333333333333334, 3.5555555555555554
_A51, _A52, _A53, _A54 = 2.9525986892242035, -11.595793324188385, 9.822892851699436, -0.2908093278463649
_A61, _A62, _A63, _A64, _A65 = (
    2.8462752525252526, -10.757575757575758, 8.906422717743473, 0.2784090909090909, -0.2735313036020583,
)
_B1, _B3, _B4, _B5, _B6 = (
    0.09114583333333333, 0.44923629829290207, 0.6510416666666666, -0.322376179245283, 0.13095238095238096,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -0.0012326388888888888, 0.0042527702905061394, -0.03697916666666667, 0.05086379716981132,
    -0.0419047619047619, 0.025,
)
_P = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (-2.8535800653862835, 4.023133379230305, -3.7324019615885042, 2.5548038301849423,
     -1.3744241142186024, 1.3824689317781436),
    (3.0717434641059005, -6.249321565289, 10.068970589843675, -6.399112377351017,
     3.272657752246729, -3.764937863556287),
    (-1.1270175653862835, 2.675424484351598, -5.685526961588504, 3.5219323679207912,
     -1.7672812570757455, 2.382468931778144),
)  # the weights of stages 1, 3, 4, 5, 6 and 7
#: rtol is raised to 100 float spacings at 1.0, as scipy raises it
_RTOL_FLOOR = 2.220446049250313e-14
#: event roots are located to 4 float spacings at 1.0, absolute and relative
_EVENT_TOL = 8.881784197001252e-16
#: the debug line of each solve: what, RHS calls, accepted and rejected steps, outcome
_SOLVE_LOG = "%s: %d RHS calls, %d accepted and %d rejected steps, %s"
#: why a solve gave up, in scipy's words
_GIVE_UP = "Required step size is less than spacing between numbers."


class _Solution:
    """What ``_solve`` returns: the samples, the status (0 reached the end, 1 a
    terminal event fired, -1 gave up), the fired event's index and the
    driver's own counts."""

    __slots__ = ("t", "y", "status", "rhs_calls", "accepted", "rejected", "event")


def _rms(values, y, y_new, rtol, atol) -> float:
    """RMS of values_i / (atol + max(|y_i|, |y_new_i|) rtol), scipy's error norm."""
    acc = 0.0
    for v, a, b in zip(values, y, y_new):
        x = v / (atol + max(abs(b), abs(a)) * rtol)
        acc += x * x
    return math.sqrt(acc) / len(values) ** 0.5


def _ratio(a: float, b: float) -> float:
    """a / b, with numpy's inf or NaN where b = 0 instead of an exception."""
    if b:
        return a / b
    return math.copysign(math.inf, a) * math.copysign(1.0, b) if a and a == a else math.nan


def _dense_step(t_old, h, y_old, K) -> tuple:
    """(t_old, h, y_old, Q) of one accepted step, Q the components' quartic
    coefficients from the stage derivatives K that ``_dopri_step`` returns."""
    Q = [
        tuple(k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7 for p1, p3, p4, p5, p6, p7 in _P)
        for k1, k3, k4, k5, k6, k7 in zip(*K)
    ]
    return t_old, h, y_old, Q


def _dense_value(step, s: float) -> list:
    """The state at s on one step's quartic, y_old + h Q (x, x^2, x^3, x^4)."""
    t_old, h, y_old, Q = step
    x = (s - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return [yo + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4) for yo, (q1, q2, q3, q4) in zip(y_old, Q)]


def _brent(g, a: float, b: float, tol: float = _EVENT_TOL) -> float:
    """A root of g in [a, b] by Brent's method to |dx| <= tol (1 + |x|) / 2,
    step for step scipy's brentq; g(a) and g(b) must differ in sign."""
    xpre, xcur = a, b
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _ratio(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = g(xcur)
    raise JetLagError(f"event root search in [{a:.17g}, {b:.17g}] did not converge")


def _initial_step(rhs, t0: float, t1: float, y: list, f: list, rtol: float, atol: float, max_step: float) -> float:
    """scipy's first step size from (t0, y) with y'(t0) = f, one RHS call
    (Hairer, Norsett & Wanner, section II.4)."""
    zeros = [0.0] * len(y)
    d0 = _rms(y, y, zeros, rtol, atol)
    d1 = _rms(f, y, zeros, rtol, atol)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0)
    f1 = rhs(t0 + h0, [a + h0 * b for a, b in zip(y, f)])
    # h0 and max(d1, d2) can be 0: 0.01 d0 / d1 may underflow
    d2 = _ratio(_rms([b - a for a, b in zip(f, f1)], y, zeros, rtol, atol), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = _ratio(0.01, max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0, max_step)


def _dopri_step(rhs, t: float, y: list, f: list, h: float) -> tuple:
    """One Dormand-Prince step of size h from (t, y) with y'(t) = f, six RHS
    calls: the 5th-order state at t + h and the stage derivatives that carry
    a weight, stages 1 and 3 to 6 and the derivative at the new state."""
    k2 = rhs(t + _C2 * h, [a + (p * _A21) * h for a, p in zip(y, f)])
    k3 = rhs(t + _C3 * h, [a + (p * _A31 + q * _A32) * h for a, p, q in zip(y, f, k2)])
    k4 = rhs(t + _C4 * h, [a + (p * _A41 + q * _A42 + r * _A43) * h for a, p, q, r in zip(y, f, k2, k3)])
    k5 = rhs(t + _C5 * h, [
        a + (p * _A51 + q * _A52 + r * _A53 + s * _A54) * h for a, p, q, r, s in zip(y, f, k2, k3, k4)
    ])
    k6 = rhs(t + h, [
        a + (p * _A61 + q * _A62 + r * _A63 + s * _A64 + u * _A65) * h
        for a, p, q, r, s, u in zip(y, f, k2, k3, k4, k5)
    ])
    y_new = [a + h * (p * _B1 + r * _B3 + s * _B4 + u * _B5 + v * _B6) for a, p, r, s, u, v in zip(y, f, k3, k4, k5, k6)]
    return y_new, (f, k3, k4, k5, k6, rhs(t + h, y_new))


def _solve(what: str, rhs, t0: float, t1: float, y0, rtol: float, atol: float,
           max_step: float = math.inf, events=(), t_eval=None) -> _Solution:
    """Dormand-Prince 5(4) on dy/dt = rhs(t, y) from t0 to t1 > t0, on lists
    of Python floats, step for step scipy's RK45 (Hairer, Norsett & Wanner,
    Solving ODEs I, sections II.4-II.6): its initial step, RMS error norm,
    safety factor 0.9 and step factors 0.2 and 10, its give-up once the
    step falls below 10 float spacings of t, and its floor on rtol, which
    it logs as a warning when it applies.

    ``events`` are terminal: the first sign change of one over an accepted
    step ends the solve at its root on that step's dense output (Brent, to
    4 eps).  Without ``t_eval`` the samples are the accepted steps' ends,
    the root last; with it, the dense output at the t_eval points.  A step
    that would take the RHS calls past _MAX_RHS_CALLS raises a JetLagError
    naming the solve, the budget, the t reached and the span.
    """
    if not max_step > 0.0:
        raise ValueError(f"{what}: max_step must be positive, got {max_step}")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"{what}: rtol and atol must be positive and finite, got {rtol} and {atol}")
    y = [float(v) for v in y0]
    if not all(map(math.isfinite, y)):
        raise ValueError(f"{what}: the initial state must be finite, got {y}")
    if rtol < _RTOL_FLOOR:
        log.warning("%s: rtol = %g is below %g; raised to it", what, rtol, _RTOL_FLOOR)
        rtol = _RTOL_FLOOR
    t = t0
    f = rhs(t, y)
    calls = 2  # f, and the probe of the initial step
    h_abs = _initial_step(rhs, t, t1, y, f, rtol, atol, max_step)

    out = _Solution()
    out.event = None
    ts, ys = ([t], [y]) if t_eval is None else ([], [])
    i_eval = 0
    g = [ev(t, y) for ev in events]
    accepted = rejected = 0
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while not h_abs < min_step:  # as scipy tests it, so a NaN step goes on to the budget
            if calls + 6 > _MAX_RHS_CALLS:
                log.debug(_SOLVE_LOG, what, calls, accepted, rejected, "over budget")
                over = f"{what} over the span [{t0:.6g}, {t1:.6g}]"
                raise JetLagError(f"{over} used up its budget of {_MAX_RHS_CALLS} right-hand-side calls at t = {t:.6g}")
            t_new = t + h_abs
            if t_new - t1 > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, K = _dopri_step(rhs, t, y, f, h)
            calls += 6
            err = [(p * _E1 + r * _E3 + s * _E4 + u * _E5 + v * _E6 + w * _E7) * h for p, r, s, u, v, w in zip(*K)]
            error_norm = _rms(err, y, y_new, rtol, atol)
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.2)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            step_rejected = True
            rejected += 1
        else:
            status = -1
            break
        accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[-1]
        if t - t1 >= 0:
            status = 0
        step = None if t_eval is None else _dense_step(t_old, h, y_old, K)
        if events:
            g_new = [ev(t, y) for ev in events]
            active = [i for i, (a, b) in enumerate(zip(g, g_new)) if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
            if active:
                step = step or _dense_step(t_old, h, y_old, K)
                roots = [_brent(lambda s, ev=events[i]: ev(s, _dense_value(step, s)), t_old, t) for i in active]
                first = min(range(len(roots)), key=roots.__getitem__)
                out.event, t = active[first], roots[first]
                y = _dense_value(step, t)
                status = 1
            g = g_new
        if t_eval is None:
            if len(ts) == 1 or ts[-1] != t:  # an event root can fall on the last node
                ts.append(t)
                ys.append(y)
        else:
            i_next = bisect.bisect_right(t_eval, t, i_eval)
            for s in t_eval[i_eval:i_next]:
                ts.append(s)
                ys.append(_dense_value(step, s))
            i_eval = i_next

    out.t, out.y, out.status = ts, ys, status
    out.rhs_calls, out.accepted, out.rejected = calls, accepted, rejected
    log.debug(_SOLVE_LOG, what, calls, accepted, rejected, {0: "completed", 1: "event", -1: "gave up"}[status])
    return out


# -- geodesic integration -----------------------------------------------------


def _spray_of(model: MonolayerModel):
    """(t, r, phi, rdot, phidot) -> (G1, G2) on floats: the model's exact
    spray, the coordinates checked as a JetPoint checks them, and a power
    that overflows a DomainError naming the state."""

    def spray(t, r, phi, rdot, phidot):
        check_coordinates(t, r, phi, rdot, phidot)
        try:
            return model.spray(t, r, phi, rdot, phidot)
        except OverflowError:
            state = ", ".join(f"{v:.6g}" for v in (t, r, phi, rdot, phidot))
            raise DomainError(f"the spray G overflows at (t, r, phi, rdot, phidot) = ({state})") from None

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

    # the right-hand side and the events run on Python floats, the values a
    # JetPoint per call used to hold
    spray = _spray_of(model)
    needs_rdot = model.params.p != 0.0  # L contains rdot^-1
    r_floor = config.r_min / 10.0

    def rhs(t, u):
        r, phi, rdot, phidot = _safe_state(u, r_floor, needs_rdot)
        G1, G2 = spray(t, r, phi, rdot, phidot)
        return [rdot, phidot, -2.0 * G1, -2.0 * G2]

    def ev_g11(t, u):
        state = (t, *_safe_state(u, r_floor, needs_rdot))
        check_coordinates(*state)
        return model.metric_g11(*state)

    # (kind, g) pairs; on a tie between roots the first listed wins
    events = [("r_collapse", lambda t, u: u[0] - config.r_min)]
    if needs_rdot:
        events.append(("rdot_zero", lambda t, u: u[2]))
    events.append(("metric_singular", ev_g11))

    u0 = [config.state0.r, config.state0.phi, config.state0.rdot, config.state0.phidot]
    sol = _solve(
        "geodesic integration", rhs, float(config.state0.t), float(config.t_end), u0, config.rtol, config.atol,
        max_step=config.max_step, events=[g for _, g in events],
    )

    t = np.array(sol.t)
    r, phi, rdot, phidot = np.array(sol.y).T

    recorded = []
    status = "completed"
    if sol.status == 1:  # a terminal event fired; its root is the last sample
        kind, t_event = events[sol.event][0], sol.t[-1]
        below = t[t < t_event]
        t_lo = below[-1] if len(below) else t[0]
        recorded.append(SingularEvent(kind, float(t_lo), t_event, t_event))
        status = f"event:{kind}"
    elif sol.status < 0:
        collapse = _finite_time_collapse(spray, sol.t[-1], sol.y[-1])
        if collapse is None:
            status = f"failed:{_GIVE_UP}"
        else:
            recorded.append(collapse)
            status = f"event:{collapse.kind}"

    energies = hamiltonian_split(TrajectoryState(t, r, phi, rdot, phidot), config.params)

    el = None
    if config.compute_el_residual and len(t) >= 3:
        stride = max(1, int(math.ceil(len(t) / _EL_MAX_POINTS)))
        el = np.full(len(t), np.nan)
        for i in range(0, len(t), stride):
            node = (sol.t[i], *sol.y[i])
            try:
                G1, G2 = spray(*node)
                ev = GeometryEvaluator(model, jet_point(*node))
                el[i] = ev.euler_lagrange_residual([-2.0 * G1, -2.0 * G2])
            except (ValueError, DomainError):
                el[i] = np.nan

    return TrajectorySeries(
        config.params, t, r, phi, rdot, phidot, *energies, el_residual=el, events=recorded, status=status
    )


# -- resonant trajectory -------------------------------------------------------


def default_span(params: MonolayerParams) -> tuple[float, float]:
    """The resonant span when none is given: [0, 0.8 R0/|V|]."""
    return 0.0, 0.8 * (params.R0 / params.V_abs)


def resonant_rhs(t, r0, params: MonolayerParams):
    """rdot0 = -(6 p |V| / m)^(1/3) r0^(5/3) e^(2|V|t / (3(R0 - |V|t))).

    On floats and :mod:`math`, for the solver, the r0dot pass over the
    sample grid and the radial deviation solve alike, with numpy's answers
    where math would raise: NaN for r0 < 0 and inf for an overflowing power
    or exponential.  numpy's SIMD exp and pow would round differently on
    different CPUs.
    """
    c = (6.0 * params.p * params.V_abs / params.m) ** (1.0 / 3.0)
    exponent = 2.0 * params.V_abs * t / (3.0 * (params.R0 - params.V_abs * t))
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


@np.errstate(all="ignore")
def _closed_form(t, params: MonolayerParams):
    """(r0, dr0/dt) of the printed large-time solution, with the unhoused
    symbol v read as |V| (confirmed algebraically and by the ODE oracle); a
    DomainError where either is not finite.

    r0 = 27 sqrt(m) R0 |V| e^g B^(-3/2) with g = -|V|t/w, w = R0 - |V|t and
    B = -4 c R0^(5/3) e^(-a) (f(2/3) - f(a)) + e^(2/3 - a) K - 6 c R0^(2/3) w,
    a = 2 R0 / (3w), c = (6p)^(1/3).  With df(a)/da = e^a / a, da/dt =
    2 R0 |V| / (3 w^2) and dg/dt = -R0 |V| / w^2 the rate is analytic:
    dr0/dt = r0 (dg/dt - 3/2 dB/dt / B).
    """
    t = np.asarray(t, dtype=float)
    m, p, V, R0 = params.m, params.p, params.V_abs, params.R0
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
    r0dot = r0 * (-R0 * V / om**2 - 1.5 * B_dot / B)
    return _finite(r0, "the closed-form resonant r0", t=t), _finite(r0dot, "the closed-form dr0/dt", t=t, r0=r0)


def resonant_trajectory(
    params: MonolayerParams,
    t_span=None,
    source: str = "ode",
    n_samples: int = 400,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> ResonantTrajectory:
    """Resonant r0(t) over t_span (default ``default_span``).

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
    R0, V = params.R0, params.V_abs
    horizon = R0 / V
    t0, t1 = map(float, default_span(params) if t_span is None else t_span)
    if not 0.0 <= t0 < t1:
        raise ValueError("need 0 <= t_start < t_end")
    if t1 >= horizon:
        raise ValueError(f"t_end = {t1} reaches R0/|V| = {horizon}: the resonance exponent blows up")

    grid = np.linspace(t0, t1, n_samples)
    flags: list[str] = []
    if source == "ode":
        seed = R0 * (1.0 - t0 * V / R0)
        sol = _solve(
            "resonant integration", lambda t, r: [resonant_rhs(t, r[0], params)],
            t0, t1, [seed], rtol, atol, t_eval=grid.tolist(),
        )
        if sol.status != 0:
            raise JetLagError(f"resonant integration failed: {_GIVE_UP}")
        r0 = np.array([r for r, in sol.y])
        r0dot = np.array([resonant_rhs(t, r, params) for t, (r,) in zip(sol.t, sol.y)])
    elif source == "closed_form":
        r0, r0dot = _closed_form(grid, params)
    else:
        raise ValueError(f"unknown resonant source {source!r}")

    if np.any(r0 <= 0.0):
        flags.append("r0 reached zero inside the span")
    if np.any(r0dot >= 0.0):
        flags.append("rdot0 >= 0 somewhere: resonance sign analysis violated")
    return ResonantTrajectory(t=grid, r0=r0, r0dot=r0dot, params=params, source=source, flags=flags)


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
    d2U/dr2 would carry an extra (L/T)^2.  r0 rides along as a fifth state
    component with rdot0 = ``resonant_rhs``, the rate an ODE reference is
    solved with, from the reference's first sample; nothing else of the
    reference but its grid is read.  On resonant references the delta_phi
    friction coefficient is identically reduced to zero (the
    resonance-condition substitution), so delta_phi = C1 + C2 (t - t0).
    Every coefficient reads ``reference.params``; ``params`` must equal them,
    or a ValueError names both.
    """
    if params != reference.params:
        raise ValueError(f"deviation_integrate: params {params} differ from the reference's {reference.params}")
    params = reference.params
    grid = reference.t.tolist()
    w0 = [init.delta_r, init.delta_rdot, init.delta_phi, init.delta_phidot]

    # delta_r = delta_rdot = 0 is an exact solution of its (decoupled,
    # homogeneous) equation, so the radial block and r0 are left out then;
    # this also keeps collapsed references (r0 -> 0, exploding e^(2|V|t/r0)
    # coefficients) usable for the purely angular deviation scenario
    if init.delta_r == 0.0 and init.delta_rdot == 0.0:

        def rhs(t, w):
            return [w[1], 0.0, w[3], 0.0]

    else:
        m, p, V = params.m, params.p, params.V_abs
        w0.append(reference.r0[0])

        def rhs(t, w):
            dr, drd, _, dphid, r0 = w
            rd0 = resonant_rhs(t, r0, params)
            try:
                expE0 = math.exp(2.0 * V * t / r0)
                A = 2.0 * p * V * r0**5 * expE0 - m * rd0**3
                B = p * V * r0**3 * expE0 * (2.0 * t * V - 5.0 * r0) * rd0
                C = rd0**3 * potential_U_drr(t, r0, params)
            except OverflowError:
                raise DomainError(f"deviation_integrate: A, B or C overflows at t = {t:.6g}, r0 = {r0:.6g}") from None
            if A == 0.0:
                raise DomainError(f"deviation_integrate: A = 2 p |V| r0^5 e^E0 - m rdot0^3 is 0 at t = {t:.6g}, r0 = {r0:.6g}")
            return [drd, -(B * drd + C * dr) / A, dphid, 0.0, rd0]

    sol = _solve("deviation integration", rhs, grid[0], grid[-1], w0, rtol, atol, t_eval=grid)
    if sol.status != 0:
        raise JetLagError(f"deviation integration failed: {_GIVE_UP}")
    return DeviationSeries(np.array(sol.t), *np.array(sol.y).T[:4], c1=init.delta_phi, c2=init.delta_phidot)


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
    if not np.array_equal(dev.t, t):
        raise ValueError("deviations are not sampled on the reference grid")
    r = reference.r0 + dev.delta_r
    rdot = reference.r0dot + dev.delta_rdot
    phi = dev.delta_phi.copy()
    phidot = dev.delta_phidot.copy()
    energies = hamiltonian_split(TrajectoryState(t, r, phi, rdot, phidot), reference.params)
    return TrajectorySeries(reference.params, t, r, phi, rdot, phidot, *energies)

