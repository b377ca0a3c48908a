"""Geodesics, resonance, deviations, events and the Hamiltonian split."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.special import expi

from jetlag import dynamics
from jetlag.cli import DEFAULTS
from jetlag.dynamics import (
    _COLLAPSE_SPACINGS,
    _EL_MAX_POINTS,
    DeviationSeries,
    DeviationState,
    SimConfig,
    TrajectoryState,
    _closed_form,
    _finite_time_collapse,
    _spray_of,
    compose_perturbed,
    deviation_integrate,
    hamiltonian_split,
    integrate_geodesic,
    resonant_trajectory,
)
from jetlag.errors import DomainError
from jetlag.geometry import GeometryEvaluator
from jetlag.monolayer import (
    MonolayerModel,
    MonolayerParams,
    _denominator,
    em_component_f21,
    potential_U,
    zero_energy_bracket,
)
from jetlag.points import jet_point
from oracles import PolynomialModel, hamiltonian_displays
from test_monolayer import mp_U

FP = MonolayerModel(MonolayerParams(m=1.0, p=0.0))
FREE = MonolayerParams(m=1.0, p=0.0, V_abs=1000.0)
_DEFAULT_START = TrajectoryState(0.0, 0.5, 0.0, -1.0, 0.1)
_COLLAPSING_START = TrajectoryState(0.0, 0.2, 0.0, -5.0, 0.0)


class _ScaledSprayModel(MonolayerModel):
    """The monolayer with G^1 scaled by 1 + 1e-6: the EL check must reject it."""

    def spray(self, t, r, phi, rdot, phidot):
        G1, G2 = super().spray(t, r, phi, rdot, phidot)
        return G1 * (1.0 + 1e-6), G2


def _checked_el(ser) -> np.ndarray:
    """The EL residual at every checked sample; none of them reads NaN."""
    el = ser.el_residual[:: math.ceil(len(ser.t) / _EL_MAX_POINTS)]
    assert np.isfinite(el).all()
    return el


class TestIntegrateGeodesic:
    def test_radial_straight_line(self):
        cfg = SimConfig(params=FREE, state0=TrajectoryState(0.0, 1.0, 0.0, 1.0, 0.0), t_end=1.0)
        ser = integrate_geodesic(cfg, FP)
        assert ser.status == "completed"
        assert np.max(np.abs(ser.r - (1.0 + ser.t))) < 1e-8
        assert np.max(np.abs(ser.phi)) < 1e-12

    def test_angular_momentum_conserved(self):
        cfg = SimConfig(params=FREE, state0=TrajectoryState(0.0, 1.0, 0.0, 0.0, 1.0), t_end=1.0)
        ser = integrate_geodesic(cfg, FP)
        am = ser.r**2 * ser.phidot
        assert np.max(np.abs(am - am[0])) < 1e-8

    def test_monolayer_el_residual(self, params5, model5):
        cfg = SimConfig(
            params=params5,
            state0=TrajectoryState(0.0, 0.5, 0.0, -1.0, 0.1),
            t_end=2e-3,
            rtol=1e-10,
            atol=1e-12,
        )
        ser = integrate_geodesic(cfg, model5)
        assert np.all(np.diff(ser.t) > 0)
        assert np.nanmax(ser.el_residual) < 1e-5
        assert np.all(np.isfinite(ser.e_inst))
        assert np.all(np.isfinite(ser.H))

    def test_invalid_initial_state(self, params5, model5):
        cfg = SimConfig(
            params=params5, state0=TrajectoryState(0.0, 0.5, 0.0, 0.0, 0.1), t_end=1e-3
        )
        # construct with rdot=0: SimConfig itself is fine, the integrator guards
        with pytest.raises(DomainError):
            integrate_geodesic(cfg, model5)

    def test_params_must_be_the_models(self):
        # the energies read config.params, the spray and the events the model's
        cfg = SimConfig(params=MonolayerParams(p=10.0), state0=_DEFAULT_START, t_end=1e-4)
        with pytest.raises(ValueError, match=r"config params MonolayerParams\(m=1\.0, p=10\.0.* the model's "
                                             r"MonolayerParams\(m=1\.0, p=1\.0"):
            integrate_geodesic(cfg, MonolayerModel(MonolayerParams(p=1.0)))

    def test_tolerance_scaling(self):
        # a curved free-polar run against its exact Cartesian straight line
        # x = 1 - 0.2 t, y = 0.9 t: a 1000x tolerance tightening must cut the
        # integration error by well over 10x
        state0 = TrajectoryState(0.0, 1.0, 0.0, -0.2, 0.9)
        err = {}
        for rtol in (1e-3, 1e-6):
            cfg = SimConfig(params=FREE, state0=state0, t_end=1.0, rtol=rtol, atol=rtol,
                            compute_el_residual=False)
            ser = integrate_geodesic(cfg, FP)
            x, y = 1.0 - 0.2 * ser.t, 0.9 * ser.t
            err[rtol] = max(np.max(np.abs(ser.r - np.hypot(x, y))), np.max(np.abs(ser.phi - np.arctan2(y, x))))
        assert err[1e-6] < err[1e-3] / 10.0

    def test_el_residual_on_collapsing_run(self, params5, model5):
        # a default-sweep start that ends in finite_time_collapse: at the
        # solver's nodes the residual checks the spray it integrated
        ser = integrate_geodesic(SimConfig(params5, _COLLAPSING_START, 2e-3), model5)
        assert ser.status == "event:finite_time_collapse"
        assert _checked_el(ser).max() < 1e-7

    @pytest.mark.parametrize("state0", [_DEFAULT_START, _COLLAPSING_START], ids=["default", "collapsing"])
    def test_el_residual_rejects_a_perturbed_spray(self, params5, state0):
        # G^1 scaled by 1 + 1e-6 must fire at every checked sample
        ser = integrate_geodesic(SimConfig(params5, state0, 2e-3), _ScaledSprayModel(params5))
        assert _checked_el(ser).min() >= 5e-7

    def test_event_stops_near_collapse(self, params5, model5):
        cfg = SimConfig(
            params=params5,
            state0=TrajectoryState(0.0, 0.3, 0.0, -4.0, 0.0),
            t_end=1.0,
            r_min=0.05,
            compute_el_residual=False,
        )
        ser = integrate_geodesic(cfg, model5)
        assert ser.status == "event:r_collapse"
        assert ser.events and ser.events[0].kind == "r_collapse"
        assert ser.r[-1] == pytest.approx(0.05, abs=1e-3)
        assert ser.events[0].t_lo <= ser.events[0].t_event <= ser.events[0].t_hi

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_finite_time_collapse_named(self, tol):
        # a default-sweep start: rdot blows up before r reaches r_min and the
        # solver's step size falls below the spacing of t, whatever its
        # tolerances
        params = MonolayerParams()
        cfg = SimConfig(
            params=params,
            state0=TrajectoryState(0.0, 0.2, 0.0, -5.0, 0.0),
            t_end=2e-3,
            rtol=tol,
            atol=tol,
            compute_el_residual=False,
        )
        ser = integrate_geodesic(cfg, MonolayerModel(params))
        assert ser.status == "event:finite_time_collapse"
        (ev,) = ser.events
        assert ev.kind == "finite_time_collapse"
        assert ev.t_lo <= ev.t_event <= ev.t_hi
        assert ev.t_hi - ev.t_lo <= _COLLAPSE_SPACINGS * math.ulp(ev.t_lo)
        assert ev.t_lo == ser.t[-1] and ser.r[-1] > cfg.r_min
        for col in (ser.r, ser.rdot, ser.e_inst, ser.H, ser.g11):
            assert np.all(np.isfinite(col))

    def test_finite_time_collapse_needs_inward_motion_near_the_blow_up(self, model5):
        # from a collapse state at t ~ 1.29e-3: moving outward, or inward but
        # with r/|rdot| = 1e-3 t left, the give-up is not a collapse
        spray = _spray_of(model5)
        t, r = 1.2947835e-3, 0.036
        slow = -r / (1e-3 * t)
        assert spray(t, r, 0.0, slow, 0.0)[0] > 0.0  # still accelerating inward
        assert _finite_time_collapse(spray, t, (r, 0.0, -slow, 0.0)) is None
        assert _finite_time_collapse(spray, t, (r, 0.0, slow, 0.0)) is None
        assert _finite_time_collapse(spray, t, (r, 0.0, -r / (1e3 * math.ulp(t)), 0.0)) is not None


def _e_inst(state: TrajectoryState, params: MonolayerParams):
    """E_inst = (m/2) rdot^2 + (m r^2/2) phidot^2 - U_s with
    U_s = U - p r^5 |V| e^E / rdot, written out per call."""
    t, r, rdot = state.t, state.r, state.rdot
    kinetic = 0.5 * params.m * (rdot**2 + r**2 * state.phidot**2)
    U_s = potential_U(t, r, params)
    if params.p != 0.0:
        U_s = U_s - params.p * r**5 * params.V_abs * np.exp(2.0 * params.V_abs * t / r) / rdot
    return kinetic - U_s


class TestInstanton:
    """The E_inst column of the per-sample energies, at one sample."""

    @staticmethod
    def _column(params, *state):
        return hamiltonian_split(TrajectoryState(*state), params)[0]

    def test_kinetic_limit_nonnegative(self):
        assert self._column(FREE, 0.0, 1.0, 0.0, 0.7, -0.3) >= 0.0

    def test_substitution_value(self, params5):
        want = 0.5 - 10000.0 + 40.0 / 3.0
        assert self._column(params5, 0.0, 1.0, 0.0, -1.0, 0.0) == pytest.approx(want, rel=1e-12)

    def test_rdot_zero_raises(self, params5):
        with pytest.raises(DomainError):
            self._column(params5, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestHamiltonianSplit:
    def test_phidot_zero_kills_hym(self, params5):
        _, _, H_ym, _, _ = hamiltonian_split(TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.0), params5)
        assert H_ym == 0.0

    def test_phidot_zero_kills_hym_where_the_bracket_square_overflows(self):
        # p = 1e-300 leaves the bracket ~ 1/p, so phidot^2 bracket^2 is 0 * inf
        params = MonolayerParams(m=1.0, p=1e-300, V_abs=1000.0)
        for phidot in (0.0, -0.0):
            H_ym = hamiltonian_split(TrajectoryState(1e-3, 0.5, 0.0, -1.0, phidot), params)[2]
            assert H_ym == 0.0 and math.copysign(1.0, H_ym) == 1.0 and type(H_ym) is float
        phidot = np.array([0.0, 0.1, -0.0])
        with np.errstate(all="raise"):
            H_ym = hamiltonian_split(TrajectoryState(np.full(3, 1e-3), np.full(3, 0.5), np.zeros(3),
                                                     np.full(3, -1.0), phidot), params)[2]
        assert H_ym[0] == H_ym[2] == 0.0 and not np.signbit(H_ym[[0, 2]]).any()
        assert H_ym[1] == math.inf
        # at phidot != 0 a float state reads the same inf, where bracket ** 2 would raise an OverflowError
        H_ym = hamiltonian_split(TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.1), params)[2]
        assert H_ym == math.inf and type(H_ym) is float

    @pytest.mark.parametrize(
        "state",
        [
            TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.2),
            TrajectoryState(5e-3, 0.9, 0.3, -3.0, -0.8),
            TrajectoryState(1e-4, 0.2, 0.0, -0.3, 0.9),
        ],
    )
    def test_identities(self, params5, state):
        _, H, H_ym, _, _ = hamiltonian_split(state, params5)
        dL, L0 = hamiltonian_displays(state, params5, H_ym)
        scale = max(1.0, abs(H), abs(H_ym), abs(dL))
        assert abs(dL + (H - H_ym)) < 1e-10 * scale
        g11 = 0.5 * _denominator(state.t, state.r, state.rdot, params5)
        g22 = 0.5 * params5.m * state.r**2
        assert abs(L0 - (g22 * state.phidot**2 + g11 * state.rdot**2 - H_ym)) < 1e-10 * scale

    def test_h_equals_minus_u(self, params5):
        st = TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.2)
        H = hamiltonian_split(st, params5)[1]
        assert H == -potential_U(st.t, st.r, params5)
        assert math.copysign(1.0, hamiltonian_split(st, FREE)[1]) == 1.0  # +0.0 at p = 0

    @pytest.mark.parametrize("state", [
        TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.1),
        TrajectoryState(5e-3, 0.5, 0.0, -0.01, 0.1),
        TrajectoryState(1e-4, 0.2, 0.0, -0.3, 0.9),
        TrajectoryState(5e-3, 0.9, 0.3, -3.0, -0.8),
    ])
    def test_h_against_40_digit_u(self, params5, state):
        # g11 rdot^2 + g22 phidot^2 - L cancels the p r^5 |V| e^E / rdot terms and
        # read up to 1.7e-12 off here; -U alone reads at most 1.3e-13 off
        with mpmath.workdps(40):
            U = mp_U(mpmath.mpf(state.t), mpmath.mpf(state.r), params5.p, params5.V_abs)
            err = float(abs((hamiltonian_split(state, params5)[1] + U) / U))
        assert err < 2e-13

    def test_model_value_is_k_plus_u_s_on_the_default_sweep(self, params5):
        # the two copies of L: MonolayerModel.value and hamiltonian_split's
        # K + U_s = 2K - E_inst, on the 25 start states of the default sweep
        # and on every sample of their runs, where E reaches 20 and both read
        # Ei.  L cancels between its terms, so the bound scales with the
        # largest term, not with |L|
        sweep = DEFAULTS["sweep"]
        model = MonolayerModel(params5)
        checked = 0
        for r0 in np.linspace(*sweep["r"]):
            for rd0 in np.linspace(*sweep["rdot"]):
                start = TrajectoryState(0.0, float(r0), 0.0, float(rd0), sweep["phidot_values"][0])
                ser = integrate_geodesic(SimConfig(params5, start, sweep["t_end"], compute_el_residual=False), model)
                assert (ser.t[0], ser.r[0], ser.rdot[0]) == (start.t, start.r, start.rdot)
                value = np.array([model.value(*s) for s in zip(ser.t, ser.r, ser.phi, ser.rdot, ser.phidot)])
                kinetic = 0.5 * params5.m * (ser.rdot**2 + ser.r**2 * ser.phidot**2)
                energy = _term_scales(params5, ser.t, ser.r, ser.rdot, ser.phidot)[0]
                assert np.all(np.abs(value - (2.0 * kinetic - ser.e_inst)) <= 1e-14 * energy)
                checked += len(ser.t)
        assert checked > 25 * 10

    def test_p_zero_everything_vanishes(self):
        st = TrajectoryState(0.0, 1.0, 0.0, 1.0, 0.5)
        _, H, H_ym, _, _ = hamiltonian_split(st, FREE)
        dL, L0 = hamiltonian_displays(st, FREE, H_ym)
        assert H == 0.0 and H_ym == 0.0 and dL == 0.0
        assert L0 == pytest.approx(0.5 * (1.0 + 0.25), rel=1e-14)


def _scalar_diagnostics(params, t, r, phi, rdot, phidot):
    """The per-sample reference: every energy from scalar calls."""
    rows = []
    for sample in zip(t, r, phi, rdot, phidot):
        s = TrajectoryState(*(float(v) for v in sample))
        _, H, H_ym, _, _ = hamiltonian_split(s, params)
        e_inst = _e_inst(s, params)
        g11 = 0.5 * _denominator(s.t, s.r, s.rdot, params)
        f21 = 0.0 if params.p == 0.0 else em_component_f21(s.point(), params, form="exact")
        rows.append((e_inst, H, H_ym, f21**2 / params.m, g11))
    return [np.array(col) for col in zip(*rows)]


def _term_scales(params, t, r, rdot, phidot):
    """Per sample, the largest term entering E_inst/H, H_YM, EYM and g11."""
    m, p, V = params.m, params.p, params.V_abs
    w, E = V * t, 2.0 * V * t / r
    stiff = p * r**5 * V * np.exp(E)
    poly = (-4 / 3 * r**5 + 16 / 15 * w * r**4 + w**2 * r**3 / 30 + w**3 * r**2 / 45
            + w**4 * r / 45 + 2 / 45 * w**5)
    f_term = 4 / 45 * w**6 / r * np.abs(expi(np.where(w == 0.0, 1.0, E)))
    energy = np.max([0.5 * m * rdot**2, 0.5 * m * r**2 * phidot**2, np.abs(stiff / rdot),
                     p * np.abs(poly) * np.exp(E), p * f_term], axis=0)
    bracket = 1.5 * m * r + np.abs(m**2 * np.exp(-E) * rdot**3) / (4.0 * p * V * r**4) if p else 0 * r
    denom = 2.0 * stiff - m * rdot**3
    f21 = 1.5 * m * stiff * r * phidot / denom
    eym = 2.0 * f21**2 / m * np.maximum(2.0 * stiff, np.abs(m * rdot**3)) / np.abs(denom)
    return energy, phidot**2 * bracket**2 / (4.0 * m), eym, np.maximum(0.5 * m, np.abs(stiff / rdot**3))


samples = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-5, 2e-3)),
        st.floats(0.1, 1.0),
        st.floats(-3.0, 3.0),
        st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 5.0)),
        st.floats(-1.0, 1.0),
    ),
    min_size=1,
    max_size=12,
)


class TestArrayDiagnostics:
    """hamiltonian_split takes one array pass per series; it must match the
    per-sample scalar calls and raise as they do."""

    # without the explain phase: on a failure it reruns the test for minutes
    @settings(max_examples=60, deadline=None, phases=[Phase.reuse, Phase.generate, Phase.shrink])
    @given(samples, st.sampled_from([0.0, 10.0]))
    def test_matches_scalar_calls(self, rows, p):
        params = MonolayerParams(m=1.0, p=p, V_abs=1000.0)
        t, r, phi, rdot, phidot = (np.array(col) for col in zip(*rows))
        got = hamiltonian_split(TrajectoryState(t, r, phi, rdot, phidot), params)
        want = _scalar_diagnostics(params, t, r, phi, rdot, phidot)
        energy, hym, eym, g11 = _term_scales(params, t, r, rdot, phidot)
        for g, w, scale in zip(got, want, (energy, energy, hym, eym, g11)):
            assert g.shape == t.shape
            assert np.all(np.abs(g - w) <= 1e-12 * scale)
        if p == 0.0:
            assert np.all(got[2] == 0.0) and np.all(got[3] == 0.0)
            assert np.all(got[4] == 0.5 * params.m)

    def test_one_potential_pass_per_series(self, params5, monkeypatch):
        import jetlag.dynamics
        import jetlag.monolayer

        calls = []

        def counted(*args):
            calls.append(args)
            return potential_U(*args)

        monkeypatch.setattr(jetlag.monolayer, "potential_U", counted)
        monkeypatch.setattr(jetlag.dynamics, "potential_U", counted)
        t, r = np.linspace(0.0, 1e-3, 7), np.linspace(0.5, 0.4, 7)
        phi, rdot, phidot = np.zeros(7), np.full(7, -1.0), np.full(7, 0.2)
        s = TrajectoryState(t, r, phi, rdot, phidot)
        e_inst, H, H_ym, eym, g11 = hamiltonian_split(s, params5)
        assert len(calls) == 1
        monkeypatch.undo()
        assert np.array_equal(e_inst, _e_inst(s, params5))
        assert np.array_equal(H_ym, phidot**2 * zero_energy_bracket(t, r, rdot, params5) ** 2 / (4.0 * params5.m))
        assert np.array_equal(eym, em_component_f21(s, params5) ** 2 / params5.m)
        assert np.array_equal(g11, 0.5 * _denominator(t, r, rdot, params5))
        assert np.allclose(H, -potential_U(t, r, params5), rtol=1e-11, atol=0.0)

    @staticmethod
    def _raised(fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 -- the class is the result
            return type(exc)
        return None

    @pytest.mark.parametrize(
        "column, value",
        [
            ("r", 0.0),
            ("r", -0.2),
            ("rdot", 0.0),
            ("t", math.nan),
            ("r", math.nan),
            ("phi", math.nan),
            ("rdot", math.nan),
            ("phidot", math.inf),
        ],
    )
    def test_bad_sample_raises_like_scalar_call(self, params5, column, value):
        cols = {
            "t": np.linspace(0.0, 1e-3, 5),
            "r": np.linspace(0.5, 0.4, 5),
            "phi": np.zeros(5),
            "rdot": np.full(5, -1.0),
            "phidot": np.full(5, 0.2),
        }
        cols[column][2] = value
        args = [cols[k] for k in ("t", "r", "phi", "rdot", "phidot")]
        want = self._raised(lambda: _scalar_diagnostics(params5, *args))
        assert want is not None
        assert self._raised(lambda: hamiltonian_split(TrajectoryState(*args), params5)) is want

    def test_zero_em_denominator(self):
        # 2 p r^5 |V| e^E = m rdot^3 exactly: t = 0, r = 1, p = 4, rdot = 2
        params = MonolayerParams(m=1.0, p=4.0, V_abs=1.0)
        one = [0.0], [1.0], [0.0], [2.0], [0.3]
        args = [np.array(c * 3) for c in one]
        with pytest.raises(DomainError):
            em_component_f21(TrajectoryState(*(c[0] for c in one)), params)
        with pytest.raises(DomainError):
            hamiltonian_split(TrajectoryState(*args), params)

    def test_overflow_raises_domain_error_naming_the_function(self, params5):
        # E = 2|V|t/r = 2000: e^E is past the float range (U itself reads inf - inf)
        bad = (0.5, 0.5, 0.0, -1.0, 0.1)
        good = (1e-3, 0.5, 0.0, -1.0, 0.1)
        arrays = TrajectoryState(*(np.array(pair) for pair in zip(good, bad)))
        for s in (TrajectoryState(*bad), arrays):
            with np.errstate(invalid="ignore"):
                with pytest.raises(DomainError, match="hamiltonian_split.*E = 2"):
                    hamiltonian_split(s, params5)
            with pytest.raises(DomainError, match="em_component_f21.*E = 2"):
                em_component_f21(s, params5)

    def test_scalar_calls_return_float(self, params5):
        s = TrajectoryState(1e-3, 0.5, 0.0, -1.0, 0.2)
        values = [
            *hamiltonian_split(s, params5),
            *hamiltonian_split(s, FREE),
            _denominator(s.t, s.r, s.rdot, params5),
            _denominator(s.t, s.r, s.rdot, FREE),
            potential_U(s.t, s.r, params5),
            potential_U(0.0, s.r, params5),
            potential_U(s.t, s.r, FREE),
            zero_energy_bracket(s.t, s.r, s.rdot, params5),
            em_component_f21(s.point(), params5),
        ]
        assert all(type(v) is float for v in values)


class TestResonantTrajectory:
    def test_eq22_residual_by_construction(self, params5):
        traj = resonant_trajectory(params5, source="ode")
        assert np.max(traj.residual_eq22()) < 1e-12

    def test_rdot_negative_throughout(self, params5):
        traj = resonant_trajectory(params5, source="ode")
        assert np.all(traj.r0dot < 0.0)
        assert not traj.flags

    def test_ym_bracket_residual(self, params5):
        traj = resonant_trajectory(params5, source="ode")
        assert np.max(traj.ym_bracket_residual()) < 1e-12

    def test_closed_form_agrees_with_ode(self, params5):
        span = (0.0, 8e-4)
        ode = resonant_trajectory(params5, t_span=span, source="ode", n_samples=200)
        closed_on_grid = _closed_form(ode.t, params5)[0]
        assert np.max(np.abs(closed_on_grid - ode.r0) / ode.r0) < 1e-9
        # the printed solution's own residual in the large-time equation is
        # reported, not asserted tiny (it contains an FD-differentiated rdot)
        closed = resonant_trajectory(params5, t_span=span, source="closed_form", n_samples=200)
        assert np.all(np.isfinite(closed.residual_eq22()))
        # its rdot0 is the analytic derivative, so the residual is rounding
        assert np.max(closed.residual_eq22()) < 1e-10

    def test_horizon_guard(self, params5):
        with pytest.raises(ValueError):
            resonant_trajectory(params5, t_span=(0.0, 1.1e-3), source="ode")

    def test_needs_r0(self):
        with pytest.raises(ValueError):
            resonant_trajectory(MonolayerParams(R0=None), source="ode")

    def test_eq21_residual_grows_with_t(self, params5):
        # the r0-exponent form is the small-t limit: its residual must be a
        # diagnostic, tiny at t=0 and O(1) near the horizon
        traj = resonant_trajectory(params5, source="ode")
        res = traj.residual_eq21()
        assert res[0] < 1e-10
        assert res[-1] > 0.1


class TestDeviation:
    def test_on_resonance_affine(self, params5):
        ref = resonant_trajectory(params5, source="ode")
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 1.0), params5)
        assert np.max(np.abs(dev.delta_phi - (dev.c1 + dev.c2 * dev.t))) < 1e-12

    def test_c1_zero_c2_one_at_t_two(self):
        # delta_phi(2) = 2 needs a horizon past t = 2: R0 = 2500 gives 2.5
        params = MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=2500.0)
        # 221 samples over (0, 2.2) put a grid node at t = 2
        ref = resonant_trajectory(params, t_span=(0.0, 2.2), source="ode",
                                  n_samples=221, rtol=1e-10, atol=1e-12)
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 1.0), params)
        i = np.searchsorted(dev.t, 2.0)
        assert dev.t[i] == pytest.approx(2.0, abs=1e-12)
        assert dev.delta_phi[i] == pytest.approx(2.0, abs=1e-8)

    def test_null_solution_stays_zero(self, params5):
        ref = resonant_trajectory(params5, source="ode")
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 0.0), params5)
        assert np.max(np.abs(dev.delta_r)) == 0.0
        assert np.max(np.abs(dev.delta_phi)) == 0.0

    def test_params_must_be_the_references(self, params5):
        # rdot0 and the coefficients A, B, C come from one model, the reference's
        ref = resonant_trajectory(params5, source="ode")
        other = MonolayerParams(m=2.0, p=10.0, V_abs=1000.0, R0=1.0)
        with pytest.raises(ValueError, match=r"params MonolayerParams\(m=2\.0.* reference's MonolayerParams\(m=1\.0"):
            deviation_integrate(ref, DeviationState(1e-4, 0.0, 0.0, 0.0), other)

    def test_delta_r_dynamics_nontrivial(self, params5):
        ref = resonant_trajectory(params5, source="ode")
        dev = deviation_integrate(ref, DeviationState(1e-4, 0.0, 0.0, 0.0), params5)
        assert np.all(np.isfinite(dev.delta_r))
        assert np.max(np.abs(dev.delta_r)) > 0.0

    def test_subsampled_reference_gives_the_same_bits(self, params5):
        # the deviation solve reads only the reference's grid and first sample,
        # and t_eval does not steer its steps: a reference cut down to a subset
        # of its nodes, both ends kept, gives the same bits at the shared nodes
        from jetlag.dynamics import ResonantTrajectory

        fine = resonant_trajectory(params5, source="ode")
        keep = np.r_[0:len(fine.t):150, len(fine.t) - 1]
        coarse = ResonantTrajectory(
            t=fine.t[keep], r0=fine.r0[keep], r0dot=fine.r0dot[keep],
            params=params5, source="ode",
        )
        init = DeviationState(1e-5, 1e-4, 0.3, 0.2)
        dev_fine = deviation_integrate(fine, init, params5)
        dev_coarse = deviation_integrate(coarse, init, params5)
        assert np.max(np.abs(dev_fine.delta_r)) > 0.0
        assert dev_coarse.t.tolist() == dev_fine.t[keep].tolist()
        assert dev_coarse.delta_r.tolist() == dev_fine.delta_r[keep].tolist()
        assert dev_coarse.delta_rdot.tolist() == dev_fine.delta_rdot[keep].tolist()

    def test_flat_reference_gives_the_affine_angle(self):
        # at m = 1e300, r0dot ~ 4e-99 leaves r0 = 1.0 at every node
        params = MonolayerParams(m=1e300, p=10.0, V_abs=1000.0, R0=1.0)
        ref = resonant_trajectory(params, source="ode")
        assert np.ptp(ref.r0) == 0.0
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 1.0), params)
        assert np.all(np.isfinite(dev.delta_phi))
        assert np.max(np.abs(dev.delta_phi - dev.t)) < 1e-15

    @staticmethod
    def _scaled_delta_r(lam, tau):
        """delta_r at the 400 linspace nodes of the default span, with lengths
        scaled by lam and times by tau: r and R0 by lam, |V| by lam/tau, p by
        lam^-3 tau^-2 (p r^5 is an energy), m fixed."""
        params = MonolayerParams(m=1.0, p=10.0 / (lam**3 * tau**2), V_abs=1000.0 * lam / tau, R0=lam)
        ref = resonant_trajectory(params)
        dev = deviation_integrate(ref, DeviationState(1e-4 * lam, 1e-3 * lam / tau, 0.3, 0.2 / tau), params)
        assert dev.t.tolist() == np.linspace(0.0, 0.8 * (params.R0 / params.V_abs), 400).tolist()
        return dev.delta_r

    def _covariance_error(self, lam, tau):
        """Largest |delta_r' - lam delta_r| over max |lam delta_r| at matching nodes."""
        want = lam * self._scaled_delta_r(1.0, 1.0)
        return np.max(np.abs(self._scaled_delta_r(lam, tau) - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("lam, tau", [(2.0, 1.0), (1.0, 3.0), (0.5, 7.0)])
    def test_unit_covariance(self, lam, tau):
        # A ddot(dr), B dot(dr) and rdot0^3 d2U/dr2 dr all carry M L^4 T^-5,
        # so lam delta_r(t / tau) solves the scaled problem
        assert self._covariance_error(lam, tau) < 1e-8

    @pytest.mark.parametrize("lam, tau", [(2.0, 1.0), (1.0, 3.0), (0.5, 7.0)])
    def test_unit_covariance_rejects_a_dimensional_error(self, monkeypatch, lam, tau):
        # |V|^2 d2U/dr2 carries the extra (L/T)^2 that d2U/dt2 would bring
        drr = dynamics.potential_U_drr
        monkeypatch.setattr(dynamics, "potential_U_drr", lambda t, r, params: params.V_abs**2 * drr(t, r, params))
        assert self._covariance_error(lam, tau) > 1e-8


class TestComposeAndReverse:
    def test_zero_deviation_recovers_reference(self, params5):
        ref = resonant_trajectory(params5, source="ode")
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 0.0), params5)
        comp = compose_perturbed(ref, dev)
        assert np.array_equal(comp.r, ref.r0)
        assert np.array_equal(comp.rdot, ref.r0dot)

    def test_section5_shape(self, params5):
        # monotone-decreasing radius envelope plus linear delta_phi
        ref = resonant_trajectory(params5, source="ode")
        dev = deviation_integrate(ref, DeviationState(0.0, 0.0, 0.0, 1.0), params5)
        comp = compose_perturbed(ref, dev)
        assert np.all(np.diff(comp.r) < 0.0)
        assert np.max(np.abs(comp.phi - comp.t)) < 1e-10

    def test_compose_rejects_foreign_grid(self, params5):
        ref = resonant_trajectory(params5, source="ode")
        for t in (ref.t[::10], np.array([ref.t[0], ref.t[-1] + 1.0])):
            zeros = np.zeros(len(t))
            foreign = DeviationSeries(t=t, delta_r=zeros, delta_rdot=zeros, delta_phi=zeros,
                                      delta_phidot=zeros, c1=0.0, c2=0.0)
            with pytest.raises(ValueError, match="not sampled on the reference grid"):
                compose_perturbed(ref, foreign)


def test_closed_form_r0_horizon_guard(params5):
    with pytest.raises(ValueError):
        _closed_form(np.array([1.1e-3]), params5)[0]


def _el_residual_reference(model, pt, ydot) -> float:
    """The Euler-Lagrange residual written out per component s:

        d2L/dt dy^s - dL/dx^s + d2L/dx^q dy^s y^q + d2L/dy^q dy^s ydot^q,

    worst |sum| / max|term| over s, every term a separate partial."""
    ev = GeometryEvaluator(model, pt)
    xs, ys = ("x1", "x2"), ("y1", "y2")
    worst = 0.0
    for s in range(2):
        terms = [ev.partial("t", ys[s]), -ev.partial(xs[s])]
        terms += [ev.partial(xs[q], ys[s]) * pt.y[q] for q in range(2)]
        terms += [ev.partial(ys[q], ys[s]) * ydot[q] for q in range(2)]
        scale = max(abs(v) for v in terms)
        if scale > 0.0:
            worst = max(worst, abs(sum(terms)) / scale)
    return worst


def _asymmetric_xy(t, r, phi, rd, pd):
    """d2L/dr dphidot = 0.7 rd + t differs from d2L/dphi drdot = 0.3: a
    transposed d2L/dx dy changes the residual."""
    return (1 + r**2) * rd**2 + (2 + phi**2) * pd**2 + 0.7 * r * rd * pd + 0.3 * phi * rd + t * r * pd


@pytest.mark.parametrize("which", ["monolayer", "free_polar", "asymmetric"])
def test_el_residual_matches_component_reference(which):
    model, box = {
        # the default simulate state's neighbourhood
        "monolayer": (MonolayerModel(MonolayerParams()), [(0.0, 2e-3), (0.2, 1.0), (-1, 1), (-5.0, -0.5), (-1, 1)]),
        "free_polar": (MonolayerModel(MonolayerParams(m=1.3, p=0.0)), [(0.0, 1.0), (0.3, 2.0), (-3, 3), (-2, 2), (-2, 2)]),
        "asymmetric": (PolynomialModel(_asymmetric_xy), [(0.0, 1.0), (0.3, 2.0), (-3, 3), (-2, 2), (-2, 2)]),
    }[which]
    rng = np.random.default_rng(11)
    for _ in range(20):
        pt = jet_point(*(rng.uniform(lo, hi) for lo, hi in box))
        ydot = rng.normal(scale=10.0, size=2)
        want = _el_residual_reference(model, pt, ydot)
        got = GeometryEvaluator(model, pt).euler_lagrange_residual(ydot)
        assert got == want, (pt, ydot)
