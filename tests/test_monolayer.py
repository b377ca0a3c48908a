"""Closed forms of the monolayer model: printed values, exact forms, oracles."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from jetlag.dynamics import TrajectoryState, hamiltonian_split
from jetlag.errors import DomainError
from jetlag.expint import exp_integral_f
from jetlag.fd import numeric_partials
from jetlag.geometry import GeometryEvaluator
from jetlag.monolayer import (
    MonolayerModel,
    MonolayerParams,
    closed_cartan,
    closed_em_and_ym,
    closed_metric,
    closed_nonlinear_connection,
    closed_semispray,
    closed_torsions,
    em_component_f21,
    potential_U,
    potential_U_dr,
    potential_U_drr,
    semispray_series_bracket,
    script_U,
    script_U_dt,
    zero_energy_bracket,
)
from jetlag.points import jet_point
from oracles import field_partial


def independent_U(t, r, p, V):
    """Second, term-by-term implementation of the layer potential."""
    w = V * t
    E = 2.0 * w / r
    terms = [
        -4.0 / 3.0 * r**5,
        16.0 / 15.0 * w * r**4,
        (1.0 / 30.0) * w**2 * r**3,
        (1.0 / 45.0) * w**3 * r**2,
        (1.0 / 45.0) * w**4 * r,
        (2.0 / 45.0) * w**5,
    ]
    out = sum(terms) * math.exp(E)
    if w:
        out -= (4.0 / 45.0) * (w**6 / r) * exp_integral_f(E)
    return p * out


def mp_U(t, r, p, V):
    """The layer potential in mpmath, term by term in (w, r), w = |V| t."""
    w = V * t
    E = 2 * w / r
    poly = (-mpmath.mpf(4) / 3 * r**5 + mpmath.mpf(16) / 15 * w * r**4 + w**2 * r**3 / 30
            + w**3 * r**2 / 45 + w**4 * r / 45 + 2 * w**5 / 45)
    return p * (poly * mpmath.exp(E) - mpmath.mpf(4) / 45 * w**6 / r * mpmath.ei(E))


#: the reference grid in E = 2|V|t/r and r, and the upper edges of its E bands
REF_E = (-40.0, -20.0, -5.0, -1.0, 1e-3, 0.1, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 200.0)
REF_R = (0.1, 0.2, 0.5, 1.0)
REF_BANDS = (0.0, 1.0, 10.0, 40.0, 200.0)

# worst relative error per E band (E < 0, (0, 1], (1, 10], (10, 40],
# (40, 200]): 4x what the (w, r) transcriptions these forms replaced
# reached on the same grid, which is
#   U           5.4e-13 2.0e-16 9.1e-15 5.9e-12 1.4e-9
#   U_r         2.4e-14 2.9e-16 1.8e-15 1.5e-13 6.4e-12
#   U_rr        1.1e-14 3.4e-16 1.6e-15 2.1e-14 2.7e-12
#   bracket     1.2e-14 2.3e-16 2.1e-15 1.9e-13 6.5e-12
#   script_U_dt 7.4e-13 1.7e-16 5.6e-15 2.9e-12 1.1e-9
# The large-E error is the e^E / Ei cancellation inside u.
REF_BOUNDS = {
    "U": (potential_U, (2.2e-12, 8e-16, 3.7e-14, 2.4e-11, 5.6e-9)),
    "U_r": (potential_U_dr, (9.6e-14, 1.2e-15, 7.2e-15, 6e-13, 2.6e-11)),
    "U_rr": (potential_U_drr, (4.4e-14, 1.4e-15, 6.4e-15, 8.4e-14, 1.1e-11)),
    "bracket": (semispray_series_bracket, (4.8e-14, 9.2e-16, 8.4e-15, 7.6e-13, 2.6e-11)),
    "script_U_dt": (script_U_dt, (3e-12, 6.8e-16, 2.2e-14, 1.2e-11, 4.4e-9)),
}


@functools.lru_cache(maxsize=1)
def potential_references():
    """{(E, r): (t, {name: 40-digit value})} for p = 10, |V| = 1000, with the
    derivatives by mpmath.diff of mp_U."""
    p, V = 10.0, 1000.0
    out = {}
    with mpmath.workdps(40):
        def U(tt, rr):
            return mp_U(tt, rr, p, V)

        for E in REF_E:
            for r in REF_R:
                t = E * r / (2 * V)
                tm, rm = mpmath.mpf(t), mpmath.mpf(r)
                Em = 2 * V * tm / rm
                U_r = mpmath.diff(U, (tm, rm), (0, 1))
                U_tr = mpmath.diff(U, (tm, rm), (1, 1))
                out[E, r] = t, {
                    "U": U(tm, rm),
                    "U_r": U_r,
                    "U_rr": mpmath.diff(U, (tm, rm), (0, 2)),
                    # -e^-E dU/dr / (4 p r^5), and d/dt of 3/|V| times it
                    "bracket": -mpmath.exp(-Em) * U_r / (4 * p * rm**5),
                    "script_U_dt": -3 / (4 * p * V * rm**5) * mpmath.exp(-Em) * (U_tr - 2 * V / rm * U_r),
                }
    return out


class TestPotential:
    def test_t_zero_closed_form(self, params5):
        p = params5.p
        for r in (0.3, 1.0, 2.5):
            for fn, want in (
                (potential_U, -4.0 / 3.0 * p * r**5),
                (potential_U_dr, -20.0 / 3.0 * p * r**4),
                (potential_U_drr, -80.0 / 3.0 * p * r**3),
            ):
                assert fn(0.0, r, params5) == pytest.approx(want, rel=1e-14)

    def test_t_zero_at_unit_radius(self, params5):
        assert potential_U(0.0, 1.0, params5) == pytest.approx(-40.0 / 3.0, rel=1e-14)

    def test_term_by_term_reevaluation(self, params5):
        got = potential_U(1e-3, 0.5, params5)
        want = independent_U(1e-3, 0.5, params5.p, params5.V_abs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_r_nonpositive_raises(self, params5):
        with pytest.raises(DomainError):
            potential_U(1e-3, 0.0, params5)

    @pytest.mark.parametrize("t,r", [(1e-3, 0.5), (5e-3, 0.9), (2e-4, 0.2)])
    def test_dr_and_drr_against_fd(self, params5, t, r):
        h = 1e-6 * r
        fd1 = (potential_U(t, r + h, params5) - potential_U(t, r - h, params5)) / (2 * h)
        assert potential_U_dr(t, r, params5) == pytest.approx(fd1, rel=1e-7)
        fd2 = (potential_U_dr(t, r + h, params5) - potential_U_dr(t, r - h, params5)) / (2 * h)
        assert potential_U_drr(t, r, params5) == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("name", list(REF_BOUNDS))
    def test_against_40_digit_reference(self, params5, name):
        fn, bounds = REF_BOUNDS[name]
        worst = [0.0] * len(REF_BANDS)
        for (E, r), (t, ref) in potential_references().items():
            band = next(i for i, top in enumerate(REF_BANDS) if E <= top)
            err = float(abs(fn(t, r, params5) / ref[name] - 1))
            worst[band] = max(worst[band], err)
        assert all(w <= b for w, b in zip(worst, bounds)), (name, worst)


class TestLagrangian:
    def test_kinetic_limit(self):
        params = MonolayerParams(m=1.0, p=0.0, V_abs=1000.0)
        assert MonolayerModel(params).value(0.0, 2.0, 0.0, 1.0, 1.0) == pytest.approx(0.5 + 2.0, rel=1e-14)

    def test_direct_substitution(self, model5):
        want = 0.5 + 10000.0 - 40.0 / 3.0
        assert model5.value(0.0, 1.0, 0.0, -1.0, 0.0) == pytest.approx(want, rel=1e-13)

    def test_us_split(self, model5, params5):
        t, r, rdot, phidot = 1e-3, 0.5, -1.0, 0.2
        kinetic = 0.5 * (rdot**2 + r**2 * phidot**2)
        U_s = potential_U(t, r, params5) - 10.0 * r**5 * 1000.0 * math.exp(2.0 * 1000.0 * t / r) / rdot
        assert model5.value(t, r, 0.0, rdot, phidot) == pytest.approx(kinetic + U_s, rel=1e-14)

    def test_fd_second_partial_gives_g11(self, model5, params5, sample_pt):
        got = 0.5 * numeric_partials(model5, sample_pt, ("y1", "y1"))
        want = closed_metric(sample_pt, params5).g[0, 0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_rdot_zero_raises(self, params5):
        with pytest.raises(DomainError):
            hamiltonian_split(TrajectoryState(0.0, 1.0, 0.0, 0.0, 0.2), params5)


@pytest.mark.parametrize("fn", [semispray_series_bracket, script_U, script_U_dt])
class TestPrintedSeriesDomain:
    # the printed series raise the DomainError the potential raises, naming themselves
    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_r_nonpositive_raises(self, params5, fn, r):
        with pytest.raises(DomainError, match=f"^{fn.__name__} requires r > 0, got r = {r}"):
            fn(1e-3, r, params5)

    @pytest.mark.parametrize("t, r", [(math.nan, 0.5), (math.inf, 0.5), (1e-3, 1e-320)])
    def test_non_finite_E_raises(self, params5, fn, t, r):
        with pytest.raises(DomainError, match=f"^{fn.__name__} requires a finite E"):
            fn(t, r, params5)


class TestStiffOverflow:
    # E = 200 keeps e^E finite, but e^E / rdot^3 overflows at rdot = -1e-100
    PT = jet_point(0.1, 1.0, 0.0, -1e-100, 0.2)

    def test_domain_predicate_rejects_infinite_g11(self, model5):
        assert model5.domain_violation(self.PT.t, *self.PT.x, *self.PT.y) == (
            "g11 = inf is not finite at E = 200, rdot = -1e-100 (2 p r^5 |V| e^E / rdot^3 overflows)"
        )

    @pytest.mark.parametrize("fn", [closed_cartan, closed_nonlinear_connection, em_component_f21])
    def test_stiff_term_names_the_caller(self, params5, fn):
        with pytest.raises(DomainError, match=f"^{fn.__name__}: a = 2 p r\\^5 .* is not finite at \\|rdot\\| = 1e-100"):
            fn(self.PT, params5, form="exact")

    # a is finite (|a| ~ 1e305) at these points, but 3 a G^1 / rdot in N11 is not
    @pytest.mark.parametrize("t, r", [(7.44e-4, 0.125), (1e-3, 1.0), (1e-3, 0.3)])
    def test_nonfinite_N11_names_the_connection(self, params5, t, r):
        pt = jet_point(t, r, 0.0, -1e-100, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^closed_nonlinear_connection: N11 = (nan|-inf) is not finite"):
                closed_nonlinear_connection(pt, params5, form="exact")

    def test_arrays(self, params5):
        from jetlag.monolayer import _stiff_term

        rdot = np.array([-1.0, -1e-100])
        with pytest.raises(DomainError, match="^diagnostics: a = .* is not finite at \\|rdot\\| = 1e-100"):
            _stiff_term(np.full(2, 0.1), np.ones(2), rdot, params5, "diagnostics")


class TestClosedMetric:
    def test_g22(self, params5):
        met = closed_metric(jet_point(0.0, 2.0, 0.0, -1.0, 0.0), params5)
        assert met.g[1, 1] == pytest.approx(2.0, rel=1e-14)

    def test_p_zero_g11(self):
        params = MonolayerParams(m=1.0, p=0.0, V_abs=1000.0)
        met = closed_metric(jet_point(0.0, 1.0, 0.0, 1.0, 0.0), params)
        assert met.g[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_inverse_identity(self, params5, sample_pt):
        met = closed_metric(sample_pt, params5)
        assert np.max(np.abs(met.g @ met.g_inv - np.eye(2))) < 1e-12

    def test_singular_band_raises(self, params5):
        # g11 = 0 needs rdot > 0: solve rdot^3 = 2 p r^5 |V| e^E / m at t=0, r=0.5
        rdot_star = (2 * params5.p * 0.5**5 * params5.V_abs / params5.m) ** (1 / 3)
        with pytest.raises(DomainError):
            closed_metric(jet_point(0.0, 0.5, 0.0, rdot_star, 0.0), params5)


class TestClosedSemispray:
    def test_g2_arithmetic(self, params5):
        spray = closed_semispray(jet_point(1e-3, 2.0, 0.0, 3.0, 0.5), params5)
        assert spray.G[1] == pytest.approx(0.75, rel=1e-14)

    def test_exact_matches_oracle(self, model5, params5, sample_pt):
        want = GeometryEvaluator(model5, sample_pt).semispray().G[0]
        got = closed_semispray(sample_pt, params5, form="exact").G[0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_phidot_zero_drops_term(self, model5, params5):
        pt = jet_point(1e-3, 0.5, 0.0, -1.0, 0.0)
        got = closed_semispray(pt, params5, form="exact").G[0]
        want = GeometryEvaluator(model5, pt).semispray().G[0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_polynomial_requires_p(self):
        params = MonolayerParams(p=0.0)
        with pytest.raises(ValueError):
            closed_semispray(jet_point(0.0, 1.0, 0.0, 1.0, 0.0), params, form="polynomial")

    def test_unknown_form(self, params5, sample_pt):
        with pytest.raises(ValueError):
            closed_semispray(sample_pt, params5, form="riemann")


class TestClosedNonlinearConnection:
    def test_printed_n22(self, params5):
        nlc = closed_nonlinear_connection(jet_point(1e-3, 2.0, 0.0, 3.0, 0.0), params5)
        assert nlc.N[1, 1] == pytest.approx(1.5, rel=1e-14)

    def test_printed_n21_component(self, params5):
        nlc = closed_nonlinear_connection(jet_point(1e-3, 4.0, 0.0, -1.0, 2.0), params5)
        assert nlc.N[1, 0] == pytest.approx(0.5, rel=1e-14)

    def test_printed_n_equals_dpoly_dy(self, params5):
        # the internal approximation identity: N_printed = d(G_polynomial)/dy
        for coords in [(1e-3, 0.5, -1.0, 0.2), (2e-3, 0.8, -2.5, -0.7), (5e-4, 0.3, -0.5, 0.9)]:
            pt = jet_point(coords[0], coords[1], 0.0, coords[2], coords[3])
            nlc = closed_nonlinear_connection(pt, params5, form="printed")

            def poly_g(q, i):
                return closed_semispray(q, params5, form="polynomial").G[i]

            scales = np.array([1.0, 1.0, 1.0, abs(pt.rdot) / 3.0, 1.0])
            for i in range(2):
                for j, axis in enumerate(("y1", "y2")):
                    fd = field_partial(lambda q, i=i: poly_g(q, i), pt, (axis,), scales=scales)
                    scale = max(abs(fd), abs(nlc.N[i, j]), 1e-6)
                    assert abs(nlc.N[i, j] - fd) / scale < 1e-6

    def test_exact_matches_oracle(self, model5, params5, sample_pt):
        want = GeometryEvaluator(model5, sample_pt).nonlinear_connection().N
        got = closed_nonlinear_connection(sample_pt, params5, form="exact").N
        assert np.allclose(got, want, rtol=1e-5, atol=1e-10)


class TestClosedCartan:
    def test_printed_l2_entries(self, params5):
        cart = closed_cartan(jet_point(1e-3, 2.0, 0.0, -1.0, 0.0), params5)
        assert cart.L[1, 0, 1] == pytest.approx(0.5, rel=1e-14)
        assert cart.L[1, 1, 0] == pytest.approx(0.5, rel=1e-14)
        assert cart.L[1, 1, 1] == 0.0

    def test_printed_l211_arithmetic(self, params5):
        cart = closed_cartan(jet_point(1e-3, 2.0, 0.0, 4.0, 2.0), params5)
        assert cart.L[1, 0, 0] == pytest.approx(0.375, rel=1e-14)

    def test_gtime_kronecker_structure(self, params5, sample_pt):
        cart = closed_cartan(sample_pt, params5)
        assert cart.G_time[0, 1] == 0.0
        assert cart.G_time[1, 0] == 0.0
        assert cart.G_time[1, 1] == 0.0
        assert cart.G_time[0, 0] != 0.0

    def test_c_kronecker_structure(self, params5, sample_pt):
        cart = closed_cartan(sample_pt, params5)
        nonzero = np.abs(cart.C) > 0
        assert nonzero.sum() == 1 and nonzero[0, 0, 0]

    def test_exact_matches_oracle(self, model5, params5, sample_pt):
        want = GeometryEvaluator(model5, sample_pt).cartan()
        got = closed_cartan(sample_pt, params5, form="exact")
        assert np.allclose(got.L, want.L, rtol=2e-5, atol=1e-9)
        assert np.allclose(got.C, want.C, rtol=1e-5, atol=1e-12)
        assert np.allclose(got.G_time, want.G_time, rtol=1e-5, atol=1e-12)

    @pytest.mark.parametrize(
        "closed", [closed_semispray, closed_nonlinear_connection, closed_cartan, em_component_f21]
    )
    def test_singular_locus_raises_domain_error(self, closed):
        # D = m - 2 p r^5 |V| e^E / rdot^3 = 1 - 1 = 0 exactly at t = 0, r = 1, p = 4, |V| = 1, rdot = 2
        params = MonolayerParams(m=1.0, p=4.0, V_abs=1.0)
        with pytest.raises(DomainError, match="singular"):
            closed(jet_point(0.0, 1.0, 0.0, 2.0, 0.3), params, form="exact")


class TestClosedTorsions:
    def test_r_diagonal_zeros(self, params5, sample_pt):
        tor = closed_torsions(sample_pt, params5)
        for k in range(2):
            assert tor.R[k, 0, 0] == 0.0
            assert tor.R[k, 1, 1] == 0.0

    def test_p_mixed_arithmetic(self, params5):
        tor = closed_torsions(jet_point(1e-3, 2.0, 0.0, 4.0, 2.0), params5)
        assert tor.P_mixed[1, 0, 0] == pytest.approx(-0.375, rel=1e-14)

    def test_r2_uses_printed_n11(self, params5, sample_pt):
        tor = closed_torsions(sample_pt, params5)
        n11 = closed_nonlinear_connection(sample_pt, params5, form="printed").N[0, 0]
        assert tor.R[1, 0, 1] == pytest.approx(n11 / sample_pt.r, rel=1e-14)

    def test_h_is_minus_dn_dt(self, params5, sample_pt):
        # the printed H family must equal -dN_printed/dt (script-U_dt algebra)
        tor = closed_torsions(sample_pt, params5)
        h = 1e-9
        for j in range(2):
            up = closed_nonlinear_connection(
                jet_point(sample_pt.t + h, *sample_pt.x, *sample_pt.y), params5, "printed"
            ).N[0, j]
            dn = closed_nonlinear_connection(
                jet_point(sample_pt.t - h, *sample_pt.x, *sample_pt.y), params5, "printed"
            ).N[0, j]
            fd = -(up - dn) / (2 * h)
            assert tor.H_tor[0, j] == pytest.approx(fd, rel=1e-6)
        assert np.all(tor.H_tor[1] == 0.0)

    def test_script_u_consistency(self, params5):
        # curly-U is 3/|V| times the polynomial-G bracket, and its printed
        # time derivative matches finite differences
        for t, r in [(1e-3, 0.5), (5e-3, 0.9)]:
            assert script_U(t, r, params5) == pytest.approx(
                3.0 * semispray_series_bracket(t, r, params5) / params5.V_abs, rel=1e-12
            )
            h = 1e-9
            fd = (script_U(t + h, r, params5) - script_U(t - h, r, params5)) / (2 * h)
            assert script_U_dt(t, r, params5) == pytest.approx(fd, rel=1e-7)


class TestClosedEM:
    def test_phidot_zero(self, params5):
        em, energy = closed_em_and_ym(jet_point(1e-3, 0.5, 0.0, -1.0, 0.0), params5, form="exact")
        assert np.all(em.F == 0.0)
        assert energy == 0.0

    def test_bracket_zero_kills_energy(self, params5):
        # choose rdot on the zero locus of the printed bracket:
        # rdot^3 = -6 p |V| r^5 e^E / m
        t, r = 1e-3, 0.5
        E = 2 * params5.V_abs * t / r
        rdot = -((6 * params5.p * params5.V_abs * r**5 * math.exp(E)) / params5.m) ** (1 / 3)
        assert zero_energy_bracket(t, r, rdot, params5) == pytest.approx(0.0, abs=1e-10)
        for phidot in (-2.0, 0.3, 1.0):
            _, energy = closed_em_and_ym(jet_point(t, r, 0.0, rdot, phidot), params5, form="printed")
            assert energy < 1e-18

    def test_exact_matches_oracle(self, model5, params5, sample_pt):
        want = GeometryEvaluator(model5, sample_pt).em_form().F[1, 0]
        got = em_component_f21(sample_pt, params5, form="exact")
        assert got == pytest.approx(want, rel=1e-5)

    def test_zero_energy_predicate_bidirectional(self, params5):
        t, r = 1e-3, 0.5
        E = 2 * params5.V_abs * t / r
        rdot_res = -((6 * params5.p * params5.V_abs * r**5 * math.exp(E)) / params5.m) ** (1 / 3)
        # the printed F_(1)2 vanishes at resonance and only there
        assert abs(em_component_f21(jet_point(t, r, 0.0, rdot_res, 0.7), params5, form="printed")) < 1e-10
        assert abs(em_component_f21(jet_point(t, r, 0.0, -1.0, 0.7), params5, form="printed")) >= 1e-10


class TestFreePolarLimit:
    """p = 0 closed forms must reduce to flat polar mechanics, rdot = 0 included."""

    PARAMS = MonolayerParams(m=1.0, p=0.0, V_abs=1000.0)

    def test_semispray(self):
        spray = closed_semispray(jet_point(0.3, 2.0, 0.0, 0.0, 0.5), self.PARAMS, form="exact")
        assert spray.G[0] == pytest.approx(-0.25, rel=1e-14)
        assert spray.G[1] == 0.0

    def test_nonlinear_connection(self):
        nlc = closed_nonlinear_connection(jet_point(0.3, 2.0, 0.0, 0.0, 0.5), self.PARAMS, form="exact")
        assert nlc.N[0, 0] == 0.0
        assert nlc.N[0, 1] == pytest.approx(-1.0, rel=1e-14)  # -r phidot

    def test_cartan(self):
        cart = closed_cartan(jet_point(0.3, 2.0, 0.0, 0.0, 0.5), self.PARAMS, form="exact")
        assert cart.L[0, 1, 1] == pytest.approx(-2.0, rel=1e-14)
        assert cart.L[1, 0, 1] == pytest.approx(0.5, rel=1e-14)
        assert np.all(cart.C == 0.0)
        assert np.all(cart.G_time == 0.0)
        with pytest.raises(ValueError):
            closed_cartan(jet_point(0.3, 2.0, 0.0, 0.0, 0.5), self.PARAMS, form="printed")

    def test_em(self):
        em, energy = closed_em_and_ym(jet_point(0.3, 2.0, 0.0, 1.0, 0.5), self.PARAMS, form="exact")
        assert np.all(em.F == 0.0) and energy == 0.0


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MonolayerParams(m=0.0)
        with pytest.raises(ValueError):
            MonolayerParams(p=-1.0)
        with pytest.raises(ValueError):
            MonolayerParams(V_abs=0.0)
        with pytest.raises(ValueError):
            MonolayerParams(R0=-1.0)

    def test_model_domain_messages(self, model5):
        assert model5.domain_violation(0.0, 1.0, 0.0, 0.0, 0.2) is not None
        assert "rdot" in model5.domain_violation(0.0, 1.0, 0.0, 0.0, 0.2)
        assert model5.domain_violation(1e-3, 0.5, 0.0, -1.0, 0.2) is None
