"""Generic geometry pipeline against classical and closed-form oracles."""

import warnings

import numpy as np
import pytest

from jetlag.errors import SingularMetricError
from jetlag.geometry import CartanConnection, EMForm, GeometryEvaluator, ym_energy
from jetlag.monolayer import MonolayerModel, MonolayerParams, closed_em_and_ym, closed_semispray
from jetlag.points import jet_point
from oracles import (
    CountingMonolayer,
    ElectrodynamicsFixtureParams,
    PolynomialModel,
    asymmetric_lagrangian,
    electrodynamics_fixture,
    field_partial,
    polar_christoffel,
    polar_metric,
    polar_spray,
)

FP = MonolayerModel(MonolayerParams(m=1.0, p=0.0))


class TestMetric:
    def test_free_polar_diag(self):
        met = GeometryEvaluator(FP, jet_point(0.0, 2.0, 0.0, 1.0, 1.0)).metric()
        assert np.allclose(met.g, polar_metric(1.0, 2.0), atol=1e-10)
        assert np.allclose(met.g @ met.g_inv, np.eye(2), atol=1e-10)

    def test_monolayer_off_diagonal_zero(self, model5):
        met = GeometryEvaluator(model5, jet_point(1e-3, 0.5, 0.0, -1.0, 0.2)).metric()
        assert met.g[0, 1] == pytest.approx(0.0, abs=1e-8 * abs(met.g[0, 0]))
        assert met.g[0, 1] == met.g[1, 0]

    def test_monolayer_g11_matches_closed_form(self, model5, params5, sample_pt):
        from jetlag.monolayer import closed_metric

        met = GeometryEvaluator(model5, sample_pt).metric()
        want = closed_metric(sample_pt, params5).g[0, 0]
        assert met.g[0, 0] == pytest.approx(want, rel=1e-6)

    def test_non_finite_metric_raises(self):
        from jetlag.geometry import _invert_2x2

        for bad in (np.inf, -np.inf, np.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularMetricError, match="metric is not finite"):
                    _invert_2x2(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_overflowing_metric_raises(self):
        # finite g whose determinant reads inf, or inf - inf = NaN
        from jetlag.geometry import _invert_2x2

        for g in ([[1e300, 0.0], [0.0, 1e300]], [[1e300, 1e300], [1e300, 2e300]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(SingularMetricError, match="determinant or row-norm product overflows"):
                    _invert_2x2(np.array(g))

    def test_singular_metric_raises(self):
        degenerate = PolynomialModel(lambda t, r, phi, rd, pd: (rd + pd) ** 2)
        with pytest.raises(SingularMetricError):
            GeometryEvaluator(degenerate, jet_point(0.0, 1.0, 0.0, 1.0, 1.0)).metric()


class TestSemispray:
    def test_free_polar_matches_classical(self):
        pt = jet_point(0.0, 2.0, 0.0, 3.0, 0.5)
        spray = GeometryEvaluator(FP, pt).semispray()
        G1, G2 = polar_spray(pt.r, pt.rdot, pt.phidot)
        assert spray.G[0] == pytest.approx(G1, rel=1e-8)  # -0.25
        assert spray.G[1] == pytest.approx(G2, rel=1e-8)  # 0.75

    def test_monolayer_g2_is_exact_form(self, model5, sample_pt):
        spray = GeometryEvaluator(model5, sample_pt).semispray()
        assert spray.G[1] == pytest.approx(sample_pt.rdot * sample_pt.phidot / sample_pt.r, rel=1e-8)

    def test_monolayer_g1_matches_exact_fraction(self, model5, params5, sample_pt):
        spray = GeometryEvaluator(model5, sample_pt).semispray()
        want = closed_semispray(sample_pt, params5, form="exact").G[0]
        assert spray.G[0] == pytest.approx(want, rel=1e-6)


class TestNonlinearConnection:
    def test_monolayer_second_row(self, model5, sample_pt):
        nlc = GeometryEvaluator(model5, sample_pt).nonlinear_connection()
        assert nlc.N[1, 0] == pytest.approx(sample_pt.phidot / sample_pt.r, rel=1e-6)
        assert nlc.N[1, 1] == pytest.approx(sample_pt.rdot / sample_pt.r, rel=1e-6)

    def test_free_polar_n12(self):
        # N_(1)2^(1) = d(-r phidot^2/2)/dphidot = -r phidot = -1 at r=2, phidot=0.5
        nlc = GeometryEvaluator(FP, jet_point(0.0, 2.0, 0.0, 3.0, 0.5)).nonlinear_connection()
        assert nlc.N[0, 1] == pytest.approx(-1.0, rel=1e-8)

    def test_self_consistency_vs_direct_fd_of_g(self, model5, sample_pt):
        # definition self-consistency in the matrix infinity norm: entries
        # tiny relative to ||N|| sit below the FD-of-G noise floor
        nlc = GeometryEvaluator(model5, sample_pt).nonlinear_connection()

        def g_component(i):
            def fn(q):
                return GeometryEvaluator(model5, q).semispray().G[i]

            return fn

        scales = np.array([1.0, 1.0, 1.0, 0.3, 1.0])
        fd = np.empty((2, 2))
        for i in range(2):
            for j, axis in enumerate(("y1", "y2")):
                fd[i, j] = field_partial(g_component(i), sample_pt, (axis,), scales=scales)
        assert np.max(np.abs(nlc.N - fd)) / np.max(np.abs(nlc.N)) < 1e-6

    def test_self_consistency_free_polar(self):
        pt = jet_point(0.0, 2.0, 0.0, 3.0, 0.5)
        nlc = GeometryEvaluator(FP, pt).nonlinear_connection()
        for i in range(2):
            for j, axis in enumerate(("y1", "y2")):
                ref = field_partial(
                    lambda q, i=i: GeometryEvaluator(FP, q).semispray().G[i], pt, (axis,)
                )
                assert abs(nlc.N[i, j] - ref) < 1e-8 * max(1.0, abs(ref))


class TestCartan:
    def test_free_polar_christoffel(self):
        pt = jet_point(0.0, 2.0, 0.0, 1.0, 0.3)
        cart = GeometryEvaluator(FP, pt).cartan()
        want = polar_christoffel(pt.r)
        assert cart.L[0, 1, 1] == pytest.approx(want["L1_22"], rel=1e-7)
        assert cart.L[1, 0, 1] == pytest.approx(want["L2_12"], rel=1e-7)
        assert np.allclose(cart.C, 0.0, atol=1e-8)
        assert np.allclose(cart.G_time, 0.0, atol=1e-8)

    def test_L_symmetry(self, model5, sample_pt):
        cart = GeometryEvaluator(model5, sample_pt).cartan()
        assert np.allclose(cart.L, np.swapaxes(cart.L, 1, 2), atol=1e-12)
        assert np.allclose(cart.C, np.swapaxes(cart.C, 1, 2), atol=1e-12)

    def test_monolayer_printed_entries(self, model5, sample_pt):
        cart = GeometryEvaluator(model5, sample_pt).cartan()
        assert cart.L[1, 0, 1] == pytest.approx(1.0 / sample_pt.r, rel=1e-6)
        assert cart.L[1, 1, 0] == pytest.approx(1.0 / sample_pt.r, rel=1e-6)
        assert abs(cart.L[1, 1, 1]) < 1e-8

    def test_monolayer_c_vs_closed(self, model5, params5, sample_pt):
        from jetlag.monolayer import closed_cartan

        cart = GeometryEvaluator(model5, sample_pt).cartan()
        want = closed_cartan(sample_pt, params5, form="exact").C[0, 0, 0]
        assert cart.C[0, 0, 0] == pytest.approx(want, rel=1e-6)


class TestTorsions:
    def test_r_antisymmetry_any_model(self, model5, sample_pt):
        tor = GeometryEvaluator(model5, sample_pt).torsions()
        for k in range(2):
            assert tor.R[k, 0, 1] == -tor.R[k, 1, 0]
            assert tor.R[k, 0, 0] == pytest.approx(0.0, abs=1e-8)
            assert tor.R[k, 1, 1] == pytest.approx(0.0, abs=1e-8)

    def test_monolayer_r2_identity(self, model5, sample_pt):
        # R_(1)12^(2) = N_(1)1^(1) / r, with both sides from the pipeline
        ev = GeometryEvaluator(model5, sample_pt)
        tor = ev.torsions()
        want = ev.nonlinear_connection().N[0, 0] / sample_pt.r
        assert tor.R[1, 0, 1] == pytest.approx(want, rel=1e-6)

    def test_p_vert_equals_c(self, model5, sample_pt):
        ev = GeometryEvaluator(model5, sample_pt)
        assert np.array_equal(ev.torsions().P_vert, ev.cartan().C)

    def test_t_and_calp_equal_minus_gtime(self, model5, sample_pt):
        ev = GeometryEvaluator(model5, sample_pt)
        assert np.array_equal(ev.torsions().T, -ev.cartan().G_time)
        assert np.array_equal(ev.torsions().calP, -ev.cartan().G_time)

    def test_free_polar_flat(self):
        tor = GeometryEvaluator(FP, jet_point(0.1, 2.0, 0.0, 1.0, 0.4)).torsions()
        assert np.max(np.abs(tor.R)) < 1e-5
        assert np.max(np.abs(tor.H_tor)) < 1e-8


class TestEMForm:
    def test_antisymmetry(self, model5, sample_pt):
        em = GeometryEvaluator(model5, sample_pt).em_form()
        assert abs(em.F[0, 0]) < 1e-10
        assert abs(em.F[1, 1]) < 1e-10
        assert em.F[0, 1] == -em.F[1, 0]

    def test_monolayer_vanishes_at_zero_phidot(self, model5):
        em = GeometryEvaluator(model5, jet_point(1e-3, 0.5, 0.0, -1.0, 0.0)).em_form()
        assert np.max(np.abs(em.F)) < 1e-9

    def test_free_polar_vanishes(self):
        em = GeometryEvaluator(FP, jet_point(0.0, 2.0, 0.0, 1.0, 0.7)).em_form()
        assert np.max(np.abs(em.F)) < 1e-8


class TestYMEnergy:
    def test_zero(self):
        assert ym_energy(EMForm(F=np.zeros((2, 2))), 1.0) == 0.0

    def test_arithmetic(self):
        F = np.array([[0.0, 3.0], [-3.0, 0.0]])
        assert ym_energy(EMForm(F=F), 1.0) == pytest.approx(9.0, rel=1e-14)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal()
            F = np.array([[0.0, a], [-a, 0.0]])
            m = abs(rng.normal()) + 0.1
            assert ym_energy(EMForm(F=F), m) == pytest.approx(a * a / m, rel=1e-12)

    def test_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ym_energy(EMForm(F=np.zeros((2, 2))), 0.0)


class TestMetricity:
    def test_free_polar(self):
        res = GeometryEvaluator(FP, jet_point(0.0, 1.7, 0.0, 0.8, -0.2)).metricity_residuals()
        assert max(res) < 1e-8

    def test_monolayer_sample(self, model5):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pt = jet_point(rng.uniform(1e-4, 2e-3), rng.uniform(0.3, 1.0), 0.0,
                           rng.uniform(-3, -0.5), rng.uniform(-1, 1))
            assert max(GeometryEvaluator(model5, pt).metricity_residuals()) < 1e-5

    def test_negative_control(self, model5, sample_pt):
        cart = GeometryEvaluator(model5, sample_pt).cartan()
        perturbed_L = np.array(cart.L, copy=True)
        perturbed_L[1, 0, 1] += 0.1
        bad = CartanConnection(G_time=cart.G_time, L=perturbed_L, C=cart.C)
        res = GeometryEvaluator(model5, sample_pt).metricity_residuals(cartan=bad)
        assert max(res) > 1e-3


class TestMaxwellVertical:
    def test_free_polar(self):
        assert GeometryEvaluator(FP, jet_point(0.0, 1.5, 0.0, 1.0, 0.5)).maxwell_vertical_residual() < 1e-8

    def test_monolayer(self, model5, sample_pt):
        assert GeometryEvaluator(model5, sample_pt).maxwell_vertical_residual() < 1e-5

    def test_degenerate_index_ranges_finite(self, model5, sample_pt):
        # n = 2: every cyclic triple has a repeated index; the residual must
        # still evaluate to a finite number
        val = GeometryEvaluator(model5, sample_pt).maxwell_vertical_residual()
        assert np.isfinite(val)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_cyclic_sum_is_identically_zero_in_two_dimensions(self, model5, sample_pt, scale):
        # why the check carries no dF/dy: for any F antisymmetric in (i, j)
        # the cyclic sum of dF_ij/dy^k over {i, j, k} is exactly 0 when i, j,
        # k take two values, and so is that of the C-contractions, for any C
        rng = np.random.default_rng(43)
        for _ in range(20):
            dF = scale * rng.standard_normal((2, 2, 2))
            dF = dF - dF.swapaxes(1, 2)  # [k, i, j], antisymmetric in (i, j)
            vert = dF.transpose(1, 2, 0)
            assert not np.any(vert + vert.transpose(2, 0, 1) + vert.transpose(1, 2, 0))
            f = scale * rng.standard_normal()
            ev = GeometryEvaluator(model5, sample_pt)
            ev._objects["em_form"] = EMForm(F=np.array([[0.0, -f], [f, 0.0]]))
            ev._objects["cartan"] = CartanConnection(
                G_time=np.zeros((2, 2)), L=np.zeros((2, 2, 2)), C=rng.standard_normal((2, 2, 2))
            )
            assert ev.maxwell_vertical_residual() == 0.0
            # what it can still detect: an F that is not antisymmetric
            ev = GeometryEvaluator(model5, sample_pt)
            ev._objects["em_form"] = EMForm(F=np.array([[0.0, -f], [1.001 * f, 0.0]]))
            ev._objects["cartan"] = CartanConnection(
                G_time=np.zeros((2, 2)), L=np.zeros((2, 2, 2)), C=np.ones((2, 2, 2))
            )
            assert ev.maxwell_vertical_residual() > 1e-4


def test_bundle_aggregates(model5, sample_pt):
    bundle = GeometryEvaluator(model5, sample_pt).bundle()
    assert bundle.metric.g.shape == (2, 2)
    assert bundle.ym_energy >= 0.0
    assert bundle.em.F.shape == (2, 2)


# every array of the bundle at (0.3, 1.2, 0.4, 0.8, -0.6), from an
# evaluation that loops over the components of each index formula
PINNED_BUNDLE = {
    "g": [[2.8979199999988956, 0.4079999999994754], [0.4079999999994754, 2.247999999999776]],
    "G": [0.21846670337792426, 0.0510612033015739],
    "N": [[0.45155207900487093, 0.033313574740097544], [0.01692416712515926, -0.05603259455812443]],
    "G_time": [[0.025496922826701195, -0.00771259231442981], [-0.004627555389260723, 0.054780577250187014]],
    "L": [
        [[0.5538956932125361, 0.014426946677704652], [0.014426946677704652, -0.04622419400880049]],
        [[0.034834053562990616, 0.008718098294862225], [0.008718098294862225, 0.19507399261838512]],
    ],
    "C": [
        [[0.09178892217799106, -0.0006427160271759547], [-0.0006427160271759547, 0.0035412392837693]],
        [[-0.016659199399359503, 0.004565048108556838], [0.004565048108556838, -0.0006427160202692641]],
    ],
    "H": [[0.024767485256871336, -0.06482102945932523], [0.08764706680282948, -0.030104799270709928]],
    "R": [
        [[0.0, 0.058123686716558015], [-0.058123686716558015, 0.0]],
        [[0.0, -0.053354982624350934], [0.053354982624350934, 0.0]],
    ],
    "P_mixed": [
        [[0.05981208733374932, -0.0019954201645727004], [-0.001995412796190754, -0.006449830175774808]],
        [[-0.014847283012213303, -0.007820613623587186], [-0.007820614800067974, 0.0007260330584152874]],
    ],
    "F": [[0.0, -0.005318017570267897], [0.005318017570267897, 0.0]],
}


def test_bundle_index_layout_is_pinned():
    b = GeometryEvaluator(PolynomialModel(asymmetric_lagrangian), jet_point(0.3, 1.2, 0.4, 0.8, -0.6)).bundle()
    got = {
        "g": b.metric.g, "G": b.semispray.G, "N": b.nlc.N, "G_time": b.cartan.G_time, "L": b.cartan.L,
        "C": b.cartan.C, "H": b.torsions.H_tor, "R": b.torsions.R, "P_mixed": b.torsions.P_mixed, "F": b.em.F,
    }
    for name, want in PINNED_BUNDLE.items():
        want = np.array(want)
        assert got[name].shape == want.shape, name
        assert np.max(np.abs(got[name] - want)) <= 1e-11 * np.max(np.abs(want)), name


def test_bundle_energy_is_the_eval_rule():
    # a model without a mass takes m = 1, as `jetlag eval` does
    ev = GeometryEvaluator(PolynomialModel(asymmetric_lagrangian), jet_point(0.3, 1.2, 0.4, 0.8, -0.6))
    energy = ev.bundle().ym_energy
    assert energy == ym_energy(ev.em_form(), 1.0)
    assert energy == pytest.approx(ev.em_form().F[1, 0] ** 2, rel=1e-14)


def test_oracle_energy_divides_by_the_model_mass():
    # at m = 2 the oracle's EYM = F21^2 / m must read the monolayer's m, as the closed form does
    params = MonolayerParams(m=2.0)
    pt = jet_point(1e-3, 0.5, 0.0, -1.0, 0.2)
    closed = closed_em_and_ym(pt, params, form="exact")[1]
    assert GeometryEvaluator(MonolayerModel(params), pt).yang_mills_energy() == pytest.approx(closed, rel=1e-5)


def test_bundle_evaluates_each_probe_once(params5, sample_pt):
    # the evaluator's probe memo: 5627 L-evaluations without it, 3131 with
    # it; nothing outlives the evaluator, so a second one pays the same
    model = CountingMonolayer(params5)
    GeometryEvaluator(model, sample_pt).bundle()
    first = model.calls
    GeometryEvaluator(model, sample_pt).bundle()
    assert first <= 3300
    assert model.calls == 2 * first


def test_maxwell_makes_only_the_em_form_evaluations(params5, sample_pt):
    # the check reads F and C and differentiates nothing further: on a fresh
    # evaluator it costs what em_form() costs (287 L-evaluations here; the
    # nested FD of F it once made cost 1423)
    counts = []
    for stage in ("maxwell_vertical_residual", "em_form"):
        model = CountingMonolayer(params5)
        getattr(GeometryEvaluator(model, sample_pt), stage)()
        counts.append(model.calls)
    assert counts == [287, 287]


class TestBuiltinModelInvariants:
    """Metric symmetry / inverse / metricity across all built-in models at
    100+ seeded valid points each."""

    def _ed_model(self):
        return electrodynamics_fixture(
            ElectrodynamicsFixtureParams(
                m=1.3,
                e=0.7,
                A=lambda x: np.array([0.4 * x[1] ** 2, -0.8 * x[0]]),
                A_jac=lambda x: np.array([[0.0, 0.8 * x[1]], [-0.8, 0.0]]),
            )
        )

    def _points_for(self, name, n=100):
        rng = np.random.default_rng(17)
        pts = []
        for _ in range(n):
            if name == "monolayer":
                pts.append(jet_point(rng.uniform(1e-4, 1e-3), rng.uniform(0.3, 1.0), 0.0,
                                     rng.uniform(-3.0, -0.3), rng.uniform(-1, 1)))
            else:
                pts.append(jet_point(rng.uniform(0, 1), rng.uniform(0.5, 2.0),
                                     rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return pts

    @pytest.mark.parametrize("name", ["free_polar", "monolayer", "electrodynamics"])
    def test_metric_symmetry_and_inverse(self, name, model5):
        model = {"free_polar": FP, "monolayer": model5}.get(name) or self._ed_model()
        for pt in self._points_for(name):
            met = GeometryEvaluator(model, pt).metric()
            scale = max(1.0, float(np.max(np.abs(met.g))))
            assert abs(met.g[0, 1] - met.g[1, 0]) < 1e-12 * scale
            assert np.max(np.abs(met.g @ met.g_inv - np.eye(2))) < 1e-10

    @pytest.mark.parametrize("name", ["free_polar", "electrodynamics"])
    def test_metricity_all_models(self, name):
        model = FP if name == "free_polar" else self._ed_model()
        for pt in self._points_for(name, n=10):
            assert max(GeometryEvaluator(model, pt).metricity_residuals()) < 1e-5


def test_evaluator_thread_safety(model5):
    # pure functions on immutable inputs: concurrent bundle evaluations must
    # agree with the serial result
    import concurrent.futures

    pts = [jet_point(1e-4 + 1e-5 * k, 0.4 + 0.01 * k, 0.0, -1.0 - 0.1 * k, 0.2) for k in range(8)]
    serial = [GeometryEvaluator(model5, pt).bundle().ym_energy for pt in pts]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda pt: GeometryEvaluator(model5, pt).bundle().ym_energy, pts))
    assert serial == parallel
