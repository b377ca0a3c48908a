"""The exact spray on plain floats: its values, its errors and the work of
the geodesic solve, pinned bit for bit.

The (G1, G2) and g11 pins, the error messages and the solver counts were
read off the implementation that built a ``JetPoint`` and a ``Semispray``
per call, so each pin holds the float path to the same operations in the
same order; the three G1 pins at E = 40 and 200 were read again when Ei
moved from scipy to jetlag's own tables, each closer to the 40-digit
reference than before (the spray amplifies Ei's last bits there).  The
states span E = 2|V|t/r from 0 to past the e^E overflow
at 709.78 (``_denominator`` saturates e^E to inf from E = 709 on), |rdot|
from 1e-12 to 1e13 on both sides of the singular locus g11 = 0, and r
from 1e-6 to 1e2.  At E >= 708.9, dU/dr itself overflows, so G1 reads
NaN there.
"""

import math

import pytest

from jetlag import points
from jetlag.dynamics import SimConfig, TrajectoryState, _spray_of, integrate_geodesic
from jetlag.monolayer import MonolayerModel, MonolayerParams, closed_semispray
from jetlag.points import jet_point
from oracles import polar_spray

PARAMS = MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=1.0)

#: (t, r, phi, rdot, phidot), float.hex of (G1, G2) or (error class, message),
#: float.hex of g11
PINS = [
    ((0.0, 0.008566261756093619, 0.0, -7.244161080772566e-07, -0.8647844836153478),
     ('0x1.5a621357a1c91p-5', '0x1.32bc614ca0a41p-14'), '0x1.1a8258dd74540p+40'),  # E=0
    ((0.0, 0.5045051815664672, 0.0, 212755126.83825925, 0.09667336916974989),
     ('0x1.141bccab95210p+1', '0x1.370956e50080ap+25'), '0x1.0000000000000p-1'),  # E=0
    ((0.0, 0.11870538863909195, 0.0, 1.6982354173277745e-08, 0.10866350071805209),
     ('-0x1.2c0662f986dfdp-14', '0x1.0b12d939c917dp-26'), '-0x1.4619363ceab90p+75'),  # E=0
    ((1.2748695244531069e-11, 2.5497390489062136e-05, 0.0, -4.615437927113847, -0.3159884573962699),
     ('-0x1.55b3ce7001ee5p-20', '0x1.beddfd6f19149p+15'), '0x1.0000000000000p-1'),  # E=0.001
    ((2.5021551179981257e-05, 50.04310235996252, 0.0, 9.87691021490595, -0.59527764130031),
     ('-0x1.9e5ab929b6967p+6', '-0x1.e13bee6095682p-4'), '-0x1.84b05f91bd8e2p+31'),  # E=0.001
    ((5.720099766654278e-11, 0.00011440199533308556, 0.0, 57.524985125247746, 0.6964550930666709),
     ('-0x1.d17d446fcd647p-16', '0x1.55fdfa76aafb5p+18'), '0x1.0000000000000p-1'),  # E=0.001
    ((1.2449313986193606e-06, 0.0004979725594477442, 0.0, -40760838007.61091, -0.5193146817624026),
     ('-0x1.19a41e64e4685p-14', '0x1.3548e2e7286ddp+45'), '0x1.0000000000000p-1'),  # E=5
    ((0.054468295001297365, 21.787318000518944, 0.0, 1676012.0990171975, 0.8639734424254002),
     ('0x1.12785a4efaeaep+28', '0x1.039e0e430c5abp+16'), '0x1.ffff98245df4ep-2'),  # E=5
    ((0.10083830588575643, 40.33532235430257, 0.0, 1.0063450838259433e-08, 0.4041378184867983),
     ('-0x1.0be497a9b8ee9p-23', '0x1.bb74c7f7beaa4p-34'), '-0x1.d3dd3ab32f286p+126'),  # E=5
    ((1.6561103101619707e-06, 8.280551550809853e-05, 0.0, -2217.367725045413, -0.4890914735846459),
     ('0x1.2dee8455e1501p+15', '0x1.8faf8a393e55fp+23'), '0x1.0000000738626p-1'),  # E=40
    ((9.750473881054882e-05, 0.004875236940527441, 0.0, 0.006585184845366088, -0.8702621283129586),
     ('-0x1.519b88551054bp+9', '-0x1.2ced837d23c3cp+0'), '-0x1.429b78a5d0c5fp+54'),  # E=40
    ((0.0020474305324504455, 0.10237152662252226, 0.0, 79052.29926377768, 0.7587533442006542),
     ('-0x1.709874dc508f5p+49', '0x1.1e1799550cb76p+19'), '-0x1.a891e38d67fdcp+5'),  # E=40
    ((0.05057973048386248, 0.5057973048386248, 0.0, -6.014252781969396e-08, 0.2404169154954532),
     ('0x1.f2bac1f093468p-15', '-0x1.eb1f6bac043efp-26'), '0x1.d434519352cd8p+368'),  # E=200
    ((0.0005765028203356235, 0.005765028203356235, 0.0, 1.2731767825568193e-05, -0.7851731455470519),
     ('-0x1.1aae42ab7256fp+0', '-0x1.c68fbd5cd3e28p-10'), '-0x1.560ca161aef55p+313'),  # E=200
    ((3.125939496846328e-07, 3.1259394968463283e-06, 0.0, 64752360.81131501, -0.384373702026503),
     ('-0x1.52a22e96db134p+98', '-0x1.cf74d47b3fa01p+42'), '-0x1.7584eaa21af13p+132'),  # E=200
    ((5.755500023056861e-05, 0.0001623783332785121, 0.0, -21634285.212803107, 0.3998153449556452),
     ('nan', '-0x1.8ce269211d4d6p+35'), '0x1.f629c3557fe34p+899'),  # E=708.9
    ((2.6952606535647596e-05, 7.604064476131358e-05, 0.0, 3114514.607016708, 0.36630380704264853),
     ('nan', '0x1.bf21e3b620a27p+33'), '-0x1.d9ce299880164p+902'),  # E=708.9
    ((0.002707095198641665, 0.007637452951450598, 0.0, 98.42861101703069, 0.8541935996835355),
     ('nan', '0x1.5804329c75a27p+13'), '-0x1.fbab66e4b8bf8p+980'),  # E=708.9
    ((0.02086332532951107, 0.05882792987314556, 0.0, -8179313295708.147, 0.23483966798822165),
     ('nan', '-0x1.db24c37fa8481p+44'), 'inf'),  # E=709.3
    ((0.004294483963037019, 0.012109076450125529, 0.0, 2.2416417402793977e-06, 0.026550624590369276),
     ('nan', '0x1.49d84d5580fe8p-18'), '-inf'),  # E=709.3
    ((1.7275673235461715, 4.8711894079971, 0.0, 1.1082920617847011e-12, -0.5637413272247913),
     ('nan', '-0x1.20d23105d5d04p-43'), '-inf'),  # E=709.3
    ((19.029379009891677, 53.61143544130632, 0.0, -0.11742243561101792, 0.7312625811410125),
     ('DomainError', 'closed_semispray: e^E overflows at E = 2|V|t/r = 709.9'), 'inf'),  # E=709.9
    ((0.00026758080397673806, 0.0007538549203457898, 0.0, 2151118.609520136, 0.39576849398575153),
     ('DomainError', 'closed_semispray: e^E overflows at E = 2|V|t/r = 709.9'), '-inf'),  # E=709.9
    ((1.5328898959891854e-05, 4.318607961654276e-05, 0.0, 1.168211776257506e-10, -0.523671598442061),
     ('DomainError', 'closed_semispray: e^E overflows at E = 2|V|t/r = 709.9'), '-inf'),  # E=709.9
]

#: inputs of the ODE right-hand side that end in an error, with its class and message
ERRORS = [
    ((1e-3, 0.5, 0.0, 0.0, 0.2), "DomainError", "semispray requires rdot != 0"),
    ((1e-3, 0.5, math.nan, -1.0, 0.2), "ValueError", "non-finite jet point component in (0.001, 0.5, nan, -1.0, 0.2)"),
    ((math.nan, 0.5, 0.0, -1.0, 0.2), "ValueError", "non-finite jet point component in (nan, 0.5, 0.0, -1.0, 0.2)"),
    ((1e-3, 0.5, 0.0, math.inf, 0.2), "ValueError", "non-finite jet point component in (0.001, 0.5, 0.0, inf, 0.2)"),
    ((1e-3, 0.0, 0.0, -1.0, 0.2), "ValueError", "jet point requires r > 0, got r = 0.0"),
    ((1e-3, -1.0, 0.0, -1.0, 0.2), "ValueError", "jet point requires r > 0, got r = -1.0"),
    ((709.9 * 0.5 / 2000.0, 0.5, 0.0, -1.0, 0.2), "DomainError",
     "closed_semispray: e^E overflows at E = 2|V|t/r = 709.9"),
    # r^5 and rdot^3 overflow in the kernel; the spray names the state
    ((1.0, 1e70, 0.0, -1.0, 0.2), "DomainError",
     "the spray G overflows at (t, r, phi, rdot, phidot) = (1, 1e+70, 0, -1, 0.2)"),
    ((0.0, 1.0, 0.0, 1e110, 0.2), "DomainError",
     "the spray G overflows at (t, r, phi, rdot, phidot) = (0, 1, 0, 1e+110, 0.2)"),
    ((1e308, 1e-10, 0.0, 1.0, 0.2), "DomainError",
     "potential_U_dr requires a finite E = 2|V|t/r, got E = inf at t = 1e+308, r = 1e-10"),
    # m - 2 p r^5 |V| e^E / rdot^3 rounds to exactly 0 here
    ((0.0, 1.0, 0.0, 27.144176165949066, 0.2), "DomainError",
     "singular semispray denominator m - 2 p r^5 |V| e^E rdot^-3 = 0"),
]


def _outcome(fn, state):
    try:
        return tuple(v.hex() for v in fn(*state))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("state, G, g11", PINS)
def test_spray_and_g11_are_pinned(state, G, g11):
    model = MonolayerModel(PARAMS)
    assert _outcome(model.spray, state) == G
    assert model.metric_g11(*state).hex() == g11
    if G[0] != "DomainError":
        # closed_semispray(form="exact") wraps the same kernel
        pt = jet_point(*state)
        assert tuple(float(v).hex() for v in closed_semispray(pt, PARAMS).G) == G


@pytest.mark.parametrize("state, cls, message", ERRORS)
def test_spray_errors_are_pinned(state, cls, message):
    assert _outcome(_spray_of(MonolayerModel(PARAMS)), state) == (cls, message)


def test_free_spray_at_p_zero():
    free = MonolayerModel(MonolayerParams(m=1.3, p=0.0))
    state = (0.2, 2.0, 0.3, 0.0, 0.5)  # rdot = 0 is a valid free-polar point
    assert free.spray(*state) == polar_spray(2.0, 0.0, 0.5) == (-0.25, 0.0)
    assert free.metric_g11(*state) == 0.65


class _Counting(MonolayerModel):
    calls = 0

    def spray(self, *args):
        self.calls += 1
        return super().spray(*args)


@pytest.mark.parametrize(
    "state0, rhs_calls, steps, status",
    [
        # the default simulate start
        ((0.0, 0.5, 0.0, -1.0, 0.1), 350, 56, "completed"),
        # the collapsing default-sweep start, with and without angular motion
        ((0.0, 0.2, 0.0, -5.0, 0.0), 3339, 553, "event:finite_time_collapse"),
        ((0.0, 0.2, 0.0, -5.0, 0.1), 3339, 553, "event:finite_time_collapse"),
    ],
)
def test_geodesic_work_is_pinned(state0, rhs_calls, steps, status):
    """RHS calls (with the one give-up classification) and accepted steps:
    counts that do not depend on the hardware."""
    model = _Counting(PARAMS)
    ser = integrate_geodesic(SimConfig(PARAMS, TrajectoryState(*state0), 2e-3, compute_el_residual=False), model)
    assert (model.calls, len(ser.t) - 1, ser.status) == (rhs_calls, steps, status)


def test_rhs_builds_no_jet_point(monkeypatch):
    """The right-hand side and the events run on floats: the solve builds
    one JetPoint, for the initial state, and never calls closed_semispray."""
    built = []
    post_init = points.JetPoint.__post_init__
    monkeypatch.setattr(points.JetPoint, "__post_init__", lambda pt: built.append(pt) or post_init(pt))

    def refuse(*args, **kwargs):
        raise AssertionError("the solve called closed_semispray")

    monkeypatch.setattr("jetlag.monolayer.closed_semispray", refuse)
    cfg = SimConfig(PARAMS, TrajectoryState(0.0, 0.2, 0.0, -5.0, 0.1), 2e-3, compute_el_residual=False)
    ser = integrate_geodesic(cfg, MonolayerModel(PARAMS))
    assert ser.status == "event:finite_time_collapse"
    assert len(built) == 1
