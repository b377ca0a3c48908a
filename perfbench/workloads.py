"""The four seeded workloads: their inputs, one item, and its check.

Every workload draws its inputs from ``--seed`` alone and hands the
program only those inputs.  The draws form a randomly shifted Halton
sequence (randomized quasi-Monte Carlo): each point is uniform over the
box, the seed moves the whole design by one random shift, and any
``2**k`` consecutive items cover the range of the first coordinate -- the
one the item cost depends on most -- evenly.  A timed run stops only at a
boundary of ``round_items`` items, so the mix of cheap and expensive items
barely moves between seeds.

Library entry points are looked up through their modules at call time
(``dynamics.integrate_geodesic``, not a name bound at import), so the
wrappers the traced run installs see every call.

An item's ``run`` returns ``None`` when the item passes its check, or a
reason string: ``failed:...`` for a failure the program reported itself,
``wrong:...`` for a result that fails the check.  The worker turns an
exception into ``raised:...``.
"""

from __future__ import annotations

import numpy as np

from jetlag import dynamics, geometry, monolayer, validate
from jetlag.points import jet_point

#: reference parameters m=1, p=10, |V|=1000 shared by every workload
REFERENCE = {"m": 1.0, "p": 10.0, "V_abs": 1000.0}
#: acceptance tolerance of the closed-form-vs-oracle comparison
ORACLE_TOL = 1e-5
#: inputs generated per run; a run that gets through them all starts over
N_ITEMS = 4096
_PRIMES = (2, 3, 5, 7, 11)


def _radical_inverse(i: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(len(i))
    scale = 1.0 / base
    i = i.copy()
    while np.any(i > 0):
        out += scale * (i % base)
        i //= base
        scale /= base
    return out


def _design(rng, ranges, n: int = N_ITEMS) -> np.ndarray:
    """(n, len(ranges)) points of the Halton sequence, shifted mod 1 by one
    seeded vector and scaled to the ranges."""
    idx = np.arange(n)
    cols = []
    for (lo, hi), base in zip(ranges, _PRIMES):
        u = (_radical_inverse(idx, base) + rng.random()) % 1.0
        cols.append(lo + (hi - lo) * u)
    return np.column_stack(cols)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


class Sweep:
    """One ``integrate_geodesic`` run of the CLI ``sweep`` command."""

    name = "sweep"
    #: the CLI sweep box: r0, rdot0, phidot0
    BOX = ((0.2, 1.0), (-5.0, -0.5), (0.0, 0.1))
    round_items = 32
    trace_items = 16

    def __init__(self, seed: int):
        self.params = monolayer.MonolayerParams(**REFERENCE)
        self.model = monolayer.MonolayerModel(self.params)
        rng = np.random.default_rng(seed)
        self.inputs = [tuple(float(v) for v in row) for row in _design(rng, self.BOX)]

    def describe(self, inp) -> str:
        return "r0={:.4f} rdot0={:.4f} phidot0={:.4f}".format(*inp)

    def run(self, inp):
        r0, rdot0, phidot0 = inp
        cfg = dynamics.SimConfig(
            params=self.params,
            state0=dynamics.TrajectoryState(0.0, r0, 0.0, rdot0, phidot0),
            t_end=2e-3,
            rtol=1e-9,
            atol=1e-9,
            r_min=1e-6,
            compute_el_residual=False,
        )
        series = dynamics.integrate_geodesic(cfg, self.model)
        if series.status.startswith("failed"):
            return series.status
        fields = ("t", "r", "phi", "rdot", "phidot", "e_inst", "H", "H_ym", "eym", "g11")
        if not _all_finite(*(getattr(series, f) for f in fields)):
            return "wrong:non-finite sample"
        return None


def _exact_quantities(metric, spray, nlc, cartan, f21) -> dict[str, float]:
    """The 16 exact quantities the validator compares, by its names."""
    return {
        "g11": metric.g[0, 0],
        "g22": metric.g[1, 1],
        "G1_exact": spray.G[0],
        "G2": spray.G[1],
        "Gtime_11": cartan.G_time[0, 0],
        "C1_11": cartan.C[0, 0, 0],
        "N11_exact": nlc.N[0, 0],
        "N12_exact": nlc.N[0, 1],
        "N21": nlc.N[1, 0],
        "N22": nlc.N[1, 1],
        "L1_11_exact": cartan.L[0, 0, 0],
        "L1_12_exact": cartan.L[0, 0, 1],
        "L1_22": cartan.L[0, 1, 1],
        "L2_11_exact": cartan.L[1, 0, 0],
        "L2_12": cartan.L[1, 0, 1],
        "F21_exact": f21,
    }


class Oracle:
    """One fully checked jet point: every oracle stage, then the closed forms.

    The box is defined by coordinates alone, so every point is checked and
    the work per item does not depend on any FD-resolvability cut.
    """

    name = "oracle"
    #: t, r, rdot, |phidot|; the sign of phidot is drawn separately
    BOX = ((1e-4, 1e-3), (0.4, 1.0), (-2.0, -0.5), (0.1, 1.0))
    round_items = 16
    trace_items = 32

    def __init__(self, seed: int):
        self.params = monolayer.MonolayerParams(**REFERENCE)
        self.model = monolayer.MonolayerModel(self.params)
        rng = np.random.default_rng(seed)
        rows = _design(rng, self.BOX)
        signs = rng.choice((-1.0, 1.0), size=len(rows))
        self.inputs = [
            jet_point(t, r, 0.0, rdot, s * aphi)
            for (t, r, rdot, aphi), s in zip(rows, signs)
        ]

    def describe(self, pt) -> str:
        return f"t={pt.t:.3e} r={pt.r:.4f} rdot={pt.rdot:.4f} phidot={pt.phidot:.4f}"

    def run(self, pt):
        ev = geometry.GeometryEvaluator(self.model, pt)
        oracle = _exact_quantities(
            ev.metric(), ev.semispray(), ev.nonlinear_connection(), ev.cartan(), ev.em_form().F[1, 0]
        )
        ev.torsions()
        residuals = (*ev.metricity_residuals(), ev.maxwell_vertical_residual())

        p = self.params
        closed = _exact_quantities(
            monolayer.closed_metric(pt, p),
            monolayer.closed_semispray(pt, p, form="exact"),
            monolayer.closed_nonlinear_connection(pt, p, form="exact"),
            monolayer.closed_cartan(pt, p, form="exact"),
            monolayer.em_component_f21(pt, p, form="exact"),
        )
        for name, value in closed.items():
            err = _rel_err(float(value), float(oracle[name]))
            if not err < ORACLE_TOL:
                return f"wrong:{name} rel err {err:.2e}"
        worst = max(residuals)
        if not worst < ORACLE_TOL:
            return f"wrong:metricity/Maxwell residual {worst:.2e}"
        return None


class Validate:
    """One ``run_validation(n_points=100)`` report plus its JSON, as CLI ``validate``."""

    name = "validate"
    #: report seeds carry no strata, so every item is a round of its own
    round_items = 1
    trace_items = 4

    def __init__(self, seed: int):
        # CLI defaults: the reference parameters with R0 = 1, so the
        # resonant records ride along
        self.params = monolayer.MonolayerParams(**REFERENCE, R0=1.0)
        rng = np.random.default_rng(seed)
        self.inputs = [int(s) for s in rng.integers(0, 2**31 - 1, size=N_ITEMS)]

    def describe(self, report_seed) -> str:
        return f"report seed {report_seed}"

    def run(self, report_seed):
        report = validate.run_validation(self.params, seed=report_seed, n_points=100)
        report.to_json()
        if not report.passed():
            return f"wrong:{report.n_flagged_unexplained} unexplained flags"
        return None


class Resonant:
    """ODE and closed-form resonant trajectories, deviations, composition."""

    name = "resonant"
    #: R0, |delta_r|, delta_rdot, delta_phi, delta_phidot
    BOX = ((0.5, 2.0), (1e-5, 1e-4), (-1e-3, 1e-3), (-1.0, 1.0), (-1.0, 1.0))
    round_items = 8
    trace_items = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        rows = _design(rng, self.BOX)
        signs = rng.choice((-1.0, 1.0), size=len(rows))
        self.inputs = [
            (R0, dynamics.DeviationState(s * adr, drd, dphi, dphid))
            for (R0, adr, drd, dphi, dphid), s in zip(rows, signs)
        ]

    def describe(self, inp) -> str:
        R0, d = inp
        return f"R0={R0:.4f} dr={d.delta_r:.3e} drdot={d.delta_rdot:.3e}"

    def run(self, inp):
        R0, init = inp
        params = monolayer.MonolayerParams(**REFERENCE, R0=R0)
        ode = dynamics.resonant_trajectory(params, source="ode", n_samples=400)
        closed = dynamics.resonant_trajectory(
            params, t_span=(ode.t[0], ode.t[-1]), source="closed_form", n_samples=len(ode.t)
        )
        dev = dynamics.deviation_integrate(ode, init, params)
        comp = dynamics.compose_perturbed(ode, dev)

        agree = float(np.max(np.abs(closed.r0 - ode.spline()(closed.t)) / closed.r0))
        checks = (
            ("closed form vs ODE", agree, 1e-8),
            ("large-time residual", float(np.max(ode.residual_eq22())), 1e-6),
            ("YM bracket residual", float(np.max(ode.ym_bracket_residual())), 1e-6),
            ("affine delta_phi", float(np.max(np.abs(dev.delta_phi - (dev.c1 + dev.c2 * dev.t)))), 1e-8),
        )
        for what, value, tol in checks:
            if not value < tol:
                return f"wrong:{what} {value:.2e}"
        fields = ("r", "phi", "rdot", "phidot", "e_inst", "H", "H_ym", "eym", "g11")
        if not _all_finite(*(getattr(comp, f) for f in fields)):
            return "wrong:non-finite composed sample"
        if ode.flags or closed.flags or comp.events or comp.status != "completed":
            return f"wrong:flags {ode.flags + closed.flags}"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Validate, Resonant)}


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items above it.

    With fewer than 11 items no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n
