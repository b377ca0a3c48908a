"""Closed-form-vs-oracle validation and the machine-readable discrepancy report.

Every exported closed form is compared against the generic FD pipeline at
seeded random jet points.  Three record classes appear:

* exact closed forms at FD-resolvable points: must agree to tolerance,
  anything else is an unexplained flag (a defect), unless the
  disagreement lies inside the oracle's own spread when every FD step
  scale is halved and doubled (explained as fd step spread);
* printed (approximate) display forms: flagged with an explanation naming
  the expansion parameter wherever they drift beyond tolerance -- they are
  leading-order approximations by construction and the oracle is the
  ground truth downstream;
* any record at an FD-unresolvable point: flagged with a dynamic-range
  explanation.  The Lagrangian reaches ~e^(2|V|t/r) * poly, so once
  eps * |L| rises past the fibre-scale signals (g22 = m r^2 / 2, the
  phidot-proportional N, L and F entries) no finite-difference scheme can
  extract them from L values alone; the closed forms stay exact there.

Identity checks ride along as residual records.  In two dimensions the
``maxwell_vertical`` and ``em_antisymmetry`` records can detect only an F
that is not antisymmetric or not finite: every cyclic triple of the
Maxwell identity repeats an index, so its cyclic sum vanishes for every
antisymmetric F.  ``GeometryEvaluator.em_form`` builds F exactly
antisymmetric; F's transcription is checked by the ``F21_exact`` record
and by the 40-digit reference of ``tests/test_reference.py``.

``n_flagged_unexplained`` must be zero for a run to pass.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field

import numpy as np

from . import monolayer as mono
from .errors import DomainError, JetLagError
from .fd import scales_for
from .geometry import CartanConnection, GeometryEvaluator
from .models import LagrangianModel
from .monolayer import MonolayerModel, MonolayerParams
from .points import JetPoint, jet_point

#: sampling box for valid jet points (t, r, rdot, phidot) at the
#: reference parameters m=1, p=10, |V|=1000
SAMPLE_BOX = {
    "t": (1e-4, 1e-2),
    "r": (0.1, 1.0),
    "rdot": (-5.0, -0.1),
    "phidot": (-1.0, 1.0),
}

#: the dynamic-range ratio above which a point is outside the FD-resolvable
#: regime.  Calibrated on 300 box samples, where every point under 1.9e-10
#: kept the worst pipeline-vs-exact error below 1e-6.  The ratio does not
#: bound that error at every point under the cut: at (t, r, rdot, phidot) =
#: (2.4308e-4, 0.17837, -3.0202, 0.99220) it reads 9.6e-14, yet N11's FD
#: error of 6.6e-7 grows about 20x through cancellation in L1_11, which the
#: oracle misses by 1.34e-5.  Such a disagreement lies inside the oracle's
#: own step spread (``_step_spread``), and only then is it explained.
FD_RESOLVABLE_CUT = 2e-11

#: the factors on every FD step scale whose oracles give the step spread
_STEP_FACTORS = (0.5, 2.0)

_EPS = float(np.finfo(float).eps)

_APPROX_NOTE = (
    "printed display is the leading-order expansion in "
    "eps = m*rdot^3*exp(-2|V|t/r)/(2*p*r^5*|V|); eps = {eps:.3e} here, "
    "the exact-form counterpart matches the oracle"
)

_SPREAD_NOTE = (
    "fd step spread: the oracle moves by {spread:.3e} (relative) when every "
    "finite-difference step scale is halved or doubled, more than this "
    "disagreement, so the oracle cannot adjudicate it at this point"
)

_DYNRANGE_NOTE = (
    "fd dynamic range: eps*|L| over the weakest fibre signal = {kappa:.3e} "
    "exceeds {cut:.0e}, so central differences of L cannot resolve the "
    "compared quantities at this point; the closed form is the exact "
    "expression"
)


@dataclass
class DiscrepancyRecord:
    quantity: str
    point: dict
    closed_form: float
    oracle: float | None
    rel_err: float | None
    verdict: str  # "ok" | "flagged"
    explanation: str = ""


@dataclass
class DiscrepancyReport:
    seed: int
    params: dict
    tolerance: float
    n_points: int
    records: list[DiscrepancyRecord] = field(default_factory=list)
    n_points_resolvable: int = 0

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records if r.verdict == "ok")

    @property
    def n_flagged(self) -> int:
        return sum(1 for r in self.records if r.verdict == "flagged")

    @property
    def n_flagged_unexplained(self) -> int:
        return sum(1 for r in self.records if r.verdict == "flagged" and not r.explanation)

    def passed(self) -> bool:
        return self.n_flagged_unexplained == 0

    def add(self, quantity: str, point: dict, closed_form: float, oracle, rel_err, tol: float, note: str = ""):
        """Record one comparison: ok iff ``rel_err < tol`` (so a NaN or a
        missing ``rel_err`` is flagged), and a flagged record carries ``note``."""
        verdict, explanation = ("ok", "") if rel_err is not None and rel_err < tol else ("flagged", note)
        self.records.append(DiscrepancyRecord(quantity, point, closed_form, oracle, rel_err, verdict, explanation))

    def _header(self, records: list) -> dict:
        """The report's fields, with ``records`` for its record list."""
        return {
            "seed": self.seed,
            "params": self.params,
            "tolerance": self.tolerance,
            "n_points": self.n_points,
            "n_points_resolvable": self.n_points_resolvable,
            "summary": {
                "n_records": len(self.records),
                "n_ok": self.n_ok,
                "n_flagged": self.n_flagged,
                "n_flagged_unexplained": self.n_flagged_unexplained,
            },
            "records": records,
        }

    def to_dict(self) -> dict:
        def clean(rec: dict) -> dict:
            for key in _NUMBERS:
                rec[key] = _clean(rec[key])
            return rec

        return self._header([clean(dict(vars(r))) for r in self.records])

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True,
        allow_nan=False)``, byte for byte, and raising where it raises.

        With ``indent`` set, the json module runs its pure-Python encoder,
        so the records, the bulk of a report, are written here in their
        fixed layout: strings through ``encode_basestring_ascii``, finite
        floats through ``float.__repr__``, each point dict encoded once
        (a point's records share one dict).  The header and every other
        value still go through ``json.dumps``.
        """
        head = json.dumps(self._header([]), indent=2, sort_keys=True, allow_nan=False)
        if not self.records:
            return head
        points: dict[int, str] = {}
        body = []
        for rec in self.records:
            point = points.get(id(rec.point))
            if point is None:
                point = points[id(rec.point)] = _nested(rec.point)
            body.append(
                _RECORD.format(
                    _value(_clean(rec.closed_form)), _value(rec.explanation), _value(_clean(rec.oracle)),
                    point, _value(rec.quantity), _value(_clean(rec.rel_err)), _value(rec.verdict),
                )
            )
        records = '\n  "records": [\n    ' + ",\n    ".join(body) + "\n  ],\n"
        return head.replace('\n  "records": [],\n', records, 1)


#: the record fields that read null where they are not finite
_NUMBERS = ("closed_form", "oracle", "rel_err")
#: one record in the report's layout, its keys sorted, at depth 2 of indent=2
_RECORD = (
    '{{\n      "closed_form": {},\n      "explanation": {},\n      "oracle": {},\n      "point": {},'
    '\n      "quantity": {},\n      "rel_err": {},\n      "verdict": {}\n    }}'
)


def _clean(v):
    """A record number as the report holds it: None where it is not finite."""
    return None if v is not None and not math.isfinite(v) else v


def _nested(v) -> str:
    """v as json.dumps(indent=2, sort_keys=True, allow_nan=False) writes it as
    a record's value: each line after the first indented by the record's
    depth."""
    return json.dumps(v, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n      ")


def _value(v) -> str:
    """A record's value: None, strings and finite floats directly, the rest
    as json writes them (booleans, ints, and the errors of anything else)."""
    if v is None:
        return "null"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return _nested(v)


def dynamic_range_ratio(model: MonolayerModel, pt: JetPoint) -> float:
    """FD information floor of L over the weakest signal the pipeline needs.

    eps*|L| is one ulp of the Lagrangian; m r^2 scales the fibre-metric
    signal; the min(|rdot|, 1)^2 factor tracks the shrinking step budget of
    the rdot axis and max(|phidot|, 0.02) the smallness of the
    phidot-proportional connection/EM signals; a DomainError where it is 0.
    """
    signal = (
        model.params.m
        * pt.r**2
        * min(abs(pt.rdot), 1.0) ** 2
        * max(min(abs(pt.phidot), 1.0), 0.02)
    )
    if signal == 0.0:
        raise DomainError(f"dynamic_range_ratio: the fibre signal underflows to 0 at m = {model.params.m:.6g}, r = {pt.r:.6g}")
    return _EPS * abs(model.value(pt.t, *pt.x, *pt.y)) / signal


def sample_points(seed: int, n: int, box=None, resolvable_for: MonolayerModel | None = None):
    """Deterministic valid sample points from the reference box.

    With ``resolvable_for`` set, rejection-sample until the points also sit
    inside the FD-resolvable regime of that model.
    """
    box = box or SAMPLE_BOX
    rng = np.random.default_rng(seed)
    pts: list[JetPoint] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise RuntimeError("sampling box rejects too many points")
        pt = jet_point(
            rng.uniform(*box["t"]),
            rng.uniform(*box["r"]),
            0.0,
            rng.uniform(*box["rdot"]),
            rng.uniform(*box["phidot"]),
        )
        if resolvable_for is not None:
            if dynamic_range_ratio(resolvable_for, pt) >= FD_RESOLVABLE_CUT:
                continue
        pts.append(pt)
    return pts


def _rel_err(closed: float, oracle: float) -> float:
    scale = max(abs(closed), abs(oracle), 1e-30)
    return abs(closed - oracle) / scale


def _point_dict(pt: JetPoint) -> dict:
    return {"t": pt.t, "r": pt.r, "phi": pt.phi, "rdot": pt.rdot, "phidot": pt.phidot}


def _expansion_eps(pt: JetPoint, params: MonolayerParams) -> float:
    """eps = m / a, the printed displays' expansion parameter."""
    a = mono._stiff_term(pt.t, pt.r, pt.rdot, params, "_expansion_eps")
    if a == 0.0:
        raise DomainError(f"_expansion_eps: a = 2 p r^5 |V| e^E / rdot^3 underflows to 0 at p = {params.p:.6g}, r = {pt.r:.6g}")
    return params.m / a


def _exact_table(g, G, N, cartan: CartanConnection, F21) -> dict[str, float]:
    """The 16 quantities compared exactly, from either route's objects."""
    return {
        "g11": g[0, 0],
        "g22": g[1, 1],
        "G1_exact": G[0],
        "G2": G[1],
        "Gtime_11": cartan.G_time[0, 0],
        "C1_11": cartan.C[0, 0, 0],
        "N11_exact": N[0, 0],
        "N12_exact": N[0, 1],
        "N21": N[1, 0],
        "N22": N[1, 1],
        "L1_11_exact": cartan.L[0, 0, 0],
        "L1_12_exact": cartan.L[0, 0, 1],
        "L1_22": cartan.L[0, 1, 1],
        "L2_11_exact": cartan.L[1, 0, 0],
        "L2_12": cartan.L[1, 0, 1],
        "F21_exact": F21,
    }


def _closed_exact_values(pt: JetPoint, params: MonolayerParams) -> dict[str, float]:
    cm = mono.closed_metric(pt, params)
    cs = mono.closed_semispray(pt, params, form="exact")
    cn = mono.closed_nonlinear_connection(pt, params, form="exact")
    cc = mono.closed_cartan(pt, params, form="exact")
    return _exact_table(cm.g, cs.G, cn.N, cc, mono.em_component_f21(pt, params, form="exact"))


def _oracle_values(ev: GeometryEvaluator) -> dict[str, float]:
    met = ev.metric()
    spray = ev.semispray()
    nlc = ev.nonlinear_connection()
    cart = ev.cartan()
    return _exact_table(met.g, spray.G, nlc.N, cart, ev.em_form().F[1, 0])


class _ScaledSteps(LagrangianModel):
    """``model`` with every finite-difference step scale times ``factor``."""

    def __init__(self, model: LagrangianModel, factor: float):
        self.model, self.factor, self.m = model, factor, model.m

    def value(self, t, r, phi, rdot, phidot) -> float:
        return self.model.value(t, r, phi, rdot, phidot)

    def domain_violation(self, t, r, phi, rdot, phidot) -> str | None:
        return self.model.domain_violation(t, r, phi, rdot, phidot)

    def fd_scales(self, pt: JetPoint, spec=None):
        return self.factor * scales_for(self.model, pt, spec)


def _step_spread(model: LagrangianModel, pt: JetPoint, oracle: dict[str, float]) -> dict[str, float]:
    """Per quantity, the largest relative change of the oracle's value when
    every FD step scale is halved or doubled: how far the oracle itself can
    be trusted at ``pt``.  Where a rescaled oracle raises, the spread is 0,
    so it explains nothing."""
    spread = dict.fromkeys(oracle, 0.0)
    for factor in _STEP_FACTORS:
        try:
            scaled = _oracle_values(GeometryEvaluator(_ScaledSteps(model, factor), pt))
        except JetLagError:
            continue
        for name, value in scaled.items():
            spread[name] = max(spread[name], _rel_err(float(value), float(oracle[name])))
    return spread


def run_validation(
    params: MonolayerParams | None = None,
    seed: int = 0,
    n_points: int = 100,
    tolerance: float = 1e-5,
    negative_control: bool = False,
) -> DiscrepancyReport:
    """Full oracle-vs-closed-form sweep producing the discrepancy report.

    negative_control perturbs L^2_12 by +0.1 inside the metricity check; a
    healthy detector must then flag the metricity records.
    """
    params = params or MonolayerParams()
    model = MonolayerModel(params)
    report = DiscrepancyReport(
        seed=seed,
        params={"m": params.m, "p": params.p, "V_abs": params.V_abs},
        tolerance=tolerance,
        n_points=n_points,
    )

    pts = sample_points(seed, n_points)
    if negative_control:
        # a benign probe where the perturbation cannot hide behind large
        # connection terms, so the detector fires for every seed
        pts = [jet_point(1e-4, 0.5, 0.0, -1.0, 0.2)] + pts

    for pt in pts:
        pd = _point_dict(pt)
        kappa = dynamic_range_ratio(model, pt)
        closed = _closed_exact_values(pt, params)

        # an FD-unresolvable point, or one where the pipeline itself raises,
        # flags every closed value with the dynamic-range note
        failure = None if kappa < FD_RESOLVABLE_CUT else ""
        if failure is None:
            ev = GeometryEvaluator(model, pt)
            try:
                oracle = _oracle_values(ev)
            except JetLagError as exc:
                failure = f"; pipeline raised {type(exc).__name__}"
        if failure is not None:
            note = _DYNRANGE_NOTE.format(kappa=kappa, cut=FD_RESOLVABLE_CUT) + failure
            for name, value in closed.items():
                report.add(name, pd, float(value), None, None, tolerance, note)
            continue

        report.n_points_resolvable += 1
        spread = None  # computed only for a disagreement nothing else explains
        for name, value in closed.items():
            closed_v, oracle_v = float(value), float(oracle[name])
            err, note = _rel_err(closed_v, oracle_v), ""
            if not err < tolerance:
                if spread is None:
                    spread = _step_spread(model, pt, oracle)
                if err < spread[name]:
                    note = _SPREAD_NOTE.format(spread=spread[name])
            report.add(name, pd, closed_v, oracle_v, err, tolerance, note)

        # printed (approximate) display forms
        eps = _expansion_eps(pt, params)
        note = _APPROX_NOTE.format(eps=eps)
        cs_poly = mono.closed_semispray(pt, params, form="polynomial")
        cn_pr = mono.closed_nonlinear_connection(pt, params, form="printed")
        cc_pr = mono.closed_cartan(pt, params, form="printed")
        f21_pr = mono.em_component_f21(pt, params, form="printed")
        printed_pairs = [
            ("G1_polynomial", cs_poly.G[0], oracle["G1_exact"]),
            ("N11_printed", cn_pr.N[0, 0], oracle["N11_exact"]),
            ("N12_printed", cn_pr.N[0, 1], oracle["N12_exact"]),
            ("L1_11_printed", cc_pr.L[0, 0, 0], oracle["L1_11_exact"]),
            ("L1_12_printed", cc_pr.L[0, 0, 1], oracle["L1_12_exact"]),
            ("L2_11_printed", cc_pr.L[1, 0, 0], oracle["L2_11_exact"]),
            ("F21_printed", f21_pr, oracle["F21_exact"]),
        ]
        for name, closed_v, oracle_v in printed_pairs:
            closed_v, oracle_v = float(closed_v), float(oracle_v)
            report.add(name, pd, closed_v, oracle_v, _rel_err(closed_v, oracle_v), tolerance, note)

        # identity checks ride along as residual-vs-zero records
        cart = ev.cartan()
        cart_for_metricity = cart
        if negative_control:
            perturbed = np.array(cart.L, copy=True)
            perturbed[1, 0, 1] += 0.1
            cart_for_metricity = CartanConnection(G_time=cart.G_time, L=perturbed, C=cart.C)
        res_t, res_h, res_v = ev.metricity_residuals(cartan=cart_for_metricity)
        maxw = ev.maxwell_vertical_residual()
        em_f = ev.em_form().F
        em_antisym = float(np.max(np.abs(em_f + em_f.T)))
        cm = mono.closed_metric(pt, params)
        inv_dev = float(np.max(np.abs(cm.g @ cm.g_inv - np.eye(2))))
        for name, value, tol in [
            ("metricity_time", res_t, tolerance),
            ("metricity_horizontal", res_h, tolerance),
            ("metricity_vertical", res_v, tolerance),
            ("maxwell_vertical", maxw, tolerance),
            ("em_antisymmetry", em_antisym, 1e-12),
            ("metric_inverse_identity", inv_dev, 1e-12),
        ]:
            # no note: a deliberate perturbation must surface unexplained
            report.add(name, pd, 0.0, float(value), float(value), tol)

    _append_resonant_records(report, params, tolerance)
    return report


def _append_resonant_records(report: DiscrepancyReport, params: MonolayerParams, tolerance: float):
    """Document the printed resonant solution against the ODE route.

    The printed closed form carries an undefined constant read as |V|; the
    ODE oracle adjudicates that reading, so the agreement (or not) belongs
    in the report.
    """
    if params.R0 is None or params.p == 0.0:
        return
    from .dynamics import default_span, resonant_trajectory

    t_start, t_end = default_span(params)
    grid_info = {"t_start": t_start, "t_end": t_end, "n_samples": 100}
    ode = resonant_trajectory(params, source="ode", n_samples=100)
    closed = resonant_trajectory(params, source="closed_form", n_samples=100)
    if not np.array_equal(closed.t, ode.t):
        raise ValueError("the closed-form and ODE resonant trajectories are not on one grid")
    agree = float(np.max(np.abs(closed.r0 - ode.r0) / closed.r0))
    pairs = [
        ("resonant_closed_form_vs_ode", agree, 1e-8),
        ("resonant_eq_large_time_residual_ode", float(np.max(ode.residual_eq22())), 1e-6),
        # r0dot of the closed form is analytic, so a flag here is unexplained
        ("resonant_eq_large_time_residual_closed_form", float(np.max(closed.residual_eq22())), tolerance),
        ("resonant_ym_bracket_residual", float(np.max(ode.ym_bracket_residual())), 1e-6),
    ]
    for name, value, tol in pairs:
        report.add(name, grid_info, 0.0, value, value, tol)
