"""Spans around the calls into each jetlag layer, and the per-layer metrics.

The package is not modified.  ``instrument`` replaces each entry point
where its callers look it up (a module attribute or a class attribute),
records one span per call, and puts the originals back on exit.  An entry
point that no longer exists is skipped; the metrics derived from it are
then absent instead of failing the run.

A span holds its name, start, end and parent span.  Spans live in typed
arrays while the run lasts and are written out once at its end.  A span's
self time is its duration minus the time its child spans cover; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

#: GeometryEvaluator stages and the metric-name suffix of each
STAGES = {
    "metric": "metric",
    "semispray": "semispray",
    "nonlinear_connection": "nlc",
    "cartan": "cartan",
    "em_form": "em_form",
    "torsions": "torsions",
    "metricity_residuals": "metricity",
    "maxwell_vertical_residual": "maxwell",
}
CLOSED_FORMS = (
    "closed_metric",
    "closed_semispray",
    "closed_nonlinear_connection",
    "closed_cartan",
    "closed_torsions",
    "em_component_f21",
    "closed_em_and_ym",
)
FD_ENTRIES = ("numeric_partials", "field_partial", "noisy_field_partial")
DYNAMICS_ENTRIES = (
    "instanton_energy",
    "hamiltonian_split",
    "integrate_geodesic",
    "resonant_trajectory",
    "deviation_integrate",
    "compose_perturbed",
)
#: how the validator's dynamic-range explanations start; every other
#: explained flag is a printed-expansion (approximation) flag
DYNRANGE_PREFIX = "fd dynamic range"


class Tracer:
    """In-memory span store plus the outcome counters read off results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.models: list = []
        self.present: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(i)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    # -- outcome hooks -------------------------------------------------------
    def _on_geodesic(self, args, series) -> None:
        kind = series.status.split(":", 1)[0]
        self.counts[f"dynamics.outcome.{kind}"] += 1
        self.counts["dynamics.steps"] += len(series.t) - 1

    def _on_report(self, args, report) -> None:
        self.counts["validate.points_resolvable"] += report.n_points_resolvable
        self.counts["validate.records"] += len(report.records)
        for rec in report.records:
            if rec.oracle is not None:
                self.counts["validate.checked"] += 1
            if rec.verdict != "flagged":
                continue
            if not rec.explanation:
                kind = "unexplained"
            elif rec.explanation.startswith(DYNRANGE_PREFIX):
                kind = "dynrange"
            else:
                kind = "printed"
            self.counts[f"validate.flagged.{kind}"] += 1

    def _on_model(self, args, result) -> None:
        self.models.append(args[0])


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers on the jetlag entry points; undo them on exit."""
    from jetlag import dynamics, geometry, monolayer, validate

    targets = [
        (monolayer, "exp_integral_f", "expint.exp_integral_f"),
        (dynamics, "exp_integral_f", "expint.exp_integral_f"),
        *[(geometry, f, f"fd.{f}") for f in FD_ENTRIES],
        (monolayer.MonolayerModel, "__init__", "models.init"),
        (monolayer.MonolayerModel, "value", "models.value"),
        (monolayer.MonolayerModel, "spray", "models.spray"),
        *[(monolayer, f, f"monolayer.{f}") for f in CLOSED_FORMS],
        (dynamics, "em_component_f21", "monolayer.em_component_f21"),
        *[(dynamics, f, f"dynamics.{f}") for f in DYNAMICS_ENTRIES],
        (geometry.GeometryEvaluator, "__init__", "geometry.evaluator"),
        *[(geometry.GeometryEvaluator, s, f"geometry.{s}") for s in STAGES],
        (validate, "run_validation", "validate.run_validation"),
        (validate.DiscrepancyReport, "to_json", "validate.to_json"),
    ]
    hooks = {
        "models.init": tracer._on_model,
        "dynamics.integrate_geodesic": tracer._on_geodesic,
        "validate.run_validation": tracer._on_report,
    }
    undo = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            tracer.present.add(name)
            setattr(owner, attr, tracer.wrap(original, name, hooks.get(name)))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Every per-layer metric whose entry points exist, from spans and hooks."""
    ids = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    covered = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_time = dur - covered
    n_names = len(tracer.names)
    calls = np.bincount(ids, minlength=n_names)
    self_by_name = np.bincount(ids, weights=self_time, minlength=n_names)

    def sel(names):
        return [tracer._ids[n] for n in names if n in tracer._ids]

    def n_calls(*names) -> int:
        return int(sum(calls[i] for i in sel(names)))

    def self_s(*names) -> float:
        return float(sum(self_by_name[i] for i in sel(names)))

    def outermost_s(name: str, enclosing=None) -> float:
        """Duration of the calls of ``name`` not made inside a call of any of
        the ``enclosing`` names (default: ``name`` itself)."""
        if name not in tracer._ids:
            return 0.0
        target = tracer._ids[name]
        outer = set(sel(enclosing)) if enclosing else {target}
        total = 0.0
        for i in np.flatnonzero(ids == target):
            p = parent[i]
            while p >= 0 and ids[p] not in outer:
                p = parent[p]
            if p < 0:
                total += dur[i]
        return total

    present = tracer.present
    counts = tracer.counts
    out: dict[str, float] = {}

    if "expint.exp_integral_f" in present:
        out["expint.calls"] = n_calls("expint.exp_integral_f")
        out["expint.self_s"] = self_s("expint.exp_integral_f")

    if "models.value" in present:
        out["models.value_calls"] = n_calls("models.value")
        out["models.value_self_s"] = self_s("models.value")
    # absent once the (t, r) cache is gone; 0 when no model was built
    caches = [getattr(m, "_tr", None) for m in tracer.models]
    if all(hasattr(c, "cache_info") for c in caches):
        infos = [c.cache_info() for c in caches]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        out["models.tr_cache_hit_ratio"] = hits / lookups if lookups else 0.0

    fd_names = [f"fd.{f}" for f in FD_ENTRIES]
    if present & set(fd_names):
        out["fd.partials"] = n_calls("fd.numeric_partials", "fd.field_partial")
        out["fd.self_s"] = self_s(*fd_names)
        # counted where they arise; a noisy partial only passes them on
        out["fd.domain_errors"] = sum(
            tracer.errors[(name, "StencilDomainError")] for name in ("fd.numeric_partials", "fd.field_partial")
        )
    if "fd.noisy_field_partial" in present:
        out["fd.noisy_partials"] = n_calls("fd.noisy_field_partial")
    if "fd.numeric_partials" in present and "models.value" in present:
        v_id, p_id = tracer._ids["models.value"], tracer._ids["fd.numeric_partials"]
        in_fd = (ids == v_id) & nested
        in_fd[in_fd] = ids[parent[in_fd]] == p_id
        partials = n_calls("fd.numeric_partials")
        out["fd.levals_per_partial"] = int(in_fd.sum()) / partials if partials else 0.0

    stage_names = [f"geometry.{s}" for s in STAGES]
    geo_names = ["geometry.evaluator", *stage_names]
    if "geometry.evaluator" in present:
        out["geometry.evaluators"] = n_calls("geometry.evaluator")
    if present & set(geo_names):
        out["geometry.self_s"] = self_s(*geo_names)
    for stage, short in STAGES.items():
        if f"geometry.{stage}" in present:
            out[f"geometry.{short}_s"] = outermost_s(f"geometry.{stage}", stage_names)

    closed_names = [f"monolayer.{f}" for f in CLOSED_FORMS]
    if present & set(closed_names):
        out["monolayer.closed_calls"] = n_calls(*closed_names)
        out["monolayer.closed_self_s"] = self_s(*closed_names)

    if "dynamics.integrate_geodesic" in present:
        out["dynamics.steps"] = counts["dynamics.steps"]
        out["dynamics.solve_self_s"] = self_s("dynamics.integrate_geodesic")
        for kind in ("completed", "event", "failed"):
            out[f"dynamics.outcome.{kind}"] = counts[f"dynamics.outcome.{kind}"]
    if "models.spray" in present:
        out["dynamics.rhs_calls"] = n_calls("models.spray")
    energy = ["dynamics.instanton_energy", "dynamics.hamiltonian_split"]
    if present & set(energy):
        out["dynamics.energy_calls"] = n_calls(*energy)
        out["dynamics.energy_self_s"] = self_s(*energy)
        # the energy calls with the Ei and closed-form calls they make
        out["dynamics.energy_s"] = sum(outermost_s(name) for name in energy)
    for entry, short in (
        ("resonant_trajectory", "resonant"),
        ("deviation_integrate", "deviation"),
        ("compose_perturbed", "compose"),
    ):
        if f"dynamics.{entry}" in present:
            out[f"dynamics.{short}_s"] = outermost_s(f"dynamics.{entry}")

    if "validate.run_validation" in present:
        out["validate.points_resolvable"] = counts["validate.points_resolvable"]
        records = counts["validate.records"]
        out["validate.checked_ratio"] = counts["validate.checked"] / records if records else 0.0
        for kind in ("dynrange", "printed", "unexplained"):
            out[f"validate.flagged.{kind}"] = counts[f"validate.flagged.{kind}"]
    if "validate.to_json" in present:
        out["validate.to_json_s"] = outermost_s("validate.to_json")

    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out
