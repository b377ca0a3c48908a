"""Generic jet-Lagrange geometry derived from any Lagrangian by FD.

Everything here is obtained from the model's scalar value alone, by
numerical differentiation: the fundamental metric g_ij = (1/2) d2L/dy_i dy_j,
the semispray (H = 0, G), the nonlinear connection N = dG/dy, the Cartan
canonical connection (G_time, L, C), the six torsion families, the
electromagnetic d-form F and its Yang-Mills energy.  This pipeline is the
independent oracle against which the monolayer closed forms are validated.

Index conventions (arrays are 2x2 or 2x2x2, spatial indices 0 and 1):

* ``Metric.g[i, j]``                  g_ij (both lower)
* ``Semispray.G[i]``                  G_(1)1^(i)
* ``NonlinearConnection.N[i, j]``     N_(1)j^(i)   (upper first, lower second)
* ``CartanConnection.G_time[k, j]``   G^k_j1
* ``CartanConnection.L[i, j, k]``     L^i_jk
* ``CartanConnection.C[i, j, k]``     C^{i(1)}_{j(k)}
* ``TorsionSet.T[k, j]``              T^k_1j
* ``TorsionSet.H_tor[k, j]``          H_(1)1j^(k)
* ``TorsionSet.R[k, i, j]``           R_(1)ij^(k)
* ``TorsionSet.P_mixed[k, i, j]``     P_(1)i(j)^(k)(1)
* ``TorsionSet.P_vert[k, i, j]``      P^{k(1)}_{i(j)}
* ``TorsionSet.calP[k, j]``           curly-P_(1)1(j)^(k)(1)
* ``EMForm.F[i, j]``                  F_(i)j^(1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMetricError
from .fd import field_partial, noisy_field_partial, numeric_partials
from .models import LagrangianModel
from .points import AXES, TIME_METRIC, JetPoint

__all__ = [
    "Metric",
    "Semispray",
    "NonlinearConnection",
    "AdaptedFrame",
    "CartanConnection",
    "TorsionSet",
    "EMForm",
    "GeometryBundle",
    "GeometryEvaluator",
    "numeric_partials",
    "metric_from_lagrangian",
    "semispray_from_lagrangian",
    "nonlinear_connection",
    "adapted_derivative",
    "cartan_connection",
    "torsions",
    "em_form",
    "ym_energy",
    "metricity_residuals",
    "maxwell_vertical_residual",
    "evaluate_bundle",
]

_X_AXES = ("x1", "x2")
_Y_AXES = ("y1", "y2")
_TINY = 1e-300


@dataclass
class Metric:
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float


@dataclass
class Semispray:
    H: np.ndarray  # temporal components, identically zero (kappa111 = 0)
    G: np.ndarray


@dataclass
class NonlinearConnection:
    M: np.ndarray  # = 2H = 0
    N: np.ndarray


@dataclass
class AdaptedFrame:
    """Coefficients of delta/delta x^j = d/dx^j - N_(1)j^(q) d/dy^q."""

    N: np.ndarray

    @staticmethod
    def from_connection(nlc: NonlinearConnection) -> "AdaptedFrame":
        return AdaptedFrame(N=np.array(nlc.N, dtype=float))


@dataclass
class CartanConnection:
    G_time: np.ndarray
    L: np.ndarray
    C: np.ndarray
    kappa111: float = 0.0


@dataclass
class TorsionSet:
    T: np.ndarray
    H_tor: np.ndarray
    R: np.ndarray
    P_mixed: np.ndarray
    P_vert: np.ndarray
    calP: np.ndarray


@dataclass
class EMForm:
    F: np.ndarray


@dataclass
class GeometryBundle:
    """Every geometric object of the pipeline at a single jet point."""

    pt: JetPoint
    metric: Metric
    semispray: Semispray
    nlc: NonlinearConnection
    cartan: CartanConnection
    torsions: TorsionSet
    em: EMForm
    ym_energy: float


def _invert_2x2(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Adjugate inverse with a relative singularity guard."""
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    scale = (abs(g[0, 0]) + abs(g[0, 1])) * (abs(g[1, 0]) + abs(g[1, 1])) + _TINY
    if abs(det) < 1e-12 * scale:
        raise SingularMetricError(
            f"metric is singular within tolerance (det = {det}, scale = {scale}); "
            "this is the g11 = 0 locus"
        )
    inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    return inv, float(det)


def ym_energy(em: EMForm, m: float) -> float:
    """Yang-Mills energy (1/2m) Trace(F F^T); equals (1/m) F_(1)2^2."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    F = np.asarray(em.F, dtype=float)
    return float(np.sum(F * F) / (2.0 * m))


class GeometryEvaluator:
    """Shares the Lagrangian partials among the geometry operations at one point."""

    def __init__(self, model: LagrangianModel, pt: JetPoint):
        self.model = model
        self.pt = pt
        self._partials: dict[tuple, float] = {}
        self._values: dict[tuple, float] = {}  # the FD probe memo, see fd.py
        self._objects: dict[str, object] = {}

    # -- cached scalar partials -------------------------------------------
    def partial(self, *spec) -> float:
        key = tuple(sorted(spec))
        if key not in self._partials:
            self._partials[key] = numeric_partials(self.model, self.pt, key, values=self._values)
        return self._partials[key]

    def _dg_dt(self) -> np.ndarray:
        out = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                out[i, j] = 0.5 * self.partial("t", _Y_AXES[i], _Y_AXES[j])
        return out

    def _dg_dy(self) -> np.ndarray:
        out = np.empty((2, 2, 2))  # [k, i, j] = d g_ij / d y^k
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    out[k, i, j] = 0.5 * self.partial(
                        _Y_AXES[k], _Y_AXES[i], _Y_AXES[j]
                    )
        return out

    def _dg_dx(self) -> np.ndarray:
        out = np.empty((2, 2, 2))  # [k, i, j] = d g_ij / d x^k
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    out[k, i, j] = 0.5 * self.partial(
                        _X_AXES[k], _Y_AXES[i], _Y_AXES[j]
                    )
        return out

    # -- geometric objects --------------------------------------------------
    def metric(self) -> Metric:
        if "metric" not in self._objects:
            g = np.empty((2, 2))
            g[0, 0] = 0.5 * self.partial("y1", "y1")
            g[1, 1] = 0.5 * self.partial("y2", "y2")
            g[0, 1] = g[1, 0] = 0.5 * self.partial("y1", "y2")
            inv, det = _invert_2x2(g)
            self._objects["metric"] = Metric(g=g, g_inv=inv, det_g=det)
        return self._objects["metric"]

    def _semispray_bracket(self) -> np.ndarray:
        """B_s = d2L/dx^q dy^s y^q - dL/dx^s + d2L/dt dy^s."""
        y = np.array(self.pt.y)
        B = np.empty(2)
        for s in range(2):
            B[s] = (
                sum(self.partial(_X_AXES[q], _Y_AXES[s]) * y[q] for q in range(2))
                - self.partial(_X_AXES[s])
                + self.partial("t", _Y_AXES[s])
            )
        return B

    def semispray(self) -> Semispray:
        if "semispray" not in self._objects:
            ginv = self.metric().g_inv
            B = self._semispray_bracket()
            G = ginv @ B / 4.0
            self._objects["semispray"] = Semispray(H=np.zeros(2), G=G)
        return self._objects["semispray"]

    def nonlinear_connection(self) -> NonlinearConnection:
        """N_(1)j^(i) = dG^(i)/dy^j, differentiated analytically through the
        semispray formula so only direct partials of L (order <= 3) appear."""
        if "nlc" in self._objects:
            return self._objects["nlc"]
        met = self.metric()
        ginv = met.g_inv
        B = self._semispray_bracket()
        dg_dy = self._dg_dy()
        y = np.array(self.pt.y)

        N = np.empty((2, 2))
        for j in range(2):
            dginv_j = -ginv @ dg_dy[j] @ ginv
            dB_j = np.empty(2)
            for s in range(2):
                dB_j[s] = (
                    sum(
                        self.partial(_X_AXES[q], _Y_AXES[s], _Y_AXES[j]) * y[q]
                        for q in range(2)
                    )
                    + self.partial(_X_AXES[j], _Y_AXES[s])
                    - self.partial(_X_AXES[s], _Y_AXES[j])
                    + self.partial("t", _Y_AXES[s], _Y_AXES[j])
                )
            N[:, j] = (dginv_j @ B + ginv @ dB_j) / 4.0
        self._objects["nlc"] = NonlinearConnection(M=np.zeros(2), N=N)
        return self._objects["nlc"]

    def _delta_g(self) -> np.ndarray:
        """delta g_ij / delta x^k = dg/dx^k - N_(1)k^(q) dg/dy^q, as [k, i, j]."""
        N = self.nonlinear_connection().N
        dg_dx = self._dg_dx()
        dg_dy = self._dg_dy()
        out = np.empty((2, 2, 2))
        for k in range(2):
            out[k] = dg_dx[k] - sum(N[q, k] * dg_dy[q] for q in range(2))
        return out

    def cartan(self) -> CartanConnection:
        if "cartan" in self._objects:
            return self._objects["cartan"]
        ginv = self.metric().g_inv
        dg_dt = self._dg_dt()
        dg_dy = self._dg_dy()
        delta_g = self._delta_g()

        G_time = 0.5 * ginv @ dg_dt
        C = np.empty((2, 2, 2))
        L = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    C[i, j, k] = 0.5 * sum(
                        ginv[i, s]
                        * (dg_dy[k, j, s] + dg_dy[j, k, s] - dg_dy[s, j, k])
                        for s in range(2)
                    )
                    L[i, j, k] = 0.5 * sum(
                        ginv[i, s]
                        * (delta_g[k, j, s] + delta_g[j, k, s] - delta_g[s, j, k])
                        for s in range(2)
                    )
        self._objects["cartan"] = CartanConnection(
            G_time=G_time, L=L, C=C, kappa111=TIME_METRIC.kappa111
        )
        return self._objects["cartan"]

    # -- nested FD over the N field (needed only by the torsions) ----------
    def _N_at(self, pt: JetPoint) -> np.ndarray:
        return GeometryEvaluator(self.model, pt).nonlinear_connection().N

    def _N_partial(self, axis: str) -> np.ndarray:
        scales = self._scales()
        return noisy_field_partial(self._N_at, self.pt, axis, scales[AXES.index(axis)])

    def torsions(self) -> TorsionSet:
        if "torsions" in self._objects:
            return self._objects["torsions"]
        cart = self.cartan()
        N = self.nonlinear_connection().N

        dN_dt = self._N_partial("t")
        dN_dx = [self._N_partial(a) for a in _X_AXES]
        dN_dy = [self._N_partial(a) for a in _Y_AXES]

        # delta N / delta x^j = dN/dx^j - N_(1)j^(q) dN/dy^q
        delta_N = [dN_dx[j] - sum(N[q, j] * dN_dy[q] for q in range(2)) for j in range(2)]

        R = np.empty((2, 2, 2))
        P_mixed = np.empty((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    R[k, i, j] = delta_N[j][k, i] - delta_N[i][k, j]
                    P_mixed[k, i, j] = dN_dy[j][k, i] - cart.L[k, i, j]
        self._objects["torsions"] = TorsionSet(
            T=-cart.G_time.copy(),
            H_tor=-dN_dt,
            R=R,
            P_mixed=P_mixed,
            P_vert=cart.C.copy(),
            calP=-cart.G_time.copy(),
        )
        return self._objects["torsions"]

    def em_form(self) -> EMForm:
        if "em" in self._objects:
            return self._objects["em"]
        g = self.metric().g
        N = self.nonlinear_connection().N
        Lc = self.cartan().L
        y = np.array(self.pt.y)
        F = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                acc = sum(g[j, s] * N[s, i] - g[i, s] * N[s, j] for s in range(2))
                acc += sum(
                    (g[i, q] * Lc[q, j, s] - g[j, q] * Lc[q, i, s]) * y[s]
                    for q in range(2)
                    for s in range(2)
                )
                F[i, j] = 0.5 * TIME_METRIC.h11 * acc
        self._objects["em"] = EMForm(F=F)
        return self._objects["em"]

    # -- residual oracles ----------------------------------------------------
    def _scales(self) -> np.ndarray:
        hinted = getattr(self.model, "fd_scales", None)
        scales = hinted(self.pt) if callable(hinted) else None
        if scales is None:
            scales = np.maximum(np.abs(self.pt.as_array()), 1.0)
        return np.asarray(scales, dtype=float)

    def metricity_residuals(self, cartan: CartanConnection | None = None):
        """Normalized covariant-derivative residuals of g: (/1, |k, |(k)).

        Each residual is |sum of terms| / max|term| per component, so the
        three numbers are scale-free; all must vanish for the Cartan
        canonical connection.  The check pins the transcription of the
        covariant-derivative rules and of the connection formulas; passing
        a perturbed ``cartan`` is the negative control that shows it fires.
        """
        cart = cartan if cartan is not None else self.cartan()
        g = self.metric().g
        dg_dt = self._dg_dt()
        dg_dy = self._dg_dy()
        delta_g = self._delta_g()

        def combine(terms):
            scale = max(abs(v) for v in terms)
            if scale == 0.0:
                return 0.0
            return abs(sum(terms)) / scale

        res_t = 0.0
        res_h = 0.0
        res_v = 0.0
        for i in range(2):
            for j in range(2):
                terms = [dg_dt[i, j]]
                terms += [-g[s, j] * cart.G_time[s, i] for s in range(2)]
                terms += [-g[i, s] * cart.G_time[s, j] for s in range(2)]
                res_t = max(res_t, combine(terms))
                for k in range(2):
                    terms = [delta_g[k, i, j]]
                    terms += [-g[s, j] * cart.L[s, i, k] for s in range(2)]
                    terms += [-g[i, s] * cart.L[s, j, k] for s in range(2)]
                    res_h = max(res_h, combine(terms))
                    terms = [dg_dy[k, i, j]]
                    terms += [-g[s, j] * cart.C[s, i, k] for s in range(2)]
                    terms += [-g[i, s] * cart.C[s, j, k] for s in range(2)]
                    res_v = max(res_v, combine(terms))
        return res_t, res_h, res_v

    def maxwell_vertical_residual(self) -> float:
        """Normalized cyclic-sum residual of F_(i)j|^(1)_(k) over {i,j,k}."""
        C = self.cartan().C
        F = self.em_form().F

        def em_at(pt: JetPoint) -> np.ndarray:
            return GeometryEvaluator(self.model, pt).em_form().F

        scales = self._scales()
        dF_dy = [
            noisy_field_partial(em_at, self.pt, a, scales[AXES.index(a)])
            for a in _Y_AXES
        ]

        def vert(i, j, k):
            return (
                dF_dy[k][i, j]
                - sum(F[s, j] * C[s, i, k] for s in range(2))
                - sum(F[i, s] * C[s, j, k] for s in range(2))
            )

        worst = 0.0
        scale = max(
            (abs(vert(i, j, k)) for i in range(2) for j in range(2) for k in range(2)),
            default=0.0,
        )
        floor = max(scale, abs(F).max(), _TINY)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    cyc = vert(i, j, k) + vert(j, k, i) + vert(k, i, j)
                    worst = max(worst, abs(cyc))
        return worst / floor

    def bundle(self) -> GeometryBundle:
        m = getattr(self.model, "m", None)
        em = self.em_form()
        energy = ym_energy(em, m) if m else float(np.sum(em.F**2))
        return GeometryBundle(
            pt=self.pt,
            metric=self.metric(),
            semispray=self.semispray(),
            nlc=self.nonlinear_connection(),
            cartan=self.cartan(),
            torsions=self.torsions(),
            em=em,
            ym_energy=energy,
        )


# -- module-level operation wrappers ------------------------------------------


def metric_from_lagrangian(model, pt) -> Metric:
    return GeometryEvaluator(model, pt).metric()


def semispray_from_lagrangian(model, pt) -> Semispray:
    return GeometryEvaluator(model, pt).semispray()


def nonlinear_connection(model, pt) -> NonlinearConnection:
    return GeometryEvaluator(model, pt).nonlinear_connection()


def cartan_connection(model, pt) -> CartanConnection:
    return GeometryEvaluator(model, pt).cartan()


def torsions(model, pt) -> TorsionSet:
    return GeometryEvaluator(model, pt).torsions()


def em_form(model, pt) -> EMForm:
    return GeometryEvaluator(model, pt).em_form()


def metricity_residuals(model, pt, cartan: CartanConnection | None = None):
    return GeometryEvaluator(model, pt).metricity_residuals(cartan=cartan)


def maxwell_vertical_residual(model, pt) -> float:
    return GeometryEvaluator(model, pt).maxwell_vertical_residual()


def evaluate_bundle(model, pt) -> GeometryBundle:
    return GeometryEvaluator(model, pt).bundle()


def adapted_derivative(frame: AdaptedFrame, fn, pt: JetPoint, j: int) -> float:
    """Adapted (horizontal) derivative of a scalar field along x^j.

    delta f / delta x^j = df/dx^j - N_(1)j^(q) df/dy^q with the frame's N.
    ``fn`` is a callable JetPoint -> float, assumed smooth.
    """
    if j not in (0, 1):
        raise ValueError("spatial index must be 0 or 1")
    out = field_partial(fn, pt, (_X_AXES[j],))
    for q in range(2):
        out -= frame.N[q, j] * field_partial(fn, pt, (_Y_AXES[q],))
    return out
