"""Generic jet-Lagrange geometry derived from any Lagrangian by FD.

Everything here is obtained from the model's scalar value alone, by
numerical differentiation: the fundamental metric g_ij = (1/2) d2L/dy_i dy_j,
the spatial semispray G, the nonlinear connection N = dG/dy, the Cartan
canonical connection (G_time, L, C), the six torsion families, the
electromagnetic d-form F and its Yang-Mills energy.  The time metric is
h11 = 1 with kappa = 0, so the temporal semispray H, the temporal
connection M = 2H and kappa^1_11 vanish and are not carried.  This
pipeline is the independent oracle against which the monolayer closed
forms are validated.

Each object is one array expression over arrays of L-partials, in the
conventions of Miron & Anastasiei, *The Geometry of Lagrange Spaces*
(Kluwer 1994).  ``GeometryEvaluator._d(*groups)`` holds the partials over
the product of axis groups, e.g. ``_d(X, Y)[q, s]`` = d2L/dx^q dy^s, and
``_dg(group)[k, i, j]`` = d g_ij / d a^k along the group's axes a.  Sums
over a repeated index are einsum calls, which add the terms in index order;
the products with g^-1 are matmul calls.  BLAS may fuse a matmul's
multiply-adds, so the two are not interchangeable bit for bit.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMetricError
from .fd import noisy_field_partial, numeric_partials, scales_for
from .models import LagrangianModel
from .points import AXES, JetPoint

__all__ = [
    "Metric",
    "Semispray",
    "NonlinearConnection",
    "CartanConnection",
    "TorsionSet",
    "EMForm",
    "GeometryBundle",
    "GeometryEvaluator",
    "numeric_partials",
    "ym_energy",
]

_T = ("t",)
_X = ("x1", "x2")
_Y = ("y1", "y2")
_TINY = 1e-300


@dataclass
class Metric:
    g: np.ndarray
    g_inv: np.ndarray
    det_g: float


@dataclass
class Semispray:
    G: np.ndarray


@dataclass
class NonlinearConnection:
    N: np.ndarray


@dataclass
class CartanConnection:
    G_time: np.ndarray
    L: np.ndarray
    C: np.ndarray


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
    """Adjugate inverse with a relative singularity guard; a non-finite g,
    or one whose determinant or row-norm product overflows, has no inverse
    either.  The guard runs on Python floats, which overflow to inf (and
    inf - inf to NaN) without a warning."""
    if not np.isfinite(g).all():
        raise SingularMetricError(f"metric is not finite: g = {g.tolist()}")
    (a, b), (c, d) = g.tolist()
    det = a * d - b * c
    scale = (abs(a) + abs(b)) * (abs(c) + abs(d)) + _TINY
    if not (math.isfinite(det) and math.isfinite(scale)):
        raise SingularMetricError(
            f"metric determinant or row-norm product overflows: g = {g.tolist()}, det = {det}, "
            f"row-norm product {scale}"
        )
    if abs(det) < 1e-12 * scale:
        raise SingularMetricError(
            f"metric is singular within tolerance: g = {g.tolist()}, det = {det}, "
            f"row-norm product {scale}"
        )
    return np.array([[d, -b], [-c, a]]) / det, det


def ym_energy(em: EMForm, m: float) -> float:
    """Yang-Mills energy (1/2m) Trace(F F^T); equals (1/m) F_(1)2^2."""
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    F = np.asarray(em.F, dtype=float)
    return float(np.sum(F * F) / (2.0 * m))


def _term_balance(terms: np.ndarray) -> float:
    """Worst |sum of terms| / max|term| over the components of ``terms``
    (stacked on axis 0), 0 where every term is 0: a scale-free residual."""
    scale = np.abs(terms).max(0)
    ratio = np.divide(np.abs(terms.sum(0)), scale, out=np.zeros_like(scale), where=scale > 0)
    return float(ratio.max())


def _stage(method):
    """Compute a geometry stage once per evaluator."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        if name not in self._objects:
            self._objects[name] = method(self)
        return self._objects[name]

    return cached


class GeometryEvaluator:
    """The geometry at one jet point; its stages share the L-partials and
    the finite-difference probe memo."""

    def __init__(self, model: LagrangianModel, pt: JetPoint):
        self.model = model
        self.pt = pt
        self._partials: dict[tuple, float] = {}
        self._values: dict[tuple, float] = {}  # the FD probe memo, see fd.py
        self._objects: dict[str, object] = {}

    # -- L-partials ------------------------------------------------------------
    def partial(self, *spec) -> float:
        key = tuple(sorted(spec))
        if key not in self._partials:
            self._partials[key] = numeric_partials(self.model, self.pt, key, values=self._values)
        return self._partials[key]

    def _d(self, *groups) -> np.ndarray:
        """Partials of L over the product of axis groups, one array axis per group."""
        flat = [self.partial(*spec) for spec in itertools.product(*groups)]
        return np.array(flat).reshape([len(group) for group in groups])

    def _dg(self, group) -> np.ndarray:
        """[k, i, j] = d g_ij / d a^k for the axes a of ``group``."""
        return 0.5 * self._d(group, _Y, _Y)

    # -- geometric objects --------------------------------------------------
    @_stage
    def metric(self) -> Metric:
        g = 0.5 * self._d(_Y, _Y)
        inv, det = _invert_2x2(g)
        return Metric(g=g, g_inv=inv, det_g=det)

    def _bracket(self) -> np.ndarray:
        """B_s = d2L/dx^q dy^s y^q - dL/dx^s + d2L/dt dy^s."""
        y = np.array(self.pt.y)
        return np.einsum("q,qs->s", y, self._d(_X, _Y)) - self._d(_X) + self._d(_T, _Y)[0]

    @_stage
    def semispray(self) -> Semispray:
        return Semispray(G=self.metric().g_inv @ self._bracket() / 4.0)

    @_stage
    def nonlinear_connection(self) -> NonlinearConnection:
        """N_(1)j^(i) = dG^(i)/dy^j, differentiated analytically through the
        semispray formula so only direct partials of L (order <= 3) appear."""
        ginv = self.metric().g_inv
        y = np.array(self.pt.y)
        dginv = -ginv @ self._dg(_Y) @ ginv  # [j] = d g^-1 / dy^j
        d_xy = self._d(_X, _Y)
        dB = (  # [j, s] = d B_s / dy^j
            np.einsum("q,qsj->js", y, self._d(_X, _Y, _Y)) + d_xy - d_xy.T + self._d(_T, _Y, _Y)[0]
        )
        N = (dginv @ self._bracket() + (ginv @ dB[..., None])[..., 0]) / 4.0
        return NonlinearConnection(N=N.T)

    def _delta_g(self) -> np.ndarray:
        """delta g_ij / delta x^k = dg/dx^k - N_(1)k^(q) dg/dy^q, as [k, i, j]."""
        N = self.nonlinear_connection().N
        return self._dg(_X) - np.einsum("qk,qij->kij", N, self._dg(_Y))

    @_stage
    def cartan(self) -> CartanConnection:
        ginv = self.metric().g_inv

        def christoffel(dg):
            """[i, j, k] = g^is (d_k g_js + d_j g_ks - d_s g_jk) / 2 for dg as [k, i, j]."""
            return 0.5 * np.einsum("is,sjk->ijk", ginv, dg.transpose(2, 1, 0) + dg.transpose(2, 0, 1) - dg)

        return CartanConnection(
            G_time=0.5 * ginv @ self._dg(_T)[0],
            L=christoffel(self._delta_g()),
            C=christoffel(self._dg(_Y)),
        )

    @_stage
    def torsions(self) -> TorsionSet:
        cart = self.cartan()
        N = self.nonlinear_connection().N
        scales = scales_for(self.model, self.pt)

        def N_at(q: JetPoint) -> np.ndarray:
            return GeometryEvaluator(self.model, q).nonlinear_connection().N

        # [a] = dN / d AXES[a] by nested FD, one evaluator per probe point
        dN = np.array([noisy_field_partial(N_at, self.pt, a, scales[i]) for i, a in enumerate(AXES)])
        dN_dy = dN[3:]
        # [j, k, i] = delta N^k_i / delta x^j = dN/dx^j - N_(1)j^(q) dN/dy^q
        delta_N = dN[1:3] - np.einsum("qj,qki->jki", N, dN_dy)
        R = delta_N.transpose(1, 2, 0)
        return TorsionSet(
            T=-cart.G_time,
            H_tor=-dN[0],
            R=R - R.swapaxes(1, 2),
            P_mixed=dN_dy.transpose(1, 2, 0) - cart.L,
            P_vert=cart.C.copy(),
            calP=-cart.G_time,
        )

    @_stage
    def em_form(self) -> EMForm:
        """F_ij = 1/2 [g_js N^s_i - g_is N^s_j + (g_iq L^q_js - g_jq L^q_is) y^s],
        summed term by term over s, then over (q, s), so F is exactly antisymmetric."""
        g = self.metric().g
        y = np.array(self.pt.y)
        gN = g.T[:, :, None] * self.nonlinear_connection().N[:, None]  # [s, i, j] = g_is N^s_j
        gL = g.T[:, None, :, None] * self.cartan().L.transpose(0, 2, 1)[:, :, None]  # [q, s, i, j] = g_iq L^q_js
        gLy = ((gL - gL.swapaxes(2, 3)) * y[:, None, None]).reshape(4, 2, 2)
        return EMForm(F=0.5 * ((gN.swapaxes(1, 2) - gN).sum(0) + gLy.sum(0)))

    def yang_mills_energy(self) -> float:
        """EYM of the oracle's F with the model's mass ``m`` (1 unless the model sets it)."""
        return ym_energy(self.em_form(), self.model.m)

    # -- residual oracles ----------------------------------------------------
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

        def residual(dg, gamma) -> float:
            """Worst (i, j, k) of dg[k, i, j] - g_sj gamma^s_ik - g_is gamma^s_jk."""
            terms = np.concatenate(
                [
                    dg.transpose(1, 2, 0)[None],
                    -g[:, None, :, None] * gamma[:, :, None, :],
                    -g.T[:, :, None, None] * gamma[:, None, :, :],
                ]
            )  # [term, i, j, k]
            return _term_balance(terms)

        return (
            residual(self._dg(_T), cart.G_time[:, :, None]),
            residual(self._delta_g(), cart.L),
            residual(self._dg(_Y), cart.C),
        )

    def euler_lagrange_residual(self, ydot) -> float:
        """Normalized residual of d/dt(dL/dy^s) - dL/dx^s = B_s + d2L/dy^q dy^s ydot^q
        for the state derivative ``ydot``, with the bracket B_s taken term by
        term, so a trajectory is checked without the spray that drove it."""
        y, ydot = np.array(self.pt.y), np.asarray(ydot)
        terms = [self._d(_T, _Y), -self._d(_X)[None], self._d(_X, _Y) * y[:, None], self._d(_Y, _Y) * ydot[:, None]]
        return _term_balance(np.concatenate(terms))  # [term, s]

    def maxwell_vertical_residual(self) -> float:
        """Normalized cyclic-sum residual of F_(i)j|^(1)_(k) over {i,j,k}.

        F_(i)j|(k) = dF_ij/dy^k - F_sj C^s_ik - F_is C^s_jk.  With two
        spatial indices every cyclic triple repeats one, so the cyclic sum
        of dF_ij/dy^k pairs dF_ik/dy^i with dF_ki/dy^i = -dF_ik/dy^i and
        vanishes for every F antisymmetric in (i, j), whatever its
        derivative, so the check does not compute dF/dy.  The C-terms
        cancel in the same pairs, so the residual detects only an F that
        is not antisymmetric or not finite.
        """
        C = self.cartan().C
        F = self.em_form().F
        vert = -np.einsum("sj,sik->ijk", F, C) - np.einsum("is,sjk->ijk", F, C)
        floor = max(np.abs(vert).max(), np.abs(F).max(), _TINY)
        cyclic = vert + vert.transpose(2, 0, 1) + vert.transpose(1, 2, 0)
        return float(np.abs(cyclic).max() / floor)

    def bundle(self) -> GeometryBundle:
        return GeometryBundle(
            pt=self.pt,
            metric=self.metric(),
            semispray=self.semispray(),
            nlc=self.nonlinear_connection(),
            cartan=self.cartan(),
            torsions=self.torsions(),
            em=self.em_form(),
            ym_energy=self.yang_mills_energy(),
        )
