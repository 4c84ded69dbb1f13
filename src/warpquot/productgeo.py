"""Doubly twisted products: assembly, closed-form connection and curvature.

A doubly twisted product carries the block metric

    g = lam1(x)^2 g1  (+)  lam2(x)^2 g2

on M1 x M2, with both warps positive functions of the full product point.
The closed forms implemented here (the connection, sectional curvature of
factor and mixed planes, mean curvature forms, the T tensor of the factor-1
projection) are each backed by a finite-difference oracle test; the
curvature formulas take the warp gradients and hessians with respect to the
full product metric, which is the reading that survives the oracle
equivalence checks.  The connection and curvature closed forms read
one ``point_geometry`` record, built from factor data and one evaluation of
the assembled metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import chartkit as ck
from .chartkit import (
    CoordPoint,
    MetricField,
    OneForm,
    ScalarField,
    Signature,
    TangentVector,
)
from .errors import CaseMismatch, InvalidFrame, InvalidWarp, NormalizationError, NumericsError

UNIT_TOL = 1e-9       # |g(u,u)| must equal 1 this tightly for closed forms
SLOT_TOL = 1e-12      # components outside a vector's declared slot
VANISH_TOL = 1e-7     # classification: "N_i vanishes"
CLOSED_TOL = 1e-6     # classification: "d omega vanishes"


class StructureTag(Enum):
    DOUBLY_TWISTED = "doubly-twisted"
    TWISTED = "twisted"
    DOUBLY_WARPED = "doubly-warped"
    WARPED = "warped"
    DIRECT_PRODUCT = "direct-product"


@dataclass
class FactorManifold:
    name: str
    dim: int
    metric: MetricField
    domain_box: np.ndarray  # (dim, 2)

    def __post_init__(self):
        if self.metric.dim != self.dim:
            raise ValueError(f"factor {self.name!r}: metric dim {self.metric.dim} != {self.dim}")
        self.domain_box = np.asarray(self.domain_box, dtype=float)
        if self.domain_box.shape != (self.dim, 2):
            raise ValueError(f"factor {self.name!r}: bad domain box shape {self.domain_box.shape}")


@dataclass
class StructureClass:
    tag: StructureTag
    max_n1: float
    max_n2: float
    max_domega1: float
    max_domega2: float

    @property
    def evidence(self) -> dict:
        return {
            "max_N1": self.max_n1,
            "max_N2": self.max_n2,
            "max_domega1": self.max_domega1,
            "max_domega2": self.max_domega2,
        }


@dataclass(frozen=True)
class MixedPlane:
    """span(horiz, vert) with horiz tangent to factor 1 and vert to factor 2."""

    x: CoordPoint
    horiz: TangentVector
    vert: TangentVector


class DoublyTwistedProduct:
    """Two factor manifolds plus two positive warps; owns the assembled metric."""

    def __init__(self, f1: FactorManifold, f2: FactorManifold,
                 lam1: ScalarField, lam2: ScalarField, assembled: MetricField):
        self.f1 = f1
        self.f2 = f2
        self.lam1 = lam1
        self.lam2 = lam2
        self.assembled = assembled
        self.n1 = f1.dim
        self.n2 = f2.dim
        self.n = f1.dim + f2.dim
        self.slot1 = slice(0, self.n1)
        self.slot2 = slice(self.n1, self.n)
        self.domain_box = np.vstack([f1.domain_box, f2.domain_box])

    # -- slot helpers ------------------------------------------------------
    def factor(self, i: int) -> FactorManifold:
        return self.f1 if i == 1 else self.f2

    def warp(self, i: int) -> ScalarField:
        return self.lam1 if i == 1 else self.lam2

    def slot(self, i: int) -> slice:
        return self.slot1 if i == 1 else self.slot2

    def embed(self, i: int, factor_components) -> np.ndarray:
        out = np.zeros(self.n)
        out[self.slot(i)] = np.asarray(factor_components, dtype=float)
        return out

    def project(self, i: int, values) -> np.ndarray:
        """P_i as a full-length vector (or each row of a batch): zero out the
        other factor's slots."""
        out = np.asarray(values, dtype=float).copy()
        out[..., self.slot(3 - i)] = 0.0
        return out

    def _slots(self, W: np.ndarray) -> np.ndarray:
        """Slot of each row of W (P, n): 1 or 2 for a pure slot vector, 0 for
        the zero vector, -1 for mixed."""
        scale = SLOT_TOL * np.maximum(1.0, np.abs(W).max(axis=-1))
        in1 = np.abs(W[:, self.slot2]).max(axis=-1, initial=0.0) <= scale
        in2 = np.abs(W[:, self.slot1]).max(axis=-1, initial=0.0) <= scale
        return np.where(in1 & in2, 0, np.where(in1, 1, np.where(in2, 2, -1)))

    # -- warp fields -------------------------------------------------------
    def warp_value(self, i: int, x) -> float:
        return self.warp(i).value(x)

    def log_warp(self, i: int) -> ScalarField:
        w = self.warp(i)

        def ev(c, _w=w):
            return np.log(_w._value(c))

        def grad(c, _w=w):
            return _w._d(c, 1) / _w._value(c)

        def hess(c, _w=w):
            val, gr = _w._value(c), _w._d(c, 1)
            return _w._d(c, 2) / val - gr[:, None] * gr[None] / val**2

        return ScalarField(ev, analytic_grad=grad, analytic_hess=hess,
                           name=f"ln lam{i}")

    def grad_warp(self, i: int, x) -> TangentVector:
        """Product-metric gradient of lam_i."""
        return ck.gradient(self.warp(i), self.assembled, x)

    def grad_log_warp(self, i: int, x) -> TangentVector:
        return ck.gradient(self.log_warp(i), self.assembled, x)


def grid_points(box: np.ndarray, per_axis: int, inset: float = 0.05) -> np.ndarray:
    """Lattice over the box as a (per_axis ** dim, dim) point array, last axis fastest."""
    box = np.asarray(box, dtype=float)
    axes = []
    for lo, hi in box:
        pad = inset * (hi - lo)
        axes.append(np.linspace(lo + pad, hi - pad, per_axis))
    return np.array(list(itertools.product(*axes)))


def offset_grid_points(box: np.ndarray, per_axis: int, inset: float = 0.05) -> np.ndarray:
    """Shifted-lattice sample grid, never symmetric about the box center.

    Evidence sampling (classification) uses this to avoid the measure-zero
    traps where a symmetric grid lands exactly on zeros of the sampled field.
    """
    box = np.asarray(box, dtype=float)
    frac = (np.arange(per_axis) + 0.381966) / per_axis
    axes = []
    for lo, hi in box:
        pad = inset * (hi - lo)
        axes.append(lo + pad + frac * (hi - lo - 2 * pad))
    return np.array(list(itertools.product(*axes)))


def assemble(f1: FactorManifold, f2: FactorManifold, lam1: ScalarField,
             lam2: ScalarField) -> DoublyTwistedProduct:
    """Build the block product metric lam1^2 g1 (+) lam2^2 g2.

    Warp positivity is sampled on a grid of 4 points per axis over the joint
    domain box, one batch per warp; analytic metric derivatives are
    assembled whenever both the factor metrics and the warps carry exact
    derivative callbacks.  The assembled ``eval``, ``analytic_d1`` and
    ``analytic_d2`` follow the coordinate-major batch contract of
    ``chartkit``: each call evaluates the factor metrics and warps once, on
    the whole batch.
    """
    n1, n2 = f1.dim, f2.dim
    n = n1 + n2
    box = np.vstack([f1.domain_box, f2.domain_box])
    pts = grid_points(box, 4, inset=0.0)
    vals = np.stack([lam1.value(pts), lam2.value(pts)], axis=1)
    bad = ~(vals > 0.0)
    if bad.any():
        p, i = divmod(int(np.argmax(bad)), 2)  # first failure, point by point
        raise InvalidWarp(f"lam{i + 1} = {vals[p, i]} <= 0 at {pts[p]}")

    s1, s2 = slice(0, n1), slice(n1, n)

    def factors(x, order):
        """Per factor at coordinate-major x, point axis last: the slot, lam,
        g_A, then up to ``order`` their first and second derivatives."""
        for lam, m, sl in ((lam1, f1.metric, s1), (lam2, f2.metric, s2)):
            vals = (lam._value(x), m._mat(x[sl]))
            for k in range(1, order + 1):
                vals += (lam._d(x, k), m._d(x[sl], k))
            yield (sl, *vals)

    def ev(x):
        out = np.zeros((n, n) + x.shape[1:])
        for sl, lv, gm in factors(x, 0):
            out[sl, sl] = np.square(lv) * gm
        return out

    have_d1 = (f1.metric.analytic_d1 is not None and f2.metric.analytic_d1 is not None
               and lam1.analytic_grad is not None and lam2.analytic_grad is not None)
    have_d2 = have_d1 and (f1.metric.analytic_d2 is not None and f2.metric.analytic_d2 is not None
                           and lam1.analytic_hess is not None
                           and lam2.analytic_hess is not None)

    def block_d1(x):
        out = np.zeros((n, n, n) + x.shape[1:])
        for sl, lv, gm, dl, dgf in factors(x, 1):
            out[:, sl, sl] += 2.0 * lv * dl[:, None, None] * gm
            out[sl, sl, sl] += lv**2 * dgf
        return out

    def block_d2(x):
        out = np.zeros((n, n, n, n) + x.shape[1:])
        for sl, lv, gm, dl, dgf, hl, ddgf in factors(x, 2):
            out[:, :, sl, sl] += 2.0 * (dl[:, None] * dl[None] + lv * hl)[:, :, None, None] * gm
            cross = 2.0 * lv * dl[:, None, None, None] * dgf  # [k, l in sl]: 2 lam d_k lam d_l g_A
            out[:, sl, sl, sl] += cross
            out[sl, :, sl, sl] += cross.swapaxes(0, 1)
            out[sl, sl, sl, sl] += lv**2 * ddgf
        return out

    assembled = MetricField(
        dim=n,
        eval=ev,
        signature=Signature(np.concatenate([f1.metric.signature.signs,
                                            f2.metric.signature.signs])),
        analytic_d1=block_d1 if have_d1 else None,
        analytic_d2=block_d2 if have_d2 else None,
        domain_box=box,
        name=f"{f1.name} x {f2.name}",
    )
    return DoublyTwistedProduct(f1, f2, lam1, lam2, assembled)


# ---------------------------------------------------------------------------
# per-point geometry record and the closed-form connection

@dataclass(frozen=True)
class PointGeometry:
    """Metric data of a product at one point (n,) or at each row of a batch (P, n).

    ``g`` and ``ginv`` come from one ``MetricField.mat`` call on the
    assembled metric (with its finite, symmetric and nondegeneracy checks);
    ``lam[..., i - 1]``, ``dlam[..., i - 1, :]`` and ``hess_lam[..., i - 1, :, :]``
    are lam_i with its coordinate gradient and hessian; ``gamma[..., k, i, j]``
    is the closed-form Gamma^k_ij of ``christoffel_closed_form``.
    """

    g: np.ndarray
    ginv: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    hess_lam: np.ndarray
    gamma: np.ndarray

    def rows(self, keep) -> "PointGeometry":
        """The record of a batch restricted to the rows ``keep`` (a mask or indices)."""
        return PointGeometry(*(getattr(self, f.name)[keep] for f in fields(self)))

    def warp_hessian(self, i: int) -> np.ndarray:
        """Covariant hessian of lam_i: Hess_ab = d_a d_b lam_i - Gamma^k_ab d_k lam_i."""
        return (self.hess_lam[..., i - 1, :, :]
                - np.einsum("...kab,...k->...ab", self.gamma, self.dlam[..., i - 1, :]))


def point_geometry(dtp: DoublyTwistedProduct, x) -> PointGeometry:
    """The ``PointGeometry`` of dtp at one point (n,) or a batch (P, n).

    Gamma is built from factor data only: the factor Christoffel symbols
    Gamma^A (``christoffel_numeric`` on each factor metric, dimension n_A)
    and phi_A = ln lam_A.  With A the block of i and B the block of j:

        A = B:   Gamma^k_ij = Gamma^A,k_ij [k in A] - g_ij (g^-1 d phi_A)^k
                              + delta^k_i d_j phi_A + delta^k_j d_i phi_A
        A != B:  Gamma^k_ij = delta^k_i d_j phi_A + delta^k_j d_i phi_B

    (O'Neill, Semi-Riemannian Geometry, 1983, ch. 7, for warped products;
    the same computation holds for twisted warps).  No product-level
    derivative of g is taken, so the finite-difference oracle
    (``christoffel_numeric`` on the assembled metric) shares no code with it
    below ``MetricField.mat``.
    """
    pts = x.coords if isinstance(x, CoordPoint) else np.asarray(x, dtype=float)
    g, ginv = dtp.assembled.mat_and_inv(pts)
    warps = (dtp.lam1, dtp.lam2)
    lam = np.stack([np.asarray(w.value(pts)) for w in warps], axis=-1)
    dlam = np.stack([w.grad_coords(pts) for w in warps], axis=-2)
    hess_lam = np.stack([w.hess_coords(pts) for w in warps], axis=-3)
    n = dtp.n
    # dphi[..., a, m] = d_m phi_{block of a}
    dphi = (dlam / lam[..., None])[..., np.repeat([0, 1], [dtp.n1, dtp.n2]), :]
    gamma = np.zeros(pts.shape[:-1] + (n, n, n))
    for fac, sl in ((dtp.f1, dtp.slot1), (dtp.f2, dtp.slot2)):
        gamma[..., sl, sl, sl] = ck.christoffel_numeric(fac.metric, pts[..., sl])
    eye = np.eye(n)
    gamma += eye[:, :, None] * dphi[..., None, :, :]                   # delta^k_i d_j phi
    gamma += eye[:, None, :] * dphi.swapaxes(-1, -2)[..., None, :, :]  # delta^k_j d_i phi
    grad_phi = dphi @ ginv                        # grad_phi[..., a, k] = (g^-1 d phi_a)^k
    gamma -= g[..., None, :, :] * grad_phi.swapaxes(-1, -2)[..., :, :, None]
    return PointGeometry(g, ginv, lam, dlam, hess_lam, gamma)


def christoffel_closed_form(dtp: DoublyTwistedProduct, x) -> np.ndarray:
    """Closed-form Gamma[k, i, j] of the product (``point_geometry``): (n, n, n)
    at one point, (P, n, n, n) for a batch (P, n)."""
    return point_geometry(dtp, x).gamma


_CASE_SLOTS = {"HH": (1, 1), "VV": (2, 2), "HV": (1, 2)}  # factor slots of a plane (u, v)


# ---------------------------------------------------------------------------
# mean curvature data and classification

def _mean_curvature(dtp: DoublyTwistedProduct, x, i: int, ginv: np.ndarray) -> np.ndarray:
    """N_i = g^-1 omega_i (``mean_curvature_form``) at one point (n,) or at
    each row of a batch (P, n), given g^-1 there."""
    pts = np.asarray(x, dtype=float)
    omega = mean_curvature_form(dtp, pts.reshape(-1, dtp.n), i).reshape(pts.shape)
    return (ginv @ omega[..., None])[..., 0]


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def mean_curvature_form(dtp: DoublyTwistedProduct, x, i: int):
    """omega_i: metric dual of N_i, a OneForm at one point, or its
    components ``(P, n)`` at each row of a batch (one warp evaluation each).

    g is block diagonal, so omega_i = -d ln lam_i on the other factor's slots
    and 0 on its own (as ``classify`` reads it); no metric evaluation.
    """
    if i not in (1, 2):
        raise ValueError("foliation index must be 1 or 2")
    pts = x.coords if isinstance(x, CoordPoint) else np.asarray(x, dtype=float)
    w = dtp.warp(i)
    out = -(w.grad_coords(pts) / np.asarray(w.value(pts))[..., None])
    out[..., dtp.slot(i)] = 0.0
    return OneForm(CoordPoint(pts), out) if pts.ndim == 1 else out


def classify(dtp: DoublyTwistedProduct, grid: Optional[Sequence] = None,
             per_axis: int = 4) -> StructureClass:
    """Structure tag from sampled mean-curvature evidence.

    DirectProduct: both N_i vanish.  Warped: exactly one vanishes and the
    other's dual form is closed; Twisted if it is not closed.  With both
    nonzero: DoublyWarped when both duals are closed, DoublyTwisted else.

    g is block diagonal, so omega_i = -d ln lam_i on the other factor's
    slots and 0 on its own, and d(omega_i) is (up to sign) the mixed
    factor-1 x factor-2 block of the coordinate hessian of ln lam_i.  N_1,
    N_2 and the warp derivatives come from one batched evaluation each over
    the grid.
    """
    pts = (offset_grid_points(dtp.domain_box, per_axis) if grid is None
           else np.asarray(list(grid), dtype=float).reshape(-1, dtp.n))
    ginv = dtp.assembled.inv(pts)
    max_n = [_max_abs(_mean_curvature(dtp, pts, i, ginv)) for i in (1, 2)]
    max_dw = [0.0, 0.0]
    for i in (1, 2):
        if max_n[i - 1] < VANISH_TOL:
            continue  # omega_i vanishes with N_i
        w = dtp.warp(i)
        val = w.value(pts)[:, None, None]
        grad = w.grad_coords(pts)
        hess_log = w.hess_coords(pts) / val - grad[:, :, None] * grad[:, None, :] / val**2
        mixed = hess_log[:, dtp.slot1, dtp.slot2]
        bad = ~np.isfinite(mixed).all(axis=(1, 2))
        if bad.any():
            raise NumericsError(f"non-finite d(omega_{i}) sample at {pts[np.argmax(bad)]}")
        max_dw[i - 1] = _max_abs(mixed)

    v1, v2 = max_n[0] < VANISH_TOL, max_n[1] < VANISH_TOL
    c1, c2 = max_dw[0] < CLOSED_TOL, max_dw[1] < CLOSED_TOL
    if v1 and v2:
        tag = StructureTag.DIRECT_PRODUCT
    elif v1 or v2:
        other_closed = c2 if v1 else c1
        tag = StructureTag.WARPED if other_closed else StructureTag.TWISTED
    else:
        tag = StructureTag.DOUBLY_WARPED if (c1 and c2) else StructureTag.DOUBLY_TWISTED
    return StructureClass(tag, max_n[0], max_n[1], max_dw[0], max_dw[1])


# ---------------------------------------------------------------------------
# sectional curvature (closed form)

PlaneInput = Union[MixedPlane, tuple]


def sectional_curvature_closed_form(dtp: DoublyTwistedProduct, plane: PlaneInput) -> float:
    """Closed-form sectional curvature for factor-1, factor-2 or mixed planes.

    Inputs must be unitary and orthogonal (the operation refuses to normalize
    silently).  Factor planes:

        K = (K_i + g(grad lam_i, grad lam_i)) / lam_i^2
            - (eps_u Hess lam_i(u, u) + eps_v Hess lam_i(v, v)) / lam_i

    mixed planes (u factor-1, v factor-2):

        K = -(eps_v / lam1) Hess lam1(v, v) - (eps_u / lam2) Hess lam2(u, u)
            + g(grad lam1, grad lam2) / (lam1 lam2)

    with K_i the factor sectional curvature (``riemann_numeric`` on the
    factor metric), g(grad lam_i, grad lam_j) = d lam_i^T g^-1 d lam_j and
    Hess lam_i the covariant hessian in the full product metric, all read
    from one ``point_geometry`` record.  This is the one-plane call of
    ``_sectional_closed_form``.
    """
    if isinstance(plane, MixedPlane):
        u, v = plane.horiz, plane.vert
    else:
        u, v = plane
    if not np.array_equal(u.base.coords, v.base.coords):
        raise CaseMismatch("plane vectors must share a base point")
    x = u.base.coords[None]
    return float(_sectional_closed_form(dtp, point_geometry(dtp, x), x,
                                        u.components[None], v.components[None])[0])


def _sectional_closed_form(dtp: DoublyTwistedProduct, geo: PointGeometry, x: np.ndarray,
                           U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Closed-form K of span(U[p], V[p]) at each row p of x (P, n), read from
    the ``point_geometry`` batch geo at x (the formulas of
    ``sectional_curvature_closed_form``).  Every row must be a unitary,
    orthogonal pair of pure factor-slot vectors; the factor curvatures K_i
    come from one ``riemann_numeric`` batch per factor that has planes."""
    su, sv = dtp._slots(U), dtp._slots(V)
    if ((su <= 0) | (sv <= 0)).any():
        raise CaseMismatch("plane vectors must be pure factor-slot vectors")

    def quad(a, m, b):
        return np.einsum("pa,pab,pb->p", a, m, b)

    q_u, q_v = quad(U, geo.g, U), quad(V, geo.g, V)
    for label, q in (("u", q_u), ("v", q_v)):
        bad = np.abs(np.abs(q) - 1.0) > UNIT_TOL
        if bad.any():
            raise NormalizationError(f"{label} is not unitary: "
                                     f"g({label},{label}) = {float(q[np.argmax(bad)])!r}")
    if (np.abs(quad(U, geo.g, V)) > UNIT_TOL).any():
        raise NormalizationError("plane vectors are not orthogonal")
    eps_u, eps_v = np.sign(q_u), np.sign(q_v)
    swap = su > sv  # mixed planes in the order (factor-1, factor-2)
    U, V = np.where(swap[:, None], V, U), np.where(swap[:, None], U, V)
    eps_u, eps_v = np.where(swap, eps_v, eps_u), np.where(swap, eps_u, eps_v)

    hess = [geo.warp_hessian(i) for i in (1, 2)]
    hu = np.stack([quad(U, h, U) for h in hess], axis=-1)  # hu[p, i - 1] = Hess lam_i(u, u)
    hv = np.stack([quad(V, h, V) for h in hess], axis=-1)
    # dots[p, i - 1, j - 1] = g(grad lam_i, grad lam_j)
    dots = np.einsum("pia,pab,pjb->pij", geo.dlam, geo.ginv, geo.dlam)
    lam1, lam2 = geo.lam[:, 0], geo.lam[:, 1]
    k = (-(eps_v / lam1) * hv[:, 0] - (eps_u / lam2) * hu[:, 1]
         + dots[:, 0, 1] / (lam1 * lam2))
    for i in (1, 2):
        rows = (su == i) & (sv == i)
        if not rows.any():
            continue
        sl, metric = dtp.slot(i), dtp.factor(i).metric
        xf = x[rows][:, sl]
        k_factor = ck._sectional_curvature(metric.mat(xf), ck.riemann_numeric(metric, xf),
                                           U[rows][:, sl], V[rows][:, sl], xf)
        lam = geo.lam[rows, i - 1]
        k[rows] = ((k_factor + dots[rows, i - 1, i - 1]) / lam**2
                   - (eps_u[rows] * hu[rows, i - 1] + eps_v[rows] * hv[rows, i - 1]) / lam)
    return k


def _pseudo_orthonormal(gm, a, b):
    """Gram-Schmidt of each row pair (a[p], b[p]) in the metric gm[p]: the
    two-vector ``ck.gram_schmidt`` on a batch, with its lightlike threshold
    (|g(w, w)| >= 1e-10 on the way) and also |plane Gram det| > 1e-6.
    Returns u, v (P, n) and which rows span a plane; the other rows may hold
    inf or nan and are to be dropped."""
    def dot(p, q):
        return np.einsum("pi,pij,pj->p", p, gm, q)

    with np.errstate(divide="ignore", invalid="ignore"):  # failed rows are dropped
        qa = dot(a, a)
        u = a / np.sqrt(np.abs(qa))[:, None]
        w = b - (dot(u, b) / dot(u, u))[:, None] * u
        qw = dot(w, w)
        v = w / np.sqrt(np.abs(qw))[:, None]
        det = dot(u, u) * dot(v, v) - dot(u, v) ** 2
    return u, v, (np.abs(qa) >= 1e-10) & (np.abs(qw) >= 1e-10) & (np.abs(det) > 1e-6)


def _sample_planes(dtp: DoublyTwistedProduct, rng, gm: np.ndarray, slots) -> tuple:
    """A random pseudo-orthonormal plane (u in factor slots[0], v in factor
    slots[1]) at each point whose metric matrix is a row of gm (P, n, n): the
    rows that fail are re-drawn, each up to 60 tries.  Returns U, V (P, n) and
    which rows got a plane."""
    U, V = np.zeros((2, len(gm), dtp.n))
    todo = np.arange(len(gm))
    for _ in range(60):
        if not todo.size:
            break
        a, b = np.zeros((2, todo.size, dtp.n))
        for raw, i in ((a, slots[0]), (b, slots[1])):
            raw[:, dtp.slot(i)] = rng.normal(size=(todo.size, dtp.factor(i).dim))
        u, v, good = _pseudo_orthonormal(gm[todo], a, b)
        U[todo[good]], V[todo[good]] = u[good], v[good]
        todo = todo[~good]
    found = np.ones(len(gm), dtype=bool)
    found[todo] = False
    return U, V, found


# ---------------------------------------------------------------------------
# lightlike sectional curvature

def lightlike_sectional_curvature(g: MetricField, xi: TangentVector,
                                  u: TangentVector, v: TangentVector,
                                  tol: float = 1e-9) -> float:
    """K_xi(span(u, v)) = g(R(v, u) u, v) / g(v, v) for a degenerate plane.

    Requires g Lorentzian, g(xi,xi) = -1, g(u,u) = 0, g(u,xi) = 1 and
    g(v,v) != 0; the value is invariant under rescaling v.
    """
    if g.signature.index != 1:
        raise InvalidFrame(f"metric index {g.signature.index} is not Lorentzian")
    q_xi = ck.inner_product(g, xi, xi)
    q_u = ck.inner_product(g, u, u)
    q_uxi = ck.inner_product(g, u, xi)
    if abs(q_xi + 1.0) > tol:
        raise InvalidFrame(f"g(xi, xi) = {q_xi!r}, expected -1")
    if abs(q_u) > tol:
        raise InvalidFrame(f"g(u, u) = {q_u!r}, expected 0")
    if abs(q_uxi - 1.0) > tol:
        raise InvalidFrame(f"g(u, xi) = {q_uxi!r}, expected 1")
    q_v = ck.inner_product(g, v, v)
    if abs(q_v) <= tol:
        raise InvalidFrame("g(v, v) must be nonzero")
    coords = u.base.coords
    riem = ck.riemann_numeric(g, coords)
    rv = np.einsum("lijk,i,j,k->l", riem, v.components, u.components, u.components)
    gm = g.mat(coords)
    return float(v.components @ gm @ rv) / q_v


# ---------------------------------------------------------------------------
# O'Neill T tensor of the factor-1 projection (fibers = factor-2 slices)

def oneill_T(dtp: DoublyTwistedProduct, x, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T(E, F) = g(E^v, F^v) N - g(N, F) E^v with N the fiber mean curvature,
    in components: at one point (n,) or each row of a batch (P, n), for
    components e, f fixed (n,) or given per row (P, n)."""
    g, ginv = dtp.assembled.mat_and_inv(x)
    N = _mean_curvature(dtp, x, 2, ginv)
    ev, fv = dtp.project(2, e), dtp.project(2, f)
    g_ef = np.einsum("...i,...ij,...j->...", ev, g, fv)
    g_nf = np.einsum("...i,...ij,...j->...", N, g, f)
    return g_ef[..., None] * N - g_nf[..., None] * ev


def oneill_T_definitional(dtp: DoublyTwistedProduct, x, e: np.ndarray,
                          f: np.ndarray) -> np.ndarray:
    """T(E, F) = h nabla_{E^v} F^v + v nabla_{E^v} F^h from the connection, in
    the shapes of ``oneill_T``, from one batched oracle ``christoffel_numeric``."""
    gamma = ck.christoffel_numeric(dtp.assembled, x)
    ev, fv, fh = dtp.project(2, e), dtp.project(2, f), dtp.project(1, f)
    d_vv = np.einsum("...kij,...i,...j->...k", gamma, ev, fv)
    d_vh = np.einsum("...kij,...i,...j->...k", gamma, ev, fh)
    return dtp.project(1, d_vv) + dtp.project(2, d_vh)
