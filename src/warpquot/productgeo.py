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

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import chartkit as ck
from .chartkit import MetricField, ScalarField, Signature
from .errors import CaseMismatch, InvalidFrame, InvalidWarp, NormalizationError, NumericsError

UNIT_TOL = 1e-9       # |g(u,u)| must equal 1 this tightly for closed forms
SLOT_TOL = 1e-12      # components outside a vector's declared slot
VANISH_TOL = 1e-7     # classification: "N_i vanishes"
CLOSED_TOL = 1e-6     # classification: "d omega vanishes"
GRID_INSET = 0.05     # sample grids keep this fraction of each side clear of the box edge


class StructureTag(Enum):
    DOUBLY_TWISTED = "doubly-twisted"
    TWISTED = "twisted"
    DOUBLY_WARPED = "doubly-warped"
    WARPED = "warped"
    DIRECT_PRODUCT = "direct-product"


@dataclass
class FactorManifold:
    name: str
    metric: MetricField
    domain_box: np.ndarray  # (dim, 2)

    def __post_init__(self):
        self.domain_box = np.asarray(self.domain_box, dtype=float)
        if self.domain_box.shape != (self.dim, 2):
            raise ValueError(f"factor {self.name!r}: bad domain box shape {self.domain_box.shape}")

    @property
    def dim(self) -> int:
        return self.metric.dim


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

    def axes(self, i: int) -> tuple:
        """The coordinate indices of factor i's slots (a block of ``chartkit.central_diff``)."""
        return tuple(range(self.n)[self.slot(i)])

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
        """ln lam_i, with its partials up to order 2 from lam_i's jet."""
        w = self.warp(i)

        def eval(c, order=0, _w=w):
            val, *ds = _w._jet(c, order)
            out = (np.log(val),)
            if order >= 1:
                out += (ds[0] / val,)
            if order == 2:
                out += (ds[1] / val - ds[0][:, None] * ds[0][None] / val**2,)
            return out if order else out[0]

        return ScalarField(eval, exact_order=2, name=f"ln lam{i}")

    def grad_warp(self, i: int, x) -> np.ndarray:
        """Product-metric gradient of lam_i at the point x (n,), (n,)."""
        return ck.gradient(self.warp(i), self.assembled, x)

    def grad_log_warp(self, i: int, x) -> np.ndarray:
        return ck.gradient(self.log_warp(i), self.assembled, x)


def _lattice(axes: np.ndarray) -> np.ndarray:
    """The product of the rows of a (dim, per) axis table as a C-contiguous
    (per ** dim, dim) point array, last axis fastest, one broadcast per axis."""
    d, per = axes.shape
    out = np.empty((per,) * d + (d,))
    for k, axis in enumerate(axes):
        out[..., k] = axis.reshape((per,) + (1,) * (d - 1 - k))
    return out.reshape(per ** d, d)


def grid_points(box: np.ndarray, per_axis: int, inset: float = GRID_INSET) -> np.ndarray:
    """Lattice over the box as a C-contiguous (per_axis ** dim, dim) point
    array, last axis fastest; side [lo, hi] holds ``np.linspace(lo + pad,
    hi - pad, per_axis)``, pad = inset * (hi - lo), from linspace's own
    arithmetic run on all sides at once (one linspace call over all sides
    would take its zero-step branch on every side when one side needs it)."""
    box = np.asarray(box, dtype=float)
    pad = inset * (box[:, 1] - box[:, 0])
    start = box[:, 0] + pad
    stop = box[:, 1] - pad
    div = max(per_axis - 1, 1)
    delta = stop - start
    step = delta / div
    t = np.arange(per_axis, dtype=float)
    if np.count_nonzero(step) == len(step):
        axes = np.multiply.outer(step, t)
    else:
        axes = np.where(step[:, None] == 0, np.multiply.outer(delta, t / div),
                        np.multiply.outer(step, t))
    axes += start[:, None]
    if per_axis > 1:
        axes[:, -1] = stop
    return _lattice(axes)


def offset_grid_points(box: np.ndarray, per_axis: int) -> np.ndarray:
    """Shifted-lattice sample grid, never symmetric about the box center, as
    a C-contiguous (per_axis ** dim, dim) point array, last axis fastest.

    Evidence sampling (classification) uses this to avoid the measure-zero
    traps where a symmetric grid lands exactly on zeros of the sampled field.
    """
    box = np.asarray(box, dtype=float)
    frac = (np.arange(per_axis) + 0.381966) / per_axis
    width = box[:, 1] - box[:, 0]
    pad = GRID_INSET * width
    return _lattice((box[:, 0] + pad)[:, None] + frac * (width - 2 * pad)[:, None])


def assemble(f1: FactorManifold, f2: FactorManifold, lam1: ScalarField,
             lam2: ScalarField) -> DoublyTwistedProduct:
    """Build the block product metric lam1^2 g1 (+) lam2^2 g2.

    Warp positivity is sampled on a grid of 4 points per axis over the joint
    domain box, one batch per warp.  The assembled metric's ``exact_order``
    is the smallest of its four factor fields' orders, and its ``eval``
    follows the one-callback contract of ``chartkit``: one call reads each
    factor field's jet once, on the whole batch, and ``_blocks`` assembles g
    with its partials up to the order asked.
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

    factors = ((lam1, f1.metric, slice(0, n1)), (lam2, f2.metric, slice(n1, n)))

    def eval(x, order=0):
        out = _blocks(n, [(sl, lam._jet(x, order), m._jet(x[sl], order))
                          for lam, m, sl in factors], order)
        return out if order else out[0]

    assembled = MetricField(
        dim=n,
        eval=eval,
        signature=Signature(np.concatenate([f1.metric.signature.signs,
                                            f2.metric.signature.signs])),
        exact_order=min(f.exact_order for f in (lam1, lam2, f1.metric, f2.metric)),
        domain_box=box,
    )
    return DoublyTwistedProduct(f1, f2, lam1, lam2, assembled)


def _blocks(n: int, factors, order: int) -> tuple:
    """g, then up to ``order`` d_k g and d_k d_l g, point axis last, from
    each factor's slot, lam jet and g_A jet (each up to ``order`` at least)."""
    out = [np.zeros((n,) * (k + 2) + factors[0][1][0].shape) for k in range(order + 1)]
    for sl, (lv, *dls), (gm, *dgs) in factors:
        out[0][sl, sl] = np.square(lv) * gm
        if order >= 1:
            dl, dgf = dls[0], dgs[0]
            out[1][:, sl, sl] += 2.0 * lv * dl[:, None, None] * gm
            out[1][sl, sl, sl] += lv**2 * dgf
        if order == 2:
            hl, ddgf = dls[1], dgs[1]
            d2 = out[2]
            d2[:, :, sl, sl] += 2.0 * (dl[:, None] * dl[None] + lv * hl)[:, :, None, None] * gm
            # cross[k, l in sl] = 2 lam d_k lam d_l g_A
            cross = 2.0 * lv * dl[:, None, None, None] * dgf
            d2[:, sl, sl, sl] += cross
            d2[sl, :, sl, sl] += cross.swapaxes(0, 1)
            d2[sl, sl, sl, sl] += lv**2 * ddgf
    return tuple(out)


# ---------------------------------------------------------------------------
# per-point geometry record and the closed-form connection

@dataclass(frozen=True)
class PointGeometry:
    """Metric data of a product at one point (n,) or at each row of a batch (P, n).

    ``g`` and ``ginv`` are the assembled metric and its inverse, built from
    the factor jets (with the metric's finite, symmetric and nondegeneracy
    checks);
    ``lam[..., i - 1]``, ``dlam[..., i - 1, :]`` and ``hess_lam[..., i - 1, :, :]``
    are lam_i with its coordinate gradient and hessian; ``gamma[..., k, i, j]``
    is the closed-form product connection Gamma^k_ij (see ``point_geometry``).
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

    Every field is read once: one jet per warp (order 2) and one per factor
    metric (order 1).  g is assembled from them by ``_blocks``, as the
    assembled metric's ``eval`` does, and gets that metric's checks.  Gamma
    is built from factor data only: the factor Christoffel symbols Gamma^A
    (from g_A and its partials, dimension n_A) and phi_A = ln lam_A.  With A
    the block of i and B the block of j:

        A = B:   Gamma^k_ij = Gamma^A,k_ij [k in A] - g_ij (g^-1 d phi_A)^k
                              + delta^k_i d_j phi_A + delta^k_j d_i phi_A
        A != B:  Gamma^k_ij = delta^k_i d_j phi_A + delta^k_j d_i phi_B

    (O'Neill, Semi-Riemannian Geometry, 1983, ch. 7, for warped products;
    the same computation holds for twisted warps).  No product-level
    derivative of g is taken, so the finite-difference oracle
    (``christoffel_numeric`` on the assembled metric) shares no code with it
    below the factor fields.
    """
    pts = ck._points(x, dtp.n)  # the one coordinate check; kernels from here on

    def jets(cols):
        factors = [(sl, w._jet(cols, 2), f.metric._jet(cols[sl], 1))
                   for w, f, sl in ((dtp.lam1, dtp.f1, dtp.slot1), (dtp.lam2, dtp.f2, dtp.slot2))]
        g = dtp.assembled._checked(cols, _blocks(dtp.n, factors, 0)[0])
        return (g, *(a for _, lam_jet, g_jet in factors for a in (*lam_jet, *g_jet)))

    g, lam1, dlam1, hess1, g1, dg1, lam2, dlam2, hess2, g2, dg2 = ck._call_batch(jets, pts)
    ginv = ck._checked_inv(g, pts)
    lam = np.stack([lam1, lam2], axis=-1)
    dlam = np.stack([dlam1, dlam2], axis=-2)
    hess_lam = np.stack([hess1, hess2], axis=-3)
    n = dtp.n
    # dphi[..., a, m] = d_m phi_{block of a}
    dphi = (dlam / lam[..., None])[..., np.repeat([0, 1], [dtp.n1, dtp.n2]), :]
    gamma = np.zeros(pts.shape[:-1] + (n, n, n))
    for sl, gm, dg in ((dtp.slot1, g1, dg1), (dtp.slot2, g2, dg2)):
        gamma[..., sl, sl, sl] = ck._christoffel(ck._checked_inv(gm, pts[..., sl]), dg)
    eye = np.eye(n)
    gamma += eye[:, :, None] * dphi[..., None, :, :]                   # delta^k_i d_j phi
    gamma += eye[:, None, :] * dphi.swapaxes(-1, -2)[..., None, :, :]  # delta^k_j d_i phi
    grad_phi = dphi @ ginv                        # grad_phi[..., a, k] = (g^-1 d phi_a)^k
    gamma -= g[..., None, :, :] * grad_phi.swapaxes(-1, -2)[..., :, :, None]
    return PointGeometry(g, ginv, lam, dlam, hess_lam, gamma)


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
    """omega_i: metric dual of N_i, its components ``(n,)`` at one point or
    ``(P, n)`` at each row of a batch (one warp evaluation each).

    g is block diagonal, so omega_i = -d ln lam_i on the other factor's slots
    and 0 on its own (as ``classify`` reads it), from one jet of lam_i
    differenced along the other factor's slots only: on the FD route, the
    point and its +-e_k neighbours for k in those slots.  No metric
    evaluation.
    """
    if i not in (1, 2):
        raise ValueError("foliation index must be 1 or 2")
    pts = ck._points(x, dtp.n)
    val, grad = ck._call_batch(dtp.warp(i)._jet, pts, 1, (dtp.axes(3 - i),))
    out = np.zeros(pts.shape)
    out[..., dtp.slot(3 - i)] = -(grad / np.asarray(val)[..., None])
    return out


def _omega(dtp: DoublyTwistedProduct, i: int, grad: np.ndarray, val: np.ndarray) -> np.ndarray:
    """omega_i = -d ln lam_i off factor i's slots, 0 on them, from lam_i's gradient and value."""
    out = -(grad / val[..., None])
    out[..., dtp.slot(i)] = 0.0
    return out


def _read_jet(w: ScalarField, pts: np.ndarray, order: int, block) -> tuple:
    """``w._jet`` at pts (P, n) on ``block`` (None: every axis), point axis
    first, differenced only along the axes w reads (``ScalarField.reads``;
    every axis when unknown).  An entry on an axis it does not read is 0,
    which its central difference is exactly, and takes no stencil point; at
    order 1 with no axis of the block read, the value alone is evaluated."""
    full = block or (tuple(range(pts.shape[1])),)
    kept = None if w.reads is None else [tuple(k for k in a if k in w.reads) for a in full]
    if kept is None or kept == list(full):
        return ck._call_batch(w._jet, pts, order, block)
    d = np.zeros((len(pts),) + tuple(map(len, full)))
    if not all(kept):
        return (ck._call_batch(w._jet, pts, 0)[0], d) if order == 1 else (d,)
    *val, part = ck._call_batch(w._jet, pts, order, tuple(kept))
    d[(slice(None),) + np.ix_(*[[a.index(k) for k in ks] for a, ks in zip(full, kept)])] = part
    return (*val, d)


def classify(dtp: DoublyTwistedProduct, per_axis: int = 4) -> StructureClass:
    """Structure tag from sampled mean-curvature evidence.

    DirectProduct: both N_i vanish.  Warped: exactly one vanishes and the
    other's dual form is closed; Twisted if it is not closed.  With both
    nonzero: DoublyWarped when both duals are closed, DoublyTwisted else.

    g is block diagonal, so omega_i = -d ln lam_i on the other factor's
    slots and 0 on its own, and d(omega_i) is (up to sign) the mixed
    factor-1 x factor-2 block of the coordinate hessian of ln lam_i.  On the
    P ``offset_grid_points`` of the box, g^-1 and each warp's jet of order 1
    are read once, for N_i and d(omega_i) alike (on the FD route, each point
    and its +-e_k neighbours: P (1 + 2n) warp values).  Only if N_i != 0 is
    the mixed block of lam_i's hessian read, alone: on the FD route the
    (++, +-, -+, --) corners of each slot-1 x slot-2 pair, 4 P n1 n2 values,
    and no diagonal.

    A warp that knows the axes it reads (``ScalarField.reads``, a scenario
    formula) is differenced along those alone (``_read_jet``): its partials
    along the others are 0, supplied without a stencil point, and the N_i,
    d(omega_i) and finiteness arithmetic runs on them unchanged.  So it
    skips the +-e_k neighbours of each axis it does not read (a warp that
    reads none gives its values alone), and the corners of each pair with
    such an axis: a warp on one factor's coordinates evaluates no corner.
    """
    pts = offset_grid_points(dtp.domain_box, per_axis)
    ginv = dtp.assembled.inv(pts)
    warps = [(w, *_read_jet(w, pts, 1, None)) for w in (dtp.lam1, dtp.lam2)]
    max_n = [_max_abs((ginv @ _omega(dtp, i, grad, val)[..., None])[..., 0])
             for i, (_, val, grad) in enumerate(warps, 1)]
    max_dw = [0.0, 0.0]
    for i, (w, val, grad) in enumerate(warps, 1):
        if max_n[i - 1] < VANISH_TOL:
            continue  # omega_i vanishes with N_i
        val = val[:, None, None]
        (hess,) = _read_jet(w, pts, 2, (dtp.axes(1), dtp.axes(2)))
        mixed = hess / val - grad[:, dtp.slot1, None] * grad[:, None, dtp.slot2] / val**2
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

def sectional_curvature_closed_form(dtp: DoublyTwistedProduct, x, u, v) -> float:
    """Closed-form sectional curvature of span(u, v), vectors (n,) at the
    point x (n,), for factor-1, factor-2 or mixed planes.

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
    x, u, v = (ck._as_array(a, dtp.n)[None] for a in (x, u, v))
    return float(_sectional_closed_form(dtp, point_geometry(dtp, x), x, u, v)[0])


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
    (|g(w, w)| >= ``ck.LIGHTLIKE_TOL`` on the way) and also |plane Gram det| > 1e-6.
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
    return u, v, (np.minimum(np.abs(qa), np.abs(qw)) >= ck.LIGHTLIKE_TOL) & (np.abs(det) > 1e-6)


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

def lightlike_sectional_curvature(g: MetricField, x, xi, u, v) -> float:
    """K_xi(span(u, v)) = g(R(v, u) u, v) / g(v, v) for a degenerate plane,
    the vectors xi, u, v (n,) at the point x (n,): every product from one
    ``inner_product`` of the frame (xi, u, v, R(v, u) u), so g is read once.

    Requires g Lorentzian, g(xi,xi) = -1, g(u,u) = 0, g(u,xi) = 1 and
    g(v,v) != 0, each within UNIT_TOL; the value is invariant under rescaling v.
    """
    if g.signature.index != 1:
        raise InvalidFrame(f"metric index {g.signature.index} is not Lorentzian")
    x, xi, u, v = (ck._as_array(w, g.dim) for w in (x, xi, u, v))
    frame = np.stack([xi, u, v, np.einsum("lijk,i,j,k->l", ck.riemann_numeric(g, x), v, u, u)],
                     axis=1)
    gram = ck.inner_product(g, x, frame, frame)
    q_xi, q_u, q_uxi, q_v, g_rv = gram[[0, 1, 1, 2, 2], [0, 1, 0, 2, 3]].tolist()
    if abs(q_xi + 1.0) > UNIT_TOL:
        raise InvalidFrame(f"g(xi, xi) = {q_xi!r}, expected -1")
    if abs(q_u) > UNIT_TOL:
        raise InvalidFrame(f"g(u, u) = {q_u!r}, expected 0")
    if abs(q_uxi - 1.0) > UNIT_TOL:
        raise InvalidFrame(f"g(u, xi) = {q_uxi!r}, expected 1")
    if abs(q_v) <= UNIT_TOL:
        raise InvalidFrame("g(v, v) must be nonzero")
    return g_rv / q_v


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
