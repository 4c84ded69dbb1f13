"""Transport along curves: parallel, normal, adapted; holonomy; broken geodesics.

Adapted translation along a leaf has a closed form
(``adapted_translation_closed_form``): a normal vector keeps its
product-coordinate components.  The ``transport`` command runs it; the RK45
``adapted_translation`` is the oracle tests and verify-all compare it
against.  Leaf holonomy in quotients is likewise computed in closed form
(``quotient.loop_holonomy``), with ``holonomy_map`` as its RK45 oracle.

Every other transport, and the velocity profile, integrates
Ydot = -Gamma(gamma') Y in one place (``_integrate_transport``), segment by
segment, on scipy's adaptive Runge-Kutta 4(5) pair (RK45) at rtol 1e-9 /
atol 1e-11.  The integral of the mean curvature form rides along as an
augmented state on the same adaptive grid, never as a separate quadrature.
The error is not far below the callers' 1e-6 budgets: the worst measured is
7.4e-7 (verify-all's parallel-transport conservation residual, sphere-polar
at seed 10).  Both adapted-translation routes pass the same input guards and
sample the same times (``_transport_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import chartkit as ck
from . import productgeo as pg
from .chartkit import CoordPoint, MetricField, TangentVector
from .errors import (
    BaseMismatch,
    IntegrationError,
    NotALoop,
    NotInLeaf,
    NumericsError,
)

RTOL = 1e-9
ATOL = 1e-11
LOOP_CLOSURE_TOL = 1e-7
LEAF_VELOCITY_TOL = 1e-8
_VELOCITY_CHECK_TOL = 1e-4
_CONTINUITY_TOL = 1e-9


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    No closed-form command integrates, so one that runs no RK45 oracle
    never loads scipy.  Callers in this module look the name up at call
    time, which lets tests and tracers replace ``transport.solve_ivp``.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# curves

@dataclass
class CurveSegment:
    t0: float
    t1: float
    point: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]


class PiecewiseCurve:
    """Piecewise-smooth curve on [0, 1] with velocities attached per segment.

    Construction checks continuity at the breaks and (by finite differences)
    that each segment's velocity really is the derivative of its point map.
    """

    def __init__(self, segments: Sequence[CurveSegment], check: bool = True):
        if not segments:
            raise ValueError("curve needs at least one segment")
        self.segments = list(segments)
        if abs(self.segments[0].t0) > 1e-12 or abs(self.segments[-1].t1 - 1.0) > 1e-12:
            raise ValueError("curve segments must cover [0, 1]")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t1 - b.t0) > 1e-12:
                raise ValueError("curve segments must be contiguous")
        if check:
            self._check()

    def _check(self):
        for a, b in zip(self.segments, self.segments[1:]):
            gap = np.max(np.abs(np.asarray(a.point(a.t1)) - np.asarray(b.point(b.t0))))
            if gap > _CONTINUITY_TOL:
                raise NumericsError(f"curve discontinuous at t = {a.t1}: gap {gap:.2e}")
        for seg in self.segments:
            tm = 0.5 * (seg.t0 + seg.t1)
            dt = min(1e-6, 0.25 * (seg.t1 - seg.t0))
            fd = (np.asarray(seg.point(tm + dt)) - np.asarray(seg.point(tm - dt))) / (2 * dt)
            v = np.asarray(seg.velocity(tm))
            if np.max(np.abs(fd - v)) > _VELOCITY_CHECK_TOL * (1.0 + np.max(np.abs(v))):
                raise NumericsError("segment velocity is not the derivative of its point map")

    @property
    def breaks(self) -> list[float]:
        return [seg.t1 for seg in self.segments[:-1]]

    def _segment_at(self, t: float) -> CurveSegment:
        for seg in self.segments:
            if t <= seg.t1 + 1e-12:
                return seg
        return self.segments[-1]

    def point(self, t: float) -> np.ndarray:
        return np.asarray(self._segment_at(t).point(t), dtype=float)

    def velocity(self, t: float) -> np.ndarray:
        return np.asarray(self._segment_at(t).velocity(t), dtype=float)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_function(point_fn: Callable[[float], np.ndarray],
                      velocity_fn: Optional[Callable[[float], np.ndarray]] = None,
                      breaks: Sequence[float] = ()) -> "PiecewiseCurve":
        if velocity_fn is None:
            def velocity_fn(t, _p=point_fn):
                dt = 1e-6
                if t < dt:  # second-order one-sided stencils at the ends
                    return (-3 * np.asarray(_p(t)) + 4 * np.asarray(_p(t + dt))
                            - np.asarray(_p(t + 2 * dt))) / (2 * dt)
                if t > 1.0 - dt:
                    return (3 * np.asarray(_p(t)) - 4 * np.asarray(_p(t - dt))
                            + np.asarray(_p(t - 2 * dt))) / (2 * dt)
                return (np.asarray(_p(t + dt)) - np.asarray(_p(t - dt))) / (2 * dt)
        ts = [0.0, *sorted(breaks), 1.0]
        segs = [CurveSegment(a, b, point_fn, velocity_fn) for a, b in zip(ts, ts[1:])]
        return PiecewiseCurve(segs)

    @staticmethod
    def line(p0, p1) -> "PiecewiseCurve":
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        return PiecewiseCurve([CurveSegment(
            0.0, 1.0,
            lambda t, a=p0, b=p1: a + t * (b - a),
            lambda t, a=p0, b=p1: b - a,
        )], check=False)

    @staticmethod
    def catmull_rom(points: Sequence[np.ndarray]) -> "PiecewiseCurve":
        """Uniform Catmull-Rom spline through the control points."""
        pts = [np.asarray(p, dtype=float) for p in points]
        if len(pts) < 2:
            raise ValueError("need at least two control points")
        ext = [2 * pts[0] - pts[1], *pts, 2 * pts[-1] - pts[-2]]
        m = len(pts) - 1

        def make(k):
            p0, p1, p2, p3 = ext[k], ext[k + 1], ext[k + 2], ext[k + 3]

            def local(s):
                s2, s3 = s * s, s * s * s
                return 0.5 * ((2 * p1) + (-p0 + p2) * s
                              + (2 * p0 - 5 * p1 + 4 * p2 - p3) * s2
                              + (-p0 + 3 * p1 - 3 * p2 + p3) * s3)

            def dlocal(s):
                return 0.5 * ((-p0 + p2)
                              + 2 * (2 * p0 - 5 * p1 + 4 * p2 - p3) * s
                              + 3 * (-p0 + 3 * p1 - 3 * p2 + p3) * s * s)

            return (lambda t: local(t * m - k)), (lambda t: dlocal(t * m - k) * m)

        segs = []
        for k in range(m):
            pf, vf = make(k)
            segs.append(CurveSegment(k / m, (k + 1) / m, pf, vf))
        return PiecewiseCurve(segs)


# ---------------------------------------------------------------------------
# transport results

@dataclass
class TransportResult:
    samples: list  # (t, TangentVector) pairs along the curve
    integral_omega: float
    tol_achieved: float
    integrals: Optional[np.ndarray] = None  # adapted translation: I(t) at each sample

    @property
    def end(self) -> TangentVector:
        return self.samples[-1][1]


@dataclass
class HolonomyMap:
    """Linear return map on a leaf's normal space, in a declared frame basis."""

    basepoint: CoordPoint
    matrix: np.ndarray
    frame: list

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if abs(np.linalg.det(self.matrix)) < 1e-12:
            raise NumericsError("holonomy matrix is singular")

    def after(self, first: "HolonomyMap") -> "HolonomyMap":
        """Map for 'first loop, then this loop': self.matrix @ first.matrix."""
        return HolonomyMap(first.basepoint, self.matrix @ first.matrix, first.frame)

    def is_identity(self, tol: float = 1e-6) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(self.matrix.shape[0]))) <= tol)


@dataclass
class BrokenGeodesicSpec:
    basepoint: CoordPoint
    breaks: tuple
    velocities: list  # m+1 tangent vectors at the basepoint

    def __post_init__(self):
        if not isinstance(self.basepoint, CoordPoint):
            self.basepoint = CoordPoint(self.basepoint)
        self.breaks = tuple(float(t) for t in self.breaks)
        if any(not (0.0 < t < 1.0) for t in self.breaks) or list(self.breaks) != sorted(self.breaks):
            raise ValueError("breaks must satisfy 0 < t1 < ... < tm < 1")
        vs = []
        for v in self.velocities:
            if isinstance(v, TangentVector):
                vs.append(v)
            else:
                vs.append(TangentVector(self.basepoint, v))
        if len(vs) != len(self.breaks) + 1:
            raise ValueError("need exactly m+1 velocities for m breaks")
        self.velocities = vs


# ---------------------------------------------------------------------------
# core transport integration

def _integrate_transport(g: MetricField, curve: PiecewiseCurve, y0: np.ndarray,
                         ts: np.ndarray,
                         omega: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         project: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    """Integrate Ydot = -Gamma(gamma') Y (columnwise) along the curve.

    Y is (n, k); an optional one-form field omega augments the state with
    I(t) = integral of omega(gamma') dt.  ``project`` post-filters the
    component derivative (used for normal transport).  ``ts`` are sorted,
    distinct times in [0, 1].  The solve restarts at every break of the
    curve and stops after the segment holding the last time.  Returns
    (Ys, Is) at ``ts``; a time on a break reads the end of the earlier
    segment.
    """
    n, k = y0.shape

    def rhs(t, state):
        pos = curve.point(t)
        vel = curve.velocity(t)
        Y = state[:n * k].reshape(n, k)
        gamma = ck.christoffel_numeric(g, pos)
        dY = -np.einsum("kij,i,jc->kc", gamma, vel, Y)
        if project is not None:
            dY = project(dY)
        dI = float(omega(pos) @ vel) if omega is not None else 0.0
        return np.concatenate([dY.reshape(-1), [dI]])

    Ys: list[np.ndarray] = []
    Is: list[float] = []
    state = np.concatenate([y0.reshape(-1), [0.0]])
    done = 0
    last = len(curve.segments) - 1
    for j, seg in enumerate(curve.segments):
        if done == len(ts):
            break
        # a time on the break that opens this segment was returned by the
        # previous one; it stays in t_eval so each segment keeps its whole grid
        lo = int(np.searchsorted(ts, seg.t0)) if done else 0
        hi = len(ts) if j == last else int(np.searchsorted(ts, seg.t1, side="right"))
        t_eval = ts[lo:hi]
        if hi == lo or t_eval[-1] < seg.t1:
            t_eval = np.append(t_eval, seg.t1)
        sol = solve_ivp(rhs, (seg.t0, seg.t1), state, method="RK45",
                        rtol=RTOL, atol=ATOL, t_eval=t_eval, dense_output=False)
        if not sol.success:
            raise IntegrationError(f"transport integration failed: {sol.message}")
        for col in range(done - lo, hi - lo):
            s = sol.y[:, col]
            Ys.append(s[:n * k].reshape(n, k))
            Is.append(float(s[-1]))
        done = hi
        state = sol.y[:, -1]
    return Ys, Is


def _transport_grid(curve: PiecewiseCurve, v0: TangentVector, samples_per_segment: int,
                    leaf=None) -> np.ndarray:
    """Sample times of a transport of v0 along the curve, after its input guards.

    ``leaf`` = (dtp, foliation): the curve velocity must have no normal
    (factor 3 - foliation) components at 33 sample times (``NotInLeaf``)
    and v0 must be normal (``ValueError``).  v0 must be based at curve(0)
    (``BaseMismatch``).  The times are ``samples_per_segment`` per segment,
    breaks shared.
    """
    if leaf is not None:
        dtp, foliation = leaf
        normal_slot = dtp.slot(3 - foliation)
        for t in np.linspace(0.0, 1.0, 33):
            if np.max(np.abs(curve.velocity(t)[normal_slot])) > LEAF_VELOCITY_TOL:
                raise NotInLeaf(
                    f"curve velocity has factor-{3 - foliation} components at t = {t}")
        if np.max(np.abs(v0.components[dtp.slot(foliation)])) > 1e-12:
            raise ValueError("v0 must lie in the normal (other-factor) slots")
    if np.max(np.abs(v0.base.coords - curve.point(0.0))) > 1e-9:
        raise BaseMismatch("v0 must be based at curve(0)")
    return np.unique(np.concatenate([np.linspace(seg.t0, seg.t1, samples_per_segment)
                                     for seg in curve.segments]))


def _transport(g: MetricField, curve: PiecewiseCurve, v0: TangentVector,
               samples_per_segment: int, leaf=None, omega=None):
    """Samples (t, A(t)) of v0 carried along the curve, and I(t) at the same t.

    ``leaf`` = (dtp, foliation) keeps the transport in the normal bundle of
    a leaf of F_foliation: the curve must stay in the leaf, v0 must be
    normal, and only the normal projection of DW/dt is driven to zero.
    With the one-form ``omega``, A(t) = exp(-I(t)) W(t) for
    I(t) = integral of omega(gamma'); without it I = 0 and A = W.
    """
    ts = _transport_grid(curve, v0, samples_per_segment, leaf)
    project = None
    if leaf is not None:
        dtp, foliation = leaf
        normal_slot = dtp.slot(3 - foliation)

        def project(dY):
            out = np.zeros_like(dY)
            out[normal_slot] = dY[normal_slot]
            return out
    ys, Is = _integrate_transport(g, curve, v0.components.reshape(-1, 1), ts,
                                  omega=omega, project=project)
    samples = [(t, TangentVector(CoordPoint(curve.point(t)),
                                 y[:, 0] if omega is None else np.exp(-integ) * y[:, 0]))
               for t, y, integ in zip(ts, ys, Is)]
    return samples, Is


def parallel_transport(g: MetricField, curve: PiecewiseCurve, v0: TangentVector,
                       tol: float = 1e-7, samples_per_segment: int = 17) -> TransportResult:
    """Solve v'^k + Gamma^k_ij gamma'^i v^j = 0; g(v, v) is conserved.

    Raises IntegrationError when the conservation residual exceeds tol.
    """
    samples, _ = _transport(g, curve, v0, samples_per_segment)
    q0 = ck.inner_product(g, v0, v0)
    worst = max(abs(ck.inner_product(g, vec, vec) - q0) for _, vec in samples)
    if worst > tol:
        raise IntegrationError(f"metric compatibility residual {worst:.3e} > tol {tol:.3e}")
    return TransportResult(samples, 0.0, worst)


def normal_parallel_transport(dtp: pg.DoublyTwistedProduct, curve: PiecewiseCurve,
                              v0: TangentVector, tol: float = 1e-7,
                              foliation: int = 1,
                              samples_per_segment: int = 17) -> TransportResult:
    """Parallel translation in the normal bundle of a leaf of F_foliation.

    The curve must stay in the leaf (velocity tangent to the foliation's
    slots) and v0 must be normal; the normal projection of DW/dt is driven
    to zero, so W stays normal and |W| is conserved.
    """
    g = dtp.assembled
    samples, _ = _transport(g, curve, v0, samples_per_segment, leaf=(dtp, foliation))
    q0 = ck.inner_product(g, v0, v0)
    worst = max(abs(ck.inner_product(g, vec, vec) - q0) for _, vec in samples)
    if worst > tol:
        raise IntegrationError(f"normal transport norm residual {worst:.3e} > tol {tol:.3e}")
    return TransportResult(samples, 0.0, worst)


def adapted_translation(dtp: pg.DoublyTwistedProduct, curve: PiecewiseCurve,
                        v0: TangentVector, tol: float = 1e-6,
                        foliation: int = 1,
                        samples_per_segment: int = 17) -> TransportResult:
    """A(t) = exp(-int omega) W(t), W the normal parallel translation of v0
    (RK45; the oracle of ``adapted_translation_closed_form``).

    For a curve in a leaf of F_1 the form is omega_2 (mean curvature form of
    the second foliation), and symmetrically for F_2.  The norm law
    |A(t)| = |v0| exp(-int omega) is checked against tol.
    """
    form_index = 3 - foliation

    def omega(c):
        return pg.mean_curvature_form(dtp, c, form_index).components

    g = dtp.assembled
    samples, Is = _transport(g, curve, v0, samples_per_segment,
                             leaf=(dtp, foliation), omega=omega)
    norm0 = ck.norm(g, v0)
    worst = max(abs(ck.norm(g, vec) - norm0 * np.exp(-integ))
                for (_, vec), integ in zip(samples, Is))
    if worst > tol:
        raise IntegrationError(f"adapted-translation norm law residual {worst:.3e} > tol {tol:.3e}")
    return TransportResult(samples, Is[-1], worst, np.asarray(Is))


def adapted_translation_closed_form(dtp: pg.DoublyTwistedProduct, curve: PiecewiseCurve,
                                    v0: TangentVector, foliation: int = 1,
                                    samples_per_segment: int = 17) -> TransportResult:
    """``adapted_translation`` without integration: A(t) = v0 in product coordinates.

    Take a curve in a leaf of F_1 and write lam for lam2.  For i in slot 1
    and j, k in slot 2 the product connection has
    Gamma^k_ij = delta^k_j d_i ln lam (``productgeo.point_geometry``; g2 does
    not depend on slot-1 coordinates, so twisted warps are covered too).
    The normal transport equation is then dW/dt = -(d/dt ln lam(gamma)) W:

        W(t) = lam(gamma(0)) / lam(gamma(t)) v0,
        I(t) = int omega_2(gamma') = ln lam(gamma(0)) - ln lam(gamma(t)),
        A(t) = exp(-I(t)) W(t) = v0          (Ponge & Reckziegel 1993).

    F_2 is the mirror case with lam1.  Same input guards and sample times as
    the RK45 route; lam and g are each evaluated once, on the batch of
    sample points.  The norm-law residual
    max_t | |A(t)| - |v0| exp(-I(t)) | is returned as ``tol_achieved``.
    """
    ts = _transport_grid(curve, v0, samples_per_segment, leaf=(dtp, foliation))
    pts = np.stack([curve.point(t) for t in ts])
    Is = _leaf_integral(dtp, foliation, pts[0], pts)
    # g at v0's base and at every sample: |v0| there, |A(t)| = |v0|_g(t) here
    gm = dtp.assembled.mat(np.vstack([v0.base.coords, pts]))
    v = v0.components
    norms = np.sqrt(np.abs(np.einsum("i,pij,j->p", v, gm, v)))
    worst = float(np.max(np.abs(norms[1:] - norms[0] * np.exp(-Is))))
    samples = [(t, TangentVector(CoordPoint(p), v.copy())) for t, p in zip(ts, pts)]
    return TransportResult(samples, float(Is[-1]), worst, Is)


def _leaf_integral(dtp: pg.DoublyTwistedProduct, foliation: int, start: np.ndarray,
                   pts: np.ndarray) -> np.ndarray:
    """The closed-form I = ln lam(start) - ln lam(x) at each row x of ``pts``,
    lam the warp of the normal factor (one batched evaluation)."""
    log_lam = np.log(np.asarray(dtp.warp(3 - foliation).value(np.vstack([start, pts]))))
    return log_lam[0] - log_lam[1:]


def transport_equation_residual(dtp: pg.DoublyTwistedProduct, curve: PiecewiseCurve,
                                res: TransportResult, foliation: int = 1) -> float:
    """Worst normal component of dW/dt + Gamma(gamma', W) over the samples of
    ``adapted_translation_closed_form``, W = exp(I) A its normal translation.

    dW/dt = (grad exp(I) . gamma') v0 differentiates the closed form afresh
    (central differences of ``_leaf_integral`` at the sample points), so a
    wrong sample A(t) or I(t) shows as well as a wrong formula; Gamma comes
    from one batched ``christoffel_numeric`` on the assembled metric, which
    shares no code with the closed form.
    """
    ts = [t for t, _ in res.samples]
    pts = np.stack([vec.base.coords for _, vec in res.samples])
    A = np.stack([vec.components for _, vec in res.samples])
    start = curve.point(0.0)
    grad_scale = ck.central_diff(lambda x: np.exp(_leaf_integral(dtp, foliation, start, x)),
                                 pts, ck.fd_step(pts))
    vel = np.stack([curve.velocity(t) for t in ts])
    dW = np.outer(np.einsum("pi,pi->p", grad_scale, vel), A[0])
    W = np.exp(res.integrals)[:, None] * A
    gamma = ck.christoffel_numeric(dtp.assembled, pts)
    resid = dW + np.einsum("pkij,pi,pj->pk", gamma, vel, W)
    return float(np.max(np.abs(resid[:, dtp.slot(3 - foliation)])))


# ---------------------------------------------------------------------------
# holonomy

def normal_frame(dtp: pg.DoublyTwistedProduct, x, foliation: int = 1) -> list[TangentVector]:
    """g-orthonormal frame of the normal space of the F_foliation leaf at x."""
    coords = x.coords if isinstance(x, CoordPoint) else np.asarray(x, dtype=float)
    pt = CoordPoint(coords)
    other = dtp.slot(3 - foliation)
    basis = []
    for j in range(other.start, other.stop):
        e = np.zeros(dtp.n)
        e[j] = 1.0
        basis.append(TangentVector(pt, e))
    return ck.gram_schmidt(dtp.assembled, coords, basis)


def holonomy_map(model, loop: PiecewiseCurve, frame: Sequence[TangentVector],
                 foliation: int = 1, closing_word=None) -> HolonomyMap:
    """Adapted translation of each frame vector around the loop, in that frame
    (RK45; the oracle of the closed-form ``quotient.loop_holonomy``).

    ``model`` is a plain product (loop must close in chart coordinates) or a
    quotient model exposing ``dtp``, ``find_closing_word`` and
    ``word_jacobian``: the loop then closes after a deck word, whose inverse
    differential pushes the transported vectors back to the basepoint.  The
    loop closes in chart coordinates when its endpoints agree within
    LOOP_CLOSURE_TOL.
    """
    dtp = model.dtp if hasattr(model, "dtp") else model
    base = loop.point(0.0)
    end = loop.point(1.0)
    jac = np.eye(dtp.n)
    if np.max(np.abs(end - base)) > LOOP_CLOSURE_TOL:
        if not hasattr(model, "find_closing_word"):
            raise NotALoop(f"loop endpoints differ by {np.max(np.abs(end - base)):.3e}")
        word = closing_word if closing_word is not None else model.find_closing_word(end, base)
        jac = model.word_jacobian(word, end)
    elif closing_word is not None:
        jac = model.word_jacobian(closing_word, end)

    normal_slot = dtp.slot(3 - foliation)
    frame = list(frame)
    fmat = np.stack([f.components[normal_slot] for f in frame], axis=1)
    cols = []
    for f in frame:
        res = adapted_translation(dtp, loop, f, foliation=foliation)
        pushed = jac @ res.end.components
        cols.append(np.linalg.solve(fmat, pushed[normal_slot]))
    return HolonomyMap(CoordPoint(base), np.stack(cols, axis=1), frame)


# ---------------------------------------------------------------------------
# broken geodesics (velocity resets by parallel transport) and profiles

def _geodesic_frame_rhs(g: MetricField):
    def rhs(t, state, n):
        x = state[:n]
        v = state[n:2 * n]
        E = state[2 * n:].reshape(n, n)
        gamma = ck.christoffel_numeric(g, x)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        dE = -np.einsum("kij,i,jc->kc", gamma, v, E)
        return np.concatenate([v, acc, dE.reshape(-1)])
    return rhs


def _check_domain(g: MetricField, positions: np.ndarray):
    if g.domain_box is None:
        return
    box = g.domain_box
    pad = 0.1 * (box[:, 1] - box[:, 0])
    lo, hi = box[:, 0] - pad, box[:, 1] + pad
    if np.any(positions < lo) or np.any(positions > hi):
        raise IntegrationError("geodesic left the declared domain box")


def broken_geodesic(g: MetricField, spec: BrokenGeodesicSpec) -> PiecewiseCurve:
    """Geodesic segments whose break velocities are parallel transports of the
    spec velocities, so that the velocity profile is the given list."""
    n = spec.basepoint.n
    rhs = _geodesic_frame_rhs(g)
    ts = [0.0, *spec.breaks, 1.0]
    state = np.concatenate([spec.basepoint.coords,
                            spec.velocities[0].components,
                            np.eye(n).reshape(-1)])
    sols = []
    for j, (t0, t1) in enumerate(zip(ts, ts[1:])):
        if j > 0:
            E = state[2 * n:].reshape(n, n)
            state = state.copy()
            state[n:2 * n] = E @ spec.velocities[j].components
        sol = solve_ivp(rhs, (t0, t1), state, args=(n,), method="RK45",
                        rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success:
            raise IntegrationError(f"geodesic integration failed: {sol.message}")
        _check_domain(g, sol.y[:n].T)
        sols.append((t0, t1, sol))
        state = sol.y[:, -1]

    segs = []
    for t0, t1, sol in sols:
        segs.append(CurveSegment(
            t0, t1,
            lambda t, s=sol: s.sol(t)[:n],
            lambda t, s=sol: s.sol(t)[n:2 * n],
        ))
    return PiecewiseCurve(segs)


def velocity_profile(g: MetricField, curve: PiecewiseCurve,
                     ts: Optional[Sequence[float]] = None) -> list[TangentVector]:
    """v(t) = P^{-1}_{0->t}(gamma'(t)), sampled at segment midpoints by default.

    The profile is piecewise constant exactly when the curve is a broken
    geodesic.
    """
    base = CoordPoint(curve.point(0.0))
    if ts is None:
        ts = [0.5 * (seg.t0 + seg.t1) for seg in curve.segments]
    # transport the full coordinate frame and invert at the requested times
    times, at = np.unique(np.asarray(ts, dtype=float), return_inverse=True)
    frames, _ = _integrate_transport(g, curve, np.eye(base.n), times)
    return [TangentVector(base, np.linalg.solve(frames[i], curve.velocity(t)))
            for t, i in zip(ts, at)]


def broken_length(g: MetricField, basis: Optional[np.ndarray],
                  spec: BrokenGeodesicSpec) -> float:
    """Sum of auxiliary norms of the spec velocities.

    The auxiliary norm comes from a declared basis at the basepoint, taken
    orthonormal for a positive-definite reference metric (identity basis by
    default).
    """
    n = spec.basepoint.n
    B = np.eye(n) if basis is None else np.asarray(basis, dtype=float)
    total = 0.0
    for v in spec.velocities:
        total += float(np.linalg.norm(np.linalg.solve(B, v.components)))
    return total
