"""Transport along curves: parallel and adapted translation; holonomy.

A curve (``PiecewiseCurve``) is its knots and one evaluator pair for all its
segments, so a batch of times is one evaluator call however many segments
it spans; a Catmull-Rom spline keeps its segments' coefficients in one table.

Adapted translation along a leaf has a closed form
(``adapted_translation_closed_form``): a normal vector keeps its
product-coordinate components.  The ``transport`` command runs it, and
checks every curve of a scenario against the transport equation in one
batch (``transport_equation_residual``).  Leaf holonomy in quotients is
likewise computed in closed form (``quotient.loop_holonomies``).

Integration is their oracle, in one place.  ``transport_batch`` carries the
frames of a list of jobs along their curves; a job is a curve, a frame, and
a foliation for adapted translation or none for parallel transport.
verify-all makes one call for all its oracle transports: the adapted
translation and the parallel transport along its leaf line, and the adapted
translation around every declared holonomy loop, whose return map
``loop_return_map`` reads.  ``_integrate`` solves the linear equation
Ydot = -Gamma(gamma') Y by composite 3-stage Gauss-Legendre collocation,
order 6 (Butcher, Math. Comp. 18, 1964; Hairer, Norsett & Wanner, Solving
ODEs I, II.7), on the sample times of each job's curve, which hold 0 and
the curve's breaks.  Each pass (``collocation_pass``) runs one or more step
counts for every job not yet settled: it evaluates each distinct curve once
per step count (one ``point`` and one ``velocity`` batch over its nodes),
Gamma at the nodes of all of them in one batched ``christoffel_numeric``
call on the metric (the oracle route, sharing nothing with
``productgeo.point_geometry`` below ``MetricField.mat``) and omega once per
foliation, and solves the stage systems of all jobs in one stacked solve;
the integral of the mean curvature form is a Gauss quadrature on the same
nodes.  Step doubling runs until two passes of a job agree within RTOL /
ATOL, and the job leaves the batch there, so its result is bit-identical to
its batch of one.  Every job takes part in the first comparison, at 1 and 2
steps per interval, so that comparison is one pass over both step counts,
bit-identical to the two passes run one after the other; each later
doubling is one pass.  The
conservation and norm-law residuals the callers check are then about 1e-15
on the smooth analytic built-ins, and up to 4e-10 where Gamma comes from
finite differences (scenario files) or the warp is piecewise (example1).
Both adapted-translation routes pass the same input guards and sample the
same times (``_transport_grid``), which each curve evaluates once.  The
module needs numpy alone; scipy's RK45 is the tests' oracle of the
integrator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import chartkit as ck
from . import productgeo as pg
from .chartkit import CoordPoint, MetricField, TangentVector
from .errors import (
    BaseMismatch,
    GeometryError,
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
SAMPLES_PER_SEGMENT = 17  # transport sample times per curve segment, breaks shared


# ---------------------------------------------------------------------------
# curves

def _finite(vals: np.ndarray, ts: np.ndarray, what: str) -> np.ndarray:
    """vals (T, n) at the times ts, refused at the first time with a non-finite entry."""
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericsError(f"curve {what} not finite at t = {ts[k]}: {vals[k]}")
    return vals


class PiecewiseCurve:
    """Piecewise-smooth curve on [0, 1]: knots 0 = k_0 < ... < k_m = 1 and one
    evaluator pair for all m segments.

    ``point(t)`` and ``velocity(t)`` take one time and return (n,), or an
    array of times (T,) and return (T, n).  A time belongs to the first
    segment that ends no more than 1e-12 before it, and one evaluator call
    serves the whole batch: ``point_fn(t, seg)`` and ``velocity_fn(t, seg)``
    map times (T,) and their segment indices (T,) to (T, n).

    Construction refuses knots that do not increase strictly from 0 to 1
    (ValueError).  The probe runs before the first evaluation instead, so a
    curve nothing reads costs no evaluator call: it refuses non-finite points
    and velocities, a gap at a break, and a velocity that is not (by finite
    differences) the derivative of the point map on its segment, each with a
    ``NumericsError``.  A curve whose probe failed raises again on every
    later evaluation.
    """

    def __init__(self, knots: Sequence[float], point_fn: Callable, velocity_fn: Callable,
                 check: bool = True):
        self.knots = np.asarray(knots, dtype=float)
        if len(self.knots) < 2:
            raise ValueError("curve needs at least one segment")
        if abs(self.knots[0]) > 1e-12 or abs(self.knots[-1] - 1.0) > 1e-12:
            raise ValueError("curve segments must cover [0, 1]")
        if np.any(np.diff(self.knots) <= 0.0):
            raise ValueError("curve knots must increase strictly from 0 to 1, "
                             f"got {self.knots.tolist()}")
        self._point, self._velocity = point_fn, velocity_fn
        self._ends = self.knots[1:] + 1e-12
        self._unprobed = check

    def _check(self):
        t0, t1 = self.knots[:-1], self.knots[1:]
        k = np.arange(len(t0))
        tm, dt = 0.5 * (t0 + t1), np.minimum(1e-6, 0.25 * (t1 - t0))
        ts = np.concatenate([t1, t0, tm + dt, tm - dt])
        pts = _finite(self._eval(self._point, ts, np.tile(k, 4)), ts, "point")
        ends, starts, ahead, behind = pts.reshape(4, len(k), -1)
        for t, gap in zip(t1, np.max(np.abs(ends[:-1] - starts[1:]), axis=1, initial=0.0)):
            if gap > _CONTINUITY_TOL:
                raise NumericsError(f"curve discontinuous at t = {t}: gap {gap:.2e}")
        fd = (ahead - behind) / (2 * dt[:, None])
        v = _finite(self._eval(self._velocity, tm, k), tm, "velocity")
        if np.any(np.max(np.abs(fd - v), axis=1)
                  > _VELOCITY_CHECK_TOL * (1.0 + np.max(np.abs(v), axis=1))):
            raise NumericsError("segment velocity is not the derivative of its point map")

    def _at(self, fn: Callable, t) -> np.ndarray:
        """``_eval`` once the curve has passed its probe."""
        if self._unprobed:
            self._check()  # raises, and the curve stays unprobed, until the probe passes
            self._unprobed = False
        return self._eval(fn, t)

    def _eval(self, fn: Callable, t, seg: Optional[np.ndarray] = None) -> np.ndarray:
        """The evaluator fn at the times t, each time in segment ``seg`` (by
        default the one the class docstring names), in one call."""
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        if seg is None:
            seg = np.minimum(np.searchsorted(self._ends, flat), len(self._ends) - 1)
        out = np.asarray(fn(flat, seg), dtype=float)
        return out.reshape(ts.shape + out.shape[-1:])

    def point(self, t) -> np.ndarray:
        return self._at(self._point, t)

    def velocity(self, t) -> np.ndarray:
        return self._at(self._velocity, t)

    @functools.cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Transport sample times, SAMPLES_PER_SEGMENT per segment with the
        breaks shared, and the curve there: evaluated once per curve,
        read-only, for every transport along it (``_transport_grid``)."""
        ts = np.unique(np.concatenate([np.linspace(t0, t1, SAMPLES_PER_SEGMENT)
                                       for t0, t1 in zip(self.knots[:-1], self.knots[1:])]))
        pts = self.point(ts)
        ts.flags.writeable = pts.flags.writeable = False
        return ts, pts

    @functools.cached_property
    def _probe(self) -> tuple[np.ndarray, np.ndarray]:
        """33 probe times on [0, 1] and the velocity there, read-only: the leaf
        guard of ``_transport_grid``, evaluated once per curve."""
        ts = np.linspace(0.0, 1.0, 33)
        vel = self.velocity(ts)
        ts.flags.writeable = vel.flags.writeable = False
        return ts, vel

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_function(point_fn: Callable[[np.ndarray], np.ndarray],
                      velocity_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      breaks: Sequence[float] = ()) -> "PiecewiseCurve":
        """Both callables map times (T,) to (T, n); without ``velocity_fn`` the
        velocity is a finite difference, one ``point_fn`` call on all its stencils."""
        if velocity_fn is None:
            def velocity_fn(t, _p=point_fn):
                # central differences; second-order one-sided stencils at the ends (the
                # third stencil time of a central one is t itself, unused)
                dt = 1e-6
                lo, hi = (t < dt)[:, None], (t > 1.0 - dt)[:, None]
                steps = np.where(lo, [0.0, dt, 2 * dt],
                                 np.where(hi, [0.0, -dt, -2 * dt], [dt, -dt, 0.0]))
                p0, p1, p2 = np.reshape(_p((t[:, None] + steps).T.reshape(-1)), (3, len(t), -1))
                return np.where(lo, -3 * p0 + 4 * p1 - p2,
                                np.where(hi, 3 * p0 - 4 * p1 + p2, p0 - p1)) / (2 * dt)
        return PiecewiseCurve([0.0, *sorted(breaks), 1.0], lambda t, seg: point_fn(t),
                              lambda t, seg: velocity_fn(t))

    @staticmethod
    def line(p0, p1) -> "PiecewiseCurve":
        a, b = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
        return PiecewiseCurve([0.0, 1.0], lambda t, seg: a + t[:, None] * (b - a),
                              lambda t, seg: np.tile(b - a, (len(t), 1)), check=False)

    @staticmethod
    def catmull_rom(points: Sequence[np.ndarray]) -> "PiecewiseCurve":
        """Uniform Catmull-Rom spline through the control points: one row of
        cubic coefficients per segment, gathered once per batch."""
        pts = np.asarray(points, dtype=float)
        if len(pts) < 2:
            raise ValueError("need at least two control points")
        ext = np.vstack([2 * pts[0] - pts[1], pts, 2 * pts[-1] - pts[-2]])
        p0, p1, p2, p3 = ext[:-3], ext[1:-2], ext[2:-1], ext[3:]
        coef = np.stack([2 * p1, -p0 + p2, 2 * p0 - 5 * p1 + 4 * p2 - p3,
                         -p0 + 3 * p1 - 3 * p2 + p3])  # (4, m, n): a..d in s, per segment
        m = len(pts) - 1

        def local(t, seg):
            return (t * m - seg)[:, None], coef[:, seg]

        def point(t, seg):
            s, (a, b, c, d) = local(t, seg)
            return 0.5 * (a + b * s + c * (s * s) + d * (s * s * s))

        def velocity(t, seg):
            s, (_, b, c, d) = local(t, seg)
            return 0.5 * (b + 2 * c * s + 3 * d * s * s) * m

        return PiecewiseCurve([k / m for k in range(m + 1)], point, velocity)


# ---------------------------------------------------------------------------
# transport results

@dataclass
class TransportResult:
    ts: np.ndarray  # (S,) sample times
    points: np.ndarray  # (S, n) the curve at the samples
    components: np.ndarray  # (S, n) the transported vector at the samples; (S, n, k) a frame
    integral_omega: float
    tol_achieved: float
    integrals: Optional[np.ndarray] = None  # adapted translation: I(t) at each sample
    velocities: Optional[np.ndarray] = None  # closed form: the curve velocity at the samples

    @property
    def end(self) -> TangentVector:
        return TangentVector(CoordPoint(self.points[-1]), self.components[-1])


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

    def is_identity(self, tol: float = 1e-6) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(self.matrix.shape[0]))) <= tol)


# ---------------------------------------------------------------------------
# core transport integration: composite Gauss-Legendre collocation

_SQRT15 = np.sqrt(15.0)
# 3-stage Gauss-Legendre (order 6): nodes c, weights b, coefficients a
_GL_C = np.array([0.5 - _SQRT15 / 10, 0.5, 0.5 + _SQRT15 / 10])
_GL_B = np.array([5 / 18, 4 / 9, 5 / 18])
_GL_A = np.array([[5 / 36, 2 / 9 - _SQRT15 / 15, 5 / 36 - _SQRT15 / 30],
                 [5 / 36 + _SQRT15 / 24, 2 / 9, 5 / 36 - _SQRT15 / 24],
                 [5 / 36 + _SQRT15 / 30, 2 / 9 + _SQRT15 / 15, 5 / 36]])
MAX_DOUBLINGS = 7  # at most 2**7 steps per grid interval


@dataclass
class TransportJob:
    """One transport of ``transport_batch``: the frame's vectors, all based at
    curve(0), carried along the curve.  ``foliation`` None is parallel
    transport; 1 or 2 is adapted translation in a leaf of F_foliation, which
    the curve must not leave, of vectors normal to that leaf."""

    curve: PiecewiseCurve
    frame: Sequence[TangentVector]
    foliation: Optional[int]


def collocation_pass(g: MetricField, dtp, jobs: Sequence[tuple],
                     steps: Sequence[int]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """One pass of composite 3-stage Gauss-Legendre collocation of
    Ydot = A(t) Y, A = -Gamma(gamma'), for every job (curve, foliation) at
    each step count s of ``steps``: s equal steps in every interval of the
    job's grid, its curve's sample times (``PiecewiseCurve._samples``).

    Each distinct (curve, s) is evaluated once, one ``point`` and one
    ``velocity`` batch over its 3 * s * intervals nodes; Gamma at the nodes
    of all of them comes from one batched ``christoffel_numeric``, and
    omega_{3 - i} (``productgeo.mean_curvature_form`` of ``dtp``) from one
    call per foliation i, the nodes of the step counts in the order of
    ``steps``.  A job with a foliation keeps only the normal rows of A.  The
    equation is linear, so each step solves its stage system
    (I - h a_ij A_i) K_j = A_i once for the stage matrices, the steps of all
    jobs at all step counts in one stacked solve, and M = I + h sum_i b_i K_i
    carries Y across the step.  Returns, per step count and per job, the
    transfer matrix across each grid interval, (intervals, n, n), and the
    increment of I = integral of omega(gamma') over each (0 without a
    foliation), from the same nodes and weights.
    """
    n = g.dim
    runs = [(curve, f, s) for s in steps for curve, f in jobs]
    keys = [(id(curve), s) for curve, _, s in runs]
    steps_of, pos, vel = {}, {}, {}  # per distinct (curve, s): h; the curve at the nodes
    for key, (curve, _, s) in zip(keys, runs):
        if key not in steps_of:
            grid = curve._samples[0]
            h = np.repeat(np.diff(grid) / s, s)
            starts = np.repeat(grid[:-1], s) + h * np.tile(np.arange(s), len(grid) - 1)
            nodes = (starts[:, None] + h[:, None] * _GL_C).reshape(-1)
            steps_of[key], pos[key], vel[key] = h, curve.point(nodes), curve.velocity(nodes)
    ends = np.cumsum([len(p) for p in pos.values()])
    rows = {key: slice(end - len(p), end) for (key, p), end in zip(pos.items(), ends)}
    gamma = ck.christoffel_numeric(g, np.concatenate(list(pos.values())))
    rate = {}  # omega_{3 - i}(gamma') at the nodes of each path of foliation i
    for i in sorted({f for _, f, _ in runs if f is not None}):
        mine = list(dict.fromkeys(key for key, (_, f, _) in zip(keys, runs) if f == i))
        at = np.cumsum([len(pos[key]) for key in mine])
        omega = pg.mean_curvature_form(dtp, np.concatenate([pos[key] for key in mine]), 3 - i)
        for key, chunk in zip(mine, np.split(omega, at[:-1])):
            rate[i, key] = np.einsum("pi,pi->p", chunk, vel[key])
    A = []
    for key, (_, f, _) in zip(keys, runs):
        a = -np.einsum("pkij,pi->pkj", gamma[rows[key]], vel[key])
        if f is not None:
            a[:, dtp.slot(f)] = 0.0  # only the normal rows drive Y
        A.append(a.reshape(-1, 3, n, n))
    h = np.concatenate([steps_of[key] for key in keys])
    A = np.concatenate(A)
    # block (i, j) of the stage matrix: delta_ij I - h a_ij A_i
    coupling = h[:, None, None, None, None] * _GL_A[:, None, :, None] * A[:, :, :, None, :]
    stage = np.eye(3 * n) - coupling.reshape(-1, 3 * n, 3 * n)
    K = np.linalg.solve(stage, A.reshape(-1, 3 * n, n)).reshape(-1, 3, n, n)
    M = np.eye(n) + h[:, None, None] * np.einsum("i,sikc->skc", _GL_B, K)
    out, first = [], 0
    for s in steps:  # the runs of one step count are consecutive, in job order
        mine = [(key, f) for key, (_, f, run_s) in zip(keys, runs) if run_s == s]
        count = sum(len(steps_of[key]) for key, _ in mine)
        Ms = M[first:first + count].reshape(-1, s, n, n)
        first += count
        transfer = Ms[:, 0]
        for j in range(1, s):
            transfer = Ms[:, j] @ transfer
        results, lo = [], 0
        for key, f in mine:
            hk = steps_of[key]
            intervals = len(hk) // s
            dI = np.zeros(intervals) if f is None else (
                hk * (rate[f, key].reshape(-1, 3) @ _GL_B)).reshape(intervals, s).sum(axis=1)
            results.append((transfer[lo:lo + intervals], dI))
            lo += intervals
        out.append(results)
    return out


def _integrate(g: MetricField, dtp,
               jobs: Sequence[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integrate Ydot = -Gamma(gamma') Y (columnwise) along the curve of
    every job (curve, y0, foliation).

    Y is (n, k).  A foliation i keeps only the normal rows of Ydot and adds
    I(t) = integral of omega_{3 - i}(gamma') dt.  A job's grid is its curve's
    sample times ts (``PiecewiseCurve._samples``): sorted from 0 to 1 with
    every break among them, so no step straddles a break.  Step doubling:
    passes of ``collocation_pass`` at 1, 2, 4, ... steps per grid interval,
    each over every job not yet settled, run until two successive passes of
    a job agree within ATOL + RTOL |value| on Y and I at every time; the job
    then leaves with the finer, so its result does not depend on the rest of
    the batch.  The first comparison always needs both 1 and 2 steps, so they
    run as one pass (1 step alone when MAX_DOUBLINGS is 0); each later
    doubling is one pass.  When that first pass fails, the 1-step pass runs
    alone first, so an error names the point and field it would name with
    the passes one at a time.  Returns (Ys (len(ts), n, k), Is (len(ts),))
    per job.  IntegrationError when MAX_DOUBLINGS doublings leave a job
    unsettled.
    """
    out, live, prev = [None] * len(jobs), list(range(len(jobs))), {}
    # step counts per pass: 1 and 2 together, then 4, 8, ... up to 2 ** MAX_DOUBLINGS
    levels = [[1, 2][:MAX_DOUBLINGS + 1]] + [[2 ** d] for d in range(2, MAX_DOUBLINGS + 1)]
    for level in levels:
        if not live:
            break
        batch = [(jobs[j][0], jobs[j][2]) for j in live]
        try:
            passes = collocation_pass(g, dtp, batch, level)
        except GeometryError:  # name the point and field that the passes one at a time name
            for steps in level[:-1]:
                collocation_pass(g, dtp, batch, [steps])
            raise
        # coarsest first; a job settles only against an earlier pass, so none
        # leaves between the two step counts of the first level
        for results in passes:
            for j, (transfer, dI) in zip(live, results):
                Y = [jobs[j][1]]
                for M in transfer:
                    Y.append(M @ Y[-1])
                cur = (np.stack(Y), np.concatenate([[0.0], np.cumsum(dI)]))
                if j in prev and all(np.all(np.abs(a - b) <= ATOL + RTOL * np.abs(a))
                                     for a, b in zip(cur, prev[j])):
                    out[j] = cur
                else:
                    prev[j] = cur
        live = [j for j in live if out[j] is None]
    if live:
        raise IntegrationError(
            f"transport collocation did not settle within MAX_DOUBLINGS = {MAX_DOUBLINGS} "
            f"step doublings ({2 ** MAX_DOUBLINGS} steps per grid interval)")
    return out


def _transport_grid(curve: PiecewiseCurve, frame: Sequence[TangentVector],
                    leaf=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample times of a transport of the frame's vectors along the curve and
    the curve there, after its input guards.

    ``leaf`` = (dtp, foliation): the curve velocity must have no normal
    (factor 3 - foliation) components at 33 sample times (``NotInLeaf``)
    and every vector must be normal (``ValueError``).  Every vector must be
    based at curve(0) (``BaseMismatch``).  The times are
    SAMPLES_PER_SEGMENT per segment, breaks shared.  The probe and the
    samples are the curve's own (``PiecewiseCurve._probe``, ``_samples``):
    every transport along one curve reads the same two evaluations, and
    the guards of each run in the order above.
    """
    if leaf is not None:
        dtp, foliation = leaf
        probe, vel = curve._probe
        drift = np.max(np.abs(vel[:, dtp.slot(3 - foliation)]), axis=1)
        if np.any(drift > LEAF_VELOCITY_TOL):
            raise NotInLeaf(f"curve velocity has factor-{3 - foliation} components "
                            f"at t = {probe[np.argmax(drift > LEAF_VELOCITY_TOL)]}")
        if any(np.max(np.abs(v.components[dtp.slot(foliation)])) > 1e-12 for v in frame):
            raise ValueError("v0 must lie in the normal (other-factor) slots")
    ts, pts = curve._samples
    if any(np.max(np.abs(v.base.coords - pts[0])) > 1e-9 for v in frame):
        raise BaseMismatch("v0 must be based at curve(0)")
    return ts, pts


def transport_batch(space, jobs: Sequence[TransportJob]) -> list[TransportResult]:
    """The frames of all jobs carried along their curves, in one integration.

    ``space`` is the metric, or a ``DoublyTwistedProduct`` (its assembled
    metric), which jobs with a foliation need.  Each job passes the input
    guards of ``_transport_grid`` and is sampled at its times; ``_integrate``
    then solves all jobs together, each bit-identical to its batch of one.

    A result's components are (S, n, k), one column per frame vector.
    Parallel transport gives W, with I = 0.  Adapted translation in a leaf
    of F_foliation drives only the normal projection of DW/dt to zero and
    gives A(t) = exp(-I(t)) W(t), with ``integrals`` I(t) = integral of
    omega_{3 - foliation}(gamma') (Ponge & Reckziegel 1993; the oracle of
    ``adapted_translation_closed_form``).  ``tol_achieved`` is the worst
    residual of the law the transport keeps, from one batched ``g.mat``
    over every job's base and samples: |g(W, W) - g(v0, v0)| for parallel
    transport, | |A| - |v0| exp(-I) | for adapted translation.
    """
    dtp = space if isinstance(space, pg.DoublyTwistedProduct) else None
    g = space if dtp is None else dtp.assembled
    if dtp is None and any(job.foliation is not None for job in jobs):
        raise ValueError("adapted translation needs a DoublyTwistedProduct")
    grids = [_transport_grid(job.curve, job.frame,
                             None if job.foliation is None else (dtp, job.foliation))
             for job in jobs]
    y0s = [np.stack([v.components for v in job.frame], axis=1) for job in jobs]
    solved = _integrate(g, dtp, [(job.curve, y0, job.foliation) for job, y0 in zip(jobs, y0s)])
    gm = g.mat(np.vstack([[job.frame[0].base.coords for job in jobs],
                          *(pts for _, pts in grids)]))
    out, first = [], len(jobs)
    for j, (job, y0, (ts, pts), (Ys, Is)) in enumerate(zip(jobs, y0s, grids, solved)):
        if job.foliation is not None:
            Ys = np.exp(-Is)[:, None, None] * Ys
        q0 = np.einsum("ic,ij,jc->c", y0, gm[j], y0)
        q = np.einsum("sic,sij,sjc->sc", Ys, gm[first:first + len(ts)], Ys)
        first += len(ts)
        if job.foliation is None:
            out.append(TransportResult(ts, pts, Ys, 0.0, float(np.max(np.abs(q - q0)))))
        else:
            worst = np.abs(np.sqrt(np.abs(q)) - np.sqrt(np.abs(q0)) * np.exp(-Is)[:, None])
            out.append(TransportResult(ts, pts, Ys, float(Is[-1]), float(np.max(worst)), Is))
    return out


def adapted_translation_closed_form(dtp: pg.DoublyTwistedProduct, curve: PiecewiseCurve,
                                    v0: TangentVector, foliation: int = 1) -> TransportResult:
    """Adapted translation without integration: A(t) = v0 in product coordinates.

    Take a curve in a leaf of F_1 and write lam for lam2.  For i in slot 1
    and j, k in slot 2 the product connection has
    Gamma^k_ij = delta^k_j d_i ln lam (``productgeo.point_geometry``; g2 does
    not depend on slot-1 coordinates, so twisted warps are covered too).
    The normal transport equation is then dW/dt = -(d/dt ln lam(gamma)) W:

        W(t) = lam(gamma(0)) / lam(gamma(t)) v0,
        I(t) = int omega_2(gamma') = ln lam(gamma(0)) - ln lam(gamma(t)),
        A(t) = exp(-I(t)) W(t) = v0          (Ponge & Reckziegel 1993).

    F_2 is the mirror case with lam1.  Same input guards and sample times as
    the integrating route (``transport_batch``); lam is evaluated once, on
    the batch of sample points, and the curve velocity there is kept for
    ``transport_equation_residual``.  Nothing is integrated, so
    ``tol_achieved`` is 0.
    """
    ts, pts = _transport_grid(curve, [v0], leaf=(dtp, foliation))
    Is = _leaf_integral(dtp, foliation, pts[:1], pts, 0)
    return TransportResult(ts, pts, np.tile(v0.components, (len(ts), 1)), float(Is[-1]), 0.0, Is,
                           curve.velocity(ts))


def _leaf_integral(dtp: pg.DoublyTwistedProduct, foliation: int, starts: np.ndarray,
                   pts: np.ndarray, owner) -> np.ndarray:
    """The closed-form I = ln lam(start) - ln lam(x) at each row x of
    ``pts``, start the row ``owner`` of ``starts`` (one index, or one per
    row) and lam the warp of the normal factor (one batched evaluation)."""
    log_lam = np.log(np.asarray(dtp.warp(3 - foliation).value(np.concatenate([starts, pts]))))
    return log_lam[owner] - log_lam[len(starts):]


def transport_equation_residual(dtp: pg.DoublyTwistedProduct, results: Sequence[TransportResult],
                                foliation: int = 1) -> list[float]:
    """Worst normal component of dW/dt + Gamma(gamma', W) over the samples of
    each result of ``adapted_translation_closed_form``, W = exp(I) A its
    normal translation; one residual per result.

    dW/dt = (grad exp(I) . gamma') v0 differentiates the closed form afresh
    (central differences of ``_leaf_integral`` at the sample points), so a
    wrong sample A(t) or I(t) shows as well as a wrong formula; Gamma comes
    from ``christoffel_numeric`` on the assembled metric, which shares no
    code with the closed form.  The samples of all results share one
    difference stencil and one ``christoffel_numeric`` batch.
    """
    sizes = [len(res.ts) for res in results]
    owner = np.repeat(np.arange(len(results)), sizes)
    first = np.cumsum([0, *sizes[:-1]])
    pts = np.concatenate([res.points for res in results])
    A = np.concatenate([res.components for res in results])
    vel = np.concatenate([res.velocities for res in results])
    grad_scale = ck.central_diff(
        lambda x: np.exp(_leaf_integral(dtp, foliation, pts[first], x,
                                        np.repeat(owner, len(x) // len(pts)))),
        pts, ck.fd_step(pts))
    dW = np.einsum("pi,pi->p", grad_scale, vel)[:, None] * A[first][owner]
    W = np.exp(np.concatenate([res.integrals for res in results]))[:, None] * A
    gamma = ck.christoffel_numeric(dtp.assembled, pts)
    resid = dW + np.einsum("pkij,pi,pj->pk", gamma, vel, W)
    return np.maximum.reduceat(np.abs(resid[:, dtp.slot(3 - foliation)]).max(axis=1),
                               first).tolist()


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


def loop_return_map(model, job: TransportJob, res: TransportResult,
                    closing_word) -> HolonomyMap:
    """The holonomy of the leaf loop ``job.curve`` in the frame ``job.frame``,
    read from ``res``, the adapted translation of that normal frame around it
    (``transport_batch``): the integrating oracle of the closed-form
    ``quotient.loop_holonomies``.

    ``model`` is a plain product or a quotient model exposing ``dtp`` and
    ``word_jacobian``.  The deck word ``closing_word`` closes the loop in a
    quotient: its differential at the loop's end pushes the transported
    vectors back to the basepoint.  Without one the loop must close in chart
    coordinates, its endpoints within LOOP_CLOSURE_TOL (``NotALoop``).
    IntegrationError when the translation's norm-law residual exceeds 1e-6.
    """
    dtp = model.dtp if hasattr(model, "dtp") else model
    base, end = res.points[0], res.points[-1]
    if closing_word is not None:
        jac = model.word_jacobian(closing_word, end)
    elif np.max(np.abs(end - base)) > LOOP_CLOSURE_TOL:
        raise NotALoop(f"loop endpoints differ by {np.max(np.abs(end - base)):.3e}")
    else:
        jac = np.eye(dtp.n)
    if res.tol_achieved > 1e-6:
        raise IntegrationError(
            f"adapted-translation norm law residual {res.tol_achieved:.3e} > tol {1e-6:.3e}")
    normal_slot = dtp.slot(3 - job.foliation)
    fmat = np.stack([f.components[normal_slot] for f in job.frame], axis=1)
    return HolonomyMap(CoordPoint(base),
                       np.linalg.solve(fmat, (jac @ res.components[-1])[normal_slot]),
                       list(job.frame))
