"""Quotients of product metrics by deck-transformation groups.

A quotient model is a doubly twisted product together with generators acting
as factor-split maps phi x psi, a fundamental box, an identification
tolerance and a word bound.  Operations: sampled validation of the group
action, leaf tracing with closure detection, intersection counting by orbit
enumeration, holonomy-based global-decomposition verdicts, the explicit
twisted construction whose quotient is not globally a product, and the
curvature-sign/critical-point diagnostic.

Group words are tuples of (generator_name, +1 | -1), applied left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize

from . import chartkit as ck
from . import productgeo as pg
from . import transport as tp
from .chartkit import CoordPoint, ScalarField, TangentVector
from .errors import (
    GeometryError,
    InvalidAction,
    InvalidH,
    NotALoop,
    WordBoundExceeded,
)

Word = tuple  # of (name, +1 | -1)

ACTION_TOL = 1e-7       # deck-generator invariant residual budget
DEFAULT_IDENT_TOL = 1e-7
DEFAULT_WORD_BOUND = 8
_ROUND = 1e-9           # dedup grid for BFS visited sets


def word_inverse(word: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


@dataclass
class FactorMap:
    """Diffeomorphism of one factor with a declared inverse.

    ``jacobian`` is optional; central differences are used when absent.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x, sign: int = 1) -> np.ndarray:
        fn = self.apply if sign > 0 else self.inverse
        return np.atleast_1d(np.asarray(fn(np.asarray(x, dtype=float)), dtype=float))

    def jac(self, x, sign: int = 1) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.jacobian is not None and sign > 0:
            return np.atleast_2d(np.asarray(self.jacobian(x), dtype=float))
        if self.jacobian is not None and sign < 0:
            # d(f^-1)(x) = [df(f^-1 x)]^-1
            return np.linalg.inv(self.jac(self(x, -1), 1))
        fn = self.apply if sign > 0 else self.inverse
        m = x.shape[0]
        cols = []
        for j in range(m):
            h = 1e-6 * max(1.0, abs(x[j]))
            e = np.zeros(m)
            e[j] = h
            cols.append((np.atleast_1d(fn(x + e)) - np.atleast_1d(fn(x - e))) / (2 * h))
        return np.stack(cols, axis=1)

    @staticmethod
    def affine(A, b) -> "FactorMap":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        Ainv = np.linalg.inv(A)
        return FactorMap(
            apply=lambda x: A @ np.atleast_1d(x) + b,
            inverse=lambda x: Ainv @ (np.atleast_1d(x) - b),
            jacobian=lambda x: A,
        )

    @staticmethod
    def translation(shift) -> "FactorMap":
        shift = np.atleast_1d(np.asarray(shift, dtype=float))
        return FactorMap.affine(np.eye(shift.shape[0]), shift)


@dataclass
class DeckGenerator:
    """Product map phi x psi with homothety scale factors c1, c2.

    ``homothety=False`` marks generators (as in the twisted construction)
    that are isometries of the assembled product metric without the factor
    maps being homotheties; validation then checks the assembled-metric
    isometry condition instead of the factor conditions.
    """

    name: str
    phi: FactorMap
    psi: FactorMap
    c1: float = 1.0
    c2: float = 1.0
    homothety: bool = True


class QuotientModel:
    def __init__(self, dtp: pg.DoublyTwistedProduct, generators: Sequence[DeckGenerator],
                 fundamental_box, ident_tol: float = DEFAULT_IDENT_TOL,
                 word_bound: int = DEFAULT_WORD_BOUND):
        self.dtp = dtp
        self.generators = list(generators)
        self.by_name = {g.name: g for g in self.generators}
        if len(self.by_name) != len(self.generators):
            raise ValueError("generator names must be unique")
        self.fundamental_box = np.asarray(fundamental_box, dtype=float)
        if self.fundamental_box.shape != (dtp.n, 2):
            raise ValueError("fundamental box must be (n, 2)")
        self.ident_tol = float(ident_tol)
        self.word_bound = int(word_bound)

    # -- group action --------------------------------------------------------
    def in_box(self, x) -> bool:
        """Half-open box membership, band-shifted by ident_tol so that points a
        roundoff below the lower edge still reduce canonically."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.fundamental_box[:, 0], self.fundamental_box[:, 1]
        return bool(np.all(x >= lo - self.ident_tol) and np.all(x < hi - self.ident_tol))

    def apply_gen(self, gen: DeckGenerator, sign: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a, b = self.dtp.split(x)
        return np.concatenate([gen.phi(a, sign), gen.psi(b, sign)])

    def apply_word(self, word: Word, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        for name, sign in word:
            x = self.apply_gen(self.by_name[name], sign, x)
        return x

    def gen_jacobian(self, gen: DeckGenerator, sign: int, x) -> np.ndarray:
        a, b = self.dtp.split(np.asarray(x, dtype=float))
        J = np.zeros((self.dtp.n, self.dtp.n))
        J[self.dtp.slot1, self.dtp.slot1] = gen.phi.jac(a, sign)
        J[self.dtp.slot2, self.dtp.slot2] = gen.psi.jac(b, sign)
        return J

    def word_jacobian(self, word: Word, x) -> np.ndarray:
        """Differential of the word map at x (chain rule along the application)."""
        x = np.asarray(x, dtype=float)
        J = np.eye(self.dtp.n)
        for name, sign in word:
            gen = self.by_name[name]
            J = self.gen_jacobian(gen, sign, x) @ J
            x = self.apply_gen(gen, sign, x)
        return J

    def _round_key(self, x) -> tuple:
        return tuple(np.round(np.asarray(x, dtype=float) / _ROUND).astype(np.int64))

    def _bfs(self, start, accept, max_len: int):
        """Breadth-first word search from ``start``; returns (point, word) on accept."""
        start = np.asarray(start, dtype=float)
        if accept(start):
            return start, ()
        frontier = [(start, ())]
        seen = {self._round_key(start)}
        for _ in range(max_len):
            nxt = []
            for p, w in frontier:
                for gen in self.generators:
                    for sign in (1, -1):
                        if w and w[-1] == (gen.name, -sign):
                            continue
                        q = self.apply_gen(gen, sign, p)
                        key = self._round_key(q)
                        if key in seen:
                            continue
                        seen.add(key)
                        w2 = w + ((gen.name, sign),)
                        if accept(q):
                            return q, w2
                        nxt.append((q, w2))
            frontier = nxt
        return None

    def canonical_rep(self, x) -> tuple[np.ndarray, Word]:
        """Orbit representative inside the fundamental box, with the word used.

        Idempotent: a point already in the box returns itself with the empty
        word.  Raises WordBoundExceeded when no word of length <= word_bound
        reaches the box.
        """
        hit = self._bfs(x, self.in_box, self.word_bound)
        if hit is None:
            raise WordBoundExceeded(
                f"{np.asarray(x)} not reducible to the fundamental box by words of length "
                f"<= {self.word_bound}")
        return hit

    def find_closing_word(self, end, start, max_len: Optional[int] = None) -> Word:
        start = np.asarray(start, dtype=float)
        tol = self.ident_tol

        def accept(q):
            return bool(np.max(np.abs(q - start)) <= tol)

        hit = self._bfs(end, accept, max_len or self.word_bound)
        if hit is None:
            raise NotALoop(f"no word of length <= {max_len or self.word_bound} closes the loop")
        return hit[1]

    def enumerate_words(self, max_len: int, probe=None) -> list[Word]:
        """Reduced words up to max_len, deduplicated by their action."""
        if probe is None:
            probe = 0.5 * (self.fundamental_box[:, 0]
                           + np.minimum(self.fundamental_box[:, 1],
                                        self.fundamental_box[:, 0] + 10.0))
        probe2 = probe + 0.1 * np.arange(1, self.dtp.n + 1)
        words = [()]
        frontier = [((), probe, probe2)]
        seen = {(self._round_key(probe), self._round_key(probe2))}
        for _ in range(max_len):
            nxt = []
            for w, p, q in frontier:
                for gen in self.generators:
                    for sign in (1, -1):
                        if w and w[-1] == (gen.name, -sign):
                            continue
                        p2 = self.apply_gen(gen, sign, p)
                        q2 = self.apply_gen(gen, sign, q)
                        key = (self._round_key(p2), self._round_key(q2))
                        if key in seen:
                            continue
                        seen.add(key)
                        w2 = w + ((gen.name, sign),)
                        words.append(w2)
                        nxt.append((w2, p2, q2))
            frontier = nxt
        return words


# ---------------------------------------------------------------------------
# validation

@dataclass
class ValidationReport:
    residuals: dict
    word_bound_checked: int
    ok: bool = True
    note: str = ("sampled necessary check only (grid residuals and orbit separation "
                 "at the word bound), not a proof of proper discontinuity")

    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)


def validate(model: QuotientModel, per_axis: int = 4, tol: float = ACTION_TOL) -> ValidationReport:
    """Sampled check of the quotient conditions; raises InvalidAction on failure.

    Homothety generators must pull each factor metric back to c_i^2 g_i and
    satisfy the warp compatibility lam1 o psi = lam1 / c1, lam2 o phi =
    lam2 / c2.  Every generator (homothety or not) must be a sampled isometry
    of the assembled metric, act freely on the padded box, and words up to
    length min(word_bound, 4) must move interior points out of the box or to
    identification-distinct points.  The check is a sampled necessary
    condition, never a proof.
    """
    dtp = model.dtp
    res: dict[str, float] = {}
    pts1 = pg.grid_points(dtp.f1.domain_box, per_axis)
    pts2 = pg.grid_points(dtp.f2.domain_box, per_axis)
    pts = pg.grid_points(dtp.domain_box, per_axis)

    def fail(msg, sample):
        raise InvalidAction(f"{msg} at sample {np.asarray(sample)}")

    for gen in model.generators:
        # declared inverses must invert
        worst_inv = 0.0
        for a in pts1:
            worst_inv = max(worst_inv, float(np.max(np.abs(gen.phi(gen.phi(a, 1), -1) - a))))
        for b in pts2:
            worst_inv = max(worst_inv, float(np.max(np.abs(gen.psi(gen.psi(b, 1), -1) - b))))
        res[f"{gen.name}:inverse"] = worst_inv
        if worst_inv > tol:
            fail(f"generator {gen.name}: declared inverse fails", worst_inv)

        if gen.homothety:
            worst = 0.0
            for a in pts1:
                J = gen.phi.jac(a)
                pull = J.T @ dtp.f1.metric.mat(gen.phi(a)) @ J
                worst = max(worst, float(np.max(np.abs(pull - gen.c1**2 * dtp.f1.metric.mat(a)))))
            res[f"{gen.name}:pullback-g1"] = worst
            if worst > tol:
                fail(f"generator {gen.name}: phi is not a homothety of factor 1", worst)
            worst = 0.0
            for b in pts2:
                J = gen.psi.jac(b)
                pull = J.T @ dtp.f2.metric.mat(gen.psi(b)) @ J
                worst = max(worst, float(np.max(np.abs(pull - gen.c2**2 * dtp.f2.metric.mat(b)))))
            res[f"{gen.name}:pullback-g2"] = worst
            if worst > tol:
                fail(f"generator {gen.name}: psi is not a homothety of factor 2", worst)
            worst1 = worst2 = 0.0
            bad = None
            for p in pts:
                a, b = dtp.split(p)
                lam1_psi = dtp.lam1.field.value(np.concatenate([a, gen.psi(b)]))
                lam2_phi = dtp.lam2.field.value(np.concatenate([gen.phi(a), b]))
                r1 = abs(lam1_psi - dtp.lam1.field.value(p) / gen.c1)
                r2 = abs(lam2_phi - dtp.lam2.field.value(p) / gen.c2)
                if r1 > worst1:
                    worst1, bad = r1, p
                worst2 = max(worst2, r2)
            res[f"{gen.name}:warp1-compat"] = worst1
            res[f"{gen.name}:warp2-compat"] = worst2
            if worst1 > tol:
                fail(f"generator {gen.name}: lam1 o psi != lam1 / c1", bad)
            if worst2 > tol:
                fail(f"generator {gen.name}: lam2 o phi != lam2 / c2", worst2)

        # assembled-metric isometry (the condition that lets the metric descend)
        worst = 0.0
        bad = None
        g = dtp.assembled
        for p in pts:
            J = model.gen_jacobian(gen, 1, p)
            pull = J.T @ g.mat(model.apply_gen(gen, 1, p)) @ J
            r = float(np.max(np.abs(pull - g.mat(p))))
            if r > worst:
                worst, bad = r, p
        res[f"{gen.name}:isometry"] = worst
        if worst > tol:
            fail(f"generator {gen.name}: not an isometry of the product metric", bad)

        # free action on the padded fundamental box
        pad = model.ident_tol
        boxpts = pg.grid_points(model.fundamental_box + np.array([-pad, pad]), per_axis, inset=0.0)
        for p in boxpts:
            for sign in (1, -1):
                moved = float(np.max(np.abs(model.apply_gen(gen, sign, p) - p)))
                if moved <= model.ident_tol:
                    fail(f"generator {gen.name}^{sign} has a sampled fixed point", p)

    # words up to the bound separate orbits inside the box (action-deduplicated
    # enumeration keeps this polynomial for the lattice-like groups in scope;
    # a hard cap guards pathological generator sets)
    wb = model.word_bound
    words = model.enumerate_words(wb)
    if len(words) > 20_000:
        words = words[:20_000]
    interior = pg.grid_points(model.fundamental_box, per_axis, inset=0.1)
    for w in words:
        if not w:
            continue
        for p in interior:
            q = model.apply_word(w, p)
            if model.in_box(q) and float(np.max(np.abs(q - p))) <= model.ident_tol:
                fail(f"word {w} returns an interior point to itself", p)
    return ValidationReport(residuals=res, word_bound_checked=wb)


# ---------------------------------------------------------------------------
# leaf tracing

@dataclass
class LeafTrace:
    foliation: int
    basepoint: np.ndarray
    status: str                 # "closed" | "open-within-budget"
    length: float               # metric arc length (to closure when closed)
    points: list                # (arc_length, representative) pairs
    step: float

    @property
    def closed(self) -> bool:
        return self.status == "closed"


def _leaf_speed(dtp: pg.DoublyTwistedProduct, x, direction) -> float:
    v = TangentVector(CoordPoint(x), direction)
    return ck.norm(dtp.assembled, v)


def leaf_trace(model: QuotientModel, x0, foliation: int, arc_budget: float = 8.0,
               step: float = 0.01) -> LeafTrace:
    """Trace the leaf of F_foliation through x0 by advancing in factor
    coordinates and reducing into the fundamental box.

    Terminates with status "closed" when the reduced point returns to the
    start within ident_tol (the closure parameter is refined below step
    resolution), or "open-within-budget" when the metric arc budget runs out.
    Requires the traced factor to be one-dimensional.
    """
    dtp = model.dtp
    if dtp.factor(foliation).dim != 1:
        raise InvalidAction("leaf tracing requires the traced factor to be one-dimensional")
    x0 = np.asarray(x0, dtype=float)
    if not model.in_box(x0):
        raise ValueError(f"basepoint {x0} is not in the fundamental box")

    direction = dtp.embed(foliation, np.ones(1))
    cur = x0.copy()
    arc = 0.0
    pts = [(0.0, x0.copy())]
    left_start = False

    def reduced_at(base, dirvec, delta):
        rep, _ = model.canonical_rep(base + delta * dirvec)
        return rep

    while arc < arc_budget:
        speed = _leaf_speed(dtp, cur, direction)
        nxt_up = cur + step * direction
        rep, word = model.canonical_rep(nxt_up)
        if word:
            direction = model.word_jacobian(word, nxt_up) @ direction
        arc += step * speed
        pts.append((arc, rep))
        cur = rep
        gap = float(np.max(np.abs(rep - x0)))
        proximity = 2.0 * step * max(1.0, speed)
        if not left_start:
            # closure checks arm only once the trace has left the basepoint
            if gap > 1.5 * proximity:
                left_start = True
        else:
            if gap <= proximity:
                # refine the closure parameter on the smooth branch
                def dist2(delta, base=cur, dirvec=direction):
                    r = reduced_at(base, dirvec, delta)
                    return float(np.sum((r - x0) ** 2))

                opt = optimize.minimize_scalar(dist2, bounds=(-2 * step, 2 * step),
                                               method="bounded",
                                               options={"xatol": 1e-13})
                if np.sqrt(opt.fun) <= model.ident_tol:
                    close_arc = arc + float(opt.x) * speed
                    return LeafTrace(foliation, x0, "closed", close_arc, pts, step)
    return LeafTrace(foliation, x0, "open-within-budget", arc, pts, step)


def _on_trace(trace: LeafTrace, point, tol: float) -> bool:
    """Distance from point to the traced polyline (skipping seam jumps)."""
    pts = [p for _, p in trace.points]
    point = np.asarray(point, dtype=float)
    best = min(float(np.linalg.norm(point - p)) for p in pts)
    if best <= tol:
        return True
    for a, b in zip(pts, pts[1:]):
        seg = b - a
        L2 = float(seg @ seg)
        if L2 == 0.0 or np.sqrt(L2) > 10 * trace.step:  # seam jump
            continue
        t = np.clip(float((point - a) @ seg) / L2, 0.0, 1.0)
        d = float(np.linalg.norm(point - (a + t * seg)))
        if d <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# intersections and decomposition verdicts

@dataclass
class IntersectionReport:
    count: int
    witnesses: list              # ((a, b0) rep on leaf 1, (a0, b') rep on leaf 2) pairs
    word_bound_used: int
    lower_bound_only: bool = False


def leaf_intersection_count(model: QuotientModel, x0, word_bound: Optional[int] = None,
                            arc_budget: float = 8.0,
                            verify_distinct: bool = True) -> IntersectionReport:
    """card(F1(x0) ^ F2(x0)) by orbit enumeration at the word bound.

    Every group word w yields the intersection candidate p(phi_w^{-1}(a0), b0);
    candidates are reduced, matched against both traced leaves, and counted up
    to identification.  Results from truncated (non-closed) leaf traces carry
    the lower-bound flag.
    """
    wb = word_bound if word_bound is not None else model.word_bound
    rep0, _ = model.canonical_rep(x0)
    t1 = leaf_trace(model, rep0, 1, arc_budget)
    t2 = leaf_trace(model, rep0, 2, arc_budget)
    lower_bound_only = not (t1.closed and t2.closed)

    a0, b0 = model.dtp.split(rep0)
    seen: dict[tuple, tuple] = {}
    match_tol = max(model.ident_tol, 2.0 * max(t1.step, t2.step))
    for w in model.enumerate_words(wb):
        winv = word_inverse(w)
        q_full = model.apply_word(winv, rep0)
        qa, _ = model.dtp.split(q_full)
        cand = np.concatenate([qa, b0])                      # on the leaf M1 x {b0}
        other = model.apply_word(w, rep0)
        cand2 = np.concatenate([a0, model.dtp.split(other)[1]])  # on {a0} x M2
        try:
            rep, _ = model.canonical_rep(cand)
        except WordBoundExceeded:
            continue
        key = model._round_key(np.round(rep / (10 * model.ident_tol)) * (10 * model.ident_tol))
        if key in seen:
            continue
        if not (_on_trace(t1, rep, match_tol) and _on_trace(t2, rep, match_tol)):
            continue
        seen[key] = (CoordPoint(cand), CoordPoint(cand2))

    witnesses = list(seen.values())
    if verify_distinct and len(witnesses) > 1:
        reps = []
        for wit, _ in witnesses:
            rep, _ = model.canonical_rep(wit.coords)
            reps.append(rep)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                hit = model._bfs(reps[i],
                                 lambda q, t=reps[j]: bool(np.max(np.abs(q - t)) <= model.ident_tol),
                                 wb)
                if hit is not None and hit[1]:
                    raise InvalidAction(
                        f"witnesses {i} and {j} are identified by word {hit[1]}")
    return IntersectionReport(len(witnesses), witnesses, wb, lower_bound_only)


@dataclass
class VerdictReason:
    kind: str                    # "none" | "nontrivial-holonomy" | "multiple-intersections"
    foliation: Optional[int] = None
    word: Optional[Word] = None
    count: Optional[int] = None

    def describe(self) -> str:
        if self.kind == "nontrivial-holonomy":
            return f"nontrivial holonomy on foliation {self.foliation} loop {self.word}"
        if self.kind == "multiple-intersections":
            return f"leaves intersect {self.count} times"
        return "none"


@dataclass
class DecompositionVerdict:
    tag: str                     # "global-doubly-warped-product" | "obstructed"
    reason: VerdictReason
    holonomy_maps: list = dc_field(default_factory=list)
    intersections: Optional[IntersectionReport] = None

    @property
    def is_global_product(self) -> bool:
        return self.tag == "global-doubly-warped-product"


def leaf_loop_curve(model: QuotientModel, rep0, foliation: int, word: Word) -> tp.PiecewiseCurve:
    """Straight leaf path upstairs from rep0 to word(rep0).

    The word must fix the other factor's coordinates of rep0 (it closes a
    loop of F_foliation downstairs); otherwise NotALoop.
    """
    rep0 = np.asarray(rep0, dtype=float)
    end = model.apply_word(word, rep0)
    other = model.dtp.slot(3 - foliation)
    if float(np.max(np.abs(end[other] - rep0[other]))) > model.ident_tol:
        raise NotALoop(f"word {word} does not close a foliation-{foliation} loop at {rep0}")
    return tp.PiecewiseCurve.line(rep0, end)


def decomposition_check(model: QuotientModel, x0, loops: dict,
                        hol_tol: float = 1e-6,
                        word_bound: Optional[int] = None) -> DecompositionVerdict:
    """Global-product verdict at x0 from supplied holonomy loops + intersections.

    ``loops`` maps foliation index (1, 2) to generator words closing leaf
    loops at x0.  Verdict is the global product iff every holonomy map is the
    identity within hol_tol and the leaves meet exactly once.
    """
    rep0, _ = model.canonical_rep(x0)
    hol_maps = []
    for i in (1, 2):
        for word in loops.get(i, []):
            curve = leaf_loop_curve(model, rep0, i, tuple(word))
            frame = tp.normal_frame(model.dtp, rep0, foliation=i)
            hol = tp.holonomy_map(model, curve, frame, foliation=i,
                                  closing_word=word_inverse(tuple(word)))
            hol_maps.append((i, tuple(word), hol))
            if not hol.is_identity(hol_tol):
                return DecompositionVerdict(
                    "obstructed",
                    VerdictReason("nontrivial-holonomy", foliation=i, word=tuple(word)),
                    holonomy_maps=hol_maps)
    report = leaf_intersection_count(model, rep0, word_bound)
    if report.count != 1:
        return DecompositionVerdict(
            "obstructed", VerdictReason("multiple-intersections", count=report.count),
            holonomy_maps=hol_maps, intersections=report)
    if report.lower_bound_only:
        # a truncated trace makes "count == 1" a lower bound only; refusing is
        # the only sound answer since neither verdict is certified
        raise InvalidAction(
            "intersection count 1 is only a lower bound (a leaf trace did not close "
            "within budget); cannot certify a global product")
    return DecompositionVerdict("global-doubly-warped-product", VerdictReason("none"),
                                holonomy_maps=hol_maps, intersections=report)


# ---------------------------------------------------------------------------
# transport downstairs (piecewise-reduced), for local-isometry equivariance

def adapted_translation_downstairs(model: QuotientModel, rep0, foliation: int,
                                   coord_length: float, v0: TangentVector):
    """Adapted translation along a leaf line computed in the quotient chart.

    The straight upstairs leaf line through rep0 is split at fundamental-box
    exits; at each seam the reducing word's differential is applied to the
    transported vector.  Returns (endpoint_rep, end_vector_components).
    """
    dtp = model.dtp
    if dtp.factor(foliation).dim != 1:
        raise InvalidAction("requires a one-dimensional traced factor")
    rep0 = np.asarray(rep0, dtype=float)
    axis = dtp.slot(foliation).start
    cur = rep0.copy()
    vec = v0.components.copy()
    direction = dtp.embed(foliation, np.ones(1))
    remaining = float(coord_length)
    guard = 0
    while remaining > 1e-14:
        guard += 1
        if guard > 10_000:
            raise InvalidAction("seam splitting did not terminate")
        sgn = 1.0 if direction[axis] > 0 else -1.0
        edge = model.fundamental_box[axis, 1] if sgn > 0 else model.fundamental_box[axis, 0]
        to_edge = (edge - cur[axis]) / direction[axis]
        piece = min(remaining, to_edge)
        if piece > 1e-14:
            seg = tp.PiecewiseCurve.line(cur, cur + piece * direction)
            res = tp.adapted_translation(dtp, seg, TangentVector(CoordPoint(cur), vec),
                                         foliation=foliation)
            vec = res.end.components
            cur = cur + piece * direction
            remaining -= piece
        if remaining > 1e-14:
            probe = cur + min(remaining, 1e-6) * direction
            rep, word = model.canonical_rep(probe)
            if not word:
                raise InvalidAction("expected a seam reduction at the box edge")
            J = model.word_jacobian(word, cur)
            vec = J @ vec
            direction = J @ direction
            cur = model.apply_word(word, cur)
    return cur, vec


# ---------------------------------------------------------------------------
# explicit twisted construction (quotient that is not globally a product)

def _bump(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - u * u))


def _bump_d1(u: float) -> float:
    if abs(u) >= 1.0:
        return 0.0
    w = 1.0 - u * u
    return _bump(u) * (-2.0 * u / w**2)


def _smooth01(t: float) -> float:
    """C-infinity step: exactly 0 for t <= 0 and 1 for t >= 1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


@dataclass
class TwistedGluing:
    """Gluing data: h = id near 0, h' > 0, with bump amplitude and inverse."""

    amplitude: float = 0.3
    center: float = 1.0

    def h(self, y: float) -> float:
        return y + self.amplitude * _bump(y - self.center)

    def h_prime(self, y: float) -> float:
        return 1.0 + self.amplitude * _bump_d1(y - self.center)

    def h_inverse(self, z: float) -> float:
        y = z
        for _ in range(100):
            step = (self.h(y) - z) / self.h_prime(y)
            y -= step
            if abs(step) < 1e-15:
                break
        return y

    def check_monotone(self, grid=None):
        grid = grid if grid is not None else np.linspace(self.center - 1.5, self.center + 1.5, 401)
        worst = min(self.h_prime(float(y)) for y in grid)
        if worst <= 0.0:
            raise InvalidH(f"h' reaches {worst} <= 0; reduce the bump amplitude")
        return worst


def build_example1(epsilon: float = 0.25, gluing: Optional[TwistedGluing] = None,
                   y_range: tuple = (-1.0, 3.0), word_bound: int = DEFAULT_WORD_BOUND,
                   ident_tol: float = DEFAULT_IDENT_TOL) -> QuotientModel:
    """Twisted metric dx^2 + lam(x, y)^2 dy^2 on R^2, quotiented by
    (x, y) -> (x + 1, h^{-1}(y)).

    lam is seeded on the strip 0 <= x < 1 as h'(y)^{sigma(x)} with sigma a
    smooth step (identically 0 near x = 0 and 1 near x = 1, transition width
    set by epsilon < 1/2) and extended to all x through the gluing relation
    lam(x, y) = lam(x - 1, h(y)) h'(y), which makes the generator an isometry.
    The leaf of the first foliation through y = 0 closes; leaves in the bump
    region drift monotonically and never close.
    """
    if not (0.0 < epsilon < 0.5):
        raise InvalidH(f"epsilon must lie in (0, 1/2), got {epsilon}")
    glue = gluing if gluing is not None else TwistedGluing()
    glue.check_monotone()

    def sigma(x: float) -> float:
        return _smooth01((x - epsilon) / (1.0 - 2.0 * epsilon))

    def lam_at(x: float, y: float) -> float:
        k = math.floor(x)
        chain = 1.0
        y_cur = y
        if k > 0:
            for _ in range(k):
                chain *= glue.h_prime(y_cur)
                y_cur = glue.h(y_cur)
        elif k < 0:
            for _ in range(-k):
                y_cur = glue.h_inverse(y_cur)
                chain /= glue.h_prime(y_cur)
        return glue.h_prime(y_cur) ** sigma(x - k) * chain

    def lam(c):
        # piecewise in x (the gluing chain), so a batch is evaluated point by point
        if np.ndim(c) == 1:
            return lam_at(float(c[0]), float(c[1]))
        return np.array([lam_at(x, y) for x, y in zip(c[0].tolist(), c[1].tolist())])

    lam_field = ScalarField(lam, name="twisted-lam")
    f1 = pg.FactorManifold("line-x", 1, ck.MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("line-y", 1, ck.MetricField.euclidean(1), [list(y_range)])
    dtp = pg.assemble(f1, f2,
                      pg.WarpFn(ScalarField.constant(1.0), pg.Dependency.CONSTANT),
                      pg.WarpFn(lam_field, pg.Dependency.ON_PRODUCT))

    gen = DeckGenerator(
        name="a",
        phi=FactorMap.translation([1.0]),
        psi=FactorMap(
            apply=lambda y: np.array([glue.h_inverse(float(y[0]))]),
            inverse=lambda y: np.array([glue.h(float(y[0]))]),
            jacobian=lambda y: np.array([[1.0 / glue.h_prime(glue.h_inverse(float(y[0])))]]),
        ),
        homothety=False,
    )
    big = 1e9
    model = QuotientModel(dtp, [gen],
                          fundamental_box=[[0.0, 1.0], [-big, big]],
                          ident_tol=ident_tol, word_bound=word_bound)
    model.gluing = glue
    return model


def example1_seam_residual(model: QuotientModel, n_samples: int = 25) -> float:
    """max |lam(x, y) - lam(x - 1, h(y)) h'(y)| across the x = 1 seam."""
    glue = model.gluing
    lam = model.dtp.lam2.field
    worst = 0.0
    rng = np.random.default_rng(2024)
    for _ in range(n_samples):
        x = 1.0 + rng.uniform(-0.2, 0.2)
        y = rng.uniform(-0.5, 2.5)
        lhs = lam.value([x, y])
        rhs = lam.value([x - 1.0, glue.h(y)]) * glue.h_prime(y)
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# curvature-sign + critical-point diagnostic

@dataclass
class TeodgReport:
    tag: pg.StructureTag
    histogram: dict              # {"negative": int, "zero": int, "positive": int}
    critical_points: list        # factor-1 coordinate arrays
    hypotheses_hold: bool
    verdict: str
    witness: Optional[dict] = None


def teodg_diagnostic(dtp: pg.DoublyTwistedProduct, n_samples: int = 60,
                     seed: int = 0, grid_per_axis: int = 9,
                     zero_band: float = 1e-9) -> TeodgReport:
    """Sample mixed-plane curvature signs and search lam2 for critical points.

    The diagnostic reports whether the sampled hypotheses of the global
    decomposition criterion hold: K < 0 on all sampled mixed nondegenerate
    planes, and lam2 (a factor-1 function for warped structures) has a
    critical point inside the factor-1 box.
    """
    cls = pg.classify(dtp)
    if cls.tag in (pg.StructureTag.TWISTED, pg.StructureTag.DOUBLY_TWISTED):
        raise InvalidAction(f"diagnostic requires a (doubly) warped structure, got {cls.tag.value}")
    rng = np.random.default_rng(seed)
    box = dtp.domain_box
    hist = {"negative": 0, "zero": 0, "positive": 0}
    witness = None
    for _ in range(n_samples):
        x = box[:, 0] + rng.random(dtp.n) * (box[:, 1] - box[:, 0])
        pt = CoordPoint(x)
        try:
            u, v = ck.gram_schmidt(dtp.assembled, x, [
                TangentVector(pt, dtp.embed(1, rng.normal(size=dtp.n1))),
                TangentVector(pt, dtp.embed(2, rng.normal(size=dtp.n2))),
            ])
        except GeometryError:
            continue  # degenerate sample; resample implicitly
        k = pg.sectional_curvature_closed_form(dtp, (u, v))
        if k < -zero_band:
            hist["negative"] += 1
        elif k > zero_band:
            hist["positive"] += 1
            if witness is None:
                witness = {"point": x.tolist(), "K": k}
        else:
            hist["zero"] += 1
            if witness is None:
                witness = {"point": x.tolist(), "K": k}

    # grid-plus-descent search for critical points of lam2 on factor 1
    lam2 = dtp.lam2.field
    mid2 = 0.5 * (dtp.f2.domain_box[:, 0] + dtp.f2.domain_box[:, 1])

    def grad_norm2(a):
        full = np.concatenate([np.atleast_1d(a), mid2])
        grad = lam2.grad_coords(full)[dtp.slot1]
        return float(grad @ grad)

    found = []
    starts = sorted(pg.grid_points(dtp.f1.domain_box, grid_per_axis), key=grad_norm2)
    for a0 in starts[:5]:
        res = optimize.minimize(grad_norm2, np.atleast_1d(a0), method="L-BFGS-B",
                                bounds=[tuple(row) for row in dtp.f1.domain_box])
        if res.fun < (1e-6) ** 2:
            a = np.atleast_1d(res.x)
            if not any(np.max(np.abs(a - b)) < 1e-4 for b in found):
                found.append(a)

    all_negative = hist["positive"] == 0 and hist["zero"] == 0 and hist["negative"] > 0
    holds = all_negative and bool(found)
    if holds:
        verdict = "hypotheses hold on samples: K < 0 on mixed planes and lam2 has a critical point"
    else:
        parts = []
        if not all_negative:
            parts.append(f"mixed-plane K sign violated at witness {witness}")
        if not found:
            parts.append("no critical point of lam2 found in the factor-1 box")
        verdict = "violated: " + "; ".join(parts)
    return TeodgReport(cls.tag, hist, [a.tolist() for a in found], holds, verdict, witness)
