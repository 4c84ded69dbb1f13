"""Quotients of product metrics by deck-transformation groups.

A quotient model is a doubly twisted product together with generators acting
as factor-split maps phi x psi, a fundamental box, an identification
tolerance and a word bound.  Operations: sampled validation of the group
action, leaf loops from the deck group with their holonomy in closed form,
intersection counts from the deck group alone, holonomy-based
global-decomposition verdicts, leaf tracing with closure detection (the
oracle for "a leaf closes iff it has a closing word"), the explicit
twisted construction whose quotient is not globally a product, and the
curvature-sign/critical-point diagnostic.

Group words are tuples of (generator_name, +1 | -1), applied left to right.

Batches and the factor-map contract
-----------------------------------
``FactorMap.__call__/jac`` and ``QuotientModel.in_box/apply_gen/apply_word/
gen_jacobian/word_jacobian`` take one point ``(n,)`` or a batch ``(P, n)``
with one point per row.  ``FactorMap`` callbacks follow the coordinate-major
contract of ``chartkit``: they receive a batch ``x`` of shape ``(m, P)``, one
point as a batch of one, and put the point axis last: ``(m, P)`` from
``apply``/``inverse``, ``(m, m, P)`` from ``jacobian``.  A map that is
piecewise or needs a per-point solve stays elementwise: ``build_example1``'s
h^-1 runs Newton on the whole batch, each element frozen at its own stop.
The group is searched once per model (``enumerate_words``) and kept as a
word tree (``_tree``), each word its parent followed by one letter; a
smaller word bound reads the first levels of the largest tree searched.
Orbit lookups read the tree: ``_orbit`` (loops, intersections,
``validate``) and ``_searches`` (``canonical_rep``, ``find_closing_word``;
level by level, each start until a level accepts it).  A batch of words
moves points only through the tree; a single word moves a point by
``apply_word`` and differentiates by ``word_jacobian``.  With elementwise
callbacks a row of a batch sees the same arithmetic as the point alone, so
batched and one-point results agree bit for bit.

A leaf trace of F_i reads only factor i: its speeds are lam_i^2 g_i read
from the warp and factor metric kernels (``_leaf_speeds``), and a box exit
turns its direction by the Jacobians of F_i's own maps along the reducing
word (``_trace``).  The traced factor is one-dimensional and the direction
is zero off its slot, so every term of the assembled metric and of
``word_jacobian`` left out is an exact zero and the values keep their bits.
A trace runs forward only, along +e_i from the basepoint: an open leaf's
points stop where the arc budget runs out, since only its status is read.

Affine records
--------------
A model is affine when every phi and psi carries an affine record
(``FactorMap.record``: ``FactorMap.affine``/``translation``, and scenario
maps whose formulas are all affine).  Each word w then has the record
(A_w, b_w) of its map x -> A_w x + b_w, its letters' records composed onto
(I, 0) left to right: a tree word's once, when the enumeration finds it,
from its parent's, and any other word's from its prefix's.  Every product
with a matrix sums in a fixed order (``_matmul``, the order of
``chartkit._fold``), so a record and an image have the same bits in any
batch: the tree's images are one product per level or per orbit,
``apply_gen``/``apply_word`` move a point by the same records, and the
Jacobians are the records' A, exactly.  Any other model takes the level
path: each image is its parent's moved by one apply_gen call per level and
move, through the maps of ``apply_word`` in the same order, and Jacobians
come from the maps (central differences when a map has no ``jacobian``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import chartkit as ck
from . import productgeo as pg
from . import transport as tp
from .chartkit import ScalarField
from .errors import (
    InvalidAction,
    InvalidH,
    NotALoop,
    NumericsError,
    WordBoundExceeded,
)

Word = tuple  # of (name, +1 | -1)

ACTION_TOL = 1e-7       # deck-generator invariant residual budget
DEFAULT_IDENT_TOL = 1e-7
DEFAULT_WORD_BOUND = 8
VALIDATE_WORD_CAP = 20_000  # words validate applies to the interior grid at most
WORD_TREE_CAP = 1 << 15     # words enumerate_words keeps at most; a larger tree is refused
VALIDATE_PER_AXIS = 4   # grid points per axis of validate's samples
# Levels of floor(x) that example1's warp walks at most: each costs one h (or
# one Newton solve of h^-1) per point.  The commands read lam on the box, on
# FD stencils around it and on one generator's images, at most 3 levels out;
# deck words move points by the generator's maps, not through lam.  At 64
# levels one point costs 1.5 ms (h) or 8 ms (h^-1) on a 2-vCPU machine.
GLUING_LEVELS = 64
# Visited-set grid of enumerate_words.  A word whose probe images round to a
# visited key moves both probes within 1e-9 of an earlier word; the action is
# free, so it is that word's group element and moves every point where the
# earlier word does.  Whether two points are the same point is decided by
# QuotientModel.same_point alone.
_ROUND = 1e-9
# Points one _searches batch moves at most: words x starts grows as the square
# of the group's size, and a later batch runs only for the starts still unmatched.
_SEARCH_POINTS = 1 << 16
_TRACE_STEP = 0.01      # leaf_trace step in the traced factor coordinate
_TRACE_CHUNK = 64       # steps leaf_trace takes ahead in one batch
_NEWTON_STEPS = 30      # cap on teodg's Newton steps toward a critical point of lam2


def word_inverse(word: Word) -> Word:
    """The inverse word: letters reversed, signs flipped.  Work cap: one pass
    over the word."""
    return tuple((name, -sign) for name, sign in reversed(word))


def _matmul(A, B) -> np.ndarray:
    """A @ B over the broadcast leading axes, each entry a running sum over
    the inner index, left to right: unlike a BLAS product the order does not
    depend on the batch, so a point rounds alike alone and in any batch."""
    out = A[..., :, :1] * B[..., :1, :]
    for j in range(1, A.shape[-1]):
        out = out + A[..., :, j:j + 1] * B[..., j:j + 1, :]
    return out


def _affine_map(A, b, x) -> np.ndarray:
    """A x + b for points x (..., n), with A (..., n, n) and b (..., n)
    broadcast over the leading axes."""
    return _matmul(A, x[..., None])[..., 0] + b


def _compose(A_m, b_m, A_p, b_p):
    """The affine record of p followed by m: (A_m A_p, A_m b_p + b_m)."""
    return _matmul(A_m, A_p), _affine_map(A_m, b_m, b_p)


def _apply_records(A, b, x) -> np.ndarray:
    """x, (1, ..., n), moved by every record (A[w], b[w]): (W, ..., n)."""
    lead = (len(A),) + (1,) * (x.ndim - 2)
    return _affine_map(A.reshape(lead + A.shape[1:]), b.reshape(lead + b.shape[1:]), x)


@dataclass
class FactorMap:
    """Diffeomorphism of one factor with a declared inverse.

    Callbacks are coordinate-major (see the module notes).  ``jacobian`` is
    optional; central differences are used when absent.  ``record`` is the
    map's affine record when it has one, ((A, b), (A_inv, b_inv)): x -> A x
    + b and the declared inverse x -> A_inv x + b_inv.  ``jac`` then reads
    A or A_inv exactly, and a model whose maps all carry one moves points
    by records (see the module notes).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    record: Optional[tuple] = None

    def __call__(self, x, sign: int = 1) -> np.ndarray:
        """The map (sign > 0) or its inverse at one point, (m,), or at each
        row of a batch, (P, m).  Work cap: one callback call, whatever the
        batch (a map's own iteration is its own: ``TwistedGluing.h_inverse``)."""
        fn = self.apply if sign > 0 else self.inverse
        x = np.asarray(x, dtype=float)
        return ck._call_batch(ck._call, x, fn, x.shape[-1:], "factor map")

    def jac(self, x, sign: int = 1) -> np.ndarray:
        """Differential at one point, (m, m), or at each row of a batch, (P, m, m).
        Work cap: the record's A, one ``jacobian`` call, or one map call on
        the 2m central-difference points of every row (one more map call
        first for the inverse's differential)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.record is not None:
            A = self.record[0 if sign > 0 else 1][0]
            return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()
        if self.jacobian is None:
            steps = 1e-6 * np.maximum(1.0, np.abs(x))
            cols = ck.central_diff(lambda pts: self(pts, sign), x, steps)
            return np.swapaxes(cols, -1, -2)
        if sign < 0:
            # d(f^-1)(x) = [df(f^-1 x)]^-1
            return np.linalg.inv(self.jac(self(x, -1), 1))
        return ck._call_batch(ck._call, x, self.jacobian, x.shape[-1:] * 2, "factor map jacobian")

    @staticmethod
    def from_record(record) -> "FactorMap":
        """The affine map and declared inverse of ``record``, ((A, b),
        (A_inv, b_inv)); each product with a matrix is a fixed-order sum
        (``_matmul``), so a point maps alike alone and in any batch.  Work
        cap: none is evaluated until the map is called."""
        (A, b), (A_inv, b_inv) = record
        return FactorMap(apply=lambda x: _matmul(A, x) + b[:, None],
                         inverse=lambda x: _matmul(A_inv, x) + b_inv[:, None],
                         record=record)

    @staticmethod
    def affine(A, b) -> "FactorMap":
        """x -> A x + b, with the inverse x -> A^-1 x - A^-1 b.  Work cap: one
        m x m inverse."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        A_inv = np.linalg.inv(A)
        return FactorMap.from_record(((A, b), (A_inv, -_matmul(A_inv, b[:, None])[:, 0])))

    @staticmethod
    def translation(shift) -> "FactorMap":
        """x -> x + shift (``affine`` with A = I, and its work cap)."""
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


def _round_keys(x) -> list:
    """Dedup keys of the rows of x (..., n) on the _ROUND grid, one tuple per row."""
    x = np.asarray(x, dtype=float)
    grid = np.round(x.reshape(-1, x.shape[-1]) / _ROUND).astype(np.int64)
    return [tuple(row) for row in grid.tolist()]


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
            raise ValueError(f"fundamental_box must be {dtp.n} [lo, hi] pairs")
        self.ident_tol = float(ident_tol)
        if not 0.0 < self.ident_tol < math.inf:  # a point that is not itself never dedups
            raise ValueError(f"ident_tol must be finite and > 0, got {ident_tol}")
        self.word_bound = int(word_bound)
        if self.word_bound < 0:
            raise ValueError(f"word_bound must be >= 0, got {word_bound}")
        self._word_memo: dict[int, _WordTree] = {}
        self._inverse_memo: Optional[list] = None  # _check_inverses residuals, once computed
        self._code = {(gen.name, sign): m for m, (gen, sign) in enumerate(self._moves())}

    @functools.cached_property
    def _letters(self):
        """(A, b) of each move's letter, (M, n, n) and (M, n) in move order,
        block-diagonal from the records of phi and psi (the declared
        inverses' for sign -1); None unless every factor map has a record,
        and then the model takes the level path.  A singular record is an
        input error (InvalidAction): a deck map must be invertible."""
        maps = [fm for gen in self.generators for fm in (gen.phi, gen.psi)]
        if any(fm.record is None for fm in maps):
            return None
        moves = self._moves()
        A = np.zeros((len(moves), self.dtp.n, self.dtp.n))
        b = np.zeros((len(moves), self.dtp.n))
        for m, (gen, sign) in enumerate(moves):
            for fm, s in ((gen.phi, self.dtp.slot1), (gen.psi, self.dtp.slot2)):
                A[m, s, s], b[m, s] = fm.record[0 if sign > 0 else 1]
        if not np.all(np.linalg.det(A)):
            raise InvalidAction("a deck generator's affine map is not invertible")
        return A, b

    def same_point(self, p, q):
        """Whether p and q are one point: max |p - q| <= ident_tol.  A bool
        for one pair, a bool array over the broadcast leading axes of batches.
        Work cap: one comparison per pair."""
        gap = np.max(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)), axis=-1)
        return bool(gap <= self.ident_tol) if np.ndim(gap) == 0 else gap <= self.ident_tol

    # -- group action --------------------------------------------------------
    def in_box(self, x):
        """Half-open box membership, band-shifted by ident_tol so that points a
        roundoff below the lower edge still reduce canonically.  A bool for
        one point, a bool array over the leading axes of a batch.  Work cap:
        one comparison per point."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.fundamental_box[:, 0], self.fundamental_box[:, 1]
        inside = np.all((x >= lo - self.ident_tol) & (x < hi - self.ident_tol), axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    def apply_gen(self, gen: DeckGenerator, sign: int, x) -> np.ndarray:
        """The generator (sign +1) or its inverse at one point or each row of
        a batch.  Work cap: one record product, or one call of phi and one of
        psi, whatever the batch."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            return self.apply_word(((gen.name, 1 if sign > 0 else -1),), x)
        s1, s2 = self.dtp.slot1, self.dtp.slot2
        return np.concatenate([gen.phi(x[..., s1], sign), gen.psi(x[..., s2], sign)], axis=-1)

    def apply_word(self, word: Word, x) -> np.ndarray:
        """The word's map at one point or each row of a batch.  Work cap: one
        record product, or one ``apply_gen`` per letter."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            return _affine_map(*self._word_record(word), x)
        for name, sign in word:
            x = self.apply_gen(self.by_name[name], sign, x)
        return x

    def gen_jacobian(self, gen: DeckGenerator, sign: int, x) -> np.ndarray:
        """Differential of the generator (sign +1) or its inverse at x.  Work
        cap: the record's A, or one ``FactorMap.jac`` of phi and one of psi."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            return self.word_jacobian(((gen.name, 1 if sign > 0 else -1),), x)
        s1, s2 = self.dtp.slot1, self.dtp.slot2
        J = np.zeros(x.shape[:-1] + (self.dtp.n, self.dtp.n))
        J[..., s1, s1] = gen.phi.jac(x[..., s1], sign)
        J[..., s2, s2] = gen.psi.jac(x[..., s2], sign)
        return J

    def word_jacobian(self, word: Word, x) -> np.ndarray:
        """Differential of the word map at x (chain rule along the application;
        the word's A exactly on an affine model).  Work cap: one record, or
        one ``gen_jacobian`` and one ``apply_gen`` per letter."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            A = self._word_record(word)[0]
            return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()
        J = np.broadcast_to(np.eye(self.dtp.n), x.shape[:-1] + (self.dtp.n,) * 2).copy()
        for i, (name, sign) in enumerate(word):
            gen = self.by_name[name]
            J = self.gen_jacobian(gen, sign, x) @ J
            if i + 1 < len(word):  # the point where the next letter's differential is taken
                x = self.apply_gen(gen, sign, x)
        return J

    def _moves(self) -> list:
        """(generator, sign) in search order; the inverse of move m is m ^ 1."""
        return [(gen, sign) for gen in self.generators for sign in (1, -1)]

    def _word_record(self, word: Word):
        """(A, b) of a word of an affine model: its letters' records composed
        onto the empty word's (I, 0), left to right.  A word of the largest
        tree searched so far reads its row there, composed by the same
        operations bit for bit; any other word composes its last letter onto
        its prefix's record."""
        if self._word_memo:
            tree = self._word_memo[max(self._word_memo)]
            row = tree.rows.get(word)
            if row is not None:
                return tree.records[0][row], tree.records[1][row]
        if not word:
            return np.eye(self.dtp.n), np.zeros(self.dtp.n)
        A, b = self._word_record(word[:-1])
        m = self._code[word[-1]]
        return _compose(self._letters[0][m], self._letters[1][m], A, b)

    def _level(self, steps: list, prev: np.ndarray, size: int) -> np.ndarray:
        """Images of the first ``size`` words of a tree level with ``steps``
        from ``prev`` (K, ..., n), the images of the level before: each is
        its parent's image moved by its last letter, one apply_gen per move."""
        out = np.empty((size,) + prev.shape[1:])
        n = prev.shape[-1]
        for rows, parents, gen, sign in steps:
            rows, parents = rows[rows < size], parents[rows < size]
            if rows.size:
                sub = prev[parents]
                out[rows] = self.apply_gen(gen, sign, sub.reshape(-1, n)).reshape(sub.shape)
        return out

    def _orbit(self, max_len: int, x, count: Optional[int] = None) -> np.ndarray:
        """x, (n,) or (S, n), moved by each of the first ``count`` words of
        ``enumerate_words(max_len)`` (all by default): (count,) + x.shape.
        On an affine model one product with the words' records; otherwise
        level by level down the word tree, a prefix of the list holding
        every parent of its words."""
        tree = self._tree(max_len)
        count = len(tree.words) if count is None else min(count, len(tree.words))
        x = np.asarray(x, dtype=float)
        if tree.records is not None:
            A, b = tree.records
            return _apply_records(A[:count], b[:count], x[None])
        parts = [x[None]]
        done = 1
        for size, steps in tree.levels:
            if done >= count:
                break
            parts.append(self._level(steps, parts[-1], min(size, count - done)))
            done += len(parts[-1])
        return np.concatenate(parts)

    def _searches(self, starts, accept, max_len: int) -> list:
        """Per row of ``starts`` (S, n), the first (point, word) of
        ``enumerate_words(max_len)`` whose image ``accept`` takes, or None.

        ``accept`` maps a batch (..., n) to one bool per point.  A start it
        takes as it is gets the empty word; the others walk the word tree
        level by level, in groups of at most _SEARCH_POINTS points per level,
        and a start leaves at the first level with an accepted image, taking
        that level's first such word: the list is breadth-first, so that is
        the first accepted word of the list.  A level's images are one
        product with its records on an affine model, its parents' images
        moved by their last letters otherwise.  The action is free, so a
        word the enumeration drops moves every point where an earlier word
        does: the first hit is the one of a breadth-first search from that
        start.
        """
        starts = np.asarray(starts, dtype=float)
        taken = accept(starts)
        found: list = [(p, ()) if hit else None for p, hit in zip(starts, taken.tolist())]
        rest = np.flatnonzero(~taken)
        if not rest.size:
            return found
        tree = self._tree(max_len)
        group = max(1, _SEARCH_POINTS // max((size for size, _ in tree.levels), default=1))
        for lo in range(0, rest.size, group):
            todo = rest[lo:lo + group]
            images, first_word = starts[todo][None], 1
            for size, steps in tree.levels:
                if not todo.size:
                    break
                if tree.records is None:
                    images = self._level(steps, images, size)
                else:
                    rows = slice(first_word, first_word + size)
                    images = _apply_records(tree.records[0][rows], tree.records[1][rows],
                                            starts[todo][None])
                hits = accept(images)
                first, hit = hits.argmax(axis=0), hits.any(axis=0)
                for r in np.flatnonzero(hit).tolist():
                    found[todo[r]] = (images[first[r], r].copy(),
                                      tree.words[first_word + first[r]])
                images, todo, first_word = images[:, ~hit], todo[~hit], first_word + size
        return found

    def canonical_rep(self, x) -> tuple[np.ndarray, Word]:
        """Orbit representative inside the fundamental box, with the word used.

        Idempotent: a point already in the box returns itself with the empty
        word.  Raises WordBoundExceeded when no word of length <= word_bound
        reaches the box.  Work cap: the word tree of the model's word bound,
        at most WORD_TREE_CAP words (``enumerate_words``), walked level by
        level (``_searches``, at most _SEARCH_POINTS images per batch).
        """
        hit = self._searches(np.asarray(x, dtype=float)[None], self.in_box, self.word_bound)[0]
        if hit is None:
            raise WordBoundExceeded(
                f"{np.asarray(x)} not reducible to the fundamental box by words of length "
                f"<= {self.word_bound}")
        return hit

    def find_closing_word(self, end, start) -> Word:
        """Shortest word (at most word_bound letters) taking end to start.
        Work cap: ``canonical_rep``'s, the word tree of the model's word bound."""
        hit = self._searches(np.asarray(end, dtype=float)[None],
                             lambda q: self.same_point(q, start), self.word_bound)[0]
        if hit is None:
            raise NotALoop(f"no word of length <= {self.word_bound} closes the loop")
        return hit[1]

    def enumerate_words(self, max_len: int) -> list[Word]:
        """Reduced words up to max_len in breadth-first order (level by level,
        generators in order, +1 before -1), deduplicated by their action on
        two probe points: the middle of the box clipped to [c - 5, c + 5] per
        axis, c the point of the box nearest the origin, and that point moved
        by 0.1, 0.2, ...  Near the origin the doubles are dense enough for
        the _ROUND grid on any box.

        The only search of the group.  It builds a word tree, kept for the
        orbit lookups (``_tree``): each word is a kept word of the level
        before followed by one letter, so every prefix of a word is listed
        before it.  Each level moves the probes by every candidate child at
        once: by the children's records, each its parent's composed with its
        last letter's, on an affine model; otherwise by one apply_gen call
        per (generator, sign) on the parents' probe images.  Work cap:
        max_len levels, and WORD_TREE_CAP words: a level that would take the
        list past it raises InvalidAction.  The tree is kept, so a later call
        at the same or a smaller bound searches nothing.
        """
        lo, hi = self.fundamental_box[:, 0], self.fundamental_box[:, 1]
        near = np.clip(0.0, lo, hi)
        probe = 0.5 * (np.maximum(lo, near - 5.0) + np.minimum(hi, near + 5.0))
        probes = np.stack([probe, probe + 0.1 * np.arange(1, self.dtp.n + 1)])
        moves = self._moves()
        letters = [(gen.name, sign) for gen, sign in moves]
        M, n = len(moves), self.dtp.n
        words = [()]
        images, last = probes[None], np.array([-1])  # the last level's probe images, moves
        recs = [(np.eye(n)[None], np.zeros((1, n)))] if self._letters is not None else None
        seen = set(_round_keys(probes.reshape(1, -1)))
        levels = []
        for _ in range(max_len):
            K = len(last)
            ok = (last[:, None] != np.arange(M) ^ 1).ravel().tolist()  # keep the word reduced
            if recs is not None:
                cand = _compose(self._letters[0][None], self._letters[1][None],
                                recs[-1][0][:, None], recs[-1][1][:, None])
                cand = (cand[0].reshape(K * M, n, n), cand[1].reshape(K * M, n))
                img = _apply_records(*cand, probes[None])
            else:
                img = np.zeros((K, M) + probes.shape)
                for m, (gen, sign) in enumerate(moves):
                    rows = np.flatnonzero(ok[m::M])
                    if rows.size:
                        img[rows, m] = self.apply_gen(gen, sign, images[rows].reshape(-1, n)
                                                      ).reshape(-1, *probes.shape)
                img = img.reshape(K * M, *probes.shape)
            keys = _round_keys(img.reshape(K * M, -1))
            kept = []
            for c in range(K * M):  # parents in order, then moves in order
                if ok[c] and keys[c] not in seen:
                    seen.add(keys[c])
                    kept.append(c)
            if not kept:
                break
            if len(words) + len(kept) > WORD_TREE_CAP:
                raise InvalidAction(f"word bound {max_len}: the word tree passes WORD_TREE_CAP"
                                    f" = {WORD_TREE_CAP} words at length {len(levels) + 1}")
            parent, last = np.divmod(np.array(kept), M)
            start = len(words) - K
            words += [words[start + k] + (letters[m],) for k, m in zip(parent.tolist(), last.tolist())]
            if recs is None:
                images = img[kept]
                levels.append((len(kept), [(rows, parent[rows], gen, sign)
                                           for m, (gen, sign) in enumerate(moves)
                                           if (rows := np.flatnonzero(last == m)).size]))
            else:
                recs.append((cand[0][kept], cand[1][kept]))
                levels.append((len(kept), []))
        records = None if recs is None else tuple(np.concatenate(r) for r in zip(*recs))
        rows = {w: r for r, w in enumerate(words)}
        self._word_memo[max_len] = _WordTree(words, levels, records, rows)
        return list(words)

    def _tree(self, max_len: int) -> "_WordTree":
        """``enumerate_words(max_len)`` as a word tree; callers must not modify
        it.  The group is searched once per model: a bound below the largest
        searched so far reads that tree's first levels, which are this
        bound's tree."""
        if max_len not in self._word_memo:
            larger = [bound for bound in self._word_memo if bound > max_len]
            if larger:
                self._word_memo[max_len] = self._word_memo[min(larger)].prefix(max_len)
            else:
                self.enumerate_words(max_len)
        return self._word_memo[max_len]


class _WordTree(NamedTuple):
    """A breadth-first word list; per level 1, 2, ... (the words of that
    length), its size and, for the level path, one (rows, parents,
    generator, sign) step per move: the level's rows whose last letter it
    is and their parents' rows in the level before; and on an affine model
    each word's record (A, b), (W, n, n) and (W, n), which replaces the
    steps (the levels then hold none), else None; and the row of each word
    (a prefix shares its tree's)."""

    words: list
    levels: list
    records: Optional[tuple]
    rows: dict

    def prefix(self, max_len: int) -> "_WordTree":
        """The tree of the words of at most max_len letters."""
        size = 1 + sum(size for size, _ in self.levels[:max_len])
        records = None if self.records is None else tuple(r[:size] for r in self.records)
        return _WordTree(self.words[:size], self.levels[:max_len], records, self.rows)


# ---------------------------------------------------------------------------
# validation

@dataclass
class ValidationReport:
    """Residuals of a passed validation: a sampled necessary check (grid
    residuals and orbit separation at the word bound), not a proof of proper
    discontinuity.  ``validate`` raises instead of returning a failure."""

    residuals: dict
    words_checked: int = 0       # non-empty words applied to the interior grid
    words_truncated: int = 0     # enumerated words left out by VALIDATE_WORD_CAP

    def worst(self) -> float:
        """The largest residual.  Work cap: one pass over the residuals."""
        return max(self.residuals.values(), default=0.0)


def _row_max(diff: np.ndarray) -> np.ndarray:
    """max |entry| per point of a (P, ...) stack."""
    return np.abs(diff).reshape(len(diff), -1).max(axis=1)


def validate(model: QuotientModel) -> ValidationReport:
    """Sampled check of the quotient conditions, each within ACTION_TOL on grids
    of VALIDATE_PER_AXIS points per axis; raises InvalidAction on failure.

    Declared inverses must undo their maps (``_check_inverses``).  Homothety
    generators must pull each factor metric back to c_i^2 g_i and satisfy the
    warp compatibility lam1 o psi = lam1 / c1, lam2 o phi = lam2 / c2.  Every
    generator must be a sampled isometry of the assembled metric, act freely
    on the padded box, and no word up to the word bound (at most
    VALIDATE_WORD_CAP of them) may move an interior grid point into the box, a
    fundamental domain.  Each check runs on its whole grid at once; a failure
    names the first failing grid point.  A sampled necessary condition only.
    Work cap: grids of VALIDATE_PER_AXIS points per axis, and the word tree of
    the model's word bound (at most WORD_TREE_CAP words), of which at most
    VALIDATE_WORD_CAP move the interior grid.
    """
    dtp = model.dtp
    res: dict[str, float] = _check_inverses(model)
    pts1 = pg.grid_points(dtp.f1.domain_box, VALIDATE_PER_AXIS)
    pts2 = pg.grid_points(dtp.f2.domain_box, VALIDATE_PER_AXIS)
    pts = pg.grid_points(dtp.domain_box, VALIDATE_PER_AXIS)
    a, b = pts[:, dtp.slot1], pts[:, dtp.slot2]

    def fail(msg, sample):
        raise InvalidAction(f"{msg} at sample {np.asarray(sample)}")

    def fail_first(resid, samples, msg):
        bad = resid > ACTION_TOL
        if bad.any():
            fail(msg, samples[int(np.argmax(bad))])

    def pullback(J, metric, image):
        return np.swapaxes(J, -1, -2) @ metric.mat(image) @ J

    # the fields at the grids, which no generator moves, evaluated once for all
    f1, f2, g, lam1, lam2 = dtp.f1.metric, dtp.f2.metric, dtp.assembled, dtp.lam1, dtp.lam2
    if any(gen.homothety for gen in model.generators):
        g1, g2 = f1.mat(pts1), f2.mat(pts2)
        lam1_pts, lam2_pts = lam1.value(pts), lam2.value(pts)
    g_pts = g.mat(pts)
    padded = model.fundamental_box + model.ident_tol * np.array([-1.0, 1.0])
    boxpts = pg.grid_points(padded, VALIDATE_PER_AXIS, inset=0.0)

    for gen in model.generators:
        if gen.homothety:
            pull1 = _row_max(pullback(gen.phi.jac(pts1), f1, gen.phi(pts1)) - gen.c1**2 * g1)
            res[f"{gen.name}:pullback-g1"] = float(pull1.max())
            fail_first(pull1, pts1, f"generator {gen.name}: phi is not a homothety of factor 1")
            pull2 = _row_max(pullback(gen.psi.jac(pts2), f2, gen.psi(pts2)) - gen.c2**2 * g2)
            res[f"{gen.name}:pullback-g2"] = float(pull2.max())
            fail_first(pull2, pts2, f"generator {gen.name}: psi is not a homothety of factor 2")
            r1 = np.abs(lam1.value(np.concatenate([a, gen.psi(b)], axis=1)) - lam1_pts / gen.c1)
            r2 = np.abs(lam2.value(np.concatenate([gen.phi(a), b], axis=1)) - lam2_pts / gen.c2)
            res[f"{gen.name}:warp1-compat"] = float(r1.max())
            res[f"{gen.name}:warp2-compat"] = float(r2.max())
            fail_first(r1, pts, f"generator {gen.name}: lam1 o psi != lam1 / c1")
            fail_first(r2, pts, f"generator {gen.name}: lam2 o phi != lam2 / c2")

        # assembled-metric isometry (the condition that lets the metric descend)
        iso = _row_max(pullback(model.gen_jacobian(gen, 1, pts), g, model.apply_gen(gen, 1, pts))
                       - g_pts)
        res[f"{gen.name}:isometry"] = float(iso.max())
        fail_first(iso, pts, f"generator {gen.name}: not an isometry of the product metric")

        # free action on the padded fundamental box (point by point, +1 before -1)
        fixed = np.stack([model.same_point(model.apply_gen(gen, sign, boxpts), boxpts)
                          for sign in (1, -1)], axis=1)
        if fixed.any():
            p, s = divmod(int(np.argmax(fixed.ravel())), 2)
            fail(f"generator {gen.name}^{(1, -1)[s]} has a sampled fixed point", boxpts[p])

    # no non-empty word moves an interior point into the box (action-deduplicated
    # enumeration keeps this polynomial for the lattice-like groups in scope;
    # the cap guards pathological generator sets and is reported)
    wb = model.word_bound
    enumerated = model._tree(wb).words
    words = enumerated[1:VALIDATE_WORD_CAP]
    interior = pg.grid_points(model.fundamental_box, VALIDATE_PER_AXIS, inset=0.1)
    if words:
        moved = model._orbit(wb, interior, VALIDATE_WORD_CAP)[1:]
        back = model.in_box(moved)
        if back.any():
            w, p = divmod(int(np.argmax(back.ravel())), len(interior))
            fail(f"word {words[w]} moves an interior point into the fundamental box",
                 interior[p])
    return ValidationReport(residuals=res, words_checked=len(words),
                            words_truncated=max(0, len(enumerated) - VALIDATE_WORD_CAP))


def _check_inverses(model: QuotientModel) -> dict:
    """``validate``'s first check, run first by every count, verdict and holonomy:
    after the singular-record check (``_letters``), each declared inverse must undo
    its map within ACTION_TOL on validate's factor grid (residuals computed once per model)."""
    model._letters  # a singular affine record is refused first
    if model._inverse_memo is None:
        grids = [pg.grid_points(f.domain_box, VALIDATE_PER_AXIS)
                 for f in (model.dtp.f1, model.dtp.f2)]
        model._inverse_memo = [
            [(name, x, _row_max(fm(fm(x, 1), -1) - x))
             for name, fm, x in (("phi", gen.phi, grids[0]), ("psi", gen.psi, grids[1]))]
            for gen in model.generators]
    res = {}
    for gen, rows in zip(model.generators, model._inverse_memo):
        res[f"{gen.name}:inverse"] = float(max(resid.max() for _, _, resid in rows))
        for name, x, resid in rows:
            bad = resid > ACTION_TOL
            if bad.any():
                raise InvalidAction(f"generator {gen.name}: declared inverse of {name} fails "
                                    f"at sample {x[int(np.argmax(bad))]}")
    return res


# ---------------------------------------------------------------------------
# leaf tracing

@dataclass
class LeafTrace:
    foliation: int
    basepoint: np.ndarray
    status: str                 # "closed" | "open-within-budget"
    length: float               # metric arc length (to closure when closed)
    points: list                # (arc_length, representative) pairs

    @property
    def closed(self) -> bool:
        """Whether the trace closed.  Work cap: it reads ``status``."""
        return self.status == "closed"


def _leaf_speeds(dtp: pg.DoublyTwistedProduct, foliation: int, xs: np.ndarray,
                 direction) -> np.ndarray:
    """|direction| in the assembled metric at each row of xs, read from the
    traced factor alone (see the module notes): d_i (lam_i^2 g_i) d_i, the
    block as ``assemble``'s ``ev`` forms it from the warp at the whole point
    and the factor metric at the factor's coordinates."""
    s = dtp.slot(foliation)
    d = direction[s][0]

    def quad(cols):
        lam, g = dtp.warp(foliation)._value(cols), dtp.factor(foliation).metric._mat(cols[s])
        block = (np.square(lam) * g)[0, 0]
        if not np.isfinite(block).all():  # the assembled metric's check, on the block read
            ck._fail_at(cols.T, ~np.isfinite(block), "non-finite metric entries at")
        return (d * block) * d

    return np.sqrt(np.abs(ck._call_batch(quad, ck._points(xs, dtp.n))))


def leaf_trace(model: QuotientModel, x0, foliation: int, arc_budget: float = 8.0) -> LeafTrace:
    """Trace the leaf of F_foliation through x0 by advancing in factor
    coordinates and reducing into the fundamental box.

    Terminates with status "closed" when the reduced point returns to the
    start within ident_tol (the closure parameter below step resolution is
    the projection of x0 onto the leaf's coordinate line), or
    "open-within-budget" when the metric arc budget runs out.  The points
    are the forward trace's alone, closed or open, each with its arc length
    from x0.  Requires the traced factor to be one-dimensional, and reads
    only that factor: its warp, its metric and its deck maps (see
    ``_trace``).  No count or verdict calls it: it is the oracle for "a leaf
    closes iff ``leaf_loops`` finds a closing word", for verify-all's leaf
    rows and the tests.  Work cap: ``arc_budget``, in metric arc length; the
    trace takes steps of _TRACE_STEP in the factor coordinate, _TRACE_CHUNK
    at a time, so its step count is the budget over the step's metric length,
    and each box exit reduces by ``canonical_rep`` (the model's word bound).
    """
    dtp = model.dtp
    if dtp.factor(foliation).dim != 1:
        raise InvalidAction("leaf tracing requires the traced factor to be one-dimensional")
    x0 = np.asarray(x0, dtype=float)
    if not model.in_box(x0):
        raise ValueError(f"basepoint {x0} is not in the fundamental box")
    direction = dtp.embed(foliation, np.ones(1))
    status, length, pts = _trace(model, x0, foliation, direction, arc_budget)
    return LeafTrace(foliation, x0, status, length, pts)


def _trace(model: QuotientModel, x0: np.ndarray, foliation: int, direction: np.ndarray,
           arc_budget: float):
    """(status, length, points) of the trace from x0 along direction, a
    vector of F_foliation's slot.

    Steps are taken _TRACE_CHUNK at a time: a running sum of step*direction
    (the same additions as one step after another) up to the first point
    outside the box, with the speeds of the in-box points from one metric
    evaluation and the arc lengths from one running sum seeded with the arc
    so far.  The chunk stops at the first step that starts at or past the
    budget, so it may evaluate the metric a little past the end.  Its steps
    inside the box are checked for closure (``_closing_step``) before the
    step that leaves the box is reduced, which is then checked on its own,
    and the next chunk starts from its representative.  The trace reads only
    the traced factor: the speeds come from its warp and metric
    (``_leaf_speeds``), and the reducing word turns the direction by the
    Jacobians of the factor's own maps (phi for F1, psi for F2), composed
    along the word as ``word_jacobian`` composes its block.
    """
    dtp = model.dtp
    s = dtp.slot(foliation)
    step = _TRACE_STEP
    cur = x0.copy()
    arc = 0.0
    pts = [(0.0, x0.copy())]
    armed = False  # closure checks arm only once the trace has left the basepoint

    while arc < arc_budget:
        ahead = np.cumsum(np.vstack([cur, np.tile(step * direction, (_TRACE_CHUNK, 1))]), axis=0)
        inside = model.in_box(ahead[1:])
        n_in = int(np.argmin(inside)) if not inside.all() else _TRACE_CHUNK
        speeds = _leaf_speeds(dtp, foliation, ahead[:min(n_in + 1, _TRACE_CHUNK)], direction)
        arcs = np.cumsum(np.concatenate([[arc], step * speeds]))  # arcs[k + 1]: after step k
        over = np.flatnonzero(arcs[:-1] >= arc_budget)
        n = int(over[0]) if over.size else len(speeds)  # the steps this chunk takes
        reps = ahead[1:n + 1].copy()
        stays = min(n, n_in)  # the steps that stay in the box; step n_in leaves it
        armed, hit = _closing_step(model, x0, reps[:stays], speeds, arcs, direction, armed)
        if hit is None and stays < n:  # reduce the step that left the box, then check it
            reps[-1], word = model.canonical_rep(ahead[n])
            if word:
                y, J = ahead[n][s], np.eye(1)
                for j, (name, sign) in enumerate(word, 1):
                    gen = model.by_name[name]
                    fm = gen.phi if foliation == 1 else gen.psi
                    J = fm.jac(y, sign) @ J
                    if j < len(word):  # the point where the next letter's differential is taken
                        y = fm(y, sign)
                direction = dtp.embed(foliation, J @ direction[s])
            armed, hit = _closing_step(model, x0, reps, speeds, arcs, direction, armed, stays)
        if hit is not None:
            k, length = hit
            pts += zip(arcs[1:k + 2].tolist(), reps[:k + 1])
            return "closed", length, pts
        pts += zip(arcs[1:n + 1].tolist(), reps)
        arc, cur = float(arcs[n]), reps[-1]
    return "open-within-budget", arc, pts


def _closing_step(model: QuotientModel, x0, reps, speeds, arcs, direction, armed: bool,
                  start: int = 0):
    """(armed, hit) after the steps start.. that reached the rows of reps
    along direction, each with its speed and the arc after it (speeds[k],
    arcs[k + 1]): the checks arm at the first step whose gap from x0 exceeds
    1.5 proximities, and every later step within a proximity is tried for
    closure, in order; hit is (step, length) of the first that closes, or
    None.  Near x0 the closure is projected, not refined: delta =
    (x0 - rep).d / (d.d), clipped to +/-2 steps, is exact because a leaf is a
    coordinate line in product coordinates, and the trace closes when the
    representative of rep + delta d is the same point as x0 (``same_point``).
    """
    step = _TRACE_STEP
    gaps = np.max(np.abs(reps[start:] - x0), axis=1)
    proximity = 2.0 * step * np.maximum(1.0, speeds[start:len(reps)])
    first = 0
    if not armed:
        left = np.flatnonzero(gaps > 1.5 * proximity)
        armed = bool(left.size)
        first = int(left[0]) + 1 if armed else len(gaps)
    for k in start + first + np.flatnonzero(gaps[first:] <= proximity[first:]):
        delta = float(np.clip((x0 - reps[k]) @ direction / (direction @ direction),
                              -2 * step, 2 * step))
        closure, _ = model.canonical_rep(reps[k] + delta * direction)
        if model.same_point(closure, x0):
            return armed, (int(k), float(arcs[k + 1]) + delta * float(speeds[k]))
    return armed, None


# ---------------------------------------------------------------------------
# intersections and decomposition verdicts

@dataclass
class IntersectionReport:
    count: int
    witnesses: list              # ((a, b0) on leaf 1, (a0, b') on leaf 2) pairs of (n,) points
    word_bound_used: int
    # True when a foliation has no closing word within the bound (an open
    # leaf, or one closing only beyond it): the count is then a lower bound
    lower_bound_only: bool = False


def _check_distinct(model: QuotientModel, reps: list, word_bound: int) -> None:
    """Raise InvalidAction when a word of length <= word_bound identifies two
    of the representatives, which as canonical representatives must differ.

    Every enumerated word moves every representative in one batch; the pair
    named is the first by j, then i < j, then the word in enumeration order.
    """
    if len(reps) < 2:
        return
    reps = np.array(reps)
    words = model._tree(word_bound).words
    moved = model._orbit(word_bound, reps)
    hits = model.same_point(moved[:, :, None], reps) & np.triu(np.ones((len(reps),) * 2, bool), 1)
    if hits.any():
        j, i, w = np.unravel_index(np.argmax(hits.transpose(2, 1, 0)), hits.shape[::-1])
        raise InvalidAction(f"witnesses {i} and {j} are identified by word {words[w]}")


def leaf_intersection_count(model: QuotientModel, x0,
                            word_bound: Optional[int] = None) -> IntersectionReport:
    """card(F1(x0) ^ F2(x0)) from the deck group alone, at the word bound.

    Every group word w yields the candidate p(a0, psi_w(b0)), which lies on
    both leaves: on {a0} x M2, and w^-1 maps it to (phi_w^{-1}(a0), b0) on
    M1 x {b0}.  The candidates are the orbit of (a0, b0) with a0 put back,
    reduced and counted up to identification: a candidate whose
    representative is the same point as a kept one is that intersection.
    Each witness is the kept pair ((phi_w^{-1}(a0), b0), (a0, psi_w(b0))).
    Two kept representatives that a word of length <= the bound identifies
    raise InvalidAction.  The count is exact only when both leaves close,
    that is when each foliation has a closing word within the bound
    (``leaf_loops``); otherwise it carries the lower-bound flag.  Both
    factors must be one-dimensional (InvalidAction otherwise): there a
    non-trivial stabilizer of a free action is exactly a closed leaf.  Work
    cap: the word tree at the word bound (at most WORD_TREE_CAP words), one
    candidate per word, each reduced by a search of at most the larger of the
    model's and the given word bound (``_searches``, _SEARCH_POINTS images
    per batch); the kept witnesses are moved by every word once.
    """
    _check_inverses(model)
    _require_line_factors(model.dtp)
    wb = word_bound if word_bound is not None else model.word_bound
    rep0, _ = model.canonical_rep(x0)
    return _intersections(model, rep0, leaf_loops(model, rep0, wb), wb)


def _require_line_factors(dtp: pg.DoublyTwistedProduct) -> None:
    if dtp.n1 != 1 or dtp.n2 != 1:
        raise InvalidAction("intersection counting requires one-dimensional factors")


def _intersections(model: QuotientModel, rep0: np.ndarray, loops: dict,
                   wb: int) -> IntersectionReport:
    """``leaf_intersection_count`` at a reduced basepoint rep0 whose
    ``leaf_loops`` at the word bound wb are ``loops``."""
    dtp = model.dtp
    lower_bound_only = not (loops[1] and loops[2])
    words = model._tree(wb).words
    cands = model._orbit(wb, rep0)
    cands[:, dtp.slot1] = rep0[dtp.slot1]                # on {a0} x M2
    # a candidate of a word longer than the model's bound may need as long a
    # word to reach the box
    reduced = model._searches(cands, model.in_box, max(model.word_bound, wb))
    # candidates that reach the box, in order; a candidate whose representative
    # is the same point as an earlier kept one is that intersection: the first
    # one left is kept, and every one left that is the same point goes
    rows = [k for k, hit in enumerate(reduced) if hit is not None]
    pool = np.array([reduced[k][0] for k in rows]).reshape(-1, dtp.n)
    kept, left = [], np.arange(len(rows))
    while left.size:
        kept.append(int(left[0]))
        left = left[~model.same_point(pool[left], pool[left[0]])]
    witnesses = []
    for k in (rows[i] for i in kept):
        on_leaf1 = model.apply_word(word_inverse(words[k]), rep0)
        on_leaf1[dtp.slot2] = rep0[dtp.slot2]            # on M1 x {b0}
        witnesses.append((on_leaf1, cands[k].copy()))
    _check_distinct(model, [pool[i] for i in kept], wb)
    return IntersectionReport(len(witnesses), witnesses, wb, lower_bound_only)


@dataclass
class VerdictReason:
    kind: str                    # "none" | "nontrivial-holonomy" | "multiple-intersections"
    foliation: Optional[int] = None
    word: Optional[Word] = None
    count: Optional[int] = None


@dataclass
class DecompositionVerdict:
    tag: str                     # "global-doubly-warped-product" | "obstructed"
    reason: VerdictReason
    holonomy_maps: list = dc_field(default_factory=list)
    intersections: Optional[IntersectionReport] = None


def leaf_loop_curve(model: QuotientModel, rep0, foliation: int, word: Word) -> tp.PiecewiseCurve:
    """Straight leaf path upstairs from rep0 to word(rep0).

    The word must fix the other factor's coordinates of rep0 (it closes a
    loop of F_foliation downstairs); otherwise NotALoop.  Work cap: one
    ``apply_word``.
    """
    rep0 = np.asarray(rep0, dtype=float)
    return tp.PiecewiseCurve.line(rep0, _loop_ends(model, rep0, foliation, [word])[0])


def _loop_ends(model: QuotientModel, rep0: np.ndarray, foliation: int,
               words: Sequence[Word]) -> np.ndarray:
    """word(rep0) for every word (``apply_word``); NotALoop names the first
    word that does not close a foliation loop at rep0."""
    ends = np.stack([model.apply_word(w, rep0) for w in words])
    other = model.dtp.slot(3 - foliation)
    opens = ~model.same_point(ends[:, other], rep0[other])
    if opens.any():
        word = words[int(np.argmax(opens))]
        raise NotALoop(f"word {word} does not close a foliation-{foliation} loop at {rep0}")
    return ends


def loop_holonomies(model: QuotientModel, rep0, foliation: int, words: Sequence[Word]) -> list:
    """Holonomy of each F_foliation leaf loop at rep0 that a word of ``words``
    closes (``leaf_loop_curve``; NotALoop names the first that does not), in
    the g-orthonormal normal frame F at rep0, one batch for all words.

    Closed form: adapted translation keeps the normal components constant in
    product coordinates (Ponge & Reckziegel, Geom. Dedicata 48, 1993), so the
    frame comes back as F and the matrix is F^-1 J_nn F, with J_nn the normal
    block of the differential of word^-1 at word(rep0).  The adapted translation
    of F around ``leaf_loop_curve`` (``transport.transport_batch``), read by
    ``transport.loop_return_map``, computes the same matrix by collocation and
    is its oracle.  Work cap: one ``apply_word`` and one ``word_jacobian`` per
    word of ``words``; no search.
    """
    _check_inverses(model)
    rep0 = np.asarray(rep0, dtype=float)
    words = [tuple(w) for w in words]
    dtp = model.dtp
    ends = _loop_ends(model, rep0, foliation, words)
    other = dtp.slot(3 - foliation)
    frame = tp.normal_frame(dtp, rep0, foliation=foliation)
    fmat = frame[other]
    jac = np.stack([model.word_jacobian(word_inverse(w), end)
                    for w, end in zip(words, ends)])[:, other, other]
    return [tp.HolonomyMap(m, frame) for m in np.linalg.solve(fmat, jac @ fmat)]


def leaf_loops(model: QuotientModel, rep0, max_len: Optional[int] = None) -> dict:
    """Every non-empty word of at most max_len letters (the model's word
    bound by default) that closes a leaf loop at rep0, per foliation:
    {1: words w with psi_w(b0) = b0, 2: words with phi_w(a0) = a0}, in
    ``enumerate_words`` order, decided by ``same_point``.  Work cap: the word
    tree at max_len (at most WORD_TREE_CAP words), rep0 moved by each once."""
    rep0 = np.asarray(rep0, dtype=float)
    wb = model.word_bound if max_len is None else max_len
    words = model._tree(wb).words[1:]
    moved = model._orbit(wb, rep0)[1:]
    loops = {}
    for i in (1, 2):
        other = model.dtp.slot(3 - i)
        closes = model.same_point(moved[:, other], rep0[other])
        loops[i] = [w for w, hit in zip(words, closes.tolist()) if hit]
    return loops


def decomposition_check(model: QuotientModel, x0, loops: dict,
                        hol_tol: float = 1e-6,
                        word_bound: Optional[int] = None,
                        structure: Optional[pg.StructureClass] = None) -> DecompositionVerdict:
    """Global-product verdict at x0: trivial leaf holonomy + one intersection.

    The criterion is the paper's for quotients of doubly warped products:
    unless ``pg.classify`` tags the product direct-product, warped or
    doubly-warped, the verdict is refused with InvalidAction naming the tag
    (``structure``, when given, is that classification of ``model.dtp``, the
    run's one, and the check does not classify again).
    ``loops`` maps foliation index (1, 2) to generator words closing leaf
    loops at x0; they are tested first, in order.  Then every other leaf
    loop of at most word_bound letters (``leaf_loops``) is tested, so the
    verdict does not hang on which loops were supplied.  Verdict is the
    global product iff every holonomy map is the identity within hol_tol and
    the leaves meet exactly once (``leaf_intersection_count``, from the deck
    group alone).  A count of 1 with a leaf that has no closing word within
    word_bound is only a lower bound, and the verdict is refused with
    InvalidAction.  Work cap: ``canonical_rep`` at the model's word bound,
    then ``leaf_loops`` and the intersection count at word_bound (each the
    word tree, at most WORD_TREE_CAP words), with one ``loop_holonomies``
    call per declared loop and one per foliation for the derived loops; the
    first non-identity holonomy ends the check.
    """
    _check_inverses(model)
    tag = (structure or pg.classify(model.dtp)).tag
    if tag not in (pg.StructureTag.DIRECT_PRODUCT, pg.StructureTag.WARPED,
                   pg.StructureTag.DOUBLY_WARPED):
        raise InvalidAction(f"decomposition verdicts need a doubly warped product "
                            f"(direct-product, warped or doubly-warped), got {tag.value}")
    wb = word_bound if word_bound is not None else model.word_bound
    rep0, _ = model.canonical_rep(x0)
    declared = [(i, tuple(word)) for i in (1, 2) for word in loops.get(i, [])]
    derived = {}  # leaf_loops(model, rep0, wb), once every declared loop passed

    def tested():
        for i, word in declared:
            yield i, word, loop_holonomies(model, rep0, i, [word])[0]
        derived.update(leaf_loops(model, rep0, wb))
        for i in (1, 2):
            words = [w for w in derived[i] if (i, w) not in declared]
            if words:
                yield from ((i, w, hol) for w, hol in
                            zip(words, loop_holonomies(model, rep0, i, words)))

    hol_maps = []
    for i, word, hol in tested():
        hol_maps.append((i, word, hol))
        if not hol.is_identity(hol_tol):
            return DecompositionVerdict(
                "obstructed",
                VerdictReason("nontrivial-holonomy", foliation=i, word=word),
                holonomy_maps=hol_maps)
    _require_line_factors(model.dtp)
    report = _intersections(model, rep0, derived, wb)
    if report.count != 1:
        return DecompositionVerdict(
            "obstructed", VerdictReason("multiple-intersections", count=report.count),
            holonomy_maps=hol_maps, intersections=report)
    if report.lower_bound_only:
        # a leaf without a closing word makes "count == 1" a lower bound only;
        # refusing is the only sound answer since neither verdict is certified
        raise InvalidAction(
            "intersection count 1 is only a lower bound (a leaf has no closing word "
            "within the word bound); cannot certify a global product")
    return DecompositionVerdict("global-doubly-warped-product", VerdictReason("none"),
                                holonomy_maps=hol_maps, intersections=report)


# ---------------------------------------------------------------------------
# explicit twisted construction (quotient that is not globally a product)

def _bump_and_d1(u):
    """(b, b') elementwise (a number or an array) for the bump
    b(u) = exp(-1 / (1 - u^2)) on |u| < 1, 0 elsewhere."""
    u = np.asarray(u, dtype=float)
    w = 1.0 - u * u
    inside = w > 0.0  # |u| < 1: u * u rounds to 1 or more exactly when |u| >= 1
    w = np.where(inside, w, 1.0)  # 1 outside, so the masked branch stays finite
    b = np.exp(-1.0 / w) * inside
    return b[()], (b * (-2.0 * u / w**2))[()]


def _smooth01(t):
    """C-infinity step, elementwise: exactly 0 for t <= 0 and 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    mid = (t > 0.0) & (t < 1.0)
    tm = np.where(mid, t, 0.5)  # keeps both exponents finite off the transition
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    return np.where(mid, a / (a + b), t >= 1.0)[()]  # off it: 1.0 above, 0.0 below


@dataclass
class TwistedGluing:
    """Gluing data: h = id near 0, h' > 0, with bump amplitude and inverse.
    Every method is elementwise: it takes a number or an array."""

    amplitude: float = 0.3
    center: float = 1.0

    def h(self, y):
        """h(y) = y + amplitude * bump(y - center).  Work cap: elementwise, no iteration."""
        return self._h_and_prime(y)[0]

    def h_prime(self, y):
        """h'(y).  Work cap: elementwise, no iteration."""
        return self._h_and_prime(y)[1]

    def _h_and_prime(self, y):
        b, d1 = _bump_and_d1(y - self.center)
        return y + self.amplitude * b, 1.0 + self.amplitude * d1

    def h_inverse(self, z):
        """Newton's method for h(y) = z from y = z, per element: an element
        stops once its step is below 1e-15.  Work cap: 100 steps per element."""
        z = np.asarray(z, dtype=float)
        y = z.flatten()
        todo, yt, zt = np.arange(y.size), y.copy(), y.copy()  # the elements still moving
        for _ in range(100):
            if not todo.size:
                break
            h, h_prime = self._h_and_prime(yt)
            step = (h - zt) / h_prime
            yt = yt - step
            stop = np.abs(step) < 1e-15
            if np.count_nonzero(stop):
                y[todo[stop]] = yt[stop]
                todo, yt, zt = todo[~stop], yt[~stop], zt[~stop]
        y[todo] = yt
        return y.reshape(z.shape)[()]

    def check_monotone(self):
        """min h' on 401 points across the bump (its work cap); raises InvalidH
        unless positive."""
        grid = np.linspace(self.center - 1.5, self.center + 1.5, 401)
        worst = float(np.min(self.h_prime(grid)))
        if worst <= 0.0:
            raise InvalidH(f"h' reaches {worst} <= 0; reduce the bump amplitude")
        return worst


def build_example1(epsilon: float = 0.25, gluing: Optional[TwistedGluing] = None,
                   word_bound: int = DEFAULT_WORD_BOUND) -> QuotientModel:
    """Twisted metric dx^2 + lam(x, y)^2 dy^2 on R^2, quotiented by
    (x, y) -> (x + 1, h^{-1}(y)).

    lam is seeded on the strip 0 <= x < 1 as h'(y)^{sigma(x)} with sigma a
    smooth step (identically 0 near x = 0 and 1 near x = 1, transition width
    set by epsilon < 1/2) and extended to all x through the gluing relation
    lam(x, y) = lam(x - 1, h(y)) h'(y), which makes the generator an isometry.
    The leaf of the first foliation through y = 0 closes; leaves in the bump
    region drift monotonically and never close.  The y factor's box is
    [-1, 3].  Work cap: the warp walks at most GLUING_LEVELS levels of
    floor(x) per point (farther points are refused), each level one h or one
    ``TwistedGluing.h_inverse``.
    """
    if not (0.0 < epsilon < 0.5):
        raise InvalidH(f"epsilon must lie in (0, 1/2), got {epsilon}")
    glue = gluing if gluing is not None else TwistedGluing()
    glue.check_monotone()

    def lam(c):
        # the gluing chain, one level of floor(x) at a time: the points with
        # k = floor(x) >= j take the j-th factor h'(y) and move y to h(y),
        # those with k <= -j move y to h^-1(y) and divide by h' there
        x, y = c[0], c[1].copy()
        k = np.floor(x)
        far = np.abs(k) > GLUING_LEVELS
        if far.any():
            p = int(np.argmax(far))
            raise NumericsError(f"twisted-lam at {c[:, p]}: {abs(k[p]):g} gluing levels from "
                                f"the strip 0 <= x < 1, beyond GLUING_LEVELS = {GLUING_LEVELS}")
        chain = np.ones_like(y)
        for j in range(1, int(k.max(initial=0.0)) + 1):
            m = k >= j
            y[m], h_prime = glue._h_and_prime(y[m])
            chain[m] *= h_prime
        for j in range(1, int(-k.min(initial=0.0)) + 1):
            m = k <= -j
            y[m] = glue.h_inverse(y[m])
            chain[m] /= glue.h_prime(y[m])
        return glue.h_prime(y) ** _smooth01((x - k - epsilon) / (1.0 - 2.0 * epsilon)) * chain

    lam_field = ScalarField(lam, name="twisted-lam")
    f1 = pg.FactorManifold("line-x", ck.MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("line-y", ck.MetricField.euclidean(1), [[-1.0, 3.0]])
    dtp = pg.assemble(f1, f2, ScalarField.constant(1.0), lam_field)

    gen = DeckGenerator(
        name="a",
        phi=FactorMap.translation([1.0]),
        psi=FactorMap(apply=glue.h_inverse, inverse=glue.h,
                      jacobian=lambda y: (1.0 / glue.h_prime(glue.h_inverse(y)))[None]),
        homothety=False,
    )
    big = 1e9
    model = QuotientModel(dtp, [gen],
                          fundamental_box=[[0.0, 1.0], [-big, big]],
                          word_bound=word_bound)
    model.gluing = glue
    return model


def example1_seam_residual(model: QuotientModel) -> float:
    """max |lam(x, y) - lam(x - 1, h(y)) h'(y)| across the x = 1 seam at 25
    samples (its work cap)."""
    glue = model.gluing
    rng = np.random.default_rng(2024)
    # the draws alternate x, y per sample
    x, y = rng.uniform([-0.2, -0.5], [0.2, 2.5], (25, 2)).T
    x = 1.0 + x
    h, h_prime = glue._h_and_prime(y)
    lhs = model.dtp.lam2.value(np.stack([x, y], axis=1))
    rhs = model.dtp.lam2.value(np.stack([x - 1.0, h], axis=1)) * h_prime
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


# ---------------------------------------------------------------------------
# curvature-sign + critical-point diagnostic

@dataclass
class TeodgReport:
    tag: pg.StructureTag
    histogram: dict              # {"negative": int, "zero": int, "positive": int}
    critical_points: list        # factor-1 coordinate arrays
    critical_everywhere: bool    # |grad lam2| < 1e-6 on the whole grid: every point is critical
    hypotheses_hold: bool
    verdict: str
    witness: Optional[dict] = None


def teodg_diagnostic(dtp: pg.DoublyTwistedProduct, n_samples: int = 60,
                     seed: int = 0,
                     structure: Optional[pg.StructureClass] = None) -> TeodgReport:
    """Sample mixed-plane curvature signs and search lam2 for critical points.

    The diagnostic reports whether the sampled hypotheses of the global
    decomposition criterion hold: K < 0 on all sampled mixed nondegenerate
    planes (|K| <= 1e-9 counts as zero), and lam2 (a factor-1 function for
    warped structures) has a critical point inside the factor-1 box.  A
    twisted or doubly twisted ``pg.classify`` tag is refused with
    InvalidAction (``structure``, when given, is that classification of
    ``dtp``, the run's one, and the diagnostic does not classify again).

    The samples are one batch: n_samples uniform points of the domain box,
    then one mixed plane at each (``pg._sample_planes`` on one
    ``point_geometry`` batch; a degenerate draw is re-drawn, up to 60 times,
    and a point without a plane is dropped), and K from one
    ``pg._sectional_closed_form`` call.

    Critical points are sought on factor 1 with the factor-2 coordinates at
    the middle of their box.  When |grad lam2| < 1e-6 at every point of a
    9-per-axis grid, the warp is critical everywhere: ``critical_everywhere``
    is set and no points are listed.  Otherwise batched Newton steps
    a <- a - H^+ grad lam2(a) (H the factor-1 block of lam2's coordinate
    hessian, pseudo-inverted where singular), projected onto the factor-1
    box, run from the 5 grid points of least |grad| for at most
    _NEWTON_STEPS steps; an end point with |grad| < 1e-6 is critical, and
    one within 1e-4 of a kept point is that point.  Only the slot-1 partials
    of lam2 are read: on the FD route a gradient evaluates each point and its
    +-e_k neighbours for k in slot 1, and a hessian the point, its +-e_k
    neighbours and the four corners of each pair of slot-1 axes.

    Work cap: n_samples points with at most 60 plane draws each, the
    9-per-axis grid, and _NEWTON_STEPS Newton steps from its 5 best points.
    """
    cls = structure or pg.classify(dtp)
    if cls.tag in (pg.StructureTag.TWISTED, pg.StructureTag.DOUBLY_TWISTED):
        raise InvalidAction(f"diagnostic requires a (doubly) warped structure, got {cls.tag.value}")
    rng = np.random.default_rng(seed)
    box = dtp.domain_box
    x = box[:, 0] + rng.random((max(n_samples, 0), dtp.n)) * (box[:, 1] - box[:, 0])
    geo = pg.point_geometry(dtp, x)
    U, V, found = pg._sample_planes(dtp, rng, geo.g, (1, 2))
    ks = pg._sectional_closed_form(dtp, geo.rows(found), x[found], U[found], V[found])
    hist = {"negative": 0, "zero": 0, "positive": 0}
    witness = None
    for point, k in zip(x[found].tolist(), ks.tolist()):
        if k < -1e-9:
            hist["negative"] += 1
            continue
        hist["positive" if k > 1e-9 else "zero"] += 1
        if witness is None:
            witness = {"point": point, "K": k}

    lam2, slot1 = dtp.lam2, dtp.axes(1)
    mid2 = 0.5 * (dtp.f2.domain_box[:, 0] + dtp.f2.domain_box[:, 1])

    def full(a):
        return ck._points(np.hstack([a, np.broadcast_to(mid2, (len(a), dtp.n2))]))

    def grad(a):
        return ck._call_batch(lam2._jet, full(a), 1, (slot1,))[1]

    grid = pg.grid_points(dtp.f1.domain_box, 9)
    grid_norm2 = np.sum(grad(grid) ** 2, axis=1)
    everywhere = bool(np.all(grid_norm2 < (1e-6) ** 2))
    found_pts = []
    if not everywhere:
        lo, hi = dtp.f1.domain_box[:, 0], dtp.f1.domain_box[:, 1]
        a = grid[np.argsort(grid_norm2, kind="stable")[:5]]
        for _ in range(_NEWTON_STEPS):
            (hess,) = ck._call_batch(lam2._jet, full(a), 2, (slot1, slot1))
            nxt = np.clip(a - np.einsum("pij,pj->pi", np.linalg.pinv(hess), grad(a)), lo, hi)
            if np.array_equal(nxt, a):
                break
            a = nxt
        for p in a[np.sum(grad(a) ** 2, axis=1) < (1e-6) ** 2]:
            if not any(np.max(np.abs(p - b)) < 1e-4 for b in found_pts):
                found_pts.append(p)

    all_negative = hist["positive"] == 0 and hist["zero"] == 0 and hist["negative"] > 0
    critical = bool(found_pts) or everywhere
    holds = all_negative and critical
    if holds:
        verdict = "hypotheses hold on samples: K < 0 on mixed planes and lam2 has a critical point"
    else:
        parts = []
        if not all_negative:
            parts.append(f"mixed-plane K sign violated at witness {witness}")
        if not critical:
            parts.append("no critical point of lam2 found in the factor-1 box")
        verdict = "violated: " + "; ".join(parts)
    return TeodgReport(cls.tag, hist, [p.tolist() for p in found_pts], everywhere, holds,
                       verdict, witness)
