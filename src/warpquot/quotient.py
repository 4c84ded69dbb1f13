"""Quotients of product metrics by deck-transformation groups.

A quotient model is a doubly twisted product together with generators acting
as factor-split maps phi x psi, a fundamental box, an identification
tolerance and a word bound.  Operations: sampled validation of the group
action, leaf loops from the deck group with their holonomy in closed form,
intersection counts from the deck group alone, holonomy-based
global-decomposition verdicts, and leaf tracing with closure detection (the
oracle for "a leaf closes iff it has a closing word").  The built-in models,
example1's twisted construction among them, live in ``fixtures``.

Group words are tuples of (generator_name, +1 | -1), applied left to right.

Batches and the factor-map contract
-----------------------------------
``FactorMap.__call__/jac`` and ``QuotientModel.in_box/apply_gen/apply_word/
gen_jacobian/word_jacobian`` take one point ``(n,)`` or a batch ``(P, n)``
with one point per row.  ``FactorMap`` callbacks follow the coordinate-major
contract of ``chartkit``: they receive a batch ``x`` of shape ``(m, P)``, one
point as a batch of one, and put the point axis last: ``(m, P)`` from
``apply``/``inverse``, ``(m, m, P)`` from ``jacobian``.  A map that is
piecewise or needs a per-point solve stays elementwise: example1's h^-1
runs Newton on the whole batch, each element frozen at its own stop.  A
single word moves a point by ``apply_word`` and differentiates by
``word_jacobian``; a generator is a one-letter word (``apply_gen``,
``gen_jacobian``).  The deck maps are factor-split, so a word's
differential is composed in one place, ``_factor_jacobian``: factor i's
chain rule along the word, through factor i's maps alone;
``word_jacobian`` is the block diagonal of the two chains.  With
elementwise callbacks a row of a batch sees the same arithmetic as the
point alone, so batched and one-point results agree bit for bit.

A leaf trace of F_i reads only factor i: its speeds are lam_i^2 g_i read
from the warp and factor metric kernels (``_leaf_speeds``), and a box exit
turns its direction by F_i's chain along the reducing word
(``_factor_jacobian``, ``word_jacobian``'s block).  The traced factor is
one-dimensional and the direction is zero off its slot, so every term of
the assembled metric left out is an exact zero and the values keep their
bits.  A trace runs forward only, along +e_i from the basepoint: an open
leaf's points stop where the arc budget runs out, since only its status is
read.

The word tree and its one walk
------------------------------
The group is searched once per model (``enumerate_words``) and kept as a
breadth-first word tree (``_tree``, ``_WordTree``), each word its parent
followed by one letter; a smaller word bound reads the first levels of the
largest tree searched.  A batch of words moves points only by the tree's
one walk, ``_WordTree.images``: the rows from a level's first to any stop.
``_orbit`` (loops, intersections, ``validate``) walks from the root, and
``_searches`` (``canonical_rep``, ``find_closing_word``) one level per
call, each start until a level accepts it.

A model is affine when every phi and psi carries an affine record
(``FactorMap.record``: ``FactorMap.affine``/``translation``, and scenario
maps whose formulas are all affine).  Each word w then has the record
(A_w, b_w) of its map x -> A_w x + b_w, its letters' records composed onto
(I, 0) left to right: a tree word's once, when the search finds it, from
its parent's, and any other word's from its prefix's.  Every product with a
matrix sums in a fixed order (``_matmul``, the order of ``chartkit._fold``),
so a record and an image have the same bits in any batch: the walk is one
product with the span's records, ``apply_word`` moves a point by the same
records, and the Jacobians are the records' A, exactly.  On any other model
the walk goes level by level, each image its parent's moved by its last
letter: one ``apply_gen`` call per level and move (the per-letter move of
``apply_word``), with each move's rows found once, when the tree is built.
Its Jacobians come from the maps (central differences when a map has no
``jacobian``).
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
from .errors import InvalidAction, NotALoop, WordBoundExceeded

Word = tuple  # of (name, +1 | -1)

ACTION_TOL = 1e-7       # deck-generator invariant residual budget
DEFAULT_IDENT_TOL = 1e-7
DEFAULT_WORD_BOUND = 8
VALIDATE_WORD_CAP = 20_000  # words validate applies to the interior grid at most
WORD_TREE_CAP = 1 << 15     # words enumerate_words keeps at most; a larger tree is refused
VALIDATE_PER_AXIS = 4   # grid points per axis of validate's samples
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
        batch (a map's own iteration is its own: example1's Newton h^-1)."""
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
        self._inverse_memo: Optional[tuple] = None  # _check_inverses outcome, once computed
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
        """The generator (sign +1) or its inverse: the one-letter ``apply_word``."""
        return self.apply_word(((gen.name, 1 if sign > 0 else -1),), x)

    def apply_word(self, word: Word, x) -> np.ndarray:
        """The word's map at one point or each row of a batch.  Work cap: one
        record product, or one call of phi and one of psi per letter."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            return _affine_map(*self._word_record(word), x)
        s1, s2 = self.dtp.slot1, self.dtp.slot2
        for name, sign in word:
            gen = self.by_name[name]
            x = np.concatenate([gen.phi(x[..., s1], sign), gen.psi(x[..., s2], sign)], axis=-1)
        return x

    def gen_jacobian(self, gen: DeckGenerator, sign: int, x) -> np.ndarray:
        """Differential of the generator (sign +1) or its inverse at x: the
        one-letter ``word_jacobian``."""
        return self.word_jacobian(((gen.name, 1 if sign > 0 else -1),), x)

    def word_jacobian(self, word: Word, x) -> np.ndarray:
        """Differential of the word map at x: the word's A exactly on an
        affine model, else the block diagonal of each factor's chain
        (``_factor_jacobian``).  Work cap: one record, or one
        ``FactorMap.jac`` and one map call per letter and factor."""
        x = np.asarray(x, dtype=float)
        if self._letters is not None:
            A = self._word_record(word)[0]
            return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()
        J = np.zeros(x.shape[:-1] + (self.dtp.n, self.dtp.n))
        for i, s in ((1, self.dtp.slot1), (2, self.dtp.slot2)):
            J[..., s, s] = self._factor_jacobian(i, word, x[..., s])
        return J

    def _factor_jacobian(self, i: int, word: Word, y) -> np.ndarray:
        """Differential along the word of factor i's maps (phi for i = 1, psi
        for 2) at factor i's coordinates y: the chain rule along the
        application, each letter's ``FactorMap.jac`` taken where the letters
        before it moved y.  Evaluates no map of the other factor."""
        J = np.broadcast_to(np.eye(y.shape[-1]), y.shape[:-1] + (y.shape[-1],) * 2).copy()
        for j, (name, sign) in enumerate(word, 1):
            gen = self.by_name[name]
            fm = gen.phi if i == 1 else gen.psi
            J = fm.jac(y, sign) @ J
            if j < len(word):  # the point where the next letter's differential is taken
                y = fm(y, sign)
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

    def _orbit(self, max_len: int, x, count: Optional[int] = None) -> tuple[list, np.ndarray]:
        """(words, images): the first ``count`` words of
        ``enumerate_words(max_len)`` (all by default), and x, (n,) or (S, n),
        moved by each, (len(words),) + x.shape, in one walk of the word tree
        from its root (``_WordTree.images``)."""
        tree = self._tree(max_len)
        stop = len(tree.words) if count is None else min(count, len(tree.words))
        return tree.words[:stop], tree.images(self, np.asarray(x, dtype=float), 0, None, stop)

    def _searches(self, starts, accept, max_len: int) -> list:
        """Per row of ``starts`` (S, n), the first (point, word) of
        ``enumerate_words(max_len)`` whose image ``accept`` takes, or None.

        ``accept`` maps a batch (..., n) to one bool per point.  A start it
        takes as it is gets the empty word; the others walk the word tree one
        level per ``_WordTree.images`` call, in groups of at most
        _SEARCH_POINTS points per level, and a start leaves at the first level
        with an accepted image, taking that level's first such word, the first
        accepted word of the breadth-first list.  The action is free, so a word
        the enumeration drops moves every point where an earlier word does:
        the first hit is the one of a breadth-first search from that start.
        """
        starts = np.asarray(starts, dtype=float)
        taken = accept(starts)
        found: list = [(p, ()) if hit else None for p, hit in zip(starts, taken.tolist())]
        rest = np.flatnonzero(~taken)
        if not rest.size:
            return found
        tree = self._tree(max_len)
        edges = tree.edges
        group = max(1, _SEARCH_POINTS // int(max(np.diff(edges))))
        for lo in range(0, rest.size, group):
            todo = rest[lo:lo + group]
            images = starts[todo][None]
            for level in range(1, len(edges) - 1):
                if not todo.size:
                    break
                images = tree.images(self, starts[todo], level, images, edges[level + 1])
                hits = accept(images)
                first, hit = hits.argmax(axis=0), hits.any(axis=0)
                for r in np.flatnonzero(hit).tolist():
                    found[todo[r]] = (images[first[r], r].copy(), tree.words[edges[level] + first[r]])
                images, todo = images[:, ~hit], todo[~hit]
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
        two probe points (``_WordTree.search``).  The only search of the
        group: the tree it builds is kept for the orbit lookups (``_tree``),
        so a later call at the same or a smaller bound searches nothing.
        Work cap: max_len levels, and WORD_TREE_CAP words: a level that would
        take the list past it raises InvalidAction.
        """
        self._word_memo[max_len] = tree = _WordTree.search(self, max_len)
        return list(tree.words)

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
    """A breadth-first word list and the one walk of it (``images``).

    Level L holds the words of L letters, rows edges[L] to edges[L + 1] - 1
    (level 0 is the empty word, row 0).  An affine model keeps each word's
    record (A, b), (W, n, n) and (W, n), in ``records`` and no ``steps``;
    any other keeps, per level, one (rows, parents, generator, sign) step
    per move in ``steps``: the level's rows whose last letter it is and
    their parents' rows in the level before, each counted from its level's
    first row.  ``rows`` is the row of each word (a prefix shares its
    tree's)."""

    words: list
    edges: list
    steps: Optional[list]
    records: Optional[tuple]
    rows: dict

    @classmethod
    def search(cls, model: QuotientModel, max_len: int) -> "_WordTree":
        """``model.enumerate_words(max_len)``'s tree.  The probes are the
        middle of the box clipped to [c - 5, c + 5] per axis, c the point of
        the box nearest the origin, and that point moved by 0.1, 0.2, ...:
        near the origin the doubles are dense enough for the _ROUND grid on
        any box.  Each word is a kept word of the level before followed by
        one letter, so every prefix of a word is listed before it.  Each
        level moves the probes by every candidate child at once: by the
        children's records, each its parent's composed with its last
        letter's, on an affine model; otherwise by one apply_gen call per
        move on the parents' probe images.  A child is kept unless its
        probe images round to a visited key."""
        lo, hi = model.fundamental_box[:, 0], model.fundamental_box[:, 1]
        near = np.clip(0.0, lo, hi)
        probe = 0.5 * (np.maximum(lo, near - 5.0) + np.minimum(hi, near + 5.0))
        probes = np.stack([probe, probe + 0.1 * np.arange(1, model.dtp.n + 1)])
        moves = model._moves()
        letters = [(gen.name, sign) for gen, sign in moves]
        M, n = len(moves), model.dtp.n
        words, edges = [()], [0, 1]
        images, last = probes[None], np.array([-1])  # the last level's probe images, moves
        recs = [(np.eye(n)[None], np.zeros((1, n)))] if model._letters is not None else None
        steps = [[]] if recs is None else None
        seen = set(_round_keys(probes.reshape(1, -1)))
        for _ in range(max_len):
            K = len(last)
            ok = (last[:, None] != np.arange(M) ^ 1).ravel().tolist()  # keep the word reduced
            if recs is not None:
                cand = _compose(model._letters[0][None], model._letters[1][None],
                                recs[-1][0][:, None], recs[-1][1][:, None])
                cand = (cand[0].reshape(K * M, n, n), cand[1].reshape(K * M, n))
                img = _apply_records(*cand, probes[None])
            else:
                img = np.zeros((K, M) + probes.shape)
                for m, (gen, sign) in enumerate(moves):
                    rows = np.flatnonzero(ok[m::M])
                    if rows.size:
                        img[rows, m] = model.apply_gen(gen, sign, images[rows].reshape(-1, n)
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
                                    f" = {WORD_TREE_CAP} words at length {len(edges) - 1}")
            parent, last = np.divmod(np.array(kept), M)
            start = len(words) - K
            words += [words[start + k] + (letters[m],) for k, m in zip(parent.tolist(), last.tolist())]
            edges.append(len(words))
            if recs is None:
                images = img[kept]
                steps.append([(rows, parent[rows], gen, sign) for m, (gen, sign) in enumerate(moves)
                              if (rows := np.flatnonzero(last == m)).size])
            else:
                recs.append((cand[0][kept], cand[1][kept]))
        records = None if recs is None else tuple(np.concatenate(r) for r in zip(*recs))
        return cls(words, edges, steps, records, {w: r for r, w in enumerate(words)})

    def prefix(self, max_len: int) -> "_WordTree":
        """The tree of the words of at most max_len letters."""
        edges = self.edges[:max_len + 2]
        size = edges[-1]
        records = None if self.records is None else tuple(r[:size] for r in self.records)
        steps = None if self.steps is None else self.steps[:max_len + 1]
        return _WordTree(self.words[:size], edges, steps, records, self.rows)

    def images(self, model: QuotientModel, x: np.ndarray, level: int, prev, stop: int) -> np.ndarray:
        """x, (n,) or (S, n), moved by the words of rows edges[level] to
        stop - 1, in order: (stop - edges[level],) + x.shape.  On an affine
        model one product with those rows' records; otherwise level by level
        from ``prev``, the images of level - 1 (unread at level 0), each image
        its parent's moved by its last letter, one ``apply_gen`` per move."""
        if self.records is not None:
            span = slice(self.edges[level], stop)
            return _apply_records(self.records[0][span], self.records[1][span], x[None])
        parts, prev = ([x[None][:stop]], x[None]) if level == 0 else ([prev[:0]], prev)
        n = x.shape[-1]
        for lv in range(max(level, 1), len(self.edges) - 1):
            size = min(self.edges[lv + 1], stop) - self.edges[lv]
            if size <= 0:
                break
            out = np.empty((size,) + prev.shape[1:])
            for rows, parents, gen, sign in self.steps[lv]:
                keep = rows < size
                if keep.any():
                    sub = prev[parents[keep]]
                    out[rows[keep]] = model.apply_gen(gen, sign, sub.reshape(-1, n)).reshape(sub.shape)
            parts.append(prev := out)
        return np.concatenate(parts)


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
    interior = pg.grid_points(model.fundamental_box, VALIDATE_PER_AXIS, inset=0.1)
    words, moved = model._orbit(model.word_bound, interior, VALIDATE_WORD_CAP)
    back = model.in_box(moved[1:])
    if back.any():
        w, p = divmod(int(np.argmax(back.ravel())), len(interior))
        fail(f"word {words[w + 1]} moves an interior point into the fundamental box",
             interior[p])
    enumerated = len(model._tree(model.word_bound).words)
    return ValidationReport(residuals=res, words_checked=len(words) - 1,
                            words_truncated=max(0, enumerated - VALIDATE_WORD_CAP))


def _check_inverses(model: QuotientModel) -> dict:
    """``validate``'s first check, run first by every count, verdict and holonomy:
    after the singular-record check (``_letters``), each declared inverse must undo
    its map within ACTION_TOL on validate's factor grid.  The outcome is computed
    once per model, the residuals and the first failure alike; each call returns
    a fresh dict (``validate`` adds its own rows) or raises the same text."""
    model._letters  # a singular affine record is refused first
    if model._inverse_memo is None:
        grids = [pg.grid_points(f.domain_box, VALIDATE_PER_AXIS)
                 for f in (model.dtp.f1, model.dtp.f2)]
        res, failure = {}, None
        for gen in model.generators:
            rows = [(name, x, _row_max(fm(fm(x, 1), -1) - x))
                    for name, fm, x in (("phi", gen.phi, grids[0]), ("psi", gen.psi, grids[1]))]
            res[f"{gen.name}:inverse"] = float(max(resid.max() for _, _, resid in rows))
            for name, x, resid in rows:
                bad = resid > ACTION_TOL
                if failure is None and bad.any():
                    failure = (f"generator {gen.name}: declared inverse of {name} fails "
                               f"at sample {x[int(np.argmax(bad))]}")
        model._inverse_memo = res, failure
    res, failure = model._inverse_memo
    if failure is not None:
        raise InvalidAction(failure)
    return dict(res)


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
            ck._fail_at(cols.T, ~np.isfinite(block), f"non-finite {dtp.assembled._name} entries at")
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
    factor's own chain along it (``_factor_jacobian``: phi for F1, psi for
    F2).
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
                J = model._factor_jacobian(foliation, word, ahead[n][s])
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
    words, moved = model._orbit(word_bound, reps)
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
    words, cands = model._orbit(wb, rep0)
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
    words, moved = model._orbit(wb, rep0)
    loops = {}
    for i in (1, 2):
        other = model.dtp.slot(3 - i)
        closes = model.same_point(moved[1:, other], rep0[other])
        loops[i] = [w for w, hit in zip(words[1:], closes.tolist()) if hit]
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
