"""Batched quotient machinery against one-point references.

``FactorMap``, ``QuotientModel.apply_gen/apply_word/in_box`` take a
``(P, n)`` batch; the word enumeration expands a whole level with one call
per (generator, sign), the orbit lookups move their points by the enumerated
words in batches, ``leaf_trace`` steps ahead in chunks and ``validate``
checks whole grids.  Every batched result must equal the one-point result
exactly: the maps here are elementwise, so a row of a batch sees the same
arithmetic as the point alone.  The references below (node-by-node search,
step-by-step trace, the hand-rolled difference quotient)
are the one-point algorithms, kept here as oracles.
"""

import functools
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpquot import cli
from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import scenario
from warpquot.chartkit import MetricField, ScalarField
from warpquot.errors import InvalidAction, NumericsError


# ---------------------------------------------------------------------------
# models: the quotient fixtures and scenario files with formula generators

def _line(name, coord, box):
    return {"name": name, "dim": 1, "coords": [coord], "metric": "euclidean", "box": [box]}


def _gen(name, phi, phi_inv, psi, psi_inv):
    return {"name": name, "phi": [phi], "phi_inv": [phi_inv], "psi": [psi], "psi_inv": [psi_inv]}


SCENARIO_FILES = {
    "file-skewed-q3": {
        "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [0.0, 1.0])],
        "warps": {"lam1": "1", "lam2": "1"},
        "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                       _gen("b", "x + 1/3", "x - 1/3", "y + 1", "y - 1")],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
    },
    "file-mobius": {
        "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [-1.0, 1.0])],
        "warps": {"lam1": "1", "lam2": "1"},
        "generators": [_gen("a", "x + 1", "x - 1", "-y", "-y")],
        "fundamental_box": [[0.0, 1.0], [-1e9, 1e9]],
    },
    "file-warped-torus": {
        "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [0.0, 1.0])],
        "warps": {"lam1": "1", "lam2": "1 + 0.3*sin(2*pi*x)"},
        "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                       _gen("b", "x", "x", "y + 1", "y - 1")],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
    },
    # warps varying along their own leaves, so trace speeds vary step by step
    "file-twisted-torus": {
        "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [0.0, 1.0])],
        "warps": {"lam1": "1 + 0.3*sin(2*pi*x)", "lam2": "1 + 0.2*cos(2*pi*y) + 0.1*sin(2*pi*x)"},
        "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                       _gen("b", "x", "x", "y + 1", "y - 1")],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
    },
}



def _level_twin(data):
    """The same group with ``0*sin(...)`` added to every map formula: no map
    is affine to the recognizer, so the model takes the level path and FD
    Jacobians."""
    twin = json.loads(json.dumps(data))
    coords = [f["coords"][0] for f in twin["factors"]]
    for gen in twin["generators"]:
        for key, coord in (("phi", coords[0]), ("phi_inv", coords[0]),
                           ("psi", coords[1]), ("psi_inv", coords[1])):
            gen[key] = [f"{e} + 0*sin({coord})" for e in gen[key]]
    return twin


SCENARIO_FILES.update({f"{name}-level": _level_twin(SCENARIO_FILES[name])
                       for name in ("file-skewed-q3", "file-mobius", "file-warped-torus")})

MAKERS = {
    "mobius": fx.mobius_model,
    "flat-torus": fx.flat_torus_model,
    "skewed-torus": fx.skewed_torus_model,
    "example1": fx.example1_model,
    **{name: (lambda data=data: scenario.parse_scenario(dict(data)).model)
       for name, data in SCENARIO_FILES.items()},
}
MODELS = {name: make() for name, make in MAKERS.items()}


def _points(model, count=25, seed=0, spread=2.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread, size=(count, model.dtp.n))


def _words(model):
    names = [g.name for g in model.generators]
    words = [(), ((names[0], 1),), ((names[0], -1), (names[-1], -1)),
             tuple((names[k % len(names)], (-1) ** k) for k in range(4))]
    return words + [qt.word_inverse(w) for w in words]


# ---------------------------------------------------------------------------
# one-point references

def ref_key(x):
    return tuple(np.round(np.asarray(x, dtype=float) / qt._ROUND).astype(np.int64))


def ref_in_box(model, x):
    lo, hi = model.fundamental_box[:, 0], model.fundamental_box[:, 1]
    return bool(np.all(x >= lo - model.ident_tol) and np.all(x < hi - model.ident_tol))


def ref_bfs(model, start, accept, max_len):
    """Node-by-node breadth-first search, each child the start moved by its
    word (``apply_word``): by the word's affine record on an affine model,
    letter by letter otherwise."""
    start = np.asarray(start, dtype=float)
    if accept(start):
        return start, ()
    frontier = [()]
    seen = {ref_key(start)}
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for gen in model.generators:
                for sign in (1, -1):
                    if w and w[-1] == (gen.name, -sign):
                        continue
                    w2 = w + ((gen.name, sign),)
                    q = model.apply_word(w2, start)
                    key = ref_key(q)
                    if key in seen:
                        continue
                    seen.add(key)
                    if accept(q):
                        return q, w2
                    nxt.append(w2)
        frontier = nxt
    return None


def ref_record(model, word):
    """The affine record (A, b) of a word: the block-diagonal records of its
    letters composed onto (I, 0) left to right, every sum a Python loop in
    index order."""
    n = model.dtp.n
    A = np.eye(n).tolist()
    b = [0.0] * n
    for name, sign in word:
        gen = model.by_name[name]
        Am, bm = np.zeros((n, n)), np.zeros(n)
        for fm, s in ((gen.phi, model.dtp.slot1), (gen.psi, model.dtp.slot2)):
            Am[s, s], bm[s] = fm.record[0 if sign > 0 else 1]
        Am, bm = Am.tolist(), bm.tolist()
        A = [[functools.reduce(operator.add, [Am[i][j] * A[j][k] for j in range(n)])
              for k in range(n)] for i in range(n)]
        b = [functools.reduce(operator.add, [Am[i][j] * b[j] for j in range(n)]) + bm[i]
             for i in range(n)]
    return np.array(A), np.array(b)


def ref_record_image(A, b, x):
    """A x + b for one point, each sum a Python loop in index order."""
    n = len(b)
    return np.array([functools.reduce(operator.add, [A[i, j] * x[j] for j in range(n)]) + b[i]
                     for i in range(n)])


def ref_canonical_rep(model, x):
    return ref_bfs(model, x, lambda q: ref_in_box(model, q), model.word_bound)


def ref_enumerate_words(model, max_len):
    lo, hi = model.fundamental_box.T
    near = np.clip(0.0, lo, hi)
    probe = 0.5 * (np.maximum(lo, near - 5.0) + np.minimum(hi, near + 5.0))
    probe2 = probe + 0.1 * np.arange(1, model.dtp.n + 1)
    words = [()]
    frontier = [((), probe, probe2)]
    seen = {(ref_key(probe), ref_key(probe2))}
    for _ in range(max_len):
        nxt = []
        for w, p, q in frontier:
            for gen in model.generators:
                for sign in (1, -1):
                    if w and w[-1] == (gen.name, -sign):
                        continue
                    p2, q2 = model.apply_gen(gen, sign, p), model.apply_gen(gen, sign, q)
                    key = (ref_key(p2), ref_key(q2))
                    if key in seen:
                        continue
                    seen.add(key)
                    words.append(w + ((gen.name, sign),))
                    nxt.append((w + ((gen.name, sign),), p2, q2))
        frontier = nxt
    return words


def ref_leaf_trace(model, x0, foliation, arc_budget=8.0, logs=None):
    """The trace along +e alone, closed or open.  ``logs``, when given,
    receives the walk's step log (see ``ref_walk``)."""
    x0 = np.asarray(x0, dtype=float)
    direction = model.dtp.embed(foliation, np.ones(1))
    walks = [] if logs is None else logs
    walks.append([])
    return ref_walk(model, x0, direction, arc_budget, log=walks[-1])


def ref_walk(model, x0, direction, arc_budget, step=0.01, log=None):
    """One step per iteration: one-point speed, every step reduced by search,
    and the closure projected onto the leaf's coordinate line.  ``log``, when
    given, receives (left the box, closure tried) for every step."""
    g = model.dtp.assembled
    cur, arc, pts, left_start = x0.copy(), 0.0, [(0.0, x0.copy())], False
    log = [] if log is None else log
    while arc < arc_budget:
        speed = float(np.sqrt(abs(ck.inner_product(g, cur, direction, direction))))
        nxt_up = cur + step * direction
        log.append((not ref_in_box(model, nxt_up), False))
        rep, word = ref_canonical_rep(model, nxt_up)
        if word:
            direction = model.word_jacobian(word, nxt_up) @ direction
        arc += step * speed
        pts.append((arc, rep))
        cur = rep
        gap = float(np.max(np.abs(rep - x0)))
        proximity = 2.0 * step * max(1.0, speed)
        if not left_start:
            left_start = gap > 1.5 * proximity
        elif gap <= proximity:
            log[-1] = (log[-1][0], True)
            delta = min(max((x0 - cur) @ direction / (direction @ direction), -2 * step), 2 * step)
            closure = ref_canonical_rep(model, cur + delta * direction)[0]
            if model.same_point(closure, x0):
                return "closed", arc + delta * speed, pts
    return "open-within-budget", arc, pts


def ref_chunks(log):
    """The steps taken in each chunk of a walk with this step log: a chunk
    ends after a step that leaves the box or after _TRACE_CHUNK steps, and
    the next one starts only when the walk goes on."""
    sizes = [0]
    for i, (exited, _) in enumerate(log):
        sizes[-1] += 1
        if (exited or sizes[-1] == qt._TRACE_CHUNK) and i < len(log) - 1:
            sizes.append(0)
    return sizes


def ref_fd_jacobian(fn, x):
    """The hand-rolled central difference FactorMap.jac used to run, with
    each stencil point passed to the callback as a batch of one."""
    m = x.shape[0]
    cols = []
    for j in range(m):
        h = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros(m)
        e[j] = h
        cols.append((fn((x + e)[:, None])[:, 0] - fn((x - e)[:, None])[:, 0]) / (2 * h))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# batch == per row: group action

@pytest.mark.parametrize("name", sorted(MODELS))
def test_factor_maps_batch_equals_rows(name):
    model = MODELS[name]
    X = _points(model)
    for gen in model.generators:
        for fm, cols in ((gen.phi, model.dtp.slot1), (gen.psi, model.dtp.slot2)):
            pts = np.ascontiguousarray(X[:, cols])
            for sign in (1, -1):
                batch = fm(pts, sign)
                assert batch.shape == pts.shape
                assert np.array_equal(batch, np.stack([fm(p, sign) for p in pts]))
                jac = fm.jac(pts, sign)
                assert np.array_equal(jac, np.stack([fm.jac(p, sign) for p in pts]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_group_action_batch_equals_rows(name):
    model = MODELS[name]
    X = _points(model, seed=1)
    for gen in model.generators:
        for sign in (1, -1):
            assert np.array_equal(model.apply_gen(gen, sign, X),
                                  np.stack([model.apply_gen(gen, sign, p) for p in X]))
            assert np.array_equal(model.gen_jacobian(gen, sign, X),
                                  np.stack([model.gen_jacobian(gen, sign, p) for p in X]))
    words = _words(model)
    for w in words:
        assert np.array_equal(model.apply_word(w, X), np.stack([model.apply_word(w, p) for p in X]))
        # the empty word too: its differential is the identity at every point
        assert np.array_equal(model.word_jacobian(w, X),
                              np.stack([model.word_jacobian(w, p) for p in X]))
    if model._letters is not None:
        # an affine model moves a point by the word's record, as composed
        # letter by letter in the reference
        for w in words:
            A, b = ref_record(model, w)
            assert np.array_equal(model.word_jacobian(w, X), np.broadcast_to(A, (len(X),) + A.shape))
            assert np.array_equal(model.apply_word(w, X),
                                  np.stack([ref_record_image(A, b, p) for p in X]))
    inside = model.in_box(X)
    assert inside.dtype == bool and inside.shape == (len(X),)
    assert inside.tolist() == [ref_in_box(model, p) for p in X]
    assert model.in_box(X[0]) is ref_in_box(model, X[0])


def test_affine_broadcasts_offset_over_batch():
    fm = qt.FactorMap.affine([[2.0, 0.0], [0.0, -1.0]], [0.5, 3.0])
    X = np.random.default_rng(7).uniform(-2.0, 2.0, size=(6, 2))
    assert np.array_equal(fm(X), X * [2.0, -1.0] + [0.5, 3.0])
    assert np.array_equal(fm.jac(X), np.broadcast_to([[2.0, 0.0], [0.0, -1.0]], (6, 2, 2)))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_affine_batch_equals_rows_bit_for_bit(m):
    # A x is summed in a fixed order: a BLAS product sums in an order that
    # depends on the batch size, so a point alone would round differently
    rng = np.random.default_rng(m)
    for _ in range(20):
        A = rng.normal(size=(m, m)) + m * np.eye(m)
        b = rng.normal(size=m)
        fm = qt.FactorMap.affine(A, b)
        X = rng.uniform(-3.0, 3.0, size=(33, m))
        for sign in (1, -1):
            batch = fm(X, sign)
            assert np.array_equal(batch, np.stack([fm(p, sign) for p in X]))
        assert np.allclose(fm(X), X @ A.T + b, rtol=1e-14, atol=1e-14)
        assert np.allclose(fm(X, -1), np.linalg.solve(A, (X - b).T).T, rtol=1e-12, atol=1e-12)


def test_factor_map_checks_its_shape_at_one_point():
    # a 1-dimensional map that returns a 2-vector is refused on one point as on a batch
    fm = qt.FactorMap(apply=lambda x: np.stack([x[0] + 1.0, 0.0 * x[0]]), inverse=lambda x: x)
    with pytest.raises(NumericsError, match="factor map returned shape"):
        fm(np.array([0.5]))
    with pytest.raises(NumericsError, match="factor map returned shape"):
        fm(np.array([[0.5], [1.5]]))


def test_factor_map_jacobian_checks_its_shape_at_one_point():
    fm = qt.FactorMap(apply=lambda x: x + 1.0, inverse=lambda x: x - 1.0,
                      jacobian=lambda x: np.ones((1, 2) + np.shape(x)[1:]))
    with pytest.raises(NumericsError, match="factor map jacobian returned shape"):
        fm.jac(np.array([0.5]))
    with pytest.raises(NumericsError, match="factor map jacobian returned shape"):
        fm.jac(np.array([[0.5], [1.5]]))


# ---------------------------------------------------------------------------
# FactorMap.jac: central_diff keeps the old difference quotient bit for bit

def _nonlinear_map():
    return scenario._build_factor_map(["u + 0.1*sin(v)", "v*exp(0.05*u)"],
                                      ["u - 0.1*sin(v*exp(-0.05*u))", "v*exp(-0.05*u)"],
                                      ["u", "v"], "test")


@pytest.mark.parametrize("name", ["file-skewed-q3-level", "file-mobius-level",
                                  "file-warped-torus-level"])
def test_fd_jacobian_bit_identical_to_loop(name):
    model = MODELS[name]
    X = _points(model, 9, seed=2)
    for gen in model.generators:
        for fm, cols in ((gen.phi, model.dtp.slot1), (gen.psi, model.dtp.slot2)):
            assert fm.jacobian is None and fm.record is None
            for p in X[:, cols]:
                for sign, fn in ((1, fm.apply), (-1, fm.inverse)):
                    assert np.array_equal(fm.jac(p, sign), ref_fd_jacobian(fn, p))


def test_fd_jacobian_bit_identical_two_dimensional():
    fm = _nonlinear_map()
    X = np.random.default_rng(5).uniform(-3.0, 3.0, size=(11, 2))
    for sign, fn in ((1, fm.apply), (-1, fm.inverse)):
        ref = np.stack([ref_fd_jacobian(fn, p) for p in X])
        assert np.array_equal(np.stack([fm.jac(p, sign) for p in X]), ref)
        assert np.array_equal(fm.jac(X, sign), ref)
        assert np.array_equal(fm(X, sign), np.stack([fm(p, sign) for p in X]))
    # the difference quotient is a Jacobian: d/du (u + 0.1 sin v) = 1
    assert np.allclose(fm.jac(X)[:, 0, 0], 1.0, atol=1e-8)


# ---------------------------------------------------------------------------
# orbit searches == the node-by-node search

@pytest.mark.parametrize("name", sorted(MODELS))
def test_canonical_rep_matches_node_by_node_search(name):
    model = MODELS[name]
    X = _points(model, 30, seed=3, spread=3.0)
    for p in X:
        rep, word = model.canonical_rep(p)
        ref_rep, ref_word = ref_canonical_rep(model, p)
        assert word == ref_word and np.array_equal(rep, ref_rep)
    found = model._searches(X, model.in_box, model.word_bound)
    for p, (rep, word) in zip(X, found):
        ref_rep, ref_word = ref_canonical_rep(model, p)
        assert word == ref_word and np.array_equal(rep, ref_rep)


def test_searches_report_misses_per_start():
    model = fx.flat_torus_model(word_bound=2)
    found = model._searches(np.array([[7.5, 0.2], [1.5, 0.2], [0.3, 0.3]]), model.in_box, 2)
    assert found[0] is None and ref_canonical_rep(model, [7.5, 0.2]) is None
    assert found[1][1] == (("a", -1),)
    assert found[2][1] == ()


@pytest.mark.parametrize("points", [1, 7, 40])
def test_searches_in_bounded_batches_match_node_by_node_search(monkeypatch, points):
    # at most `points` moved points per batch: the words are taken a few at a
    # time, and the starts found in one batch leave the next
    monkeypatch.setattr(qt, "_SEARCH_POINTS", points)
    model = MODELS["skewed-torus"]
    X = np.vstack([_points(model, 12, seed=6, spread=4.0), [[40.0, 0.3]]])
    found = model._searches(X, model.in_box, model.word_bound)
    for p, hit in zip(X, found):
        want = ref_canonical_rep(model, p)
        assert (hit is None) == (want is None)
        if want is not None:
            assert hit[1] == want[1] and np.array_equal(hit[0], want[0])
    assert found[-1] is None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_find_closing_word_matches_node_by_node_search(name):
    model = MODELS[name]
    X = _points(model, 6, seed=4, spread=0.9)
    for p in X:
        for w in _words(model)[1:]:
            end = model.apply_word(w, p)
            want = ref_bfs(model, end, lambda q: bool(np.max(np.abs(q - p)) <= model.ident_tol),
                           model.word_bound)
            assert model.find_closing_word(end, p) == want[1]


def ref_check_distinct(model, reps, word_bound):
    """The InvalidAction text for the first pair (by j, then i < j) that a
    node-by-node search from reps[i] identifies with reps[j], or None."""
    for j in range(1, len(reps)):
        for i in range(j):
            hit = ref_bfs(model, reps[i],
                          lambda q, t=reps[j]: bool(np.max(np.abs(q - t)) <= model.ident_tol),
                          word_bound)
            if hit is not None:
                return f"witnesses {i} and {j} are identified by word {hit[1]}"
    return None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_check_distinct_matches_node_by_node_search(name):
    model = MODELS[name]
    p, q = _points(model, 2, seed=5, spread=0.9)
    words = _words(model)
    cases = [[p, q], [p, p], [q, model.apply_word(words[2], q)],
             [p, q, model.apply_word(words[3], q), model.apply_word(words[1], p)],
             [p, q] + [model.apply_word(w, np.array([9.0, 9.0])) for w in words[1:3]]]
    raised = 0
    for reps in cases:
        want = ref_check_distinct(model, reps, model.word_bound)
        if want is None:
            qt._check_distinct(model, reps, model.word_bound)
            continue
        raised += 1
        with pytest.raises(InvalidAction) as info:
            qt._check_distinct(model, reps, model.word_bound)
        assert str(info.value) == want
    assert raised >= 3


@pytest.mark.parametrize("name", sorted(MODELS))
def test_enumerate_words_matches_node_by_node_search(name):
    model = MODELS[name]
    for max_len in (1, 4, 8):
        assert model.enumerate_words(max_len) == ref_enumerate_words(model, max_len)


# ---------------------------------------------------------------------------
# chunked leaf_trace == the step-by-step trace

TRACES = [
    ("skewed-torus", [0.0, 0.0], 1, 8.0), ("skewed-torus", [0.0, 0.0], 2, 8.0),
    ("skewed-torus", [0.3, 0.7], 2, 8.0), ("flat-torus", [5e-7, 0.3], 1, 8.0),
    ("mobius", [0.0, 0.0], 1, 8.0), ("mobius", [0.2, 0.5], 1, 8.0),
    ("mobius", [0.4, 0.5], 2, 8.0),        # open leaves: traced forward only
    ("mobius", [0.4, -0.5], 2, 8.0),
    ("example1", [0.0, 0.0], 1, 8.0), ("example1", [0.0, 1.0], 1, 6.0),
    ("file-skewed-q3", [0.1, 0.2], 2, 8.0), ("file-mobius", [0.7, -0.3], 1, 8.0),
    ("file-warped-torus", [0.37, 0.21], 1, 8.0), ("file-warped-torus", [0.37, 0.21], 2, 8.0),
    ("file-twisted-torus", [0.37, 0.21], 1, 8.0), ("file-twisted-torus", [0.81, 0.64], 2, 8.0),
]
# edge cases, each with the property of its walks it must show (see
# test_trace_edge_cases_show_their_edge)
EDGE_TRACES = {
    # budgets that run out inside a chunk, at constant and varying speeds
    ("mobius", (0.4, 0.5), 2, 0.305): "budget-mid-chunk",
    ("example1", (0.0, 1.0), 1, 1.237): "budget-mid-chunk",
    ("file-twisted-torus", (0.37, 0.21), 1, 0.305): "budget-mid-chunk",
    # the step that leaves the box is a closure candidate, and closes
    ("flat-torus", (0.0, 0.3), 1, 8.0): "closure-on-exit",
    # basepoints on the edges of the box's ident_tol band
    ("flat-torus", (-1e-7, 0.3), 1, 8.0): "lower-edge",
    ("example1", (1 - 2e-7, 0.0), 1, 8.0): "upper-edge",
    ("mobius", (1 - 2e-7, 0.5), 1, 8.0): "upper-edge",
}
TRACES += [(name, list(x0), foliation, budget)
           for name, x0, foliation, budget in EDGE_TRACES]
# box exits that turn the direction by the traced factor's maps alone: FD
# Jacobians on the level twins, h's on example1's F1 leaves
TRACES += [
    ("file-mobius-level", [0.7, -0.3], 1, 8.0), ("file-skewed-q3-level", [0.1, 0.2], 1, 8.0),
    ("file-skewed-q3-level", [0.1, 0.2], 2, 8.0), ("file-warped-torus-level", [0.37, 0.21], 2, 8.0),
    ("example1", [0.5, 1.5], 1, 8.0), ("example1", [0.2, -0.4], 1, 8.0),
]


@pytest.mark.parametrize("name,x0,foliation,budget", TRACES)
def test_leaf_trace_bit_identical_to_step_loop(name, x0, foliation, budget):
    model = MODELS[name]
    trace = qt.leaf_trace(model, x0, foliation, arc_budget=budget)
    status, length, pts = ref_leaf_trace(model, x0, foliation, arc_budget=budget)
    assert trace.status == status
    assert trace.length == length
    assert len(trace.points) == len(pts)
    for (arc, p), (ref_arc, ref_p) in zip(trace.points, pts):
        assert arc == ref_arc and np.array_equal(p, ref_p)


@pytest.mark.parametrize("name,x0,foliation,budget", TRACES)
def test_leaf_trace_calls_per_chunk(name, x0, foliation, budget, monkeypatch):
    # one metric evaluation per chunk, and a reduction only at a box exit or
    # a closure candidate, counted on the step-by-step walk's log
    model = MODELS[name]
    logs = []
    ref_leaf_trace(model, x0, foliation, arc_budget=budget, logs=logs)
    speeds, reps = [], []
    leaf_speeds, canonical_rep = qt._leaf_speeds, qt.QuotientModel.canonical_rep
    monkeypatch.setattr(qt, "_leaf_speeds",
                        lambda dtp, foliation, xs, d: speeds.append(len(xs))
                        or leaf_speeds(dtp, foliation, xs, d))
    monkeypatch.setattr(qt.QuotientModel, "canonical_rep",
                        lambda self, x: reps.append(x) or canonical_rep(self, x))
    qt.leaf_trace(model, x0, foliation, arc_budget=budget)
    assert len(speeds) == sum(len(ref_chunks(log)) for log in logs)
    assert max(speeds) <= qt._TRACE_CHUNK
    assert len(reps) == sum(exited + tried for log in logs for exited, tried in log)


@pytest.mark.parametrize("name,x0,foliation,budget", [("example1", [0.0, 1.0], 1, 6.0),
                                                       ("mobius", [0.4, 0.5], 2, 8.0)])
def test_an_open_leaf_is_traced_forward_only(name, x0, foliation, budget, monkeypatch):
    # one walk from the basepoint, so no point sits at a negative arc length
    walks = []
    trace = qt._trace
    monkeypatch.setattr(qt, "_trace", lambda *args: walks.append(args) or trace(*args))
    got = qt.leaf_trace(MODELS[name], x0, foliation, arc_budget=budget)
    assert got.status == "open-within-budget" and len(walks) == 1
    arcs = [arc for arc, _ in got.points]
    assert arcs[0] == 0.0 and np.array_equal(got.points[0][1], x0)
    assert all(b > a for a, b in zip(arcs, arcs[1:]))


def _counting(obj, attr, counts, key):
    """Wrap the callback obj.attr to add the points of each batch it gets to counts[key]."""
    fn = getattr(obj, attr)
    setattr(obj, attr, lambda c: counts.update({key: counts[key] + c.shape[-1]}) or fn(c))


def test_leaf_trace_reads_only_the_traced_factor():
    # an F1 trace of example1 evaluates neither lam2 (its costly warp) nor
    # psi's Jacobian (an h^-1 solve), and an F2 trace no lam1
    model = MAKERS["example1"]()
    counts = {"lam2": 0, "psi jacobian": 0}
    _counting(model.dtp.lam2, "eval", counts, "lam2")
    _counting(model.generators[0].psi, "jacobian", counts, "psi jacobian")
    qt.leaf_trace(model, [0.0, 0.0], 1)
    qt.leaf_trace(model, [0.0, 1.0], 1, arc_budget=6.0)
    assert counts == {"lam2": 0, "psi jacobian": 0}
    model = MAKERS["file-twisted-torus"]()
    counts = {"lam1": 0}
    _counting(model.dtp.lam1, "eval", counts, "lam1")
    qt.leaf_trace(model, [0.81, 0.64], 2)
    assert counts == {"lam1": 0}


@pytest.mark.parametrize("case", sorted(EDGE_TRACES), ids=str)
def test_trace_edge_cases_show_their_edge(case):
    name, x0, foliation, budget = case
    model = MODELS[name]
    logs = []
    status = ref_leaf_trace(model, x0, foliation, arc_budget=budget, logs=logs)[0]
    edge = EDGE_TRACES[case]
    if edge == "budget-mid-chunk":  # the last chunk stops short, inside the box
        assert status == "open-within-budget"
        assert all(ref_chunks(log)[-1] < qt._TRACE_CHUNK and not log[-1][0] for log in logs)
    elif edge == "closure-on-exit":
        assert status == "closed" and logs[0][-1] == (True, True)
    elif edge == "lower-edge":  # the band's lowest x
        assert x0[0] == model.fundamental_box[0, 0] - model.ident_tol
        assert model.in_box(np.array(x0))
    else:  # in the box, and the first step leaves it
        assert model.in_box(np.array(x0)) and logs[0][0][0]


# ---------------------------------------------------------------------------
# properties

WORD_MODELS = ["skewed-torus", "mobius", "example1", "file-skewed-q3", "file-twisted-torus"]
coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_canonical_rep_idempotent_on_batches(name, pts):
    model = MODELS[name]
    X = np.array(pts, dtype=float)
    found = model._searches(X, model.in_box, model.word_bound)
    for p, hit in zip(X, found):
        assert hit is not None
        rep, word = model.canonical_rep(p)
        assert np.array_equal(hit[0], rep) and hit[1] == word
    reps = np.stack([hit[0] for hit in found])
    assert model.in_box(reps).all()
    again = model._searches(reps, model.in_box, model.word_bound)
    for rep, (rep2, word2) in zip(reps, again):
        assert word2 == () and np.array_equal(rep2, rep)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(WORD_MODELS),
       letters=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=6),
       pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_word_then_inverse_is_identity(name, letters, pts):
    model = MODELS[name]
    names = [g.name for g in model.generators]
    word = tuple((names[k % len(names)], s) for k, s in letters)
    X = np.array(pts, dtype=float)
    back = model.apply_word(qt.word_inverse(word), model.apply_word(word, X))
    assert back.shape == X.shape
    assert np.max(np.abs(back - X)) <= 1e-9


# intersection counts at word bound 4, from any basepoint of the orbit: drawn
# uniformly in the box or within 1e-6 of its edges, then moved by a deck word
INVARIANT_COUNTS = {
    "flat-torus": (fx.flat_torus_model(word_bound=4), 1),
    "skewed-torus": (fx.skewed_torus_model(word_bound=4), 2),
    "mobius-central": (fx.mobius_model(word_bound=4), 1),       # y0 = 0
    "mobius-off-central": (fx.mobius_model(word_bound=4), 2),   # |y0| in [0.1, 0.9]
}
unit = st.one_of(st.floats(0.0, 1.0), st.floats(-1e-6, 1e-6), st.floats(1.0 - 1e-6, 1.0 + 1e-6))


@pytest.mark.parametrize("case", sorted(INVARIANT_COUNTS))
@settings(max_examples=200, deadline=None)
@given(u=unit, v=st.floats(0.0, 1.0) | unit, side=st.sampled_from([1, -1]),
       letters=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=2))
@example(u=0.99999995, v=0.7, side=-1, letters=[])   # reduces to x = -5e-8, y > 0
@example(u=0.9999998, v=0.7, side=-1, letters=[])
def test_intersection_count_does_not_depend_on_the_basepoint(case, u, v, side, letters):
    model, want = INVARIANT_COUNTS[case]
    if case == "mobius-central":
        x0 = [u, 0.0]
    elif case == "mobius-off-central":
        x0 = [u, side * (0.1 + 0.8 * min(max(v, 0.0), 1.0))]
    else:
        x0 = [u, v]
    names = [g.name for g in model.generators]
    word = tuple((names[k % len(names)], sign) for k, sign in letters)
    x0 = model.apply_word(word, np.array(x0))
    assert qt.leaf_intersection_count(model, x0).count == want, (case, x0)


def ref_intersections(model, x0, word_bound):
    """The count from the leaf-1 side, one word at a time: every tree word's
    inverse gives (phi_w^-1(a0), b0), reduced by a node-by-node search; a
    candidate that is the same point as a kept one is skipped, and a kept
    one is paired with (a0, psi_w(b0)).  (count, lower_bound_only,
    witnesses)."""
    rep0 = model.canonical_rep(x0)[0]
    s1, s2 = model.dtp.slot1, model.dtp.slot2
    words = model.enumerate_words(word_bound)
    closes = {i: any(model.same_point(model.apply_word(w, rep0)[model.dtp.slot(3 - i)],
                                      rep0[model.dtp.slot(3 - i)]) for w in words[1:])
              for i in (1, 2)}
    kept, witnesses = [], []
    for w in words:
        on_leaf1 = model.apply_word(qt.word_inverse(w), rep0)
        on_leaf1[s2] = rep0[s2]
        hit = ref_canonical_rep(model, on_leaf1)
        if hit is None or any(model.same_point(hit[0], q) for q in kept):
            continue
        kept.append(hit[0])
        on_leaf2 = model.apply_word(w, rep0)
        on_leaf2[s1] = rep0[s1]
        witnesses.append((on_leaf1, on_leaf2))
    return len(witnesses), not (closes[1] and closes[2]), witnesses


@pytest.mark.parametrize("name", sorted(MODELS))
def test_intersections_match_the_leaf1_side(name):
    # the count reduces the leaf-2 candidates (a0, psi_w(b0)); each is one
    # point of M with the leaf-1 candidate of its word, so the kept words,
    # the count and the witnesses are the reference's, bit for bit
    model = MODELS[name]
    for x0 in ([0.31, 0.27], [0.83, 0.61], [0.05, 0.95], [1.7, -0.4]):
        report = qt.leaf_intersection_count(model, x0, word_bound=4)
        count, lower_bound_only, witnesses = ref_intersections(model, x0, 4)
        assert (report.count, report.lower_bound_only) == (count, lower_bound_only)
        for (p1, p2), (q1, q2) in zip(report.witnesses, witnesses, strict=True):
            assert np.array_equal(p1, q1) and np.array_equal(p2, q2)


# ---------------------------------------------------------------------------
# witnesses identified by the empty word are one intersection

@pytest.mark.parametrize("x0", [5e-7, 1.5e-6])
def test_bucket_edge_basepoints_count_once(x0):
    flat = fx.flat_torus_model()
    assert qt.leaf_intersection_count(flat, [x0, 0.3]).count == 1
    verdict = qt.decomposition_check(flat, [x0, 0.3], fx.HOLONOMY_LOOPS["flat-torus"])
    assert verdict.tag == "global-doubly-warped-product" and verdict.reason.kind == "none"
    skewed = qt.leaf_intersection_count(fx.skewed_torus_model(), [x0, 0.3])
    assert skewed.count == 2
    reps = sorted(float(fx.skewed_torus_model().canonical_rep(w)[0][0])
                  for w, _ in skewed.witnesses)
    assert reps == pytest.approx([x0, x0 + 0.5], abs=1e-9)
    assert qt.leaf_intersection_count(fx.mobius_model(), [x0, 0.0]).count == 1


def test_mobius_verdict_does_not_depend_on_the_box_edge():
    # x0 just below 1 reduces to x = -5e-8 with y = +0.66: the open vertical
    # leaf must still reach the second intersection at y = -0.66; a basepoint
    # next to the edge of the y range needs no step beyond it
    model = fx.mobius_model(word_bound=4)
    for x0 in ([0.99999995, -0.66], [0.9999998, -0.66], [0.5, -1e9 + 1]):
        verdict = qt.decomposition_check(model, x0, {1: [(("a", 1), ("a", 1))]})
        assert verdict.tag == "obstructed"
        assert (verdict.reason.kind, verdict.reason.count) == ("multiple-intersections", 2)
        assert verdict.intersections.lower_bound_only


def test_merge_keeps_a_raise_for_a_non_empty_word():
    # a box twice the fundamental domain holds two representatives of one
    # point: they are identified by the word a, which must still raise
    flat = fx.flat_torus_model()
    wide = qt.QuotientModel(flat.dtp, flat.generators, [[0.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidAction, match=r"witnesses 0 and 1 are identified by word \(\('a', 1\),\)"):
        qt._check_distinct(wide, [np.array([0.3, 0.2]), np.array([1.3, 0.2])], 4)
    qt._check_distinct(wide, [np.array([0.3, 0.2]), np.array([0.8, 0.2])], 4)
    # within ident_tol of each other: the same point, one pair or a batch
    assert wide.same_point([0.3, 0.2], [0.3 + 5e-8, 0.2]) is True
    assert wide.same_point([0.3, 0.2], [0.3 + 5e-7, 0.2]) is False
    near = wide.same_point(np.array([[0.3, 0.2], [0.3 + 5e-8, 0.2], [1.3, 0.2]]), [0.3, 0.2])
    assert near.tolist() == [True, True, False]


# ---------------------------------------------------------------------------
# validate: whole grids, first failing point named, the word cap reported

def _flat_dtp(lam1=None, lam2=None):
    f1 = pg.FactorManifold("line-x", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("line-y", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)
    return pg.assemble(f1, f2, lam1 or one, lam2 or one)


def _bump_at(p):
    """1 + a narrow bump at the grid point p: 1.5 there, 1 to rounding at the others."""
    return ScalarField(lambda x: 1.0 + 0.5 * np.exp(-((x[0] - p[0]) ** 2 + (x[1] - p[1]) ** 2) / 1e-4))


def _model(gen, dtp=None):
    return qt.QuotientModel(dtp or _flat_dtp(), [gen], [[0.0, 1.0], [0.0, 1.0]], word_bound=4)


GRID1 = pg.grid_points([[0.0, 1.0]], 4)
GRID = pg.grid_points([[0.0, 1.0], [0.0, 1.0]], 4)
PAD = qt.DEFAULT_IDENT_TOL
BOX_GRID = pg.grid_points([[-PAD, 1.0 + PAD], [-PAD, 1.0 + PAD]], 4, inset=0.0)
INTERIOR = pg.grid_points([[0.0, 1.0], [0.0, 1.0]], 4, inset=0.1)
SHIFT = qt.FactorMap.translation([5.0])
STAY = qt.FactorMap.translation([0.0])


def _fails_at(model, what, sample):
    with pytest.raises(InvalidAction, match=re.escape(what)) as info:
        qt.validate(model)
    assert str(info.value).endswith(f"at sample {np.asarray(sample)}")


def test_validate_control_broken_inverse():
    bad = GRID1[1, 0]
    phi = qt.FactorMap(apply=lambda x: x + 1.0,
                       inverse=lambda x: x - 1.0 + np.where(np.abs(x - 1.0 - bad) < 1e-9, 1e-3, 0.0))
    _fails_at(_model(qt.DeckGenerator("a", phi, STAY)), "declared inverse of phi fails", GRID1[1])


def test_validate_control_not_a_homothety():
    bad = GRID1[2, 0]
    phi = qt.FactorMap(apply=lambda x: x + 1.0, inverse=lambda x: x - 1.0,
                       jacobian=lambda x: (1.0 + np.where(np.abs(x - bad) < 1e-9, 0.1, 0.0))[None])
    _fails_at(_model(qt.DeckGenerator("a", phi, STAY)), "phi is not a homothety of factor 1",
              GRID1[2])


def test_validate_control_warp1_compat():
    dtp = _flat_dtp(lam1=_bump_at(GRID[6]))
    _fails_at(_model(qt.DeckGenerator("a", STAY, SHIFT), dtp), "lam1 o psi != lam1 / c1", GRID[6])


def test_validate_control_warp2_compat():
    dtp = _flat_dtp(lam2=_bump_at(GRID[9]))
    _fails_at(_model(qt.DeckGenerator("a", SHIFT, STAY), dtp), "lam2 o phi != lam2 / c2", GRID[9])


def test_validate_control_not_an_isometry():
    dtp = _flat_dtp(lam2=_bump_at(GRID[9]))
    gen = qt.DeckGenerator("a", SHIFT, STAY, homothety=False)
    _fails_at(_model(gen, dtp), "not an isometry of the product metric", GRID[9])


def test_validate_control_sampled_fixed_point():
    q = BOX_GRID[6]  # point reflection through one sample of the padded box
    gen = qt.DeckGenerator("a", qt.FactorMap.affine([[-1.0]], [2 * q[0]]),
                           qt.FactorMap.affine([[-1.0]], [2 * q[1]]))
    _fails_at(_model(gen), "generator a^1 has a sampled fixed point", q)


def test_validate_control_word_returns_interior_point():
    r = INTERIOR[6]  # point reflection through an interior sample, no box sample
    assert not any(np.array_equal(r, p) for p in BOX_GRID)
    gen = qt.DeckGenerator("a", qt.FactorMap.affine([[-1.0]], [2 * r[0]]),
                           qt.FactorMap.affine([[-1.0]], [2 * r[1]]))
    # r returns to itself; the first interior sample the reflection moves into
    # the box comes before it and is named
    into = [p for p in INTERIOR if np.all((2 * r - p >= -PAD) & (2 * r - p < 1.0 - PAD))]
    assert any(np.array_equal(r, p) for p in into)
    _fails_at(_model(gen), "word (('a', 1),) moves an interior point into the fundamental box",
              into[0])


def test_validate_control_group_without_a_fundamental_box():
    # x + 1, x + sqrt2, y + 1, y + sqrt3 generate a dense subgroup of the
    # translations: no word returns a sample to itself, but a^1 b^-1 (x shift
    # 1 - sqrt2) moves x = 0.63 to 0.22, inside the box
    shift = qt.FactorMap.translation
    gens = [qt.DeckGenerator("a", shift([1.0]), STAY),
            qt.DeckGenerator("b", shift([np.sqrt(2.0)]), STAY),
            qt.DeckGenerator("c", STAY, shift([1.0])),
            qt.DeckGenerator("d", STAY, shift([np.sqrt(3.0)]))]
    box = [[0.0, 1.0], [0.0, 1.0]]
    qt.validate(qt.QuotientModel(_flat_dtp(), gens, box, word_bound=1))  # one letter moves out
    model = qt.QuotientModel(_flat_dtp(), gens, box, word_bound=2)
    first = next(p for p in INTERIOR if p[0] + 1.0 - np.sqrt(2.0) >= 0.0)
    _fails_at(model, "word (('a', 1), ('b', -1)) moves an interior point into the fundamental box",
              first)


def test_validate_evaluates_the_unmoved_grids_once(monkeypatch):
    # on a two-generator model, each field at its own grid (g1, g2, lam1,
    # lam2 and the assembled g) and the padded-box grid are evaluated once,
    # not once per generator
    dtp = _flat_dtp(ScalarField.constant(1.0), ScalarField.constant(1.0))
    one, two = qt.FactorMap.translation([1.0]), qt.FactorMap.translation([2.0])
    # both factor maps of each generator move, so no moved grid equals a fixed one
    model = qt.QuotientModel(dtp, [qt.DeckGenerator("a", one, two),
                                   qt.DeckGenerator("b", two, one)],
                             [[0.0, 1.0], [0.0, 1.0]], word_bound=4)
    names = {id(dtp.f1.metric): ("g1", GRID1), id(dtp.f2.metric): ("g2", GRID1),
             id(dtp.assembled): ("g", GRID), id(dtp.lam1): ("lam1", GRID),
             id(dtp.lam2): ("lam2", GRID)}
    counts = dict.fromkeys(["g1", "g2", "g", "lam1", "lam2", "padded box"], 0)

    def log(field, x):
        name, grid = names[id(field)]
        if np.shape(x) == grid.shape and np.array_equal(x, grid):
            counts[name] += 1

    mat, value, grid_points = MetricField.mat, ScalarField.value, pg.grid_points
    monkeypatch.setattr(MetricField, "mat", lambda self, x: log(self, x) or mat(self, x))
    monkeypatch.setattr(ScalarField, "value", lambda self, x: log(self, x) or value(self, x))
    monkeypatch.setattr(pg, "grid_points", lambda box, per_axis, inset=pg.GRID_INSET: (
        counts.update({"padded box": counts["padded box"] + (inset == 0.0)})
        or grid_points(box, per_axis, inset)))
    report = qt.validate(model)
    assert sorted(report.residuals) == ["a:inverse", "a:isometry", "a:pullback-g1",
                                        "a:pullback-g2", "a:warp1-compat", "a:warp2-compat",
                                        "b:inverse", "b:isometry", "b:pullback-g1",
                                        "b:pullback-g2", "b:warp1-compat", "b:warp2-compat"]
    assert counts == dict.fromkeys(counts, 1)


def test_validate_clean_model_counts_words():
    report = qt.validate(fx.flat_torus_model())
    # reduced words of length <= 8 on Z^2, deduplicated by action: 2*8^2 + 2*8 + 1
    assert report.words_checked == 144 and report.words_truncated == 0


def test_validate_word_cap_is_reported(monkeypatch):
    monkeypatch.setattr(qt, "VALIDATE_WORD_CAP", 10)
    report = qt.validate(fx.flat_torus_model())
    assert report.words_checked == 9          # the empty word is not applied
    assert report.words_truncated == 145 - 10


def test_verify_all_reports_validation_counters(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["run", "flat-torus", "verify-all", "--out", str(out)]) == 0
    counters = json.loads(out.read_text())["results"]["quotient_validation"]
    assert counters == {"words_checked": 144, "words_truncated": 0}
