"""The word tree: orbit images from their parents' images, level-by-level searches.

``QuotientModel._orbit`` moves points by every enumerated word, each image
computed from its parent word's image by the last letter; ``_searches``
walks the same tree level by level.  Both must give exactly what the word
maps and a node-by-node breadth-first search give, on the quotient fixtures
and on scenario-file quotients whose maps are formula closures.  Call-count
guards pin the work: a reduction one letter away reads one level, and
verify-all computes the decomposition's orbit quantities once.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import scenario
from warpquot.chartkit import MetricField, ScalarField
from warpquot.errors import InvalidAction, NotALoop

from fixture_models import klein_bottle_model
from test_affine_records import _without_records


def _skewed(q):
    """R^2 / <(x + 1, y), (x + 1/q, y + 1)>, built from affine factor maps."""
    f1 = pg.FactorManifold("line-x", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("line-y", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)
    shift = qt.FactorMap.translation
    gens = [qt.DeckGenerator("a", shift([1.0]), shift([0.0])),
            qt.DeckGenerator("b", shift([1.0 / q]), shift([1.0]))]
    return qt.QuotientModel(pg.assemble(f1, f2, one, one), gens, [[0.0, 1.0], [0.0, 1.0]])


def _line(name, coord, box):
    return {"name": name, "dim": 1, "coords": [coord], "metric": "euclidean", "box": [box]}


def _gen(name, phi, phi_inv, psi, psi_inv):
    return {"name": name, "phi": [phi], "phi_inv": [phi_inv], "psi": [psi], "psi_inv": [psi_inv]}


def _skewed_file(q):
    """The skewed torus as a scenario file: formula generators, every orbit expectation."""
    verdict = ({"verdict": "global-doubly-warped-product"} if q == 1 else
               {"verdict": "obstructed", "verdict_reason": "multiple-intersections"})
    return {"name": f"skewed-torus-q{q}",
            "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [0.0, 1.0])],
            "warps": {"lam1": "1", "lam2": "1"},
            "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                           _gen("b", f"x + 1/{q}", f"x - 1/{q}", "y + 1", "y - 1")],
            "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
            "holonomy_loops": {"1": [[["a", 1]]], "2": [[["a", -1]] + [["b", 1]] * q]},
            "basepoint": [0.37, 0.21],
            "expect": {"classification": "direct-product", "intersections": q,
                       "holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]}, **verdict}}


WARPED_TORUS = {
    "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", [0.0, 1.0])],
    "warps": {"lam1": "1", "lam2": "1 + 0.3*sin(2*pi*x)", "lam2_dependency": "on-factor1-only"},
    "generators": [_gen("a", "x + 1", "x - 1", "y", "y"), _gen("b", "x", "x", "y + 1", "y - 1")],
    "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
}

MAKERS = {
    "flat-torus": fx.flat_torus_model,
    "mobius": fx.mobius_model,
    "klein-bottle": klein_bottle_model,
    "skewed-q1": lambda: _skewed(1),
    "skewed-q2": fx.skewed_torus_model,
    "skewed-q3": lambda: scenario.parse_scenario(_skewed_file(3)).model,
    "warped-torus": lambda: scenario.parse_scenario(dict(WARPED_TORUS)).model,
    "example1": fx.build_example1,
}
MODELS = {name: make() for name, make in MAKERS.items()}
LEVEL_MODELS = {name: _without_records(model) for name, model in MODELS.items()}

coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
starts = st.lists(st.tuples(coords, coords), min_size=1, max_size=5)


def ref_key(x):
    return tuple(np.round(np.asarray(x, dtype=float) / qt._ROUND).astype(np.int64))


def ref_bfs(model, start, accept, max_len):
    """Node-by-node breadth-first search from one start, each child the start
    moved by its word (``apply_word``: by the word's affine record on an
    affine model, letter by letter otherwise)."""
    start = np.asarray(start, dtype=float)
    if accept(start):
        return start, ()
    frontier, seen = [()], {ref_key(start)}
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for gen in model.generators:
                for sign in (1, -1):
                    if w and w[-1] == (gen.name, -sign):
                        continue
                    w2 = w + ((gen.name, sign),)
                    q = model.apply_word(w2, start)
                    if ref_key(q) in seen:
                        continue
                    seen.add(ref_key(q))
                    if accept(q):
                        return q, w2
                    nxt.append(w2)
        frontier = nxt
    return None


def _with_misses(model, pts):
    """The drawn starts, one inside the box and one that no word reaches."""
    box = model.fundamental_box
    inside = 0.5 * (box[:, 0] + np.minimum(box[:, 1], box[:, 0] + 1.0))
    return np.vstack([pts, inside, [40.0, 0.3]])


def _same_hits(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[1] == want[1] and np.array_equal(got[0], want[0])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), pts=starts)
def test_tree_images_equal_apply_word_bit_for_bit(name, pts):
    model = MODELS[name]
    X = np.array(pts, dtype=float)
    words, images = model._orbit(model.word_bound, X)
    assert words == model._tree(model.word_bound).words
    assert images.shape == (len(words),) + X.shape
    for w, img in zip(words, images):
        assert np.array_equal(img, model.apply_word(w, X))
    one = model._orbit(model.word_bound, X[0])[1]
    assert np.array_equal(one, images[:, 0])
    # a prefix of the breadth-first list holds its own parents
    for count in (1, 2, len(words) // 2, len(words) + 5):
        got = model._orbit(model.word_bound, X, count)
        assert got[0] == words[:count] and np.array_equal(got[1], images[:count])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), pts=starts)
def test_searches_equal_a_node_by_node_search(name, pts):
    model = MODELS[name]
    X = _with_misses(model, np.array(pts, dtype=float))
    found = model._searches(X, model.in_box, model.word_bound)
    for p, hit in zip(X, found):
        _same_hits(hit, ref_bfs(model, p, model.in_box, model.word_bound))
    assert found[-2][1] == () and found[-1] is None
    # a closing-word search from the drawn starts toward the first
    target = X[0]
    closing = model._searches(X, lambda q: model.same_point(q, target), model.word_bound)
    for p, hit in zip(X, closing):
        want = ref_bfs(model, p, lambda q: model.same_point(q, target), model.word_bound)
        _same_hits(hit, want)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), pts=starts, cap=st.sampled_from([1, 3, 17]))
def test_searches_under_a_small_point_cap_give_the_same_hits(name, pts, cap):
    model = MODELS[name]
    X = _with_misses(model, np.array(pts, dtype=float))
    want = model._searches(X, model.in_box, model.word_bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qt, "_SEARCH_POINTS", cap)
        got = model._searches(X, model.in_box, model.word_bound)
    for g, w in zip(got, want):
        _same_hits(g, w)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_smaller_bound_reads_the_prefix_of_the_larger_tree(monkeypatch, name):
    X = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 2))
    searched = MAKERS[name]()
    alone = searched._orbit(4, X)[1]
    model = MAKERS[name]()
    calls = []
    enumerate_words = qt.QuotientModel.enumerate_words

    def counted(self, max_len):
        calls.append(max_len)
        return enumerate_words(self, max_len)

    monkeypatch.setattr(qt.QuotientModel, "enumerate_words", counted)
    big, cut = model._orbit(8, X)[1], model._orbit(4, X)[1]
    assert calls == [8]
    words = model._tree(4).words
    assert words == searched._tree(4).words == model._tree(8).words[:len(words)]
    assert cut.shape == (len(words),) + X.shape
    assert cut.tobytes() == big[:len(words)].tobytes() == alone.tobytes()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), records=st.booleans(), pts=starts, data=st.data())
def test_a_span_of_rows_moves_each_point_as_apply_word_does(name, records, pts, data):
    # any level and any stop, on the record path and on the level path
    model = MODELS[name] if records else LEVEL_MODELS[name]
    X = np.array(pts, dtype=float)
    tree = model._tree(model.word_bound)
    edges = tree.edges
    level = data.draw(st.integers(0, len(edges) - 2))
    stop = data.draw(st.integers(edges[level], len(tree.words)))
    prev = None if not level else np.stack([model.apply_word(w, X)
                                            for w in tree.words[edges[level - 1]:edges[level]]])
    got = tree.images(model, X, level, prev, stop)
    assert got.shape == (stop - edges[level],) + X.shape
    for w, img in zip(tree.words[edges[level]:stop], got):
        assert img.tobytes() == model.apply_word(w, X).tobytes()


def _boost_model(box):
    """R^{1,1} x R / <(boost 1/2, z), (id, z + 1)>, a Z^2 group."""
    c, s = np.cosh(0.5), np.sinh(0.5)
    f1 = pg.FactorManifold("minkowski", MetricField.constant(np.diag([-1.0, 1.0])),
                           [[0.0, 1.0]] * 2)
    f2 = pg.FactorManifold("line-z", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)
    shift = qt.FactorMap.translation
    gens = [qt.DeckGenerator("a", qt.FactorMap.affine([[c, s], [s, c]], [0.0, 0.0]), shift([0.0])),
            qt.DeckGenerator("b", shift([0.0, 0.0]), shift([1.0]))]
    return qt.QuotientModel(pg.assemble(f1, f2, one, one), gens, box)


@pytest.mark.parametrize("box", [[[0.0, 1.0]] * 3, [[-1e9, 1e9]] * 3], ids=["unit", "1e9"])
def test_word_count_does_not_depend_on_the_box_size(box):
    # the probes stay near the origin, where the _ROUND grid resolves the
    # boost's images: at lo + 5 on the +/-1e9 box, doubles are 1.2e-7 apart,
    # and the dedup kept 620 words and overflowed the int64 keys
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = _boost_model(box).enumerate_words(8)
    assert len(words) == 2 * 8 * 9 + 1  # |i| + |j| <= 8 in Z^2


def test_word_tree_is_capped_by_its_size(capsys):
    # |i| + |j| <= 127 in Z^2 is 32 513 words, under the cap; bound 128 passes
    # it at its last level and is refused naming the bound, before any count
    assert qt.VALIDATE_WORD_CAP < qt.WORD_TREE_CAP
    assert len(fx.flat_torus_model().enumerate_words(127)) == 2 * 127 * 128 + 1
    msg = "word bound 128: the word tree passes WORD_TREE_CAP = 32768 words at length 128"
    with pytest.raises(InvalidAction, match=msg):
        fx.flat_torus_model().enumerate_words(128)
    assert cli.main(["run", "flat-torus", "intersections", "--word-bound", "128"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {msg}\n"


# ---------------------------------------------------------------------------
# call-count guards

@pytest.mark.parametrize("name", ["flat-torus", "mobius", "klein-bottle", "skewed-q2",
                                  "skewed-q3", "example1"])
def test_reduction_one_letter_out_reads_one_level(monkeypatch, name):
    model = MODELS[name]
    gen = model.generators[0]
    box = model.fundamental_box
    inside = 0.5 * (box[:, 0] + np.minimum(box[:, 1], box[:, 0] + 1.0))
    x = model.apply_gen(gen, 1, inside)
    model.canonical_rep(x)  # the words are enumerated on the first lookup
    calls = []
    exact = qt.QuotientModel.apply_gen

    def counted(self, g, sign, pts):
        calls.append(g.name)
        return exact(self, g, sign, pts)

    monkeypatch.setattr(qt.QuotientModel, "apply_gen", counted)
    rep, word = model.canonical_rep(x)
    assert len(word) == 1 and model.in_box(rep)
    assert len(calls) <= 2 * len(model.generators)


@pytest.mark.parametrize("name", sorted(n for n, m in MODELS.items() if m._letters is not None))
def test_an_affine_orbit_is_one_record_product(monkeypatch, name):
    model = MODELS[name]
    X = np.random.default_rng(6).uniform(-2.0, 2.0, size=(4, 2))
    model._tree(model.word_bound)  # the search composes its own records, level by level
    calls = []
    exact = qt._apply_records
    monkeypatch.setattr(qt, "_apply_records", lambda *args: calls.append(1) or exact(*args))
    model._orbit(model.word_bound, X)
    assert len(calls) == 1


def test_verify_all_computes_the_orbit_quantities_once(monkeypatch, tmp_path):
    path = tmp_path / "skewed-q3.json"
    path.write_text(json.dumps(_skewed_file(3)))
    calls = {"intersections": 0, "classify": 0}
    inter, classify = qt._intersections, pg.classify

    def counted_inter(*args, **kwargs):
        calls["intersections"] += 1
        return inter(*args, **kwargs)

    def counted_classify(*args, **kwargs):
        calls["classify"] += 1
        return classify(*args, **kwargs)

    monkeypatch.setattr(qt, "_intersections", counted_inter)
    monkeypatch.setattr(pg, "classify", counted_classify)
    out = tmp_path / "report.json"
    assert cli.main(["run", str(path), "verify-all", "--out", str(out)]) == 0
    rows = {r["check"]: r["pass"] for r in json.loads(out.read_text())["results"]["checks"]}
    assert rows["intersections-expected"] and rows["decomposition-verdict"]
    assert calls == {"intersections": 1, "classify": 1}


def test_verify_all_searches_the_group_once(monkeypatch, tmp_path):
    # validate builds the tree at the word bound, and the verdict's smaller
    # bound reads its first levels
    path = tmp_path / "skewed-q3.json"
    path.write_text(json.dumps(_skewed_file(3)))
    calls = []
    enumerate_words = qt.QuotientModel.enumerate_words

    def counted(self, max_len):
        calls.append(max_len)
        return enumerate_words(self, max_len)

    monkeypatch.setattr(qt.QuotientModel, "enumerate_words", counted)
    assert cli.main(["run", str(path), "verify-all", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [8]


def test_verify_all_surfaces_the_count_error_before_the_verdict_error(monkeypatch, tmp_path,
                                                                       capsys):
    path = tmp_path / "skewed-q1.json"
    path.write_text(json.dumps(_skewed_file(1)))

    def no_verdict(*args, **kwargs):
        raise NotALoop("verdict failed")

    def no_count(*args, **kwargs):
        raise InvalidAction("count failed")

    monkeypatch.setattr(qt, "decomposition_check", no_verdict)
    assert cli.main(["run", str(path), "verify-all"]) == 3
    assert capsys.readouterr().err == "numeric failure: NotALoop: verdict failed\n"
    monkeypatch.setattr(qt, "leaf_intersection_count", no_count)
    assert cli.main(["run", str(path), "verify-all"]) == 2
    assert capsys.readouterr().err == "input error: count failed\n"


# ---------------------------------------------------------------------------
# one parser per process

def test_successive_main_calls_match_fresh_parsers(monkeypatch, tmp_path, capsys):
    argvs = [["run", "flat-torus", "classify", "--csv", "--samples", "8"],
             ["run", "skewed-torus", "intersections", "--word-bound", "3"],
             ["run", "flat-torus", "classify", "--tol", "0.5", "--samples", "8"],
             ["list-scenarios"],
             ["run", "flat-torus", "no-such-command"],
             ["run", "flat-torus", "classify", "--samples", "8"]]

    def outcomes():
        got = []
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    assert cli.build_parser() is cli.build_parser()
    cached = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = outcomes()
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 0]
    assert cached[0][1].startswith("key,value\n") and cached[-1][1].startswith("{")
    assert '"word_bound":3' in cached[1][1] and '"tol":0.5' in cached[2][1]
