"""Affine deck groups in closed form.

A scenario map whose formulas, and its declared inverse's, are all affine
(``expr.affine_form``) is their records, (A, b) and (A_inv, b_inv), each
read from its own formulas.  A model whose maps all carry one moves points
by each word's record, composed once per word tree, and reads its
Jacobians exactly; a model with any other map takes the level path through
the maps' closures.  The references compose records one letter at a time
in Python (``test_quotient_batching.ref_record``) or apply the closures
letter by letter.
"""

import json
import math

import numpy as np
import pytest

from warpquot import cli, expr, scenario
from warpquot import fixtures as fx
from warpquot import quotient as qt
from warpquot.errors import InvalidAction, ScenarioError

from test_holonomy_closed_form import warped_torus_dict
from test_quotient_batching import ref_record
from fixture_models import klein_bottle_model

VARS = ["x", "y"]


# ---------------------------------------------------------------------------
# the recognizer

@pytest.mark.parametrize("src,coeffs,const", [
    ("x + 1", [1.0, 0.0], 1.0), ("x - 1/3", [1.0, 0.0], -1 / 3), ("-y", [0.0, -1.0], 0.0),
    ("y", [0.0, 1.0], 0.0), ("2*(x + 1) - y/4", [2.0, -0.25], 2.0),
    ("pi*x + e", [math.pi, 0.0], math.e), ("+x - -y", [1.0, 1.0], 0.0), ("3", [0.0, 0.0], 3.0),
    ("(x - x)*y + 0.5", [0.0, 0.0], 0.5),
])
def test_affine_formulas_are_recognised(src, coeffs, const):
    c, k = expr.affine_form(src, VARS)
    assert c.tolist() == coeffs and k == const
    pts = np.random.default_rng(0).uniform(-5.0, 5.0, size=(2, 20))
    np.testing.assert_allclose(c @ pts + k, expr.compile_expr(src, VARS)(pts),
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("src", ["x*y", "sin(x)", "x/y", "x**2", "abs(x)", "x/0", "2**x",
                                 "x + 0*sin(y)", "min(x, 1)", "1e308*x*10"])
def test_non_affine_formulas_are_refused(src):
    assert expr.affine_form(src, VARS) is None


def test_an_affine_map_is_its_formulas_records():
    # the constant is the formula's own 1/3, so the record maps x + 1/3 bit
    # for bit as the compiled formula does
    fm = scenario._build_factor_map(["x + 1/3"], ["x - 1/3"], ["x"], "test")
    X = np.random.default_rng(1).uniform(-3.0, 3.0, size=(17, 1))
    for sign, src in ((1, "x + 1/3"), (-1, "x - 1/3")):
        assert np.array_equal(fm(X, sign)[:, 0], expr.compile_expr(src, ["x"])(X.T))
        assert np.array_equal(fm(X, sign), qt._affine_map(*fm.record[0 if sign > 0 else 1], X))
    # malformed formulas are refused as before, whether or not they read as affine
    with pytest.raises(ScenarioError, match="unknown name 'z'"):
        scenario._build_factor_map(["x + z"], ["x"], ["x"], "test")
    with pytest.raises(ScenarioError, match="syntax error"):
        scenario._build_factor_map(["x +"], ["x"], ["x"], "test")


# ---------------------------------------------------------------------------
# exact Jacobians and holonomy of scenario-file deck maps

def test_translation_jacobian_is_exactly_one():
    model = scenario.parse_scenario(warped_torus_dict()).model
    maps = [fm for gen in model.generators for fm in (gen.phi, gen.psi)]
    for fm in maps + [qt.FactorMap.translation([0.5])]:
        for sign in (1, -1):
            assert fm.jac(np.array([0.37]), sign).tolist() == [[1.0]]
            assert fm.jac(np.array([[0.1], [-3.2]]), sign).tolist() == [[[1.0]], [[1.0]]]
    assert model.word_jacobian((("a", 1), ("b", -1), ("a", 1)), np.array([0.3, 0.6])).tolist() == \
        [[1.0, 0.0], [0.0, 1.0]]


def test_warped_torus_holonomy_is_exactly_one(tmp_path):
    path = tmp_path / "warped-torus.json"
    path.write_text(json.dumps(warped_torus_dict()))
    out = tmp_path / "report.json"
    assert cli.main(["run", str(path), "holonomy", "--out", str(out)]) == 0
    loops = json.loads(out.read_text())["results"]["loops"]
    assert [loop["matrix"] for loop in loops] == [[[1.0]], [[1.0]]]


# ---------------------------------------------------------------------------
# records composed down the tree == the letters composed one at a time

AFFINE_MODELS = {
    "mobius": fx.mobius_model,
    "klein-bottle": klein_bottle_model,
    "skewed-torus": fx.skewed_torus_model,
    "file-warped-torus": lambda: scenario.parse_scenario(warped_torus_dict()).model,
}


@pytest.mark.parametrize("name", sorted(AFFINE_MODELS))
def test_tree_records_equal_the_letters_composed_one_at_a_time(name):
    model = AFFINE_MODELS[name]()
    words = model.enumerate_words(model.word_bound)  # each tree word reads its row
    assert model._letters is not None
    # ... and a word outside the tree composes onto its prefix's record alike
    for w in words + [words[-1] + words[-1]]:
        for got, ref in zip(model._word_record(w), ref_record(model, w)):
            assert got.tobytes() == ref.tobytes()


def _without_records(model):
    """The same group with every map's record dropped: the level path."""
    def strip(fm):
        return qt.FactorMap(apply=fm.apply, inverse=fm.inverse)
    gens = [qt.DeckGenerator(g.name, strip(g.phi), strip(g.psi), g.c1, g.c2, g.homothety)
            for g in model.generators]
    return qt.QuotientModel(model.dtp, gens, model.fundamental_box, model.ident_tol,
                            model.word_bound)


@pytest.mark.parametrize("name", sorted(AFFINE_MODELS))
def test_each_witness_pair_is_identified_by_a_tree_word(name):
    # a witness is the leaf-1 point (phi_w^-1(a0), b0) and the leaf-2 point
    # (a0, psi_w(b0)) of one word w: on the record path and on the level
    # path, some tree word takes the first to the second, and both paths
    # count alike
    affine = AFFINE_MODELS[name]()
    level = _without_records(affine)
    assert affine._letters is not None and level._letters is None
    for x0 in ([0.31, 0.27], [0.83, 0.61]):
        reports = []
        for model in (affine, level):
            words = model._tree(model.word_bound).words
            report = qt.leaf_intersection_count(model, x0)
            assert report.count >= 1
            for p1, p2 in report.witnesses:
                assert any(model.same_point(model.apply_word(w, p1), p2)
                           for w in words)
            reports.append(report)
        assert reports[0].count == reports[1].count
        for pair, level_pair in zip(reports[0].witnesses, reports[1].witnesses):
            for p, q in zip(pair, level_pair):
                np.testing.assert_allclose(p, q, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# negative controls

def test_wrong_affine_inverse_still_fails_validation():
    data = warped_torus_dict()
    data["generators"][0]["phi_inv"] = ["x - 0.9"]
    model = scenario.parse_scenario(data).model
    assert model._letters is not None
    with pytest.raises(InvalidAction, match="generator a: declared inverse of phi fails"):
        qt.validate(model)


def test_one_non_affine_generator_takes_the_level_path():
    data = warped_torus_dict()
    data["generators"][1]["psi"] = ["y + 1 + 0*sin(y)"]
    data["generators"][1]["psi_inv"] = ["y - 1 + 0*sin(y)"]
    model = scenario.parse_scenario(data).model
    affine = scenario.parse_scenario(warped_torus_dict()).model
    assert model._letters is None and model.by_name["a"].phi.record is not None
    assert model.by_name["b"].psi.record is None
    tree = model._tree(model.word_bound)
    assert tree.records is None and tree.words == affine._tree(affine.word_bound).words
    # every orbit row is the start moved letter by letter through the maps' closures
    X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 2))
    for w, img in zip(*model._orbit(model.word_bound, X)):
        ref = X
        for name, sign in w:
            gen = model.by_name[name]
            ref = np.concatenate([gen.phi(ref[:, :1], sign), gen.psi(ref[:, 1:], sign)], axis=1)
        assert np.array_equal(img, ref)
    # the non-affine map keeps its central-difference Jacobian
    assert model.by_name["b"].psi.jac(np.array([0.6])).tolist() != [[1.0]]


def test_singular_affine_map_is_an_input_error(tmp_path, capsys):
    # 0*x is affine but not invertible: the model refuses the record where it
    # builds its letters (QuotientModel._letters), before the declared-inverse
    # check, instead of failing inside the linear algebra
    data = warped_torus_dict()
    data["generators"][0]["phi"] = ["0*x"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "intersections"]) == 2
    assert "not invertible" in capsys.readouterr().err


@pytest.mark.parametrize("generator", [
    {"phi": ["0*x + 0*sin(x)"]},   # not invertible, and not affine: the level path
    {"phi_inv": ["x - 2"]},        # affine, with a wrong declared inverse
    {"phi": ["x + 1 + 0*sqrt(x - 0.5)"]},  # nan left of x = 0.5, and so its residual
], ids=["non-affine", "affine", "nan-residual"])
@pytest.mark.parametrize("command", ["intersections", "decompose", "holonomy", "verify-all"])
def test_a_wrong_declared_inverse_refuses_counts_verdicts_and_holonomy(tmp_path, capsys,
                                                                        generator, command):
    # the count, the verdict and the holonomy read the deck maps through their
    # declared inverses, so each runs validate's declared-inverse check first;
    # a nan residual fails it as one above ACTION_TOL does
    data = warped_torus_dict()
    data["generators"][0].update(generator)
    path = tmp_path / "wrong-inverse.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), command]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "input error: generator a: declared inverse of phi fails at sample [0.05]")


def test_the_declared_inverse_check_runs_once_per_model(monkeypatch):
    model = scenario.parse_scenario(warped_torus_dict()).model
    calls = []
    exact = qt.FactorMap.__call__

    def counted(self, x, sign=1):
        calls.append(sign)
        return exact(self, x, sign)

    monkeypatch.setattr(qt.FactorMap, "__call__", counted)
    qt.validate(model)
    assert calls.count(-1) > 0
    calls.clear()
    qt.validate(model)
    assert calls.count(-1) == 0  # only the declared inverses' check applies them
    qt.leaf_intersection_count(model, [0.3, 0.6])
    qt.loop_holonomies(model, np.array([0.3, 0.6]), 1, [(("a", 1),)])
    assert calls.count(-1) == 0


@pytest.mark.parametrize("wrong", [False, True], ids=["passes", "fails"])
def test_the_declared_inverse_outcome_is_kept_whole(monkeypatch, wrong):
    # the residual rows and the first failure are computed once per model;
    # every call returns a dict of its own (validate adds keys to it) or
    # raises the same text, with no residual recomputed
    data = warped_torus_dict()
    if wrong:
        data["generators"][1]["psi_inv"] = ["y - 0.9"]
        data["generators"][0]["phi_inv"] = ["x - 0.9"]
    model = scenario.parse_scenario(data).model
    calls = []
    row_max = qt._row_max
    monkeypatch.setattr(qt, "_row_max", lambda diff: calls.append(1) or row_max(diff))
    outcomes = []
    for _ in range(3):
        try:
            outcomes.append(qt._check_inverses(model))
        except InvalidAction as exc:
            outcomes.append(str(exc))
    assert len(calls) == 2 * len(model.generators)  # phi and psi of each, on the first call
    if wrong:  # the first failure in generator order, phi before psi
        assert outcomes == ["generator a: declared inverse of phi fails at sample [0.05]"] * 3
    else:
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert sorted(outcomes[0]) == ["a:inverse", "b:inverse"]
        outcomes[0]["extra"] = 1.0
        assert "extra" not in qt._check_inverses(model)
        assert outcomes[1] is not outcomes[2]
