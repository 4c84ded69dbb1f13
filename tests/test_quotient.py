"""Quotient-model tests: validation, leaf tracing, intersections, verdicts."""

import json

import numpy as np
import pytest

from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import transport as tp
from warpquot.chartkit import MetricField, ScalarField
from warpquot.errors import InvalidAction, InvalidH, NotALoop, WordBoundExceeded
from warpquot.scenario import parse_scenario

from test_holonomy_closed_form import warped_torus_dict
from transport_jobs import holonomy
from fixture_models import bounded


# ---------------------------------------------------------------------------
# validation

@pytest.mark.parametrize("make", [fx.mobius_model, fx.flat_torus_model,
                                  fx.skewed_torus_model])
def test_validate_flat_quotients(make):
    report = qt.validate(make())
    assert report.worst() < 1e-10


def test_validate_twisted_construction():
    report = qt.validate(fx.build_example1())
    assert report.residuals["a:isometry"] < 1e-7


def test_validate_rejects_broken_warp_compat():
    dtp = fx.polar_plane()
    gen = qt.DeckGenerator("bad", qt.FactorMap.translation([1.0]),
                           qt.FactorMap.translation([0.0]))
    model = qt.QuotientModel(dtp, [gen], fundamental_box=[[0.5, 1.5], [0.0, 6.2]])
    with pytest.raises(InvalidAction):
        qt.validate(model)


# ---------------------------------------------------------------------------
# canonical representatives

def test_canonical_rep_lattice_reduction():
    model = fx.skewed_torus_model()
    rep, word = model.canonical_rep([1.7, 0.2])
    assert np.allclose(rep, [0.7, 0.2], atol=1e-12)
    assert word == (("a", -1),)


def test_canonical_rep_point_in_box_is_fixed():
    model = fx.skewed_torus_model()
    rep, word = model.canonical_rep([0.3, 0.4])
    assert word == ()
    assert np.allclose(rep, [0.3, 0.4])
    rep2, word2 = model.canonical_rep(rep)
    assert word2 == () and np.array_equal(rep2, rep)


def test_canonical_rep_mobius_double_flip():
    model = fx.mobius_model()
    rep, word = model.canonical_rep([2.3, 0.5])
    assert np.allclose(rep, [0.3, 0.5], atol=1e-12)
    assert word == (("a", -1), ("a", -1))


def test_canonical_rep_word_bound_exceeded():
    model = bounded(fx.flat_torus_model(), 2)
    with pytest.raises(WordBoundExceeded):
        model.canonical_rep([7.5, 0.2])


# ---------------------------------------------------------------------------
# leaf tracing

def test_leaf_trace_torus_horizontal_closes():
    model = fx.skewed_torus_model()
    trace = qt.leaf_trace(model, [0.0, 0.0], 1)
    assert trace.closed
    assert trace.length == pytest.approx(1.0, abs=1e-7)


def test_leaf_trace_torus_vertical_through_origin():
    model = fx.skewed_torus_model()
    trace = qt.leaf_trace(model, [0.0, 0.0], 2)
    assert trace.closed
    assert trace.length == pytest.approx(2.0, abs=1e-7)


def test_leaf_trace_mobius_central_and_generic():
    model = fx.mobius_model()
    central = qt.leaf_trace(model, [0.0, 0.0], 1)
    assert central.closed and central.length == pytest.approx(1.0, abs=1e-7)
    generic = qt.leaf_trace(model, [0.0, 0.5], 1)
    assert generic.closed and generic.length == pytest.approx(2.0, abs=1e-7)


def test_leaf_trace_example1_closed_and_open():
    model = fx.build_example1()
    closed = qt.leaf_trace(model, [0.0, 0.0], 1)
    assert closed.closed
    assert closed.length == pytest.approx(1.0, abs=1e-7)
    drifting = qt.leaf_trace(model, [0.0, 1.0], 1, arc_budget=6.0)
    assert drifting.status == "open-within-budget"
    # the h-orbit of y = 1 drifts strictly monotonically
    glue = model.gluing
    ys = [1.0]
    for _ in range(5):
        ys.append(glue.h(ys[-1]))
    assert all(b > a for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("delta, closes", [(0.8e-7, True), (1.2e-7, False)])
def test_leaf_trace_closes_where_leaf_loops_finds_a_closing_word(delta, closes):
    # R x R^2 / <(x+1, y+delta, z+delta)>: the x-leaf comes back moved by
    # (delta, delta), which is within ident_tol in the max norm of same_point
    # at delta = 0.8e-7 (its Euclidean length is 1.13e-7), and not at 1.2e-7
    f1 = pg.FactorManifold("line-x", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("plane-yz", MetricField.euclidean(2), [[-1e9, 1e9]] * 2)
    one = ScalarField.constant(1.0)
    gens = [qt.DeckGenerator("a", qt.FactorMap.translation([1.0]),
                             qt.FactorMap.translation([delta, delta]))]
    model = qt.QuotientModel(pg.assemble(f1, f2, one, one), gens,
                             fundamental_box=[[0.0, 1.0], [-1e9, 1e9], [-1e9, 1e9]])
    x0 = [0.3, 0.2, 0.1]
    closed = qt.leaf_trace(model, x0, 1, arc_budget=3.0).closed
    assert closed == bool(qt.leaf_loops(model, x0)[1]) == closes


def test_leaf_trace_requires_basepoint_in_box():
    model = fx.flat_torus_model()
    with pytest.raises(ValueError):
        qt.leaf_trace(model, [1.7, 0.0], 1)


# ---------------------------------------------------------------------------
# intersection counting (orbit enumeration)

def test_intersections_skewed_torus_two_points():
    model = bounded(fx.skewed_torus_model(), 4)
    report = qt.leaf_intersection_count(model, [0.0, 0.0], word_bound=4)
    assert report.count == 2
    assert not report.lower_bound_only
    reps = sorted(tuple(np.round(model.canonical_rep(w)[0], 9)) for w, _ in report.witnesses)
    assert np.allclose(reps[0], [0.0, 0.0], atol=1e-9)
    assert np.allclose(reps[1], [0.5, 0.0], atol=1e-9)


def test_intersections_axis_torus_one_point():
    model = bounded(fx.flat_torus_model(), 4)
    report = qt.leaf_intersection_count(model, [0.0, 0.0], word_bound=4)
    assert report.count == 1


def test_intersections_mobius_central_one_point():
    model = bounded(fx.mobius_model(), 4)
    report = qt.leaf_intersection_count(model, [0.0, 0.0], word_bound=4)
    assert report.count == 1


def test_intersections_inequality_vs_no_holonomy_point():
    # card(F1(x) ^ F2(x)) <= card at a no-holonomy basepoint, same word bound
    model = bounded(fx.skewed_torus_model(), 4)
    base = qt.leaf_intersection_count(model, [0.0, 0.0], word_bound=4).count
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.random(2) * 0.9
        count = qt.leaf_intersection_count(model, x, word_bound=4).count
        assert count <= base


def skewed_11_dict(word_bound):
    """R^2 / <(x + 1, y), (x + 3/11, y + 1)>: the leaves through any point
    meet 11 times, at x0 + k/11, and the words that reach them are longer
    than a small model bound."""
    line = {"dim": 1, "metric": "euclidean", "box": [[0.0, 1.0]]}
    return {"name": "skewed-11",
            "factors": [{"name": "line-x", "coords": ["x"], **line},
                        {"name": "line-y", "coords": ["y"], **line}],
            "warps": {"lam1": "1", "lam2": "1"},
            "generators": [
                {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
                {"name": "b", "phi": ["x + 3/11"], "phi_inv": ["x - 3/11"],
                 "psi": ["y + 1"], "psi_inv": ["y - 1"]}],
            "fundamental_box": [[0.0, 1.0], [0.0, 1.0]], "word_bound": word_bound,
            "basepoint": [0.31, 0.27]}


@pytest.mark.parametrize("model_bound", [1, 2, 8, 14])
def test_intersections_past_the_model_bound_reduce_at_the_count_bound(model_bound):
    # a candidate of a word of length up to 14 is reduced into the box at
    # that length too, not at the model's bound, where it would be dropped
    model = parse_scenario(skewed_11_dict(model_bound)).model
    report = qt.leaf_intersection_count(model, [0.31, 0.27], word_bound=14)
    assert (report.count, report.lower_bound_only) == (11, False)


def test_cli_counts_past_the_model_bound(tmp_path, capsys):
    path = tmp_path / "skewed-11.json"
    path.write_text(json.dumps(skewed_11_dict(2)))

    def results(command):
        capsys.readouterr()
        cli.main(["run", str(path), command, "--word-bound", "14"])
        return json.loads(capsys.readouterr().out)["results"]

    counted = results("intersections")
    assert (counted["count"], counted["lower_bound_only"]) == (11, False)
    verdict = results("decompose")
    assert (verdict["tag"], verdict["reason"]["count"]) == ("obstructed", 11)


def test_homothetic_leaves_equal_length():
    # all no-holonomy leaves of the skewed torus are homothetic (here: equal)
    model = fx.skewed_torus_model()
    l1 = qt.leaf_trace(model, [0.0, 0.1], 1).length
    l2 = qt.leaf_trace(model, [0.3, 0.7], 1).length
    assert l1 == pytest.approx(l2, abs=1e-6)


# ---------------------------------------------------------------------------
# holonomy through the quotient

def test_mobius_central_leaf_holonomy_is_minus_one():
    model = fx.mobius_model()
    rep0 = np.array([0.0, 0.0])
    curve = qt.leaf_loop_curve(model, rep0, 1, (("a", 1),))
    frame = tp.normal_frame(model.dtp, rep0, foliation=1)
    hol = holonomy(model, curve, frame, 1)
    assert np.allclose(hol.matrix, [[-1.0]], atol=1e-9)


def test_loop_holonomy_matches_the_explicit_loop():
    model = fx.mobius_model()
    rep0 = np.array([0.0, 0.0])
    word = (("a", 1),)
    hol = qt.loop_holonomies(model, rep0, 1, [word])[0]
    curve = qt.leaf_loop_curve(model, rep0, 1, word)
    frame = tp.normal_frame(model.dtp, rep0, foliation=1)
    ref = holonomy(model, curve, frame, 1, qt.word_inverse(word))
    assert np.array_equal(hol.matrix, ref.matrix)
    assert np.allclose(hol.matrix, [[-1.0]], atol=1e-9)
    with pytest.raises(NotALoop):
        qt.loop_holonomies(model, np.array([0.0, 0.3]), 1, [word])


def test_torus_loops_have_identity_holonomy():
    model = fx.skewed_torus_model()
    rep0 = np.array([0.0, 0.0])
    for foliation, word in ((1, (("a", 1),)), (2, (("a", -1), ("b", 1), ("b", 1)))):
        curve = qt.leaf_loop_curve(model, rep0, foliation, word)
        frame = tp.normal_frame(model.dtp, rep0, foliation=foliation)
        hol = holonomy(model, curve, frame, foliation)
        assert hol.is_identity(1e-9)


def test_holonomy_composition_law():
    # hol(loop1 . loop2) == hol(loop2) o hol(loop1); Moebius generator squared
    model = fx.mobius_model()
    rep0 = np.array([0.0, 0.0])
    loop = qt.leaf_loop_curve(model, rep0, 1, (("a", 1),))
    frame = tp.normal_frame(model.dtp, rep0, foliation=1)
    h1 = holonomy(model, loop, frame, 1)
    double = tp.PiecewiseCurve.from_function(lambda t: np.stack([2.0 * t, 0.0 * t], axis=1))
    h2 = holonomy(model, double, frame, 1)
    assert np.allclose(h2.matrix, h1.matrix @ h1.matrix, atol=1e-9)
    assert h2.is_identity(1e-9)


def test_leaf_loop_curve_rejects_non_loop_word():
    model = fx.skewed_torus_model()
    with pytest.raises(NotALoop):
        qt.leaf_loop_curve(model, np.array([0.0, 0.0]), 1, (("b", 1),))


def test_warp_compat_along_no_holonomy_leaf():
    # deck maps with trivial leaf-holonomy action preserve lam2 on that leaf
    model = fx.build_example1()
    lam = model.dtp.lam2
    for x in np.linspace(-1.0, 2.0, 13):
        assert abs(lam.value([x + 1.0, 0.0]) - lam.value([x, 0.0])) < 1e-7
    for make in (fx.mobius_model, fx.skewed_torus_model):
        m = make()
        lam2 = m.dtp.lam2
        for x in np.linspace(0.0, 1.0, 7):
            assert abs(lam2.value([x + 1.0, 0.0]) - lam2.value([x, 0.0])) < 1e-12


# ---------------------------------------------------------------------------
# decomposition verdicts

def test_decomposition_flat_torus_global_product():
    model = bounded(fx.flat_torus_model(), 4)
    verdict = qt.decomposition_check(model, [0.0, 0.0], fx.HOLONOMY_LOOPS["flat-torus"])
    assert verdict.tag == "global-doubly-warped-product"
    assert verdict.reason.kind == "none"
    # product chart check: traced leaf closures tile the fundamental box
    for foliation in (1, 2):
        trace = qt.leaf_trace(model, np.zeros(2), foliation)
        extent = model.fundamental_box[foliation - 1]
        assert trace.length == pytest.approx(extent[1] - extent[0], abs=1e-7)


def test_decomposition_mobius_obstructed_by_holonomy():
    model = bounded(fx.mobius_model(), 4)
    verdict = qt.decomposition_check(model, [0.0, 0.0], fx.HOLONOMY_LOOPS["mobius"])
    assert verdict.tag == "obstructed"
    assert verdict.reason.kind == "nontrivial-holonomy"
    assert verdict.reason.foliation == 1
    # intersection count alone would not have obstructed (the paper's point)
    assert qt.leaf_intersection_count(model, [0.0, 0.0], word_bound=4).count == 1


def test_decomposition_skewed_torus_obstructed_by_intersections():
    model = bounded(fx.skewed_torus_model(), 4)
    verdict = qt.decomposition_check(model, [0.0, 0.0], fx.HOLONOMY_LOOPS["skewed-torus"])
    assert verdict.tag == "obstructed"
    assert verdict.reason.kind == "multiple-intersections"
    assert verdict.reason.count == 2


# ---------------------------------------------------------------------------
# local-isometry equivariance (holonomy along a leaf, across the seams)

@pytest.mark.parametrize("name,start,length", [
    ("mobius", [0.0, 0.0], 1.6),
    ("flat-torus", [0.2, 0.4], 1.5),
    ("skewed-torus", [0.2, 0.4], 1.5),
    ("example1", [0.0, 0.0], 1.7),
])
def test_adapted_translation_equivariance(name, start, length):
    # the deck group acts by isometries preserving both foliations, so the
    # closed-form holonomy of the leaf's first loop is the same at start and
    # at the point `length` further along the leaf (reduced into the box
    # across the seams); the integrating oracle agrees at both basepoints
    model = {"mobius": fx.mobius_model, "flat-torus": fx.flat_torus_model,
             "skewed-torus": fx.skewed_torus_model,
             "example1": fx.build_example1}[name]()
    start = np.array(start, dtype=float)
    far, word = model.canonical_rep(start + length * model.dtp.embed(1, np.ones(1)))
    assert word  # the path crosses a seam
    matrices = []
    for rep0 in (start, far):
        loop = qt.leaf_loops(model, rep0)[1][0]
        hol = qt.loop_holonomies(model, rep0, 1, [loop])[0]
        ref = holonomy(model, qt.leaf_loop_curve(model, rep0, 1, loop), hol.frame, 1,
                       qt.word_inverse(loop))
        assert np.max(np.abs(hol.matrix - ref.matrix)) < 1e-6
        matrices.append(hol.matrix)
    assert np.allclose(matrices[0], matrices[1], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the explicit twisted construction

def test_example1_seam_functional_equation():
    model = fx.build_example1()
    assert fx.example1_seam_residual(model) < 1e-8


def test_example1_warp_positive_and_smooth_sampled():
    model = fx.build_example1()
    lam = model.dtp.lam2
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(-2.0, 3.0)
        y = rng.uniform(-1.0, 3.0)
        assert lam.value([x, y]) > 0.0


def test_example1_assembled_metric_and_mean_curvature():
    model = fx.build_example1()
    dtp = model.dtp
    for x, y in ((0.3, 1.0), (0.8, 0.4), (1.4, 1.7)):
        g = dtp.assembled.mat([x, y])
        lam = dtp.lam2.value([x, y])
        assert np.allclose(g, np.diag([1.0, lam ** 2]), atol=1e-14)
        n1 = pg._mean_curvature(dtp, np.array([x, y]), 1, np.linalg.inv(g))
        assert np.allclose(n1, 0.0, atol=1e-12)


def test_example1_rejects_bad_parameters():
    with pytest.raises(InvalidH):
        fx.build_example1(epsilon=0.6)
    with pytest.raises(InvalidH):
        fx.build_example1(gluing=fx.TwistedGluing(amplitude=5.0))


def test_example1_classified_twisted():
    model = fx.build_example1()
    assert pg.classify(model.dtp, per_axis=5).tag is pg.StructureTag.TWISTED


def test_decomposition_refuses_uncertified_global_claim():
    # the flat cylinder R^2 / <(x + 1, y)>: trivial holonomy, but an F2 leaf with
    # no closing word, so "count 1" is a lower bound and a global-product
    # certificate must be refused, not granted (example1, twisted, is refused
    # before it gets here)
    flat = fx.flat_torus_model()
    model = qt.QuotientModel(flat.dtp, flat.generators[:1],
                             fundamental_box=[[0.0, 1.0], [-1e9, 1e9]], word_bound=8)
    with pytest.raises(InvalidAction, match="lower bound"):
        qt.decomposition_check(model, [0.0, 0.0], {})


@pytest.mark.parametrize("kw", [{"ident_tol": -1.0}, {"ident_tol": 0.0},
                                {"ident_tol": float("nan")}, {"ident_tol": float("inf")},
                                {"word_bound": -1}], ids=str)
def test_model_refuses_a_tolerance_or_bound_that_cannot_work(kw):
    # with ident_tol = -1 no point is the same point as itself, and the
    # intersection count's dedup loop would never shrink
    model = fx.flat_torus_model()
    with pytest.raises(ValueError, match=next(iter(kw))):
        qt.QuotientModel(model.dtp, model.generators, model.fundamental_box, **kw)


@pytest.mark.parametrize("text", ['"ident_tol": -1', '"ident_tol": NaN', '"word_bound": -2'])
def test_scenario_tolerance_or_bound_refused_with_exit_2(capsys, tmp_path, text):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(warped_torus_dict())[:-1] + ", " + text + "}")
    # classify: at a model that accepts the value, intersections would hang
    assert cli.main(["run", str(path), "classify"]) == 2
    assert capsys.readouterr().err.startswith("input error: scenario: " + text[1:10])
