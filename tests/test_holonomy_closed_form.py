"""Leaf holonomy in closed form, leaf loops and intersection counts derived
from the deck group, and the metric evaluations one transport step makes.

The closed form (``quotient.loop_holonomies``) rests on adapted translation
keeping the normal components constant in product coordinates; the
adapted translation of ``transport.transport_batch`` (Gauss-Legendre
collocation; RK45 in the names of older tests), with the return map
``transport.loop_return_map``, stays as its oracle here and in verify-all.
``quotient.leaf_trace`` stays as the oracle for "a leaf closes iff
``leaf_loops`` finds a closing word".
"""

import json

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import transport as tp
from warpquot.errors import InvalidAction, NotALoop
from warpquot.scenario import load_scenario_file
from transport_jobs import carry, holonomy


def warped_torus_dict(eps=0.25, basepoint=(0.3, 0.6)):
    """Axis torus with lam2 = 1 + eps sin(2 pi x): trivial holonomy, one intersection."""
    line = {"dim": 1, "metric": "euclidean", "box": [[0.0, 1.0]]}
    return {
        "name": "warped-torus",
        "factors": [{"name": "line-x", "coords": ["x"], **line},
                    {"name": "line-y", "coords": ["y"], **line}],
        "warps": {"lam1": "1", "lam2": f"1 + {eps}*sin(2*pi*x)",
                  "lam2_dependency": "on-factor1-only"},
        "generators": [
            {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
            {"name": "b", "phi": ["x"], "phi_inv": ["x"], "psi": ["y + 1"], "psi_inv": ["y - 1"]},
        ],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
        "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
        "basepoint": list(basepoint),
        "expect": {"holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]},
                   "verdict": "global-doubly-warped-product"},
    }


def warped_torus_file(tmp_path):
    path = tmp_path / "warped-torus.json"
    path.write_text(json.dumps(warped_torus_dict()))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = cli.main(["run", *argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


# ---------------------------------------------------------------------------
# the Klein bottle: loops found from the group, none supplied

@pytest.mark.parametrize("y0, kind, word, count", [
    (0.0, "nontrivial-holonomy", (("a", 1),), None),
    (-0.5, "nontrivial-holonomy", (("a", 1), ("b", -1)), None),
    (0.2, "multiple-intersections", None, 2),
])
def test_klein_bottle_obstructed_without_supplied_loops(y0, kind, word, count):
    model = fx.klein_bottle_model()
    verdict = qt.decomposition_check(model, [0.1, y0], {})
    assert verdict.tag == "obstructed"
    assert (verdict.reason.kind, verdict.reason.word, verdict.reason.count) == (kind, word, count)
    if word is not None:
        assert verdict.reason.foliation == 1
        assert np.array_equal(verdict.holonomy_maps[-1][2].matrix, [[-1.0]])


def test_klein_bottle_declared_trivial_loops_do_not_hide_the_obstruction():
    # a a closes the central leaf with trivial holonomy; a itself is derived
    model = fx.klein_bottle_model()
    verdict = qt.decomposition_check(model, [0.1, 0.0], {1: [(("a", 1), ("a", 1))],
                                                        2: [(("b", 1),)]})
    assert verdict.reason.kind == "nontrivial-holonomy"
    assert verdict.reason.word == (("a", 1),)
    assert [w for _, w, _ in verdict.holonomy_maps][:2] == [(("a", 1), ("a", 1)), (("b", 1),)]


# ---------------------------------------------------------------------------
# the scope guard: decomposition verdicts only for (doubly) warped products

@pytest.mark.parametrize("y0", [0.0, 2.0])
def test_decomposition_refuses_example1_as_twisted(y0):
    # h is the identity for y <= 0 and y >= 2, so example1's closing word a
    # has trivial holonomy there: only the structure tag can refuse a verdict
    model = fx.example1_model()
    assert pg.classify(model.dtp).tag is pg.StructureTag.TWISTED
    with pytest.raises(InvalidAction, match="got twisted"):
        qt.decomposition_check(model, [0.0, y0], {})


def test_decomposition_guard_keeps_the_warped_verdicts(tmp_path):
    warped = load_scenario_file(warped_torus_file(tmp_path))
    cases = [(fx.flat_torus_model(), fx.HOLONOMY_LOOPS["flat-torus"], [0.0, 0.0],
              "global-doubly-warped-product", "none"),
             (fx.mobius_model(), fx.HOLONOMY_LOOPS["mobius"], [0.0, 0.0],
              "obstructed", "nontrivial-holonomy"),
             (fx.skewed_torus_model(), fx.HOLONOMY_LOOPS["skewed-torus"], [0.0, 0.0],
              "obstructed", "multiple-intersections"),
             (warped.model, warped.holonomy_loops, warped.base(),
              "global-doubly-warped-product", "none")]
    for model, loops, x0, tag, kind in cases:
        verdict = qt.decomposition_check(model, x0, loops)
        assert (verdict.tag, verdict.reason.kind) == (tag, kind)
    assert pg.classify(warped.dtp).tag is pg.StructureTag.WARPED


def test_klein_bottle_passes_validation():
    assert qt.validate(fx.klein_bottle_model()).worst() < qt.ACTION_TOL


@pytest.mark.parametrize("name, make", [
    ("mobius", fx.mobius_model),
    ("flat-torus", fx.flat_torus_model),
    ("skewed-torus", fx.skewed_torus_model),
])
def test_derived_loops_include_the_documented_ones(name, make):
    model = make()
    loops = qt.leaf_loops(model, np.zeros(2))
    for i, words in fx.HOLONOMY_LOOPS[name].items():
        for word in words:
            assert word in loops[i]
    # every derived word closes its leaf (leaf_loop_curve would raise otherwise)
    for i, words in loops.items():
        for word in words:
            qt.leaf_loop_curve(model, np.zeros(2), i, word)


def test_leaf_loops_respect_the_word_bound():
    model = fx.flat_torus_model()
    loops = qt.leaf_loops(model, np.zeros(2), max_len=2)
    assert loops == {1: [(("a", 1),), (("a", -1),), (("a", 1), ("a", 1)), (("a", -1), ("a", -1))],
                     2: [(("b", 1),), (("b", -1),), (("b", 1), ("b", 1)), (("b", -1), ("b", -1))]}


# ---------------------------------------------------------------------------
# closed form against the integrating oracle

def _quotients(tmp_path):
    yield "flat-torus", fx.flat_torus_model(), np.zeros(2), fx.HOLONOMY_LOOPS["flat-torus"]
    yield "skewed-torus", fx.skewed_torus_model(), np.zeros(2), fx.HOLONOMY_LOOPS["skewed-torus"]
    yield "mobius", fx.mobius_model(), np.zeros(2), fx.HOLONOMY_LOOPS["mobius"]
    yield "klein-bottle", fx.klein_bottle_model(), np.array([0.1, -0.5]), {1: [(("a", 1), ("b", -1))]}
    ctx = load_scenario_file(warped_torus_file(tmp_path))
    rep0, _ = ctx.model.canonical_rep(ctx.base())
    yield "warped-torus", ctx.model, rep0, ctx.holonomy_loops


def test_closed_form_matches_rk45_holonomy(tmp_path):
    for name, model, rep0, loops in _quotients(tmp_path):
        for i, words in loops.items():
            for word in words:
                hol = qt.loop_holonomies(model, rep0, i, [word])[0]
                curve = qt.leaf_loop_curve(model, rep0, i, word)
                ref = holonomy(model, curve, hol.frame, i, qt.word_inverse(word))
                assert np.max(np.abs(hol.matrix - ref.matrix)) < 1e-9, (name, i, word)


@pytest.mark.parametrize("command", ["holonomy", "verify-all"])
def test_declared_loops_take_one_closed_form_batch_per_foliation(tmp_path, monkeypatch, command):
    # three F1 loops and two F2 loops: per foliation one loop_holonomies
    # batch, which runs the declared-inverse check first, and every matrix is
    # the one that loop's batch of one gives
    data = warped_torus_dict()
    data["holonomy_loops"] = {"1": [[["a", 1]], [["a", -1]], [["a", 1], ["a", 1]]],
                              "2": [[["b", 1]], [["b", -1], ["b", -1]]]}
    data["expect"] = {"holonomy": {"1": [[[1.0]]] * 3, "2": [[[1.0]]] * 2}}
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(data))
    calls = []
    check_inverses, batch = qt._check_inverses, qt.loop_holonomies
    monkeypatch.setattr(qt, "_check_inverses", lambda model: calls.append("inverses")
                        or check_inverses(model))
    monkeypatch.setattr(qt, "loop_holonomies", lambda model, rep0, i, words: calls.append(
        (i, len(words))) or batch(model, rep0, i, words))
    code, report = run(tmp_path, str(path), command, "--samples", "8")
    assert code == 0
    assert calls[-4:] == [(1, 3), "inverses", (2, 2), "inverses"]
    if command == "holonomy":
        monkeypatch.undo()
        model = load_scenario_file(str(path)).model
        rep0, _ = model.canonical_rep(data["basepoint"])
        for entry in report["results"]["loops"]:
            word = tuple((name, sign) for name, sign in entry["word"])
            single = qt.loop_holonomies(model, rep0, entry["foliation"], [word])[0].matrix
            assert np.array_equal(np.array(entry["matrix"]), single)


def test_loop_holonomy_rejects_a_word_that_opens_the_leaf():
    with pytest.raises(NotALoop):
        qt.loop_holonomies(fx.klein_bottle_model(), np.array([0.1, 0.2]), 1, [(("a", 1),)])


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_rk45_adapted_translation_keeps_normal_components(seed):
    # the exact solution keeps them constant; the integrator holds them to its
    # own global error (RK45 at rtol 1e-9 reached 5.3e-9 on this curve at seed
    # 11; the collocation stays near 1e-15), so the bound is ten times RTOL
    dtp = fx.random_doubly_twisted(seed)
    box = dtp.domain_box
    start = 0.7 * box[:, 0] + 0.3 * box[:, 1]
    end = start.copy()
    end[dtp.slot1] = (0.25 * box[:, 0] + 0.75 * box[:, 1])[dtp.slot1]
    curve = tp.PiecewiseCurve.line(start, end)
    normal = np.random.default_rng(seed).normal(size=dtp.n2)
    res = carry(dtp, curve, dtp.embed(2, normal), 1)
    drift = float(np.max(np.abs(res.components - dtp.embed(2, normal))))
    assert drift < 10 * tp.RTOL * np.max(np.abs(normal))


def test_sign_flipped_normal_block_fails_verify_all(tmp_path, monkeypatch):
    # flip only what the closed form reads: the oracle (``tp.loop_return_map``)
    # also calls ``word_jacobian``, so flipping that would flip both sides
    exact = qt.loop_holonomies
    monkeypatch.setattr(qt, "loop_holonomies", lambda *a: [
        tp.HolonomyMap(-h.matrix, h.frame) for h in exact(*a)])
    code, report = run(tmp_path, "flat-torus", "verify-all", "--samples", "8")
    assert code == 1
    checks = {c["check"]: c for c in report["results"]["checks"]}
    assert checks["holonomy-closed-form"]["value"] == pytest.approx(2.0)
    assert checks["holonomy-closed-form"]["pass"] is False
    assert checks["holonomy-expected"]["pass"] is False


def test_downstairs_translation_matches_seam_jacobians():
    # Moebius: the normal component flips at every seam and stays put between,
    # so a central leaf loop's holonomy is -1 to the number of seams it crosses
    model = fx.mobius_model()
    rep0 = np.array([0.2, 0.0])
    for word, sign in (((("a", 1),), -1.0), ((("a", 1), ("a", 1)), 1.0),
                       ((("a", -1),) * 3, -1.0)):
        assert np.array_equal(qt.loop_holonomies(model, rep0, 1, [word])[0].matrix, [[sign]])
    with pytest.raises(NotALoop):  # off the central leaf, one seam opens the loop
        qt.loop_holonomies(model, np.array([0.2, 0.3]), 1, [(("a", 1),)])


# ---------------------------------------------------------------------------
# verify-all's oracle batch: the order in which errors surface

@pytest.mark.parametrize("drift, code", [(1e-5, 3), (1e-7, 0)])
def test_a_loop_whose_norm_law_misses_1e6_raises(tmp_path, monkeypatch, capsys, drift, code):
    # the batch integrates every declared loop with the leaf line's two
    # transports; the return map of a loop whose norm-law residual exceeds
    # 1e-6 raises, while the leaf line's own residual is reported in its row
    integrate = tp._integrate

    def drifted(g, dtp, jobs):
        out = integrate(g, dtp, jobs)
        return out[:2] + [((1.0 + drift) * Ys, Is) for Ys, Is in out[2:]]

    monkeypatch.setattr(tp, "_integrate", drifted)
    assert run(tmp_path, "mobius", "verify-all", "--samples", "8")[0] == code
    if code:
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "numeric failure: IntegrationError: adapted-translation norm law residual 1.0")


@pytest.mark.parametrize("change, message", [
    ({"generators": [{"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 2"],
                      "psi": ["y"], "psi_inv": ["y"]}]},
     "input error: generator a: declared inverse of phi fails at sample [0.05]"),
    ({"holonomy_loops": {"1": [[["b", 1]]]}, "expect": {}},
     "numeric failure: NotALoop: word (('b', 1),) does not close a foliation-1 loop at [0.3 0.6]"),
    ({}, "numeric failure: IntegrationError: transport collocation did not settle within "
         "MAX_DOUBLINGS = 0 step doublings (1 steps per grid interval)"),
], ids=["validate", "closed-form-holonomy", "intact"])
def test_validate_and_the_closed_form_holonomy_raise_before_the_oracle_batch(
        tmp_path, monkeypatch, capsys, change, message):
    # with the doubling cap at 0 every oracle transport fails; the quotient
    # checks before the batch, which holds the leaf line's transports too,
    # still raise first (the intact file is the negative control)
    data = warped_torus_dict()
    data.update(change)
    if "generators" in change:
        data["generators"].append(warped_torus_dict()["generators"][1])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(tp, "MAX_DOUBLINGS", 0)
    assert run(tmp_path, str(path), "verify-all")[0] == (2 if "input" in message else 3)
    assert capsys.readouterr().err.splitlines()[-1] == message


# ---------------------------------------------------------------------------
# guards for the hot path: no ODE, one metric evaluation per step

def _no_ode(*args, **kwargs):
    raise AssertionError("ODE oracle called on the closed-form path")


def _refuse_ode(monkeypatch):
    """Make the integrator raise: the collocation oracle."""
    monkeypatch.setattr(tp, "collocation_pass", _no_ode)


@pytest.mark.parametrize("ref, codes", [
    ("mobius", (0, 0)),
    ("flat-torus", (0, 0)),
    ("skewed-torus", (0, 0)),
    ("example1-twisted", (2, 2)),  # no loops declared; decompose refuses a twisted product
    ("warped-torus", (0, 0)),
])
def test_holonomy_and_decompose_make_no_ode_call(tmp_path, monkeypatch, ref, codes):
    scenario = warped_torus_file(tmp_path) if ref == "warped-torus" else ref
    _refuse_ode(monkeypatch)
    for command, code in zip(("holonomy", "decompose"), codes):
        assert run(tmp_path, scenario, command)[0] == code


def test_downstairs_translation_makes_no_ode_call(monkeypatch):
    _refuse_ode(monkeypatch)
    model = fx.example1_model()
    rep0 = np.zeros(2)
    qt.loop_holonomies(model, rep0, 1, [qt.leaf_loops(model, rep0)[1][0]])[0]


# ---------------------------------------------------------------------------
# intersection counts from the deck group: leaf_trace is only the oracle

def _no_trace(*args, **kwargs):
    raise AssertionError("leaf_trace called on the intersection path")


@pytest.mark.parametrize("ref, codes", [
    ("mobius", (0, 0)),
    ("flat-torus", (0, 0)),
    ("skewed-torus", (0, 0)),
    ("example1-twisted", (0, 2)),  # decompose refuses a twisted product
    ("warped-torus", (0, 0)),
])
def test_intersections_and_decompose_trace_no_leaf(tmp_path, monkeypatch, ref, codes):
    scenario = warped_torus_file(tmp_path) if ref == "warped-torus" else ref
    monkeypatch.setattr(qt, "leaf_trace", _no_trace)
    for command, code in zip(("intersections", "decompose"), codes):
        assert run(tmp_path, scenario, command)[0] == code


ORACLE_MODELS = {
    "flat-torus": fx.flat_torus_model,
    "skewed-torus": fx.skewed_torus_model,
    "mobius": fx.mobius_model,
    "klein-bottle": fx.klein_bottle_model,
    "example1": fx.example1_model,
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_leaf_trace_closes_iff_a_closing_word_exists(name):
    # one-dimensional factors and a free action: a non-trivial stabilizer
    # is exactly a closed leaf; example1's draws fall in its drift region too
    model = ORACLE_MODELS[name]()
    box = model.dtp.domain_box
    rng = np.random.default_rng(8)
    starts = [np.zeros(2)] + [box[:, 0] + rng.random(2) * (box[:, 1] - box[:, 0]) for _ in range(4)]
    for x in starts:
        rep, _ = model.canonical_rep(x)
        loops = qt.leaf_loops(model, rep)
        for i in (1, 2):
            assert qt.leaf_trace(model, rep, i).closed == bool(loops[i]), (rep, i)


def test_intersection_count_requires_one_dimensional_factors():
    plane = pg.FactorManifold("plane", ck.MetricField.euclidean(2), [[0.0, 1.0], [0.0, 1.0]])
    line = pg.FactorManifold("line", ck.MetricField.euclidean(1), [[0.0, 1.0]])
    one = ck.ScalarField.constant(1.0)
    gen = qt.DeckGenerator("a", qt.FactorMap.translation([1.0, 0.0]),
                           qt.FactorMap.translation([0.0]))
    model = qt.QuotientModel(pg.assemble(plane, line, one, one), [gen],
                             [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(InvalidAction, match="one-dimensional factors"):
        qt.leaf_intersection_count(model, [0.5, 0.5, 0.5])


def _count_top_level_mat(monkeypatch):
    """Patch the metric kernel MetricField._mat, which every metric
    evaluation goes through, to count calls not nested in another one."""
    exact = ck.MetricField._mat
    state = {"depth": 0, "top": 0}

    def counted(self, cols):
        state["top"] += state["depth"] == 0
        state["depth"] += 1
        try:
            return exact(self, cols)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(ck.MetricField, "_mat", counted)
    return state


def test_one_metric_evaluation_per_christoffel_and_none_per_omega(monkeypatch):
    dtp = fx.strip_analytic(fx.random_doubly_twisted(4))
    x = 0.5 * (dtp.domain_box[:, 0] + dtp.domain_box[:, 1])
    ref = ck.christoffel_numeric(dtp.assembled, x)
    state = _count_top_level_mat(monkeypatch)
    gamma = ck.christoffel_numeric(dtp.assembled, x)
    assert state["top"] == 1
    assert np.array_equal(gamma, ref)
    state["top"] = 0
    for i in (1, 2):
        pg.mean_curvature_form(dtp, x, i)
    assert state["top"] == 0


def test_fd_christoffel_reads_the_centre_from_the_stencil(tmp_path):
    # with elementwise callbacks (scenario formulas) the centre row changes no
    # stencil value; g at the centre equals g.mat at the point to rounding of
    # numpy's functions on a batch against one point
    g = load_scenario_file(warped_torus_file(tmp_path)).dtp.assembled
    assert g.exact_order == 0
    x = np.array([0.3, 0.6])
    dg, gm = ck.central_diff(g.mat, x, ck.fd_step(x, ck.FD_STEP_1), centre=True)
    assert np.array_equal(dg, g.d1(x))
    assert np.allclose(gm, g.mat(x), rtol=1e-15, atol=0.0)
    gamma = ck.christoffel_numeric(g, x)
    assert np.allclose(gamma, 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g.mat(x)),
                                              np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg),
                       rtol=1e-14, atol=1e-15)


def test_mean_curvature_form_is_the_dual_of_the_mean_curvature_vector():
    for dtp in (fx.random_doubly_twisted(5), fx.sphere_polar(), fx.strip_analytic(fx.random_doubly_warped(8))):
        x = 0.45 * dtp.domain_box[:, 0] + 0.55 * dtp.domain_box[:, 1]
        for i in (1, 2):
            g, ginv = dtp.assembled.mat_and_inv(x)
            dual = g @ pg._mean_curvature(dtp, x, i, ginv)
            assert np.allclose(pg.mean_curvature_form(dtp, x, i), dual,
                               rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# layout-independent inner product

def test_inner_product_ignores_memory_layout():
    # the same values as strided views and an F-ordered metric, or as
    # contiguous copies and a C-ordered metric, give bit-identical results
    rng = np.random.default_rng(9)
    base = np.zeros(4)
    sig = ck.Signature.riemannian(4)
    for _ in range(500):
        a = rng.normal(size=(4, 4))
        m = a + a.T + 8.0 * np.eye(4)
        g_f = ck.MetricField(4, lambda x, _m=m: _m.T[..., None], sig)
        g_c = ck.MetricField(4, lambda x, _m=m: _m[..., None].copy(), sig)
        assert not g_f.mat(base).flags.c_contiguous
        cols = rng.normal(size=(4, 3))
        u, v = cols[:, 0], cols[:, 1]
        assert not u.flags.c_contiguous
        uc, vc = cols[:, 0].copy(), cols[:, 1].copy()
        assert ck.inner_product(g_f, base, u, v) == ck.inner_product(g_c, base, uc, vc)
        e_view = ck.gram_schmidt(g_f, base, cols[:, :2])
        e_copy = ck.gram_schmidt(g_c, base, np.stack([uc, vc], axis=1))
        assert np.array_equal(e_view, e_copy)
