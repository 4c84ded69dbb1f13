"""Acceptance criteria, one test per criterion, run at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the PASS lines).
"""

import time

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import scenario as sc
from warpquot import transport as tp

from random_products import random_twisted
from transport_jobs import carry, holonomy
# the sign-flipped closed forms of the connection-row negative controls
from test_closed_form_connection import _flip_metric_term, _flip_mixed, _patch_gamma
from fixture_models import flat_direct_product, lorentz_warped_fiber, random_doubly_warped


def _report(num, title, detail, ok):
    print(f"ACCEPTANCE {num} {title}: {detail} -- {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def roster():
    """The 8 named fixtures plus 20 randomized doubly twisted products."""
    named = [
        ("fix-a-flat-direct", flat_direct_product()),
        ("fix-b-polar", fx.polar_plane()),
        ("fix-c-sphere", fx.sphere_polar()),
        ("fix-d-hyperbolic", fx.hyperbolic_polar()),
        ("fix-e-mobius-cover", fx.mobius_model().dtp),
        ("fix-f-skewed-cover", fx.skewed_torus_model().dtp),
        ("fix-g-twisted", fx.build_example1().dtp),
        ("fix-h-lorentz", fx.lorentz_direct()),
    ]
    dims = [(1, 1), (2, 1), (1, 2), (2, 2)]
    random = [(f"random-{seed}", random_twisted(seed, *dims[k % 4]))
              for k, seed in enumerate(range(100, 120))]
    return named + random


def test_the_roster_builder_at_2_2_is_the_fixture():
    x = np.random.default_rng(0).uniform(-0.9, 0.9, (5, 4))
    built, fixture = random_twisted(7, 2, 2), fx.random_doubly_twisted(7)
    assert np.array_equal(built.assembled.d2(x), fixture.assembled.d2(x))
    assert np.array_equal(built.lam2.hess_coords(x), fixture.lam2.hess_coords(x))


def _christoffel_gap(roster, rng):
    """Worst |closed form - FD oracle| over the whole Christoffel tensors at 50
    random points per fixture, one batch of each side per fixture."""
    worst = 0.0
    for name, dtp in roster:
        x = cli._rand_points(rng, dtp.domain_box, 50)
        gap = pg.point_geometry(dtp, x).gamma - ck.christoffel_numeric(dtp.assembled, x)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def _sectional_gap(roster, rng):
    """Worst |closed form - Riemann oracle| sectional curvature over the HH, VV
    and HV planes at 50 random points per fixture, drawn and evaluated as
    verify-all's sweep does it: one ``point_geometry`` and one
    ``riemann_numeric`` batch per fixture, one plane per point and case."""
    worst = 0.0
    for name, dtp in roster:
        per_case, _ = cli._sectional_residuals(dtp, rng, 50)
        worst = max([worst, *per_case.values()])
    return worst


def test_criterion_1_connection_closed_form(roster):
    t0 = time.perf_counter()
    worst = _christoffel_gap(roster, np.random.default_rng(1))
    dt = time.perf_counter() - t0
    _report(1, "closed-form Christoffel tensor vs FD oracle",
            f"worst residual {worst:.2e} (tol 1e-05) over 28 fixtures x 50 points, {dt:.1f}s (< 10s)",
            worst < 1e-5 and dt < 10.0)


def test_criterion_1_fails_on_a_sign_flipped_mixed_term(roster, monkeypatch):
    _patch_gamma(monkeypatch, _flip_mixed)
    assert _christoffel_gap(roster, np.random.default_rng(1)) > 1e-5


def test_criterion_2_sectional_closed_form(roster):
    rng = np.random.default_rng(2)
    worst = _sectional_gap(roster, rng)
    # constant-curvature checks on the polar models
    k_off = 0.0
    for dtp, want in ((fx.sphere_polar(), 1.0), (fx.hyperbolic_polar(), -1.0)):
        x = cli._rand_points(rng, dtp.domain_box, 10)
        U = np.tile([1.0, 0.0], (10, 1))
        V = np.stack([np.zeros(10), 1.0 / dtp.warp_value(2, x)], axis=1)
        k = pg._sectional_closed_form(dtp, pg.point_geometry(dtp, x), x, U, V)
        k_off = max(k_off, float(np.max(np.abs(k - want))))
    _report(2, "sectional curvature closed form vs Riemann oracle",
            f"worst residual {worst:.2e} (tol 1e-05); constant-curvature error {k_off:.2e} (tol 1e-06)",
            worst < 1e-5 and k_off < 1e-6)


def test_criterion_2_fails_on_a_sign_flipped_metric_term(roster, monkeypatch):
    _patch_gamma(monkeypatch, _flip_metric_term)
    assert _sectional_gap(roster, np.random.default_rng(2)) > 1e-5


def test_criterion_3_classification(roster):
    expected = {
        "fix-a-flat-direct": pg.StructureTag.DIRECT_PRODUCT,
        "fix-b-polar": pg.StructureTag.WARPED,
        "fix-c-sphere": pg.StructureTag.WARPED,
        "fix-d-hyperbolic": pg.StructureTag.WARPED,
        "fix-e-mobius-cover": pg.StructureTag.DIRECT_PRODUCT,
        "fix-f-skewed-cover": pg.StructureTag.DIRECT_PRODUCT,
        "fix-g-twisted": pg.StructureTag.TWISTED,
        "fix-h-lorentz": pg.StructureTag.DIRECT_PRODUCT,
    }
    mistakes = []
    evidence_g = None
    for name, dtp in roster:
        cls = pg.classify(dtp, per_axis=4)
        want = expected.get(name, pg.StructureTag.DOUBLY_TWISTED)
        if cls.tag is not want:
            mistakes.append((name, cls.tag.value, want.value))
        if name == "fix-g-twisted":
            evidence_g = cls.max_domega2
    dw = pg.classify(random_doubly_warped(200)).tag
    if dw is not pg.StructureTag.DOUBLY_WARPED:
        mistakes.append(("random-doubly-warped", dw.value, "doubly-warped"))
    margin_ok = evidence_g is not None and evidence_g > 10 * pg.CLOSED_TOL
    _report(3, "structure classification",
            f"misclassifications {mistakes}; twisted evidence max|domega2| = {evidence_g:.2e} "
            f"(> 10x threshold {10 * pg.CLOSED_TOL:.0e})",
            not mistakes and margin_ok)


def test_criterion_4_adapted_translation(roster):
    targets = [(n, d) for n, d in roster
               if n in ("fix-b-polar", "fix-c-sphere", "fix-d-hyperbolic", "fix-g-twisted")
               or n.startswith("random-")]
    rng = np.random.default_rng(4)
    worst_const = worst_norm = 0.0
    for name, dtp in targets:
        box = dtp.domain_box
        start = (0.75 * box[:, 0] + 0.25 * box[:, 1])
        end = start.copy()
        end[dtp.slot1] = (0.25 * box[:, 0] + 0.75 * box[:, 1])[dtp.slot1]
        curve = tp.PiecewiseCurve.line(start, end)
        vb = rng.normal(size=dtp.n2)
        res = carry(dtp, curve, dtp.embed(2, vb), 1, tol=1e-6)
        worst_const = max(worst_const, float(np.max(np.abs(res.components[:, dtp.slot2] - vb))))
        worst_norm = max(worst_norm, res.tol_achieved)
    _report(4, "adapted translation (component constancy + norm law)",
            f"factor-2 component drift {worst_const:.2e}, norm-law residual {worst_norm:.2e} (tol 1e-06) "
            f"on {len(targets)} fixtures",
            worst_const < 1e-6 and worst_norm < 1e-6)


def test_criterion_5_holonomy():
    mob = fx.mobius_model()
    rep0 = np.array([0.0, 0.0])
    frame = tp.normal_frame(mob.dtp, rep0, foliation=1)
    loop = qt.leaf_loop_curve(mob, rep0, 1, (("a", 1),))
    h1 = holonomy(mob, loop, frame, 1)
    mob_err = float(np.max(np.abs(h1.matrix - np.array([[-1.0]]))))

    torus_err = 0.0
    for model, loops in ((fx.flat_torus_model(), fx.HOLONOMY_LOOPS["flat-torus"]),
                         (fx.skewed_torus_model(), fx.HOLONOMY_LOOPS["skewed-torus"])):
        for i in (1, 2):
            for word in loops[i]:
                curve = qt.leaf_loop_curve(model, rep0, i, word)
                fr = tp.normal_frame(model.dtp, rep0, foliation=i)
                h = holonomy(model, curve, fr, i, qt.word_inverse(word))
                torus_err = max(torus_err, float(np.max(np.abs(h.matrix - np.eye(1)))))

    double = tp.PiecewiseCurve.from_function(lambda t: np.stack([2.0 * t, 0.0 * t], axis=1))
    h2 = holonomy(mob, double, frame, 1)
    comp_err = float(np.max(np.abs(h2.matrix - h1.matrix @ h1.matrix)))
    _report(5, "leaf holonomy via adapted translation",
            f"mobius -1 error {mob_err:.2e}, torus identity error {torus_err:.2e}, "
            f"composition error {comp_err:.2e} (tol 1e-06)",
            mob_err < 1e-6 and torus_err < 1e-6 and comp_err < 1e-6)


def test_criterion_6_intersection_counts():
    t0 = time.perf_counter()
    skew = qt.leaf_intersection_count(fx.skewed_torus_model(), [0.0, 0.0], word_bound=4)
    axis = qt.leaf_intersection_count(fx.flat_torus_model(), [0.0, 0.0], word_bound=4)
    mob = qt.leaf_intersection_count(fx.mobius_model(), [0.0, 0.0], word_bound=4)
    dt = time.perf_counter() - t0
    witness_reps = []
    model = fx.skewed_torus_model()
    for w1, _ in skew.witnesses:
        witness_reps.append(tuple(np.round(model.canonical_rep(w1)[0], 9)))
    distinct = len(set(witness_reps)) == 2
    _report(6, "leaf intersection counting (word bound 4)",
            f"skewed-torus {skew.count} (want 2, distinct witnesses {distinct}), "
            f"axis torus {axis.count} (want 1), mobius {mob.count} (want 1), {dt:.1f}s (< 5s)",
            skew.count == 2 and distinct and axis.count == 1 and mob.count == 1 and dt < 5.0)


def test_criterion_7_decomposition_verdicts():
    flat = qt.decomposition_check(fx.flat_torus_model(), [0.0, 0.0],
                                  fx.HOLONOMY_LOOPS["flat-torus"], word_bound=4)
    mob = qt.decomposition_check(fx.mobius_model(), [0.0, 0.0],
                                 fx.HOLONOMY_LOOPS["mobius"], word_bound=4)
    skew = qt.decomposition_check(fx.skewed_torus_model(), [0.0, 0.0],
                                  fx.HOLONOMY_LOOPS["skewed-torus"], word_bound=4)
    mob_count = qt.leaf_intersection_count(fx.mobius_model(), [0.0, 0.0], word_bound=4).count
    ok = (flat.tag == "global-doubly-warped-product"
          and mob.tag == "obstructed" and mob.reason.kind == "nontrivial-holonomy"
          and mob_count == 1
          and skew.tag == "obstructed" and skew.reason.kind == "multiple-intersections"
          and skew.reason.count == 2)
    _report(7, "global decomposition verdicts",
            f"flat-torus {flat.tag}; mobius {mob.tag}({mob.reason.kind}) with intersection count "
            f"{mob_count}; skewed {skew.tag}({skew.reason.kind}, {skew.reason.count})", ok)


def test_criterion_8_twisted_construction():
    model = fx.build_example1()
    resid = fx.example1_seam_residual(model)
    closed = qt.leaf_trace(model, [0.0, 0.0], 1)
    drifting = qt.leaf_trace(model, [0.0, 1.0], 1, arc_budget=6.0)
    cls = pg.classify(model.dtp, per_axis=5)
    ok = (resid < 1e-8 and closed.closed and not drifting.closed
          and cls.tag is pg.StructureTag.TWISTED)
    _report(8, "explicit twisted quotient construction",
            f"seam residual {resid:.2e} (tol 1e-08); leaf y=0 {closed.status}, "
            f"leaf y=1 {drifting.status}; classified {cls.tag.value}", ok)


def test_criterion_10_submersion_formulas(roster):
    rng = np.random.default_rng(10)
    worst_t = 0.0
    for name, dtp in roster:
        x = cli._rand_points(rng, dtp.domain_box, 5)
        E, F = rng.normal(size=(2,) + x.shape)
        gap = pg.oneill_T(dtp, x, E, F) - pg.oneill_T_definitional(
            dtp, ck.christoffel_numeric(dtp.assembled, x), E, F)
        worst_t = max(worst_t, float(np.max(np.abs(gap))))

    flat_vals = []
    for g in (ck.MetricField.constant(np.diag([-1.0, 1.0, 1.0])),
              fx.lorentz_direct().assembled):
        x = [0.1, -0.2, 0.3]
        xi, u, v = [1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]
        flat_vals.append(abs(pg.lightlike_sectional_curvature(g, x, xi, u, v)))
    flat_worst = max(flat_vals)

    # curved warped Lorentzian fibers: A = 0, so K_xi of mixed degenerate
    # planes must vanish although the space is curved
    dtp = lorentz_warped_fiber()
    curved_worst = 0.0
    for xv in (-0.5, 0.2, 0.6):
        x = np.array([xv, 0.1, -0.3])
        lam = dtp.warp_value(2, x)
        xi = [0.0, 1.0 / lam, 0.0]
        u = [0.0, -1.0 / lam, 1.0 / lam]
        v = [1.0, 0.0, 0.0]
        curved_worst = max(curved_worst,
                           abs(pg.lightlike_sectional_curvature(dtp.assembled, x, xi, u, v)))
    _report(10, "submersion T tensor and lightlike curvature",
            f"T closed-vs-definitional {worst_t:.2e} (tol 1e-05); flat lightlike {flat_worst:.2e} "
            f"(tol 1e-07); curved mixed degenerate {curved_worst:.2e} (tol 1e-05)",
            worst_t < 1e-5 and flat_worst < 1e-7 and curved_worst < 1e-5)


def test_criterion_11_verify_all_builtins(capsys):
    t0 = time.perf_counter()
    failures = []
    for name in sc.list_scenarios():
        code = cli.main(["run", name, "verify-all", "--seed", "0",
                         "--out", f"/tmp/warpquot-accept-{name}.json"])
        if code != 0:
            failures.append((name, code))
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print()
    _report(11, "verify-all across built-in scenarios",
            f"{len(sc.list_scenarios())} scenarios, failures {failures}, total {dt:.1f}s (< 300s)",
            not failures and dt < 300.0)
