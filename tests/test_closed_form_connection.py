"""The closed-form product connection and the per-point geometry record.

``productgeo.point_geometry`` builds Gamma of the product from the factor
Christoffel symbols and d ln lam_i alone; the closed-form connection, warp
hessians and sectional curvature read that record.  These tests compare it
with the product-level oracle (``christoffel_numeric`` on the assembled
metric), show that a broken term fails the checks that should catch it, and
guard that the closed forms stay independent of the oracle and make one
evaluation of the assembled metric per call.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot import scenario as sc

BUILTINS = sc.list_scenarios()
RANDOM_SEEDS = (0, 3, 11)


def products():
    """(label, product) for the built-ins and three random doubly twisted products."""
    out = [(name, sc.resolve_scenario(name, seed=0).dtp) for name in BUILTINS]
    return out + [(f"random-dtp-{s}", fx.random_doubly_twisted(s)) for s in RANDOM_SEEDS]


def sample_points(dtp, count, seed=0):
    rng = np.random.default_rng(seed)
    box = dtp.domain_box
    return box[:, 0] + (0.05 + 0.9 * rng.random((count, dtp.n))) * (box[:, 1] - box[:, 0])


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main(["run", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def checks_of(report):
    return {c["check"]: c for c in report["results"]["checks"]}


# ---------------------------------------------------------------------------
# closed form against the oracle

@pytest.mark.parametrize("label, dtp", products(), ids=lambda v: v if isinstance(v, str) else "")
def test_closed_form_christoffel_matches_the_oracle(label, dtp):
    # analytic route: both sides exact up to rounding; example1's warp has no
    # exact derivatives, so its assembled metric takes the FD route
    pts = sample_points(dtp, 6)
    tol = 1e-9 if dtp.assembled.exact_order >= 1 else 1e-5
    gap = np.max(np.abs(pg.point_geometry(dtp, pts).gamma
                        - ck.christoffel_numeric(dtp.assembled, pts)))
    assert gap < tol, f"{label}: {gap:.2e}"


@pytest.mark.parametrize("label, dtp", products(), ids=lambda v: v if isinstance(v, str) else "")
def test_closed_form_christoffel_matches_the_oracle_on_the_fd_route(label, dtp):
    bare = fx.strip_analytic(dtp)
    pts = sample_points(bare, 6, seed=1)
    gap = np.max(np.abs(pg.point_geometry(bare, pts).gamma
                        - ck.christoffel_numeric(bare.assembled, pts)))
    assert gap < 1e-5, f"{label}: {gap:.2e}"


@pytest.mark.parametrize("strip", [False, True])
def test_batched_closed_form_equals_the_single_point_one(strip):
    # rows of a batch see numpy's array kernels, one point its scalar path:
    # exact derivatives agree to rounding, central differences to rounding / step
    for label, dtp in products():
        dtp = fx.strip_analytic(dtp) if strip else dtp
        pts = sample_points(dtp, 5, seed=2)
        batch = pg.point_geometry(dtp, pts).gamma
        assert batch.shape == (5,) + (dtp.n,) * 3
        single = np.stack([pg.point_geometry(dtp, p).gamma for p in pts])
        assert single.shape == batch.shape
        assert np.allclose(batch, single, rtol=0.0, atol=1e-9 if strip else 1e-13), label


def test_warp_hessian_of_the_record_matches_the_oracle():
    for dtp in (fx.random_doubly_twisted(3), fx.sphere_polar(), fx.strip_analytic(fx.random_doubly_warped(8))):
        x = sample_points(dtp, 1, seed=4)[0]
        for i in (1, 2):
            want = ck.hessian_matrix(dtp.warp(i), dtp.assembled, x)
            got = pg.point_geometry(dtp, x).warp_hessian(i)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# negative controls: a broken term fails the check that covers it

def _patch_gamma(monkeypatch, change):
    exact = pg.point_geometry

    def broken(dtp, x):
        geo = exact(dtp, x)
        return dataclasses.replace(geo, gamma=change(dtp, geo))

    monkeypatch.setattr(pg, "point_geometry", broken)


def _flip_mixed(dtp, geo):
    # i in one block, j in the other: delta^k_i d_j phi_A + delta^k_j d_i phi_B
    gamma = geo.gamma.copy()
    s1, s2 = dtp.slot1, dtp.slot2
    gamma[..., :, s1, s2] *= -1.0
    gamma[..., :, s2, s1] *= -1.0
    return gamma


def _flip_metric_term(dtp, geo):
    # - g_ij (g^-1 d phi_A)^k for i, j in block A
    dphi = (geo.dlam / geo.lam[..., None])[..., np.repeat([0, 1], [dtp.n1, dtp.n2]), :]
    term = geo.g[..., None, :, :] * (dphi @ geo.ginv).swapaxes(-1, -2)[..., :, :, None]
    return geo.gamma + 2.0 * term


def test_sign_flipped_mixed_term_fails_the_connection_row(tmp_path, monkeypatch):
    code, report = run(tmp_path, "random-dtp", "verify-all", "--samples", "8")
    assert code == 0 and checks_of(report)["connection-closed-form"]["pass"] is True
    _patch_gamma(monkeypatch, _flip_mixed)
    code, report = run(tmp_path, "random-dtp", "verify-all", "--samples", "8")
    assert code == 1
    checks = checks_of(report)
    assert checks["connection-closed-form"]["pass"] is False
    assert checks["christoffel-symmetry"]["pass"] is True  # the oracle is untouched


def test_sign_flipped_metric_term_fails_the_mixed_curvature_row(tmp_path, monkeypatch):
    code, report = run(tmp_path, "random-dtp", "curvature", "--samples", "8")
    assert code == 0 and checks_of(report)["closed-vs-oracle-HV"]["pass"] is True
    _patch_gamma(monkeypatch, _flip_metric_term)
    code, report = run(tmp_path, "random-dtp", "curvature", "--samples", "8")
    assert code == 1
    assert checks_of(report)["closed-vs-oracle-HV"]["pass"] is False


# ---------------------------------------------------------------------------
# independence from the oracle and one metric evaluation per call

def _count_calls_on(monkeypatch, g):
    """Count evaluations of g, top-level calls of its kernels
    ``MetricField._mat`` and ``MetricField._jet`` and of its output check
    ``MetricField._checked`` (every public metric method and every internal
    evaluation goes through one of them; the exact route's ``_jet`` reads g
    and its partials from one pass over the factor fields, and
    ``point_geometry`` checks the g it assembles from the factor jets, each
    of which counts as one evaluation), and the oracle-side chartkit calls
    that take g."""
    state = {"depth": 0, "mat": 0, "oracle": []}
    for kernel in ("_mat", "_jet", "_checked"):
        def counted_kernel(self, cols, *args, _exact=getattr(ck.MetricField, kernel)):
            state["mat"] += state["depth"] == 0 and self is g
            state["depth"] += 1
            try:
                return _exact(self, cols, *args)
            finally:
                state["depth"] -= 1

        monkeypatch.setattr(ck.MetricField, kernel, counted_kernel)
    for name, arg in (("christoffel_numeric", 0), ("inner_product", 0), ("gradient", 1),
                      ("hessian_matrix", 1)):
        exact = getattr(ck, name)

        def counted(*args, _exact=exact, _name=name, _arg=arg):
            if args[_arg] is g:
                state["oracle"].append(_name)
            return _exact(*args)

        monkeypatch.setattr(ck, name, counted)
    return state


@pytest.mark.parametrize("strip", [False, True])
def test_closed_forms_evaluate_the_product_metric_once(monkeypatch, strip):
    dtp = fx.random_doubly_twisted(4)
    dtp = fx.strip_analytic(dtp) if strip else dtp
    x = sample_points(dtp, 1, seed=5)[0]
    planes = [ck.gram_schmidt(dtp.assembled, x, np.stack([dtp.embed(i, [1.0, 0.3]),
                                                          dtp.embed(j, [-0.2, 1.0])], axis=1)).T
              for i, j in ((1, 1), (2, 2), (1, 2))]
    state = _count_calls_on(monkeypatch, dtp.assembled)
    for plane in planes:
        state["mat"] = 0
        pg.sectional_curvature_closed_form(dtp, x, *plane)
        assert state["mat"] <= 1
    for pts in (x, sample_points(dtp, 5, seed=5)):  # one point_geometry, one or many points
        state["mat"] = 0
        pg.point_geometry(dtp, pts)
        assert state["mat"] == 1
    assert state["oracle"] == []


def test_fd_riemann_evaluates_the_metric_once(monkeypatch):
    dtp = fx.strip_analytic(fx.random_doubly_twisted(4))
    g = dtp.assembled
    assert g.exact_order == 0
    x = 0.5 * (g.domain_box[:, 0] + g.domain_box[:, 1])
    state = _count_calls_on(monkeypatch, g)
    for pts in (x, sample_points(dtp, 5)):
        state["mat"] = 0
        ck.riemann_numeric(g, pts)
        assert state["mat"] == 1


@pytest.mark.parametrize("strip", [False, True], ids=["analytic", "fd"])
def test_christoffel_rows_evaluate_one_stencil(monkeypatch, strip):
    # the compatibility stencil is the FD oracle's own: without exact
    # derivatives Gamma comes from it, bit for bit christoffel_numeric's
    dtp = fx.random_doubly_twisted(4)
    dtp = fx.strip_analytic(dtp) if strip else dtp
    g = dtp.assembled
    want_x = cli._rand_points(np.random.default_rng(4), dtp.domain_box, 5)
    state = _count_calls_on(monkeypatch, g)
    x, gamma, _, _ = cli._christoffel_residuals(dtp, np.random.default_rng(4), 5)
    assert np.array_equal(x, want_x)
    assert state["mat"] == (1 if strip else 2)
    assert state["oracle"] == ([] if strip else ["christoffel_numeric"])
    assert np.array_equal(gamma, ck.christoffel_numeric(g, x))


def test_analytic_riemann_evaluates_the_metric_once(monkeypatch):
    dtp = fx.random_doubly_twisted(4)
    g = dtp.assembled
    assert g.exact_order == 2
    x = 0.5 * (g.domain_box[:, 0] + g.domain_box[:, 1])
    orders = []
    exact_eval = g.eval

    def ev(x, *order):
        orders.append(order)
        return exact_eval(x, *order)

    g.eval = ev
    state = _count_calls_on(monkeypatch, g)
    for pts in (x, sample_points(dtp, 5)):
        state["mat"] = 0
        orders.clear()
        ck.riemann_numeric(g, pts)
        assert (state["mat"], orders) == (1, [(2,)])  # g, dg and ddg from one factor pass


def _factor_passes(monkeypatch, dtp):
    """Count the passes over the factor fields of dtp's assembled metric:
    each reads lam1's jet once."""
    calls = {"passes": 0}
    exact = ck.ScalarField._jet

    def jet(self, cols, order):
        calls["passes"] += self is dtp.lam1
        return exact(self, cols, order)

    monkeypatch.setattr(ck.ScalarField, "_jet", jet)
    return calls


@pytest.mark.parametrize("oracle, order", [("christoffel_numeric", 1), ("riemann_numeric", 2)])
def test_the_exact_route_makes_one_factor_pass_per_batch(monkeypatch, oracle, order):
    # one call of the one callback per batch, at the order the oracle reads;
    # a plain field around the same callback gets the same bits from one pass
    dtp = sc.resolve_scenario("random-dtp", seed=0).dtp
    g = dtp.assembled
    orders = []

    def ev(x, *k):
        orders.append(k)
        return g.eval(x, *k)

    plain = ck.MetricField(g.dim, ev, g.signature, exact_order=g.exact_order)
    calls = _factor_passes(monkeypatch, dtp)
    for pts in (sample_points(dtp, 1)[0], sample_points(dtp, 5)):
        calls["passes"] = 0
        got = getattr(ck, oracle)(g, pts)
        assert calls["passes"] == 1
        orders.clear()
        want = getattr(ck, oracle)(plain, pts)
        assert calls["passes"] == 2 and orders == [(order,)]
        np.testing.assert_array_equal(got, want)


def test_verify_all_reads_its_christoffel_points_from_one_record(monkeypatch):
    residuals = cli._christoffel_residuals
    geometry, form = pg.point_geometry, pg.mean_curvature_form
    seen = {"geometry": [], "form": []}

    def christoffel_residuals(dtp, rng, samples):
        out = residuals(dtp, rng, samples)
        seen["x"] = out[0]
        return out

    def point_geometry(dtp, x):
        seen["geometry"].append(np.array(x, dtype=float))
        return geometry(dtp, x)

    def mean_curvature_form(dtp, x, i):
        seen["form"].append(np.array(x, dtype=float))
        return form(dtp, x, i)

    monkeypatch.setattr(cli, "_christoffel_residuals", christoffel_residuals)
    monkeypatch.setattr(pg, "point_geometry", point_geometry)
    monkeypatch.setattr(pg, "mean_curvature_form", mean_curvature_form)
    for name in ("random-dtp", "sphere-polar", "mobius"):
        seen.update(geometry=[], form=[])
        assert cli.main(["run", name, "verify-all", "--out", os.devnull]) == 0
        assert seen["x"].shape == (8, sc.resolve_scenario(name).dtp.n)
        at_x = {key: sum(np.array_equal(p, seen["x"]) for p in seen[key])
                for key in ("geometry", "form")}
        assert at_x == {"geometry": 1, "form": 0}, name


@pytest.mark.parametrize("strip", [False, True], ids=["analytic", "fd"])
def test_batched_riemann_equals_the_per_point_tensors(strip):
    # the fixtures sum term by term, so a point's g has the same bits in any
    # batch, and so has everything differentiated from it
    dtp = fx.random_doubly_twisted(4)
    dtp = fx.strip_analytic(dtp) if strip else dtp
    pts = sample_points(dtp, 6, seed=2)
    batch = ck.riemann_numeric(dtp.assembled, pts)
    single = np.stack([ck.riemann_numeric(dtp.assembled, x) for x in pts])
    assert batch.shape == (6,) + (dtp.n,) * 4
    np.testing.assert_array_equal(batch, single)


def test_batched_sectional_kernels_equal_the_per_plane_calls():
    # one case per batch, the mixed planes in both orders, and a batch that
    # mixes the cases row by row
    dtp = fx.random_doubly_twisted(4)
    pts = sample_points(dtp, 5, seed=3)
    gm = dtp.assembled.mat(pts)
    rng = np.random.default_rng(3)
    planes = {}
    for case, slots in (("HH", (1, 1)), ("VV", (2, 2)), ("HV", (1, 2))):
        U, V, found = pg._sample_planes(dtp, rng, gm, slots)
        assert found.all()
        planes[case] = (U, V)
    cases = ("HH", "VV", "HV")
    batches = list(planes.values()) + [planes["HV"][::-1]]
    batches.append(tuple(np.array([planes[cases[p % 3]][k][p] for p in range(len(pts))])
                         for k in (0, 1)))
    geo = pg.point_geometry(dtp, pts)
    riem = ck.riemann_numeric(dtp.assembled, pts)
    for U, V in batches:
        kc = pg._sectional_closed_form(dtp, geo, pts, U, V)
        kn = ck._sectional_curvature(gm, riem, U, V, pts)
        assert np.max(np.abs(kc - kn)) < 1e-12
        for p, x in enumerate(pts):
            u, v = U[p], V[p]
            assert kc[p] == pytest.approx(pg.sectional_curvature_closed_form(dtp, x, u, v),
                                          abs=1e-12)
            assert kn[p] == pytest.approx(ck.sectional_curvature_numeric(dtp.assembled, x, u, v),
                                          abs=1e-12)


class _ScriptedNormals:
    """A generator whose ``normal`` draws pass through ``script(call, draw)``;
    records the shape of each draw."""

    def __init__(self, seed, script):
        self._gen = np.random.default_rng(seed)
        self._script = script
        self.shapes = []

    def random(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        draw = self._gen.normal(size=size)
        self.shapes.append(draw.shape)
        return self._script(len(self.shapes) - 1, draw)


def test_plane_sampling_redraws_only_the_failed_rows():
    dtp = fx.random_doubly_twisted(4)
    pts = sample_points(dtp, 5, seed=6)
    gm = dtp.assembled.mat(pts)

    def parallel_first(call, draw):
        if call < 2:  # u and v parallel at rows 0 and 2: Gram-Schmidt fails there
            draw[[0, 2]] = 1.0
        return draw

    rng = _ScriptedNormals(6, parallel_first)
    U, V, found = pg._sample_planes(dtp, rng, gm, (1, 1))
    assert found.all()
    assert rng.shapes == [(5, dtp.n1)] * 2 + [(2, dtp.n1)] * 2
    for W, Z in ((U, U), (V, V), (U, V)):
        q = np.einsum("pi,pij,pj->p", W, gm, Z)
        assert np.allclose(np.abs(q), 0.0 if W is not Z else 1.0, atol=1e-12)


def test_a_case_without_a_plane_gives_no_row_after_60_tries():
    # every draw is the all-ones vector: a factor plane never has two
    # independent directions, a mixed plane always does
    dtp = fx.random_doubly_twisted(4)
    rng = _ScriptedNormals(7, lambda call, draw: np.ones_like(draw))
    worst, k_values = cli._sectional_residuals(dtp, rng, 4)
    assert list(worst) == ["HV"] and len(k_values) == 4
    assert rng.shapes == [(4, dtp.n1)] * 120 + [(4, dtp.n2)] * 120 + [(4, dtp.n1), (4, dtp.n2)]


def test_sectional_oracle_reads_the_metric_twice(monkeypatch):
    g = fx.random_doubly_twisted(4).assembled
    x = 0.5 * (g.domain_box[:, 0] + g.domain_box[:, 1])
    u, v = ck.gram_schmidt(g, x, np.array([[1.0, 0.2, 0.0, 0.3], [0.0, 1.0, 0.5, 0.0]]).T).T
    state = _count_calls_on(monkeypatch, g)
    ck.sectional_curvature_numeric(g, x, u, v)
    assert state["mat"] == 2  # the plane's products, and the Riemann tensor's own


# ---------------------------------------------------------------------------
# one word enumeration per model and bound

def test_decomposition_check_enumerates_the_words_once(monkeypatch):
    calls = []
    exact = qt.QuotientModel.enumerate_words

    def counted(self, max_len):
        calls.append(max_len)
        return exact(self, max_len)

    model = fx.klein_bottle_model()
    want = qt.decomposition_check(model, [0.1, 0.2], {})
    monkeypatch.setattr(qt.QuotientModel, "enumerate_words", counted)
    model = fx.klein_bottle_model()
    got = qt.decomposition_check(model, [0.1, 0.2], {})
    assert (got.tag, got.reason) == (want.tag, want.reason)
    assert got.intersections.count == want.intersections.count == 2
    assert calls == [model.word_bound]
    assert qt.leaf_loops(model, np.zeros(2)) == qt.leaf_loops(fx.klein_bottle_model(), np.zeros(2))
    assert calls == [model.word_bound] * 2  # the fresh model enumerates once more
    # every orbit lookup at the model's bound reads the same enumeration: a
    # fresh model enumerates on its first reduction, and never again
    far = model.apply_word((("a", 1), ("a", 1), ("b", -1)), np.array([0.3, 0.4]))
    for fresh in (False, True):
        model = fx.klein_bottle_model() if fresh else model
        rep, word = model.canonical_rep(far)
        assert word and model.in_box(rep)
        assert calls == [model.word_bound] * (3 if fresh else 2)
        assert model.find_closing_word(far, rep) == word
        assert qt.leaf_intersection_count(model, far).count == 2
        assert qt.decomposition_check(model, far, {}).intersections.count == 2
        assert calls == [model.word_bound] * (3 if fresh else 2)
