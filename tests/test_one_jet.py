"""One callback per field: a value and its exact partials from one routine.

``MetricField`` and ``ScalarField`` take one callback, ``eval``, and declare
an ``exact_order``.  ``eval(x)`` is the value; ``eval(x, k)`` returns the
value with its partials up to k, and each field reads them through one
kernel, ``_jet``.  The counts below are checked callback calls
(``chartkit._call``) per batch; the figures before the one callback are
given beside each pin.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import scenario as sc
from warpquot.chartkit import MetricField, ScalarField, Signature
from warpquot.errors import NumericsError

from fixture_models import (bowl_warped, expanding_spacetime, lorentz_warped_fiber,
                            random_doubly_warped, strip_analytic)


def _counted_calls(monkeypatch) -> Counter:
    calls = Counter()
    exact = ck._call

    def counted(*args):
        calls["_call"] += 1
        return exact(*args)

    monkeypatch.setattr(ck, "_call", counted)
    return calls


def _points(dtp, count, seed=0):
    box = dtp.domain_box
    rng = np.random.default_rng(seed)
    return box[:, 0] + (0.05 + 0.9 * rng.random((count, dtp.n))) * (box[:, 1] - box[:, 0])


def _ref(name, strip):
    dtp = sc.resolve_scenario(name, seed=0).dtp
    return strip_analytic(dtp) if strip else dtp


@pytest.mark.parametrize("name", ["random-dtp", "sphere-polar"])
def test_point_geometry_reads_each_field_once(monkeypatch, name):
    # one jet per warp and per factor metric: 4 calls (15 before, where the
    # assembled metric, the warp values and the factor Christoffel symbols
    # each read the fields again)
    dtp = _ref(name, False)
    x = _points(dtp, 5)
    calls = _counted_calls(monkeypatch)
    for pts in (x[0], x):
        calls.clear()
        geo = pg.point_geometry(dtp, pts)
        assert calls["_call"] == 4
        np.testing.assert_array_equal(geo.g, dtp.assembled.mat(pts))
        np.testing.assert_array_equal(geo.lam[..., 1], dtp.lam2.value(pts))


@pytest.mark.parametrize("strip", [False, True], ids=["exact", "fd"])
def test_mean_curvature_form_reads_one_jet(monkeypatch, strip):
    # value and gradient of lam_i from one call (2 before: gradient, then value)
    dtp = _ref("random-dtp", strip)
    x = _points(dtp, 5)
    want = [pg.mean_curvature_form(dtp, x, i) for i in (1, 2)]
    calls = _counted_calls(monkeypatch)
    for i in (1, 2):
        for pts in (x[0], x):
            calls.clear()
            omega = pg.mean_curvature_form(dtp, pts, i)
            assert calls["_call"] == 1
        np.testing.assert_array_equal(omega, want[i - 1])


# (scenario, route): checked callback calls of one classify, before the one
# callback per field and now; the mixed hessian block is read only where
# N_i != 0, and on the FD route without a second gradient stencil (one call
# fewer per such warp than with the full order-2 jet: random-dtp fd 11,
# sphere-polar fd 9, example1-twisted 9 on either route)
CLASSIFY_CALLS = {
    ("random-dtp", "exact"): (11, 9), ("random-dtp", "fd"): (11, 9),
    ("sphere-polar", "exact"): (10, 8), ("sphere-polar", "fd"): (10, 8),
    ("lorentz-direct", "exact"): (9, 7), ("lorentz-direct", "fd"): (9, 7),
    ("example1-twisted", "exact"): (10, 8), ("example1-twisted", "fd"): (10, 8),
}


@pytest.mark.parametrize("name, route", sorted(CLASSIFY_CALLS))
def test_classify_makes_no_more_calls_than_before(monkeypatch, name, route):
    before, now = CLASSIFY_CALLS[name, route]
    dtp = _ref(name, route == "fd")
    calls = _counted_calls(monkeypatch)
    pg.classify(dtp)
    assert calls["_call"] == now <= before


def _fixture_fields():
    """(label, field) for every fixture field of exact order 1 or 2, and the
    log warps of every built-in product."""
    products = {name: sc.resolve_scenario(name, seed=0).dtp for name in sc.list_scenarios()}
    products.update({"random-dw-1": random_doubly_warped(1), "bowl": bowl_warped(),
                     "lorentz-warped-fiber": lorentz_warped_fiber(),
                     "expanding": expanding_spacetime(),
                     "random-dtp-7": fx.random_doubly_twisted(7)})
    out = []
    for name, dtp in products.items():
        fields = {"g1": dtp.f1.metric, "g2": dtp.f2.metric, "g": dtp.assembled,
                  "lam1": dtp.lam1, "lam2": dtp.lam2, "ln lam1": dtp.log_warp(1),
                  "ln lam2": dtp.log_warp(2)}
        for label, field in fields.items():
            if field.exact_order >= 1:
                out.append((f"{name}:{label}", field, dtp))
    return out


FIELDS = _fixture_fields()


@pytest.mark.parametrize("label, field, dtp", FIELDS, ids=[f[0] for f in FIELDS])
def test_each_order_of_eval_extends_the_lower_one_bit_for_bit(label, field, dtp):
    slot = {"g1": dtp.slot1, "g2": dtp.slot2}.get(label.split(":")[1], slice(None))
    x = _points(dtp, 6, seed=3)[:, slot]
    for cols in (np.ascontiguousarray(x[:1].T), np.ascontiguousarray(x.T)):
        cols.flags.writeable = False
        lower = (field.eval(cols),)
        for k in range(1, field.exact_order + 1):
            jet = field.eval(cols, k)
            assert isinstance(jet, tuple) and len(jet) == k + 1
            for a, b in zip(jet, lower):
                np.testing.assert_array_equal(a, b, strict=True)
            lower = jet


def test_the_assembled_order_is_the_least_factor_order():
    dtp = fx.random_doubly_twisted(2)
    assert dtp.assembled.exact_order == 2
    assert strip_analytic(dtp).assembled.exact_order == 0
    assert fx.build_example1().dtp.assembled.exact_order == 0  # its warp is a value only
    one = dataclasses.replace(dtp.lam1, exact_order=1)
    assert pg.assemble(dtp.f1, dtp.f2, one, dtp.lam2).assembled.exact_order == 1


def test_partials_above_the_exact_order_are_central_differences():
    # an order-1 field: its hessian is the FD hessian of its values, as the
    # same values with no exact partials give it
    exact = fx.trig_warp([0.2], [[0.7, -0.4]], [0.3])
    order1 = dataclasses.replace(exact, exact_order=1)
    bare = dataclasses.replace(exact, exact_order=0)
    x = np.array([[0.1, 0.2], [-0.3, 0.5]])
    np.testing.assert_array_equal(order1.grad_coords(x), exact.grad_coords(x))
    np.testing.assert_array_equal(order1.hess_coords(x), bare.hess_coords(x))
    assert np.allclose(bare.hess_coords(x), exact.hess_coords(x), atol=1e-6)
    assert not np.array_equal(bare.hess_coords(x), exact.hess_coords(x))


def test_a_callback_must_answer_its_declared_order():
    plain = MetricField(1, lambda x, *order: np.ones((1, 1) + x.shape[1:]),
                        Signature.riemannian(1), exact_order=1)
    plain.mat([0.5])  # the value alone is fine
    for x in ([0.5], [[0.5], [0.7]]):
        with pytest.raises(NumericsError, match=r"^metric eval at order 1 returned ndarray, "
                                                r"expected a tuple of 2 arrays$"):
            plain.d1(x)
    with pytest.raises(ValueError, match="exact_order must be 0, 1 or 2"):
        ScalarField(lambda x: x[0], exact_order=3)
    with pytest.raises(ValueError, match="exact_order must be 0, 1 or 2"):
        MetricField(1, plain.eval, Signature.riemannian(1), exact_order=-1)


def test_scalar_field_entry_points_check_their_points():
    warp = fx.trig_warp([0.2], [[0.7, -0.4]], [0.3])
    for method in (warp.value, warp.grad_coords, warp.hess_coords):
        for pts, bad in (([np.nan, 0.0], [np.nan, 0.0]), ([[0.1, 0.2], [0.0, np.inf]], [0.0, np.inf])):
            with pytest.raises(NumericsError) as raised:
                method(pts)
            assert str(raised.value) == f"non-finite coordinates in {np.array(bad)}"
        with pytest.raises(ValueError, match=r"expected a point"):
            method(np.zeros((2, 2, 2)))
    assert warp.value([0.1, 0.2]) == float(warp.value(np.array([[0.1, 0.2]]))[0])


def test_mean_curvature_form_checks_its_points():
    dtp = _ref("random-dtp", False)
    x = _points(dtp, 2)
    for pts in (np.zeros((2, 2, 4)), x[:, :3]):
        with pytest.raises(ValueError, match=r"^expected a point \(4,\) or a batch \(P, 4\)"):
            pg.mean_curvature_form(dtp, pts, 1)
    bad = x.copy()
    bad[1, 2] = np.nan
    with pytest.raises(NumericsError) as raised:
        pg.mean_curvature_form(dtp, bad, 2)
    assert str(raised.value) == f"non-finite coordinates in {bad[1]}"


@pytest.mark.parametrize("strip", [False, True], ids=["exact", "fd"])
def test_mean_curvature_form_at_one_point_is_the_first_row_of_its_batch(strip):
    # one return form: the components (n,) at one point, as (P, n) for a batch
    dtp = _ref("random-dtp", strip)
    x = _points(dtp, 3)
    for i in (1, 2):
        one = pg.mean_curvature_form(dtp, x[0], i)
        assert type(one) is np.ndarray and one.shape == (dtp.n,)
        np.testing.assert_array_equal(one, pg.mean_curvature_form(dtp, x[:1], i)[0])


def test_a_coord_point_of_the_wrong_width_is_refused_by_name():
    # a point is checked for its width, not left to numpy's broadcast error
    dtp = _ref("random-dtp", False)
    short = np.zeros(3)
    for call in (lambda: pg.mean_curvature_form(dtp, short, 1), lambda: dtp.assembled.mat(short)):
        with pytest.raises(ValueError, match=r"^expected a point \(4,\) or a batch \(P, 4\), "
                                             r"got shape \(3,\)$"):
            call()


# ---------------------------------------------------------------------------
# example1's gluing chain walks a bounded number of levels


def _counted_gluing(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("_h_and_prime", "h_inverse"):
        exact = getattr(fx.TwistedGluing, name)

        def counted(self, y, _exact=exact, _name=name):
            calls[_name] += 1
            return _exact(self, y)

        monkeypatch.setattr(fx.TwistedGluing, name, counted)
    return calls


@pytest.mark.parametrize("point, levels", [((1e5, 1e5), "100000"), ((1e200, 1e200), "1e+200"),
                                           ((-1e5, 0.5), "100000")])
def test_a_point_beyond_the_gluing_levels_is_refused_at_once(monkeypatch, point, levels):
    lam = fx.build_example1().dtp.lam2
    calls = _counted_gluing(monkeypatch)
    with pytest.raises(NumericsError) as raised:
        lam.value(point)
    assert str(raised.value) == (f"twisted-lam at {np.array(point)}: {levels} gluing levels "
                                 f"from the strip 0 <= x < 1, beyond GLUING_LEVELS = 64")
    assert calls == Counter()


def test_the_gluing_chain_walks_each_level_once(monkeypatch):
    lam = fx.build_example1().dtp.lam2
    calls = _counted_gluing(monkeypatch)
    edge = fx.GLUING_LEVELS + 0.5
    lam.value([edge, 0.5])  # the last level within the cap
    assert calls == Counter({"_h_and_prime": fx.GLUING_LEVELS + 1})  # the levels, then h'(y)
    calls.clear()
    lam.value([1.0 - edge, 0.5])
    assert calls["h_inverse"] == fx.GLUING_LEVELS
    with pytest.raises(NumericsError, match="65 gluing levels"):
        lam.value([edge + 1.0, 0.5])
