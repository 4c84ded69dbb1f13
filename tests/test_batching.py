"""Batch forms against per-point calls.

``MetricField.mat/inv/d1/d2`` and ``ScalarField.value/grad_coords/hess_coords``
accept a ``(P, n)`` batch; every result must match a loop of per-point calls,
every per-point check must fire inside a batch with the same error class, and
``classify`` (one batched sweep) must match a per-point reference.

Exact equality is asserted where the callbacks use only elementwise numpy
functions, which round one point and a batch alike.  The trigonometric warps
and conformal metrics of the random products sum term by term in a fixed
order instead of contracting with BLAS (``freqs @ x``), whose kernels sum in
an order that depends on the batch size; so they batch exactly too, on both
routes, down to the nested finite differences of ``riemann_numeric``.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpquot import chartkit as ck
from warpquot import expr
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import scenario
from warpquot.chartkit import MetricField, ScalarField, Signature
from warpquot.errors import DegenerateMetric, InvalidWarp, NumericsError

from random_products import random_twisted
from fixture_models import (bowl_warped, expanding_spacetime, flat_direct_product,
                            lorentz_warped_fiber, random_doubly_warped, strip_analytic)

BUILTINS = scenario.list_scenarios()
EXACT_PRODUCTS = {  # elementwise callbacks only
    "flat-direct": flat_direct_product,
    "polar-plane": fx.polar_plane,
    "sphere-polar": fx.sphere_polar,
    "hyperbolic-polar": fx.hyperbolic_polar,
    "lorentz-direct": fx.lorentz_direct,
    "lorentz-warped-fiber": lorentz_warped_fiber,
    "expanding-spacetime": expanding_spacetime,
    "bowl-warped": bowl_warped,
    "example1": lambda: fx.build_example1().dtp,
}
RANDOM_PRODUCTS = {
    "random-dtp-4": lambda: fx.random_doubly_twisted(4),
    "random-dtp-11": lambda: fx.random_doubly_twisted(11),
    "random-dw-2": lambda: random_doubly_warped(2),
    "random-dtp-5-3-3": lambda: random_twisted(5, 3, 3),
}


def batch_points(dtp, count=13, seed=0):
    rng = np.random.default_rng(seed)
    box = dtp.domain_box
    return box[:, 0] + (0.05 + 0.9 * rng.random((count, dtp.n))) * (box[:, 1] - box[:, 0])


def field_results(dtp, pts):
    """Every batch-capable quantity, batched and as a loop of per-point calls."""
    g = dtp.assembled
    out = {"mat": (g.mat(pts), np.stack([g.mat(p) for p in pts])),
           "inv": (g.inv(pts), np.stack([g.inv(p) for p in pts])),
           "dg": (g.d1(pts), np.stack([g.d1(p) for p in pts])),
           "ddg": (g.d2(pts), np.stack([g.d2(p) for p in pts]))}
    for i in (1, 2):
        w = dtp.warp(i)
        out[f"lam{i}"] = (w.value(pts), np.array([w.value(p) for p in pts]))
        out[f"grad{i}"] = (w.grad_coords(pts), np.stack([w.grad_coords(p) for p in pts]))
        out[f"hess{i}"] = (w.hess_coords(pts), np.stack([w.hess_coords(p) for p in pts]))
    return out


@pytest.mark.parametrize("name", sorted(EXACT_PRODUCTS))
@pytest.mark.parametrize("route", ["analytic", "fd"])
def test_batch_equals_pointwise_exactly(name, route):
    dtp = EXACT_PRODUCTS[name]()
    if route == "fd":
        dtp = strip_analytic(dtp)
    for key, (batched, looped) in field_results(dtp, batch_points(dtp)).items():
        assert batched.shape == looped.shape, key
        np.testing.assert_array_equal(batched, looped, err_msg=f"{name} {route} {key}")


@pytest.mark.parametrize("name", sorted(RANDOM_PRODUCTS))
@pytest.mark.parametrize("route", ["analytic", "fd"])
def test_batch_matches_pointwise_to_rounding(name, route):
    # named for the rounding bound it held while the random fixtures
    # contracted with BLAS; they sum term by term now, and the bound is 0
    dtp = RANDOM_PRODUCTS[name]()
    if route == "fd":
        dtp = strip_analytic(dtp)
    for key, (batched, looped) in field_results(dtp, batch_points(dtp)).items():
        assert batched.shape == looped.shape, key
        np.testing.assert_array_equal(batched, looped, err_msg=f"{name} {route} {key}")


@pytest.mark.parametrize("name", ["random-dtp", "random-dtp-4-fd"])
def test_random_product_oracles_batch_bit_for_bit(name):
    dtp = (scenario.resolve_scenario("random-dtp").dtp if name == "random-dtp"
           else strip_analytic(fx.random_doubly_twisted(4)))
    g = dtp.assembled
    pts = batch_points(dtp, 7, seed=5)
    for key, fn in (("mat", g.mat), ("christoffel", lambda x: ck.christoffel_numeric(g, x)),
                    ("riemann", lambda x: ck.riemann_numeric(g, x))):
        np.testing.assert_array_equal(fn(pts), np.stack([fn(x) for x in pts]), err_msg=key)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_scenario_fields_batch(name):
    dtp = scenario.resolve_scenario(name).dtp
    for key, (batched, looped) in field_results(dtp, batch_points(dtp, seed=3)).items():
        np.testing.assert_array_equal(batched, looped, err_msg=key)


def test_single_point_shapes_unchanged():
    dtp = fx.random_doubly_twisted(2)
    x = batch_points(dtp, 1)[0]
    w = dtp.lam1
    assert dtp.assembled.mat(x).shape == (4, 4)
    assert dtp.assembled.inv(x).shape == (4, 4)
    assert isinstance(w.value(x), float)
    assert w.grad_coords(x).shape == (4,)
    assert w.hess_coords(x).shape == (4, 4)
    assert dtp.assembled.mat(x[None]).shape == (1, 4, 4)
    assert w.value(x[None]).shape == (1,)


# ---------------------------------------------------------------------------
# central differences


def test_central_diff_batch_equals_pointwise():
    f = lambda pts: np.stack([np.sin(pts[:, 0]) * pts[:, 1] ** 3, np.exp(pts[:, 1])], axis=1)
    X = np.array([[0.3, -0.7], [1.1, 2.0], [-2.5, 0.01]])
    steps = ck.fd_step(X, ck.FD_STEP_1)
    batched = ck.central_diff(f, X, steps)
    assert batched.shape == (3, 2, 2)
    for p, x in enumerate(X):
        np.testing.assert_array_equal(batched[p], ck.central_diff(f, x, steps[p]))
    second = ck.central_diff(f, X, ck.fd_step(X, ck.FD_STEP_2), order=2)
    assert second.shape == (3, 2, 2, 2)
    x, y = X[:, 0], X[:, 1]
    exact = np.stack([np.stack([-np.sin(x) * y ** 3, 3 * np.cos(x) * y ** 2], -1),
                      np.stack([3 * np.cos(x) * y ** 2, 6 * np.sin(x) * y], -1)], -2)
    np.testing.assert_allclose(second[:, :, :, 0], exact, atol=1e-5)


def test_central_diff_makes_one_call():
    calls = []

    def f(pts):
        calls.append(pts.shape)
        return pts[:, 0] * pts[:, 1]

    X = np.zeros((5, 3))
    ck.central_diff(f, X, np.full(X.shape, 1e-3))
    ck.central_diff(f, X, np.full(X.shape, 1e-3), order=2)
    assert calls == [(5 * 6, 3), (5 * (2 * 9 + 1), 3)]


# ---------------------------------------------------------------------------
# expression function table


def _scalar_and_batch(src, names, cols):
    # one point as a batch of one, (n, 1), here a stride-0 view: a compiled
    # expression takes any layout (a field passes a reshaped column)
    f = expr.compile_expr(src, names)
    batch = np.asarray(f(np.array(cols)))
    single = np.array([f(np.array(c)[:, None])[0] for c in zip(*cols)])
    return batch, single


@pytest.mark.parametrize("src", [
    "smoothstep(t)", "min(t, 0.2, 2*t - 0.5)", "max(t, -t, 0.1)", "abs(t - 0.3)",
    "pow(abs(t) + 1, 2.5)", "(abs(t) + 1) ** 1.5 - t ** 2", "exp(-t) * sin(3*t) + cosh(t)",
    "atan2(t, 1 + t*t) + sqrt(abs(t)) + log(2 + t)", "tanh(t) / (1 + t*t)", "2.5",
    "pow(2 + t, 2 * t + 1) + (3 + t) ** (0.5 + t - t)",
])
def test_expr_scalar_equals_batch(src):
    ts = [-1.0, -0.2, 0.0, 0.25, 0.5, 0.75, 1.0, 1.3]
    batch, single = _scalar_and_batch(src, ["t"], [ts])
    assert batch.shape == (len(ts),)
    np.testing.assert_array_equal(batch, single)


def test_expr_smoothstep_values():
    f = expr.compile_expr("smoothstep(t)", ["t"])
    got = f(np.array([[-2.0, -1e-300, 0.0, 0.5, 1.0, 1.0 + 1e-12, 7.0]]))
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])


def test_expr_min_max_many_arguments():
    f = expr.compile_expr("min(x, y, 0.5) + max(x, y, -0.5, 2*x)", ["x", "y"])
    cols = [[0.1, 0.9, -0.3], [0.7, 0.2, -0.8]]
    want = [min(x, y, 0.5) + max(x, y, -0.5, 2 * x) for x, y in zip(*cols)]
    np.testing.assert_array_equal(f(np.array(cols)), want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9))
# a stride-0 exponent of exactly 2.0 made np.power square (1 ulp off pow)
@example([0.0, 2.0], [0.0, 1.695216789258359])
def test_expr_batch_property(xs, ys):
    k = min(len(xs), len(ys))
    batch, single = _scalar_and_batch(
        "sin(x) * y ** 2 + smoothstep(x - y) - min(x, y, 0) + pow(abs(y) + 1, x)"
        " + (abs(x) + 0.5) ** (y - x)",
        ["x", "y"], [xs[:k], ys[:k]])
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("fn", [expr.compile_expr("pow(abs(y) + 1, x)", ["x", "y"]),
                                lambda c: np.power(np.abs(c[1]) + 1.0, c[0])],
                         ids=["expr", "numpy"])
def test_one_point_value_equals_its_batch_row(fn):
    # a one-point column laid out with stride 0 reads as a scalar exponent to
    # np.power, which squares 2.0 exactly where a batch calls pow: 1 ulp apart
    f = ScalarField(fn)
    pts = np.array([[2.0, 1.695216789258359], [0.5, -0.25], [2.0, 3.0], [1.0, 0.7]])
    batch = f.value(pts)
    np.testing.assert_array_equal([f.value(p) for p in pts], batch)
    assert f.value(pts[0]) == 7.264193541100137


def test_per_point_only_callbacks_fail_loudly():
    # one point reaches a callback as a batch of one, (n, 1), so a formula
    # written for one point fails at one point as well as on a batch
    g = MetricField(1, lambda x: np.array([[float(x[0]) ** 2 + 1.0]]), Signature.riemannian(1))
    f = ScalarField(lambda x: math.sin(x[0]))
    for pts in ([2.0], [[1.0], [2.0]], [[1.0]]):
        # numpy refuses float() of an array (older numpy converts a one-element
        # array, and the scalar output then fails the shape check)
        with pytest.raises((TypeError, NumericsError)):
            g.mat(np.array(pts))
        with pytest.raises((TypeError, NumericsError)):
            f.value(np.array(pts))
    reduce_all = ScalarField(lambda x: np.sum(x ** 2))  # sums over the points too
    for pts in ([0.1, 0.2], [[0.1, 0.2], [0.3, 0.4]]):
        with pytest.raises(NumericsError):
            reduce_all.value(np.array(pts))
    def ones(x, order=0):
        g = np.ones((1, 1) + np.shape(x)[1:])
        return (g, np.zeros((1, 1, 1))) if order else g  # d1 has no point axis

    flat = MetricField(1, ones, Signature.riemannian(1), exact_order=1)
    assert flat.mat([2.0]).shape == (1, 1)
    for pts in ([2.0], [[1.0], [2.0]]):
        with pytest.raises(NumericsError):
            flat.d1(np.array(pts))


def test_one_point_division_by_zero_is_a_numerics_error():
    # numpy arithmetic on the batch of one gives inf, which the finiteness
    # check reports; Python-float arithmetic would raise ZeroDivisionError
    lam = ScalarField(expr.compile_expr("1 / x", ["x", "y"]), name="1/x")
    with np.errstate(divide="ignore"), pytest.raises(NumericsError, match="non-finite"):
        lam.value(np.array([0.0, 0.5]))
    assert lam.value(np.array([2.0, 0.5])) == 0.5


def test_exact_christoffel_calls_d1_once_per_batch():
    dtp = fx.random_doubly_twisted(4)
    g = dtp.assembled
    calls = []

    def ev(x, *order):
        calls.append((np.shape(x), *order))
        return g.eval(x, *order)

    pts = batch_points(dtp)
    gamma = ck.christoffel_numeric(dataclasses.replace(g, eval=ev), pts)
    assert calls == [((dtp.n, len(pts)), 1)]
    np.testing.assert_array_equal(gamma, ck.christoffel_numeric(g, pts))


@pytest.mark.parametrize("route", ["analytic", "fd"])
def test_log_warp_batch_matches_pointwise(route):
    # P == n: a slip between point-major and coordinate-major input keeps
    # every shape right and shows only in the values
    dtp = fx.random_doubly_twisted(3)
    if route == "fd":
        dtp = strip_analytic(dtp)
    pts = batch_points(dtp, count=dtp.n)
    for i in (1, 2):
        lw = dtp.log_warp(i)
        np.testing.assert_array_equal(lw.value(pts), np.log(dtp.warp(i).value(pts)))
        for method in (lw.value, lw.grad_coords, lw.hess_coords):
            looped = np.stack([method(p) for p in pts])
            np.testing.assert_array_equal(method(pts), looped,
                                          err_msg=f"lam{i} {method.__name__}")


# ---------------------------------------------------------------------------
# classify: batch against a per-point reference


def classify_pointwise(dtp, per_axis):
    """The per-point algorithm: one N evaluation per grid point, and d(omega_i)
    from the warp's value, gradient and hessian at each grid point."""
    pts = pg.offset_grid_points(dtp.domain_box, per_axis)
    max_n = [max(float(np.max(np.abs(pg._mean_curvature(dtp, p, i, dtp.assembled.inv(p)))))
                 for p in pts) for i in (1, 2)]
    max_dw = [0.0, 0.0]
    for i in (1, 2):
        if max_n[i - 1] < pg.VANISH_TOL:
            continue
        w = dtp.warp(i)

        def d_omega(p):  # mixed block of the hessian of ln lam_i
            val, grad = w.value(p), w.grad_coords(p)
            hess_log = w.hess_coords(p) / val - np.outer(grad, grad) / val**2
            return hess_log[dtp.slot1, dtp.slot2]

        max_dw[i - 1] = max(float(np.max(np.abs(d_omega(p)))) for p in pts)
    return max_n + max_dw


def exterior_derivative_oracle(dtp, per_axis):
    """max |d omega_i| over the grid by central differences (step FD_STEP_2)
    of the mean curvature forms, which are themselves built from differences."""
    pts = pg.offset_grid_points(dtp.domain_box, per_axis)
    out = []
    for i in (1, 2):
        def omega(c, i=i):
            return np.stack([pg.mean_curvature_form(dtp, q, i) for q in c.T], axis=1)

        out.append(max(float(np.max(np.abs(
            ck.exterior_derivative_numeric(omega, p, step=ck.FD_STEP_2)))) for p in pts))
    return out


def assert_classify_matches(dtp, per_axis, rel=1e-10):
    cls = pg.classify(dtp, per_axis=per_axis)
    ref = classify_pointwise(dtp, per_axis)
    got = [cls.max_n1, cls.max_n2, cls.max_domega1, cls.max_domega2]
    for a, b in zip(got, ref):
        # evidence at the rounding floor (a vanishing N or a closed form) is
        # compared against the classification tolerances instead
        assert abs(a - b) <= rel * abs(b) or max(a, b) < 1e-3 * pg.VANISH_TOL, (got, ref)
    return cls


@pytest.mark.parametrize("name", BUILTINS)
def test_classify_builtins_match_pointwise(name):
    ctx = scenario.resolve_scenario(name)
    cls = assert_classify_matches(ctx.dtp, 4 if ctx.dtp.n <= 3 else 3)
    assert cls.tag.value == ctx.expect["classification"]


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_classify_random_twisted_matches_pointwise(seed):
    cls = assert_classify_matches(fx.random_doubly_twisted(seed), 3)
    assert cls.tag is pg.StructureTag.DOUBLY_TWISTED


@pytest.mark.parametrize("seed", [1, 8, 29])
def test_classify_random_warped_matches_pointwise(seed):
    cls = assert_classify_matches(random_doubly_warped(seed), 4)
    assert cls.tag is pg.StructureTag.DOUBLY_WARPED


ORACLE_PRODUCTS = {**{f"builtin-{n}": (lambda n=n: scenario.resolve_scenario(n).dtp)
                      for n in BUILTINS},
                   "random-dw-8-fd": lambda: strip_analytic(random_doubly_warped(8)),
                   "random-dtp-5-fd": lambda: strip_analytic(fx.random_doubly_twisted(5))}


@pytest.mark.parametrize("name", sorted(ORACLE_PRODUCTS))
def test_classify_closedness_matches_exterior_derivative_oracle(name):
    dtp = ORACLE_PRODUCTS[name]()
    cls = pg.classify(dtp, per_axis=3)
    oracle = exterior_derivative_oracle(dtp, 3)
    got = [cls.max_domega1, cls.max_domega2]
    for a, b in zip(got, oracle):
        assert abs(a - b) <= pg.CLOSED_TOL, (name, got, oracle)


FORMULA_SCENARIO = {
    "name": "formula-twisted",
    "factors": [
        {"name": "f1", "dim": 2, "coords": ["x", "y"], "signature": [1, 1],
         "metric": [["exp(0.4*sin(0.7*x + 0.3*y))", "0"], ["0", "exp(0.4*sin(0.7*x + 0.3*y))"]],
         "box": [[-1, 1], [-1, 1]]},
        {"name": "f2", "dim": 1, "coords": ["z"], "metric": "euclidean", "box": [[-1, 1]]},
    ],
    "warps": {"lam1": "1 + 0.2*smoothstep(z + 0.5) + 0.1*cos(x*z)",
              "lam2": "exp(0.3*sin(x - y) + 0.1*min(x, z, 0.4))"},
}


def test_classify_formula_scenario_matches_pointwise(tmp_path):
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(FORMULA_SCENARIO))
    dtp = scenario.resolve_scenario(str(path)).dtp
    cls = assert_classify_matches(dtp, 3)
    assert cls.tag is pg.StructureTag.DOUBLY_TWISTED
    for key, (batched, looped) in field_results(dtp, batch_points(dtp)).items():
        np.testing.assert_array_equal(batched, looped, err_msg=key)


# ---------------------------------------------------------------------------
# negative controls: one bad point inside a batch


def _bad_metric(bad_at, kind):
    """2d metric, diag(1 + x^2, 1) except at x = bad_at."""

    def ev(x):
        out = np.zeros((2, 2) + np.shape(x)[1:])
        out[0, 0] = 1.0 + x[0] ** 2
        out[1, 1] = 1.0
        hit = np.isclose(x[0], bad_at)
        if kind == "asymmetric":
            out[0, 1] = np.where(hit, 0.5, 0.0)
        elif kind == "nonfinite":
            out[1, 1] = np.where(hit, np.nan, 1.0)
        elif kind == "degenerate":
            out[1, 1] = np.where(hit, 1e-14, 1.0)
        return out

    return MetricField(2, ev, Signature.riemannian(2))


BATCH = np.array([[0.1, 0.0], [0.2, 0.5], [0.3, -0.4], [0.4, 0.9]])


@pytest.mark.parametrize("kind,method,error", [
    ("asymmetric", "mat", NumericsError),
    ("nonfinite", "mat", NumericsError),
    ("degenerate", "inv", DegenerateMetric),
])
def test_one_bad_point_in_a_batch(kind, method, error):
    g = _bad_metric(0.3, kind)
    call = getattr(g, method)
    with pytest.raises(error):
        call(BATCH[2])  # the per-point call
    with pytest.raises(error, match=r"0\.3"):
        call(BATCH)  # the batch names the bad point
    call(BATCH[[0, 1, 3]])  # the same batch without it passes


def test_nonfinite_coordinate_in_a_batch():
    g = MetricField.euclidean(2)
    bad = BATCH.copy()
    bad[1, 1] = np.inf
    with pytest.raises(NumericsError):
        g.mat(bad)


def test_nonfinite_warp_value_in_a_batch():
    def log(x):  # nan at x = -1, without numpy's warning
        with np.errstate(invalid="ignore"):
            return np.log(x[0])

    f = ScalarField(log)
    with pytest.raises(NumericsError):
        f.value(np.array([[1.0], [-1.0], [2.0]]))


def test_positivity_sweep_rejects_one_bad_point():
    f1 = pg.FactorManifold("a", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("b", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)
    # positive everywhere on the 4 x 4 sweep grid except at its corner (1, 1)
    dip = ScalarField(lambda x: 1.0 - np.isclose(x[0] * x[1], 1.0) * 1.5)
    with pytest.raises(InvalidWarp, match=r"lam2 = -0\.5"):
        pg.assemble(f1, f2, one, dip)
    with pytest.raises(InvalidWarp, match="lam1"):
        pg.assemble(f1, f2, dip, one)
    pg.assemble(f1, f2, one, one)


def test_classify_rejects_nonfinite_one_form_sample():
    f1 = pg.FactorManifold("a", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("b", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)

    def product(band):
        def hess(x):  # exact except at x = band, where the mixed entry is not finite
            mixed = np.where(np.abs(x[0] - band) < 1e-3, np.inf, 0.1)
            return np.array([[0.0 * x[0], mixed], [mixed, 0.0 * x[0]]])

        def ev(x, order=0):
            val = 1.0 + 0.1 * x[0] * x[1]
            return (val, 0.1 * np.array([x[1], x[0]]), hess(x))[:order + 1] if order else val

        lam = ScalarField(ev, exact_order=2)
        return pg.assemble(f1, f2, one, lam)

    # classify's samples; row 8 is the first with its x coordinate.  The exact
    # hessian is refused as it is read, before d(omega_2) is formed from it
    bad = pg.offset_grid_points(np.array([[0.0, 1.0], [0.0, 1.0]]), 4)[8]
    with pytest.raises(NumericsError,
                       match=r"^derivative of '' non-finite at " + re.escape(str(bad))):
        pg.classify(product(bad[0]))
    assert pg.classify(product(0.5)).max_domega2 > 0.0  # no sample has x = 0.5
