"""One checked kernel under every metric and warp evaluation.

A public ``MetricField``/``ScalarField`` call checks its coordinates once
(``chartkit._points``) and hands the read-only coordinate-major batch to the
field's kernel (``MetricField._jet``, ``ScalarField._jet`` and their value
kernels ``_mat`` and ``_value``), which the assembled product metric calls
directly for its factor metrics and warps.  The negative controls below feed a broken factor field
through that nested path, at one point and in a batch, and pin the
exception and its message.  The screen in front of each output check (all
entries finite, g exactly equal to its transpose) falls back to the
per-point rule, which raises only on a real violation.
"""

import json
from collections import Counter

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot.chartkit import MetricField, ScalarField, Signature
from warpquot.errors import NumericsError

# product points (x | y, z): factor 1 is the x line, factor 2 the (y, z)
# plane; only the middle point, y = 0.3, is broken (the warp positivity
# sweep of ``assemble`` samples y in {0, 1/3, 2/3, 1} and never hits it)
POINTS = np.array([[0.5, 0.1, 0.2], [0.5, 0.3, 0.4], [0.5, 0.6, 0.7]])


def _hit(y):
    return np.isclose(y, 0.3)


def _plane_metric(kind):
    """diag(1, 1) on the (y, z) plane, broken at y = 0.3 as ``kind`` says."""

    def ev(x):
        out = np.zeros((2, 2) + x.shape[1:])
        out[0, 0] = 1.0
        out[1, 1] = np.where(_hit(x[0]), {"nan": np.nan, "inf": np.inf}.get(kind, 1.0), 1.0)
        if kind == "asymmetric":
            out[0, 1] = np.where(_hit(x[0]), 1e-9, 0.0)
        if kind == "shape":
            return out[..., 0]
        return out

    return MetricField(2, ev, Signature.riemannian(2))


def _product(g2=None, lam2=None, g1=None, lam1=None):
    line = pg.FactorManifold("line", g1 or MetricField.euclidean(1), [[0.0, 1.0]])
    plane = pg.FactorManifold("plane", g2 or MetricField.euclidean(2), [[0.0, 1.0]] * 2)
    return pg.assemble(line, plane, lam1 or ScalarField.constant(1.0),
                       lam2 or ScalarField.constant(1.0))


def _nan_warp():
    return ScalarField(lambda x: np.where(_hit(x[1]), np.nan, 1.0), name="lam2")


def _bad_gradient_warp():
    one = ScalarField.constant(1.0)

    def ev(x, order=0):
        if not order:
            return one.eval(x)
        val, _, hess = one.eval(x, 2)
        return (val, np.zeros(3), hess)[:order + 1]

    return ScalarField(ev, exact_order=2, name="lam2")


# (case, product, method of the assembled metric, message at one point,
# message for POINTS); each is the message the nested factor check gave
# before the kernel, when every factor field went through its public method,
# with the factor's metric named by its slot
CASES = [
    ("nan-in-g2", lambda: _product(_plane_metric("nan")), "mat",
     "non-finite factor 2 metric entries at [0.3 0.4]",
     "non-finite factor 2 metric entries at [0.3 0.4]"),
    ("inf-in-g2", lambda: _product(_plane_metric("inf")), "mat",
     "non-finite factor 2 metric entries at [0.3 0.4]",
     "non-finite factor 2 metric entries at [0.3 0.4]"),
    ("g2-shape", lambda: _product(_plane_metric("shape")), "mat",
     "factor 2 metric eval returned shape (2, 2) for 1 points, expected (2, 2, 1) "
     "(point axis last)",
     "factor 2 metric eval returned shape (2, 2) for 3 points, expected (2, 2, 3) "
     "(point axis last)"),
    ("nan-warp", lambda: _product(lam2=_nan_warp()), "mat",
     "scalar field 'lam2' non-finite at [0.5 0.3 0.4]",
     "scalar field 'lam2' non-finite at [0.5 0.3 0.4]"),
    ("warp-gradient-shape", lambda: _product(lam2=_bad_gradient_warp()), "d1",
     "derivative of 'lam2' returned shape (3,) for 1 points, expected (3, 1) (point axis last)",
     "derivative of 'lam2' returned shape (3,) for 3 points, expected (3, 3) (point axis last)"),
    # 1e-9 in g2 is 1e-15 in lam2^2 g2: only the factor's own check sees it
    ("g2-asymmetry-under-small-lam2",
     lambda: _product(_plane_metric("asymmetric"), ScalarField.constant(1e-3)),
     "mat", "factor 2 metric not symmetric at [0.3 0.4]",
     "factor 2 metric not symmetric at [0.3 0.4]"),
]


@pytest.mark.parametrize("case,build,method,one,batch", CASES, ids=[c[0] for c in CASES])
def test_a_broken_factor_field_fails_through_the_product(case, build, method, one, batch):
    g = build().assembled
    call = getattr(g, method)
    with pytest.raises(NumericsError) as exc:
        call(POINTS[1])
    assert str(exc.value) == one
    with pytest.raises(NumericsError) as exc:
        call(POINTS)
    assert str(exc.value) == batch
    if case != "g2-shape" and case != "warp-gradient-shape":
        call(POINTS[[0, 2]])  # the same batch without the broken point passes


def test_christoffel_runs_the_factor_checks():
    g = _product(_plane_metric("asymmetric"), ScalarField.constant(1e-3)).assembled
    for x in (POINTS[1], POINTS):
        with pytest.raises(NumericsError,
                           match=r"^factor 2 metric not symmetric at \[0\.3 0\.4\]$"):
            ck.christoffel_numeric(g, x)


def test_one_public_mat_checks_the_coordinates_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    fields = {"g1": MetricField.euclidean(1), "g2": _plane_metric("none"),
              "lam1": ScalarField.constant(1.0), "lam2": ScalarField.constant(2.0)}
    for name, field in fields.items():
        field.eval = counted(name, field.eval)
    dtp = _product(**fields)
    exact = ck._points
    monkeypatch.setattr(ck, "_points", counted("_points", exact))
    for x in (POINTS[1], POINTS):
        calls.clear()
        dtp.assembled.mat(x)
        assert calls == {"_points": 1, "g1": 1, "g2": 1, "lam1": 1, "lam2": 1}


def _counted(monkeypatch, name) -> Counter:
    """Count the calls of ``chartkit.<name>`` from here on."""
    calls = Counter()
    exact = getattr(ck, name)

    def wrapped(*args):
        calls[name] += 1
        return exact(*args)

    monkeypatch.setattr(ck, name, wrapped)
    return calls


def test_classify_reads_each_warp_once(monkeypatch):
    # g^-1, each warp's jet of order 1 (value and gradient, read once for N_i
    # and d(omega_i)), each warp's jet of order 2: 5 batch evaluations (7, one
    # per value, gradient and hessian, before the one callback per field)
    dtp = fx.random_doubly_twisted(0)
    calls = _counted(monkeypatch, "_call_batch")
    pg.classify(dtp)
    assert calls["_call_batch"] == 5


def test_point_geometry_checks_the_coordinates_once(monkeypatch):
    dtp = fx.random_doubly_twisted(0)
    x = np.random.default_rng(0).uniform(-0.9, 0.9, (5, dtp.n))
    calls = _counted(monkeypatch, "_points")
    for pts in (x[0], x):
        calls.clear()
        pg.point_geometry(dtp, pts)
        assert calls["_points"] == 1


def _writes_to_its_input(x):
    x[0] = 0.0
    return np.ones((1, 1) + x.shape[1:])


def test_a_callback_that_writes_to_its_input_raises():
    line = MetricField(1, _writes_to_its_input, Signature.riemannian(1))
    top = MetricField(1, _writes_to_its_input, Signature.riemannian(1))
    one = ScalarField.constant(1.0)
    nested = pg.assemble(pg.FactorManifold("a", line, [[0.0, 1.0]]),
                         pg.FactorManifold("b", MetricField.euclidean(1), [[0.0, 1.0]]),
                         one, one).assembled
    warp = ScalarField(lambda x: _writes_to_its_input(x)[0, 0])
    before = POINTS.tolist()
    cases = [(top.mat, POINTS[:, :1]), (nested.mat, POINTS[:, :2]), (warp.value, POINTS)]
    for call, pts in cases:
        for x in (pts[1], pts):
            with pytest.raises(ValueError, match="read-only"):
                call(x)
    assert POINTS.flags.writeable and POINTS.tolist() == before  # the caller's array is untouched


def test_screens_fall_back_to_the_per_point_rule():
    def metric(entries):
        return MetricField(2, lambda x: np.broadcast_to(
            np.asarray(entries, dtype=float)[..., None], (2, 2) + x.shape[1:]).copy(),
            Signature.riemannian(2))

    pts = POINTS[:, 1:]
    # the symmetry screen trips on each, and the rule lets it pass: a signed
    # zero that differs from its transpose in bits only, and an asymmetry
    # within SYMMETRY_TOL of the point's scale
    metric([[1.0, -0.0], [0.0, 1.0]]).mat(pts)
    metric([[2.0, 1e-13], [0.0, 2.0]]).mat(pts)
    # huge finite entries are finite
    assert np.isfinite(metric([[1e308, 0.0], [0.0, 1e308]]).mat(pts)).all()
    huge = ScalarField(lambda x: np.full(x.shape[1:], 1e308))
    np.testing.assert_array_equal(huge.value(pts), 1e308)
    # so are huge exact partials, whose squares overflow the partials' screen
    steep = ScalarField(lambda x, k=0: (np.ones(x.shape[1:]), np.full(x.shape, 1e200))[:k + 1]
                        if k else np.ones(x.shape[1:]), exact_order=1)
    np.testing.assert_array_equal(steep.grad_coords(pts), 1e200)


def test_the_screens_keep_the_thresholds():
    def asym(eps, scale):
        return MetricField(2, lambda x: np.broadcast_to(
            np.array([[scale, eps], [0.0, scale]])[..., None], (2, 2) + x.shape[1:]).copy(),
            Signature.riemannian(2))

    pts = POINTS[:, 1:]
    asym(0.9e-12, 1.0).mat(pts)
    asym(0.9e-6, 1e6).mat(pts)
    for eps, scale in ((1.1e-12, 1.0), (1.1e-6, 1e6)):
        with pytest.raises(NumericsError, match=r"^metric not symmetric at \[0\.1 0\.2\]$"):
            asym(eps, scale).mat(pts)


# ---------------------------------------------------------------------------
# exact partials: screened where the value is, as ``_jet`` reads them

def _broken_partial_metric(order):
    """diag(1 + x^2, 1) on the plane, exact to second order, whose partial of
    ``order`` is nan where x = 0.3; the value and the other partial are exact."""

    def eval(x, k=0):
        g = np.zeros((2, 2) + x.shape[1:])
        g[0, 0], g[1, 1] = 1.0 + x[0] ** 2, 1.0
        dg = np.zeros((2,) + g.shape)
        dg[0, 0, 0] = 2.0 * x[0]
        ddg = np.zeros((2,) + dg.shape)
        ddg[0, 0, 0, 0] = 2.0
        broken = (dg, ddg)[order - 1]
        broken[0, 0, 0] = np.where(_hit(x[0]), np.nan, broken[0, 0, 0])
        return (g, dg, ddg)[:k + 1] if k else g

    return MetricField(2, eval, Signature.riemannian(2), exact_order=order)


def _broken_partial_warp(order):
    """lam = 1 + x^2 y^2 on (x, y, z), exact to second order, whose partial of
    ``order`` is nan where y = 0.3."""

    def eval(x, k=0):
        val = 1.0 + x[0] ** 2 * x[1] ** 2
        grad = np.zeros(x.shape)
        grad[0], grad[1] = 2.0 * x[0] * x[1] ** 2, 2.0 * x[0] ** 2 * x[1]
        hess = np.zeros((3,) + x.shape)
        hess[0, 0], hess[1, 1] = 2.0 * x[1] ** 2, 2.0 * x[0] ** 2
        hess[0, 1] = hess[1, 0] = 4.0 * x[0] * x[1]
        broken = (grad, hess)[order - 1]
        broken[0] = np.where(_hit(x[1]), np.nan, broken[0])
        return (val, grad, hess)[:k + 1] if k else val

    return ScalarField(eval, exact_order=2, name="lam2")


# (case, call, points, message): each partial is refused by the kernel that
# reads it, at one point and, where the entry point takes one, in a batch,
# naming the partial and the point
ONE, BOTH = [POINTS[1]], [POINTS[1], POINTS]
PARTIAL_CASES = [
    ("nan-dg-christoffel", lambda x: ck.christoffel_numeric(_broken_partial_metric(1), x[..., 1:]),
     BOTH, "metric d1 non-finite at [0.3 0.4]"),
    ("nan-ddg-riemann", lambda x: ck.riemann_numeric(_broken_partial_metric(2), x[..., 1:]),
     BOTH, "metric d2 non-finite at [0.3 0.4]"),
    ("nan-gradient-hessian-matrix",
     lambda x: ck.hessian_matrix(_broken_partial_warp(1), MetricField.euclidean(3), x),
     ONE, "derivative of 'lam2' non-finite at [0.5 0.3 0.4]"),
    ("nan-hessian-hessian-matrix",
     lambda x: ck.hessian_matrix(_broken_partial_warp(2), MetricField.euclidean(3), x),
     ONE, "derivative of 'lam2' non-finite at [0.5 0.3 0.4]"),
    ("nan-gradient-point-geometry",
     lambda x: pg.point_geometry(_product(lam2=_broken_partial_warp(1)), x),
     BOTH, "derivative of 'lam2' non-finite at [0.5 0.3 0.4]"),
    ("nan-hessian-point-geometry",
     lambda x: pg.point_geometry(_product(lam2=_broken_partial_warp(2)), x),
     BOTH, "derivative of 'lam2' non-finite at [0.5 0.3 0.4]"),
    # gradient's own screen of its result is gone: the kernel's refuses first
    ("nan-gradient-gradient",
     lambda x: ck.gradient(_broken_partial_warp(1), MetricField.euclidean(3), x),
     ONE, "derivative of 'lam2' non-finite at [0.5 0.3 0.4]"),
]


@pytest.mark.parametrize("case,call,points,message", PARTIAL_CASES,
                         ids=[c[0] for c in PARTIAL_CASES])
def test_a_non_finite_exact_partial_is_refused_where_it_is_read(case, call, points, message):
    for x in points:
        with pytest.raises(NumericsError) as exc:
            call(x)
        assert str(exc.value) == message
    call(POINTS[0])  # a point where every partial is finite passes


# ---------------------------------------------------------------------------
# a refusal names the metric: its slot in the product, or its scenario key

def _plane_first(g1):
    """``_product`` with the factors swapped: the (y, z) plane ``g1`` is factor 1."""
    plane = pg.FactorManifold("plane", g1, [[0.0, 1.0]] * 2)
    line = pg.FactorManifold("line", MetricField.euclidean(1), [[0.0, 1.0]])
    one = ScalarField.constant(1.0)
    return pg.assemble(plane, line, one, one)


def _overflowing_warp(order):
    """lam2 = 1 on (x, y, z) but where y = 0.3: there the value 1e200, whose
    square overflows g (order 0), or 1e100 with the exact partial d_y lam2 =
    1e250, whose product with it overflows d g (order 1)."""

    def eval(x, k=0):
        val = np.where(_hit(x[1]), 1e100 if order else 1e200, 1.0)
        grad = np.zeros(x.shape)
        grad[1] = np.where(_hit(x[1]), 1e250, 0.0)
        return (val, grad) if k else val

    return ScalarField(eval, exact_order=1, name="lam2")


SWAPPED = POINTS[:, [1, 2, 0]]  # the same points with the plane first
NAMED_CASES = [
    ("factor-1-value", lambda: _plane_first(_plane_metric("nan")), "mat", SWAPPED,
     "non-finite factor 1 metric entries at [0.3 0.4]"),
    ("factor-2-value", lambda: _product(_plane_metric("nan")), "mat", POINTS,
     "non-finite factor 2 metric entries at [0.3 0.4]"),
    ("assembled-value", lambda: _product(lam2=_overflowing_warp(0)), "mat", POINTS,
     "non-finite assembled metric entries at [0.5 0.3 0.4]"),
    ("factor-1-d1", lambda: _plane_first(_broken_partial_metric(1)), "d1", SWAPPED,
     "factor 1 metric d1 non-finite at [0.3 0.4]"),
    ("factor-2-d1", lambda: _product(_broken_partial_metric(1)), "d1", POINTS,
     "factor 2 metric d1 non-finite at [0.3 0.4]"),
    ("assembled-d1", lambda: _product(lam2=_overflowing_warp(1)), "d1", POINTS,
     "assembled metric d1 non-finite at [0.5 0.3 0.4]"),
]


@pytest.mark.parametrize("case,build,method,points,message", NAMED_CASES,
                         ids=[c[0] for c in NAMED_CASES])
def test_a_refusal_names_the_metric_by_its_slot(case, build, method, points, message):
    call = getattr(build().assembled, method)
    # the assembled cases' fault is an overflow, which the check names with no
    # numpy warning before it
    for x in (points[1], points):
        with pytest.raises(NumericsError) as exc:
            call(x)
        assert str(exc.value) == message
    call(points[[0, 2]])  # the same batch without the broken point passes


def _broken_file(key):
    """A line x line scenario file broken at x < 0 or y < 0 in factor 1's or
    factor 2's formula metric (the box centre, x = y = 1, is fine), or whose
    warp's square overflows the assembled metric everywhere."""
    def factor(coord, metric):
        return {"name": coord, "dim": 1, "coords": [coord], "box": [[-1.0, 3.0]],
                "metric": metric, **({} if metric == "euclidean" else {"signature": [1]})}

    metrics = {"factors[0]": ([["sqrt(x)"]], "euclidean"),
               "factors[1]": ("euclidean", [["sqrt(y)"]])}.get(key, ("euclidean",) * 2)
    return {"name": "broken", "factors": [factor("x", metrics[0]), factor("y", metrics[1])],
            "warps": {"lam1": "1", "lam2": "1e200" if key == "assembled" else "1"}}


@pytest.mark.parametrize("key", ["factors[0]", "factors[1]", "assembled"])
@pytest.mark.parametrize("command", ["classify", "curvature", "christoffel", "verify-all"])
def test_a_scenario_file_refusal_names_the_metric_by_its_key(tmp_path, capsys, key, command):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_broken_file(key)))
    assert cli.main(["run", str(path), command]) == 3
    err = capsys.readouterr().err
    name = "assembled metric" if key == "assembled" else f"{key}.metric"
    assert err.startswith(f"numeric failure: NumericsError: non-finite {name} entries at "), err
    assert err.count("\n") == 1, err  # the refusal alone
