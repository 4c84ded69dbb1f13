"""One checked kernel under every metric and warp evaluation.

A public ``MetricField``/``ScalarField`` call checks its coordinates once
(``chartkit._points``) and hands the read-only coordinate-major batch to the
field's kernel (``MetricField._mat``, ``ScalarField._value`` and their
``_d``), which the assembled product metric calls directly for its factor
metrics and warps.  The negative controls below feed a broken factor field
through that nested path, at one point and in a batch, and pin the
exception and its message.  The screen in front of each output check (all
entries finite, g exactly equal to its transpose) falls back to the
per-point rule, which raises only on a real violation.
"""

from collections import Counter

import numpy as np
import pytest

from warpquot import chartkit as ck
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
    line = pg.FactorManifold("line", 1, g1 or MetricField.euclidean(1), [[0.0, 1.0]])
    plane = pg.FactorManifold("plane", 2, g2 or MetricField.euclidean(2), [[0.0, 1.0]] * 2)
    return pg.assemble(line, plane, lam1 or ScalarField.constant(1.0, name="lam1"),
                       lam2 or ScalarField.constant(1.0, name="lam2"))


def _nan_warp():
    return ScalarField(lambda x: np.where(_hit(x[1]), np.nan, 1.0), name="lam2")


def _bad_gradient_warp():
    one = ScalarField.constant(1.0)
    return ScalarField(one.eval, analytic_grad=lambda x: np.zeros(3),
                       analytic_hess=one.analytic_hess, name="lam2")


# (case, product, method of the assembled metric, message at one point,
# message for POINTS); each is the message the nested factor check gave
# before the kernel, when every factor field went through its public method
CASES = [
    ("nan-in-g2", lambda: _product(_plane_metric("nan")), "mat",
     "non-finite metric entries at [0.3 0.4]", "non-finite metric entries at [0.3 0.4]"),
    ("inf-in-g2", lambda: _product(_plane_metric("inf")), "mat",
     "non-finite metric entries at [0.3 0.4]", "non-finite metric entries at [0.3 0.4]"),
    ("g2-shape", lambda: _product(_plane_metric("shape")), "mat",
     "metric eval returned shape (2, 2) for 1 points, expected (2, 2, 1) (point axis last)",
     "metric eval returned shape (2, 2) for 3 points, expected (2, 2, 3) (point axis last)"),
    ("nan-warp", lambda: _product(lam2=_nan_warp()), "mat",
     "scalar field 'lam2' non-finite at [0.5 0.3 0.4]",
     "scalar field 'lam2' non-finite at [0.5 0.3 0.4]"),
    ("warp-gradient-shape", lambda: _product(lam2=_bad_gradient_warp()), "d1",
     "derivative of 'lam2' returned shape (3,) for 1 points, expected (3, 1) (point axis last)",
     "derivative of 'lam2' returned shape (3,) for 3 points, expected (3, 3) (point axis last)"),
    # 1e-9 in g2 is 1e-15 in lam2^2 g2: only the factor's own check sees it
    ("g2-asymmetry-under-small-lam2",
     lambda: _product(_plane_metric("asymmetric"), ScalarField.constant(1e-3, name="lam2")),
     "mat", "metric not symmetric at [0.3 0.4]", "metric not symmetric at [0.3 0.4]"),
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
    g = _product(_plane_metric("asymmetric"), ScalarField.constant(1e-3, name="lam2")).assembled
    for x in (POINTS[1], POINTS):
        with pytest.raises(NumericsError, match=r"^metric not symmetric at \[0\.3 0\.4\]$"):
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


def _writes_to_its_input(x):
    x[0] = 0.0
    return np.ones((1, 1) + x.shape[1:])


def test_a_callback_that_writes_to_its_input_raises():
    line = MetricField(1, _writes_to_its_input, Signature.riemannian(1))
    top = MetricField(1, _writes_to_its_input, Signature.riemannian(1))
    one = ScalarField.constant(1.0)
    nested = pg.assemble(pg.FactorManifold("a", 1, line, [[0.0, 1.0]]),
                         pg.FactorManifold("b", 1, MetricField.euclidean(1), [[0.0, 1.0]]),
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
