"""Transport tests: curves, parallel/normal/adapted translation, holonomy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpquot import chartkit as ck
from warpquot import expr
from warpquot import fixtures as fx
from warpquot import transport as tp
from warpquot.errors import NotALoop, NotInLeaf, NumericsError
from transport_jobs import carry, holonomy
from fixture_models import flat_direct_product


def norm(g, x, v):
    return float(np.sqrt(abs(ck.inner_product(g, x, v, v))))


def circle_curve(r0, turns=1.0):
    """theta sweep at fixed first coordinate, for 2d (r, theta) charts."""
    w = 2 * np.pi * turns
    return tp.PiecewiseCurve.from_function(
        lambda t: np.stack([np.full_like(t, r0), w * t], axis=1),
        lambda t: np.tile([0.0, w], (len(t), 1)),
    )


# ---------------------------------------------------------------------------
# curves

def test_curve_velocity_check_rejects_mismatch():
    curve = tp.PiecewiseCurve.from_function(lambda t: np.stack([t, 0.0 * t], axis=1),
                                            lambda t: np.tile([5.0, 0.0], (len(t), 1)))
    with pytest.raises(NumericsError):
        curve.point(0.5)


def two_pieces(jump=0.0, slope=1.0):
    """Evaluators of a curve along x with a knot at t = 1/2: the second segment
    is moved by ``jump`` and its velocity is ``slope`` times the true one."""
    def point(t, seg):
        return np.stack([t + jump * seg, 0.0 * t], axis=1)

    def velocity(t, seg):
        return np.stack([np.where(seg == 1, slope, 1.0), 0.0 * t], axis=1)

    return point, velocity


def test_curve_continuity_check():
    tp.PiecewiseCurve([0.0, 0.5, 1.0], *two_pieces()).point(0.5)
    curve = tp.PiecewiseCurve([0.0, 0.5, 1.0], *two_pieces(jump=1.0))
    with pytest.raises(NumericsError, match="discontinuous at t = 0.5"):
        curve.point(0.5)


def test_curve_velocity_check_rejects_a_wrong_segment_velocity():
    curve = tp.PiecewiseCurve([0.0, 0.5, 1.0], *two_pieces(slope=5.0))
    with pytest.raises(NumericsError, match="velocity is not the derivative"):
        curve.velocity(0.5)


def counted_pieces(**kw):
    """``two_pieces`` evaluators and the list of evaluator calls they append to."""
    calls = []
    point, velocity = two_pieces(**kw)
    return calls, (lambda t, seg: calls.append("point") or point(t, seg),
                   lambda t, seg: calls.append("velocity") or velocity(t, seg))


def test_a_curve_is_probed_once_before_its_first_evaluation():
    calls, fns = counted_pieces()
    curve = tp.PiecewiseCurve([0.0, 0.5, 1.0], *fns)
    assert calls == []  # construction evaluates nothing
    curve.velocity(np.array([0.2, 0.7]))
    assert calls == ["point", "velocity", "velocity"]  # the probe's two calls, then one
    curve.point(0.3)
    curve._samples
    curve._probe
    assert calls == ["point", "velocity", "velocity", "point", "point", "velocity"]


@pytest.mark.parametrize("first", ["point", "velocity", "_samples", "_probe"])
def test_a_failed_probe_fails_again_on_every_later_evaluation(first):
    calls, fns = counted_pieces(jump=1.0)
    curve = tp.PiecewiseCurve([0.0, 0.5, 1.0], *fns)
    for read in (first, "point", "velocity", "_samples", "_probe"):
        with pytest.raises(NumericsError, match="discontinuous at t = 0.5"):
            value = getattr(curve, read)
            if callable(value):
                value(0.25)
    assert calls == ["point"] * 5  # the probe ran each time, and only the probe


def test_the_probe_refuses_a_nan_point_and_names_its_time():
    # sqrt(t - 0.5) is nan on [0, 0.5): no gap or velocity comparison sees a
    # nan, so only the finiteness check refuses it
    comps = [expr.compile_expr(s, ["t"]) for s in ("0.2 + 0.5*sqrt(t - 0.5)", "0.4")]
    curve = tp.PiecewiseCurve.from_function(lambda t: np.stack([f(t[None]) for f in comps],
                                                               axis=1))
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericsError, match=r"curve point not finite at t = 0\.0: \[nan 0\.4\]"):
        curve.point(0.75)


def test_the_probe_refuses_a_nan_velocity_and_names_its_time():
    def velocity(t, seg):
        return np.stack([np.where(seg == 1, np.nan, 1.0), 0.0 * t], axis=1)

    curve = tp.PiecewiseCurve([0.0, 0.5, 1.0], two_pieces()[0], velocity)
    with pytest.raises(NumericsError, match="curve velocity not finite at t = 0.75"):
        curve.velocity(0.25)


@settings(max_examples=60, deadline=None)
@given(points=st.integers(2, 6).flatmap(lambda k: st.lists(
           st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3), min_size=k, max_size=k)),
       u=st.floats(0.01, 0.99))
def test_catmull_rom_is_continuous_and_its_velocity_is_the_derivative(points, u):
    curve = tp.PiecewiseCurve.catmull_rom(points)
    m = len(points) - 1
    np.testing.assert_allclose(curve.point(curve.knots), points, rtol=0, atol=1e-12)
    # both segments that meet at an interior knot give the same point and velocity there
    inner, left, right = curve.knots[1:-1], np.arange(m - 1), np.arange(1, m)
    for fn in (curve._point, curve._velocity):
        np.testing.assert_allclose(curve._eval(fn, inner, left), curve._eval(fn, inner, right),
                                   rtol=0, atol=1e-11)
    # a central difference inside every segment
    ts, h = (np.arange(m) + u) / m, 1e-6
    fd = (curve.point(ts + h) - curve.point(ts - h)) / (2 * h)
    v = curve.velocity(ts)
    assert np.all(np.abs(fd - v) <= 1e-6 * (1.0 + np.abs(v)))


def test_catmull_rom_interpolates_controls():
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.5]), np.array([2.0, 0.0])]
    c = tp.PiecewiseCurve.catmull_rom(pts)
    assert np.allclose(c.point(0.0), pts[0])
    assert np.allclose(c.point(0.5), pts[1])
    assert np.allclose(c.point(1.0), pts[2])


# ---------------------------------------------------------------------------
# parallel transport

def test_parallel_transport_flat_constant():
    g = ck.MetricField.euclidean(2)
    curve = tp.PiecewiseCurve.from_function(
        lambda t: np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1))
    v0 = np.array([0.3, -0.7])
    res = carry(g, curve, v0)
    assert np.allclose(res.components[-1], v0, atol=1e-9)


def test_sphere_equator_transport_returns():
    # the equator is a geodesic: d_r comes back to itself
    dtp = fx.sphere_polar()
    curve = circle_curve(np.pi / 2)
    v0 = np.array([1.0, 0.0])
    res = carry(dtp.assembled, curve, v0)
    assert np.allclose(res.components[-1], v0, atol=1e-7)


def test_sphere_cap_holonomy_angle():
    # classical rotation by 2 pi (1 - cos r0): r0 = pi/3 gives a half turn
    dtp = fx.sphere_polar()
    g = dtp.assembled
    r0 = np.pi / 3
    curve = circle_curve(r0)
    v0 = np.array([1.0, 0.0])
    res = carry(g, curve, v0)
    assert np.allclose(res.components[-1], -v0, atol=1e-7)
    # and the norm is conserved along the way
    assert res.tol_achieved < 1e-9


@pytest.mark.parametrize("make", [fx.polar_plane, fx.sphere_polar,
                                  lambda: fx.random_doubly_twisted(3)])
def test_parallel_transport_norm_conservation(make):
    dtp = make()
    g = dtp.assembled
    rng = np.random.default_rng(7)
    box = dtp.domain_box
    mid = 0.6 * box[:, 0] + 0.4 * box[:, 1]
    span = 0.2 * (box[:, 1] - box[:, 0])
    curve = tp.PiecewiseCurve.from_function(
        lambda t: mid + span * np.sin(np.pi * t[:, None] * np.arange(1, dtp.n + 1)))
    v0 = rng.normal(size=dtp.n)
    tol = 1e-7
    res = carry(g, curve, v0, tol=tol)
    assert res.tol_achieved < 10 * tol


# ---------------------------------------------------------------------------
# normal and adapted transport

def normal_translation(dtp, curve, v0):
    """W(t) = exp(I(t)) A(t), the normal parallel translation of v0, from the
    integrated adapted translation A; returns the result and W (S, n)."""
    res = carry(dtp, curve, v0, 1)
    return res, np.exp(res.integrals)[:, None] * res.components


def test_normal_transport_direct_product_constant():
    dtp = flat_direct_product()
    curve = tp.PiecewiseCurve.line([0.0, 0.3], [1.0, 0.3])
    _, W = normal_translation(dtp, curve, [0.0, 0.8])
    assert np.allclose(W[-1], [0.0, 0.8], atol=1e-10)


def test_normal_transport_polar_scales_inversely():
    # W stays proportional to d_theta with conserved norm: W^theta = r0 / r
    dtp = fx.polar_plane()
    curve = tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.5])
    res, W = normal_translation(dtp, curve, [0.0, 1.0])
    assert np.allclose(W[-1], [0.0, 0.5], atol=1e-8)
    for x, w in zip(res.points, W):
        assert w[1] == pytest.approx(1.0 / x[0], abs=1e-8)
        assert norm(dtp.assembled, x, w) == pytest.approx(1.0, abs=1e-7)


def test_normal_transport_rejects_leaving_leaf():
    dtp = fx.polar_plane()
    curve = tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.7])  # theta drifts
    with pytest.raises(NotInLeaf):
        carry(dtp, curve, [0.0, 1.0], 1)


def test_normal_transport_covariant_derivative_stays_tangent():
    # FD check: D W / dt has no normal component along the curve
    dtp = fx.polar_plane()
    g = dtp.assembled
    # 12 segments of SAMPLES_PER_SEGMENT times each: 193 samples for the FD check
    curve = tp.PiecewiseCurve.from_function(lambda t: np.stack([1.0 + t, 0.5 + 0.0 * t], axis=1),
                                            lambda t: np.tile([1.0, 0.0], (len(t), 1)),
                                            breaks=np.arange(1, 12) / 12)
    res, comps = normal_translation(dtp, curve, [0.0, 1.0])
    assert len(res.ts) == 12 * (tp.SAMPLES_PER_SEGMENT - 1) + 1
    ts = res.ts
    for k in range(1, len(ts) - 1):
        dt = ts[k + 1] - ts[k - 1]
        dW = (comps[k + 1] - comps[k - 1]) / dt
        pos = res.points[k]
        vel = curve.velocity(ts[k])
        gamma = ck.christoffel_numeric(g, pos)
        DW = dW + np.einsum("kij,i,j->k", gamma, vel, comps[k])
        assert np.max(np.abs(DW[dtp.slot2])) < 1e-4


def test_adapted_translation_direct_product_constant():
    dtp = flat_direct_product()
    curve = tp.PiecewiseCurve.line([0.0, 0.3], [1.0, 0.3])
    res = carry(dtp, curve, [0.0, 0.8], 1)
    assert np.allclose(res.components[-1], [0.0, 0.8], atol=1e-10)
    assert res.integral_omega == pytest.approx(0.0, abs=1e-12)


def test_adapted_translation_polar_lemma_values():
    # components constant, integral of omega_2 = -ln 2, norm law |A| = 2
    dtp = fx.polar_plane()
    curve = tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.5])
    res = carry(dtp, curve, [0.0, 1.0], 1)
    assert np.allclose(res.components[-1], [0.0, 1.0], atol=1e-9)
    assert res.integral_omega == pytest.approx(-np.log(2.0), abs=1e-9)
    assert norm(dtp.assembled, res.points[-1], res.components[-1]) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("make", [
    fx.polar_plane,
    lambda: fx.build_example1().dtp,
    *[(lambda s=s: fx.random_doubly_twisted(s)) for s in range(50, 70)],
])
def test_adapted_translation_factor2_components_constant(make):
    # adapted translation of (0_a, v_b) along horizontal curves keeps the
    # factor-2 components fixed
    dtp = make()
    rng = np.random.default_rng(8)
    box = dtp.domain_box
    lo = 0.75 * box[:, 0] + 0.25 * box[:, 1]
    hi = 0.25 * box[:, 0] + 0.75 * box[:, 1]
    start = lo.copy()
    end = lo.copy()
    end[dtp.slot1] = hi[dtp.slot1]
    curve = tp.PiecewiseCurve.line(start, end)
    vb = rng.normal(size=dtp.n2)
    v0 = dtp.embed(2, vb)
    res = carry(dtp, curve, v0, 1, tol=1e-6)
    assert np.max(np.abs(res.components[:, dtp.slot2] - vb)) < 1e-6
    assert np.max(np.abs(res.components[:, dtp.slot1])) < 1e-9
    # norm law residual recorded and small
    assert res.tol_achieved < 1e-6


def test_adapted_translation_foliation2_mirror():
    # curve in a leaf of F_2, vector normal to F_2: rescaled by exp(-int omega_1)
    dtp = fx.random_doubly_twisted(71)
    start = np.array([0.1, -0.2, -0.5, 0.0])
    end = np.array([0.1, -0.2, 0.5, 0.4])
    curve = tp.PiecewiseCurve.line(start, end)
    va = np.array([0.7, -0.3])
    res = carry(dtp, curve, dtp.embed(1, va), 2)
    assert np.max(np.abs(res.components[-1][dtp.slot1] - va)) < 1e-6
    norm0 = norm(dtp.assembled, start, dtp.embed(1, va))
    assert norm(dtp.assembled, res.points[-1], res.components[-1]) == pytest.approx(
        norm0 * np.exp(-res.integral_omega), abs=1e-8)


# ---------------------------------------------------------------------------
# holonomy on plain products

def test_holonomy_contractible_loop_identity():
    dtp = flat_direct_product()
    loop = tp.PiecewiseCurve.from_function(
        lambda t: np.stack([0.2 * np.sin(2 * np.pi * t), 0.0 * t], axis=1),
        lambda t: np.stack([0.4 * np.pi * np.cos(2 * np.pi * t), 0.0 * t], axis=1))
    frame = tp.normal_frame(dtp, loop.point(0.0), foliation=1)
    hol = holonomy(dtp, loop, frame, 1)
    assert hol.is_identity(1e-9)


def test_holonomy_open_curve_rejected():
    dtp = flat_direct_product()
    curve = tp.PiecewiseCurve.line([0.0, 0.0], [1.0, 0.0])
    frame = tp.normal_frame(dtp, [0.0, 0.0], foliation=1)
    with pytest.raises(NotALoop):
        holonomy(dtp, curve, frame, 1)


def test_normal_frame_orthonormal():
    dtp = fx.random_doubly_twisted(73)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    frame = tp.normal_frame(dtp, x, foliation=1)
    g = dtp.assembled
    assert frame.shape == (dtp.n, dtp.n2)
    for i, fi in enumerate(frame.T):
        assert np.allclose(fi[dtp.slot1], 0.0)
        for j, fj in enumerate(frame.T):
            want = 1.0 if i == j else 0.0
            assert abs(ck.inner_product(g, x, fi, fj)) == pytest.approx(want, abs=1e-10)
