"""Chart-kernel tests: metric algebra, FD Christoffel/Riemann oracles, gradients."""

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot.errors import (
    BaseMismatch,
    DegenerateMetric,
    DegeneratePlane,
    NumericsError,
)


# ---------------------------------------------------------------------------
# local 2d surfaces-of-revolution metrics diag(1, w(r)^2) with exact derivatives

def _surface_metric(w, dw, ddw, box):
    def ev(x):  # coordinate-major: x[0] is one r or a batch of them
        out = np.zeros((2, 2) + np.shape(x)[1:])
        out[0, 0] = 1.0
        out[1, 1] = w(x[0]) ** 2
        return out

    def d1(x):
        out = np.zeros((2, 2, 2) + np.shape(x)[1:])
        out[0, 1, 1] = 2.0 * w(x[0]) * dw(x[0])
        return out

    def d2(x):
        out = np.zeros((2, 2, 2, 2) + np.shape(x)[1:])
        out[0, 0, 1, 1] = 2.0 * (dw(x[0]) ** 2 + w(x[0]) * ddw(x[0]))
        return out

    def jet(x, order=0):
        return (ev(x), d1(x), d2(x))[:order + 1] if order else ev(x)

    return ck.MetricField(2, jet, ck.Signature.riemannian(2), exact_order=2,
                          domain_box=np.array(box))


def polar_flat():
    """dr^2 + r^2 dtheta^2 (flat plane in polar coordinates)."""
    return _surface_metric(lambda r: r, lambda r: 1.0, lambda r: 0.0,
                           [[0.5, 3.0], [0.0, 6.2]])


def sphere_polar():
    """dr^2 + sin(r)^2 dtheta^2 (unit round sphere, K = +1)."""
    return _surface_metric(np.sin, np.cos, lambda r: -np.sin(r),
                           [[0.3, 2.8], [0.0, 6.2]])


def hyperbolic_polar():
    """dr^2 + sinh(r)^2 dtheta^2 (hyperbolic plane, K = -1)."""
    return _surface_metric(np.sinh, np.cosh, np.sinh,
                           [[0.3, 2.5], [0.0, 6.2]])


def minkowski2():
    return ck.MetricField.constant(np.diag([-1.0, 1.0]))


ALL_SURFACES = [polar_flat, sphere_polar, hyperbolic_polar]


def tv(point, comps):
    return ck.TangentVector(ck.CoordPoint(point), comps)


def random_points(g, rng, count):
    box = g.domain_box
    return [box[:, 0] + rng.random(g.dim) * (box[:, 1] - box[:, 0]) for _ in range(count)]


# ---------------------------------------------------------------------------
# inner product

def test_inner_product_euclidean_orthonormal():
    g = ck.MetricField.euclidean(2)
    assert ck.inner_product(g, tv([0, 0], [1, 0]), tv([0, 0], [0, 1])) == 0.0


def test_inner_product_minkowski_signature():
    g = minkowski2()
    u = tv([0, 0], [1, 0])
    assert ck.inner_product(g, u, u) == -1.0


def test_inner_product_polar():
    g = polar_flat()
    u = tv([2.0, 0.0], [0, 1])
    assert ck.inner_product(g, u, u) == pytest.approx(4.0, abs=1e-12)


def test_inner_product_base_mismatch():
    g = ck.MetricField.euclidean(2)
    with pytest.raises(BaseMismatch):
        ck.inner_product(g, tv([0, 0], [1, 0]), tv([1, 0], [1, 0]))


def test_causal_sign():
    g = minkowski2()
    for comps, sign in (([1, 0], -1), ([0, 1], 1), ([1, 1], 0)):
        v = tv([0, 0], comps)
        assert np.sign(ck.inner_product(g, v, v)) == sign


# ---------------------------------------------------------------------------
# Christoffel symbols

def test_christoffel_flat_chart_zero():
    g = ck.MetricField.euclidean(2)
    assert np.allclose(ck.christoffel_numeric(g, [0.3, -1.2]), 0.0)


def test_christoffel_polar_values():
    g = polar_flat()
    gamma = ck.christoffel_numeric(g, [2.0, 0.7])
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-9)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-9)
    assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-9)


def test_christoffel_sphere_equator():
    g = sphere_polar()
    gamma = ck.christoffel_numeric(g, [np.pi / 2, 0.1])
    assert gamma[0, 1, 1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("make", ALL_SURFACES)
def test_christoffel_lower_index_symmetry(make):
    g = make()
    rng = np.random.default_rng(11)
    for x in random_points(g, rng, 100):
        gamma = ck.christoffel_numeric(g, x)
        assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) < 1e-9


@pytest.mark.parametrize("make", ALL_SURFACES)
def test_metric_compatibility(make):
    # d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il = 0
    g = make()
    rng = np.random.default_rng(12)
    for x in random_points(g, rng, 20):
        gamma = ck.christoffel_numeric(g, x)
        gm = g.mat(x)
        dg = g.d1(x)
        resid = dg - np.einsum("lki,lj->kij", gamma, gm) - np.einsum("lkj,il->kij", gamma, gm)
        assert np.max(np.abs(resid)) < 1e-5


def test_christoffel_degenerate_metric():
    g = ck.MetricField(2, lambda x: np.zeros((2, 2) + x.shape[1:]), ck.Signature.riemannian(2))
    with pytest.raises(DegenerateMetric):
        ck.christoffel_numeric(g, [0.0, 0.0])


def test_christoffel_fd_matches_analytic():
    # keep analytic fixtures honest: strip callbacks and compare against FD
    exact = polar_flat()
    fd = ck.MetricField(2, exact.eval, exact.signature, domain_box=exact.domain_box)
    assert fd.exact_order == 0
    for x in ([1.3, 0.2], [2.4, 1.0]):
        assert np.allclose(ck.christoffel_numeric(fd, x),
                           ck.christoffel_numeric(exact, x), atol=1e-7)
        assert np.allclose(fd.d1(x), exact.d1(x), atol=1e-7)


# ---------------------------------------------------------------------------
# Riemann tensor and sectional curvature

def test_riemann_flat_r3_zero():
    g = ck.MetricField.euclidean(3)
    assert np.max(np.abs(ck.riemann_numeric(g, [0.1, 0.2, 0.3]))) < 1e-8


def riemann_lowered(g, x):
    """low[l, i, j, k] = g(R(e_i, e_j) e_k, e_l)."""
    return np.einsum("lm,mijk->lijk", g.mat(x), ck.riemann_numeric(g, x))


def test_riemann_sphere_lowered_component():
    # constant curvature: g(R(e_r, e_t) e_t, e_r) = K (g_rr g_tt - g_rt^2), K = 1
    g = sphere_polar()
    low = riemann_lowered(g, [1.0, 0.4])
    assert low[0, 0, 1, 1] == pytest.approx(np.sin(1.0) ** 2, abs=1e-9)


@pytest.mark.parametrize("make", ALL_SURFACES)
def test_riemann_first_pair_antisymmetry(make):
    g = make()
    rng = np.random.default_rng(13)
    for x in random_points(g, rng, 10):
        low = riemann_lowered(g, x)
        assert np.max(np.abs(low + np.swapaxes(low, 1, 2))) < 1e-6
        assert np.max(np.abs(low + np.swapaxes(low, 0, 3))) < 1e-6


@pytest.mark.parametrize("make,expected", [(sphere_polar, 1.0), (hyperbolic_polar, -1.0)])
def test_sectional_curvature_constant_surfaces(make, expected):
    g = make()
    rng = np.random.default_rng(14)
    for x in random_points(g, rng, 5):
        u = tv(x, [1.0, 0.0])
        v = tv(x, [0.0, 1.0])
        assert ck.sectional_curvature_numeric(g, x, u, v) == pytest.approx(expected, abs=1e-6)


def test_sectional_curvature_flat_zero():
    g = ck.MetricField.euclidean(2)
    x = [0.3, 0.4]
    assert ck.sectional_curvature_numeric(g, x, tv(x, [1, 0]), tv(x, [0, 1])) == pytest.approx(0.0, abs=1e-10)


def test_sectional_curvature_basis_invariance():
    g = sphere_polar()
    rng = np.random.default_rng(15)
    x = [1.1, 0.5]
    u, v = tv(x, [1.0, 0.0]), tv(x, [0.0, 1.0])
    k0 = ck.sectional_curvature_numeric(g, x, u, v)
    for _ in range(5):
        a, b, c, d = rng.normal(size=4)
        while abs(a * d - b * c) < 0.1:
            a, b, c, d = rng.normal(size=4)
        u2 = tv(x, a * u.components + b * v.components)
        v2 = tv(x, c * u.components + d * v.components)
        assert ck.sectional_curvature_numeric(g, x, u2, v2) == pytest.approx(k0, abs=1e-6)


def test_sectional_curvature_degenerate_plane():
    g = ck.MetricField.euclidean(2)
    x = [0.0, 0.0]
    with pytest.raises(DegeneratePlane):
        ck.sectional_curvature_numeric(g, x, tv(x, [1, 0]), tv(x, [2, 0]))


# ---------------------------------------------------------------------------
# gradient and hessian endomorphism

def test_gradient_coordinate_function():
    g = ck.MetricField.euclidean(2)
    f = ck.ScalarField(lambda x: x[0], name="x1")
    assert np.allclose(ck.gradient(f, g, [0.7, -0.2]).components, [1.0, 0.0])


def test_gradient_log_r_polar():
    g = polar_flat()
    f = ck.ScalarField(lambda x: np.log(x[0]), name="ln r")
    assert np.allclose(ck.gradient(f, g, [2.0, 0.3]).components, [0.5, 0.0], atol=1e-9)


def test_gradient_constant_zero():
    g = polar_flat()
    f = ck.ScalarField.constant(3.5)
    assert np.allclose(ck.gradient(f, g, [1.5, 0.3]).components, 0.0)


def hessian_endomorphism(f, g, x, v):
    """h_f(v) = nabla_v grad f = g^-1 Hess f v."""
    return g.inv(x) @ ck.hessian_matrix(f, g, x) @ v.components


def test_hessian_endomorphism_quadratic_identity():
    g = ck.MetricField.euclidean(2)
    f = ck.ScalarField(lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2))
    v = tv([0.4, -0.1], [0.3, 0.8])
    assert np.allclose(hessian_endomorphism(f, g, v.base.coords, v),
                       v.components, atol=1e-6)


def test_hessian_endomorphism_linear_zero():
    g = ck.MetricField.euclidean(2)
    f = ck.ScalarField(lambda x: 2.0 * x[0] - x[1])
    v = tv([0.4, -0.1], [0.3, 0.8])
    assert np.allclose(hessian_endomorphism(f, g, v.base.coords, v), 0.0, atol=1e-6)


def test_hessian_cos_r_on_sphere():
    # h_f = -f * id for f = cos r on the unit sphere
    g = sphere_polar()
    f = ck.ScalarField(lambda x: np.cos(x[0]), name="cos r")
    v = tv([1.0, 0.2], [1.0, 0.0])
    got = hessian_endomorphism(f, g, v.base.coords, v)
    assert np.allclose(got, -np.cos(1.0) * v.components, atol=1e-6)


@pytest.mark.parametrize("make", ALL_SURFACES)
def test_hessian_bilinear_form_symmetry(make):
    g = make()
    f = ck.ScalarField(lambda x: np.exp(0.3 * x[0]) + 0.2 * np.sin(x[1]))
    rng = np.random.default_rng(16)
    for x in random_points(g, rng, 10):
        u = tv(x, rng.normal(size=2))
        v = tv(x, rng.normal(size=2))
        hu = tv(x, hessian_endomorphism(f, g, x, u))
        hv = tv(x, hessian_endomorphism(f, g, x, v))
        assert ck.inner_product(g, hu, v) == pytest.approx(ck.inner_product(g, hv, u), abs=1e-7)


# ---------------------------------------------------------------------------
# exterior derivative

def test_exterior_derivative_of_gradient_vanishes():
    f = ck.ScalarField(lambda x: np.sin(x[0]) * np.exp(0.2 * x[1]))

    def omega(c):  # FD gradient components, coordinate-major in and out
        return f.grad_coords(c.T).T

    dw = ck.exterior_derivative_numeric(omega, [0.4, 0.9])
    assert np.max(np.abs(dw)) < 1e-6


def test_exterior_derivative_x2_dx1():
    # omega = x^2 dx^1: (d omega)_21 = d_2 omega_1 = 1
    dw = ck.exterior_derivative_numeric(lambda c: np.array([c[1], 0.0 * c[0]]), [0.3, 0.8])
    assert dw[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert dw[0, 1] == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(dw, -dw.T)


def test_exterior_derivative_nonfinite_rejected():
    with pytest.raises(NumericsError):
        ck.exterior_derivative_numeric(lambda c: np.array([np.nan * c[0], c[1]]), [0.0, 0.0])


# ---------------------------------------------------------------------------
# misc helpers

def test_gram_schmidt_pseudo_orthonormal():
    g = minkowski2()
    x = [0.0, 0.0]
    basis = ck.gram_schmidt(g, x, [tv(x, [2.0, 0.5]), tv(x, [0.3, 1.0])])
    gm = g.mat(x)
    prods = np.array([[b1.components @ gm @ b2.components for b2 in basis] for b1 in basis])
    assert np.allclose(np.abs(np.diag(prods)), 1.0, atol=1e-12)
    assert abs(prods[0, 1]) < 1e-12


def test_gram_schmidt_lightlike_rejected():
    g = minkowski2()
    x = [0.0, 0.0]
    with pytest.raises(DegeneratePlane):
        ck.gram_schmidt(g, x, [tv(x, [1.0, 1.0])])


def test_metric_signature_check():
    g = minkowski2()
    g.check_at([0.0, 0.0])
    bad = ck.MetricField(2, lambda x: np.diag([-1.0, 1.0]), ck.Signature.riemannian(2))
    with pytest.raises(NumericsError):
        bad.check_at([0.0, 0.0])


def test_metric_asymmetry_rejected():
    g = ck.MetricField(2, lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]),
                       ck.Signature.riemannian(2))
    with pytest.raises(NumericsError):
        g.mat([0.0, 0.0])
