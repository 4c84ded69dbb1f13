"""Product-geometry tests: assembly, closed forms vs FD oracles, classification,
and the curvature-sign/critical-point diagnostic (teodg)."""

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot.chartkit import MetricField, ScalarField, Signature
from warpquot.errors import (CaseMismatch, InvalidAction, InvalidFrame, InvalidWarp,
                             NormalizationError)
from warpquot.scenario import resolve_scenario

from fixture_models import (bowl_warped, expanding_spacetime, flat_direct_product,
                            lorentz_warped_fiber, random_doubly_warped, strip_analytic)


def rand_point(rng, box):
    box = np.asarray(box, dtype=float)
    return box[:, 0] + rng.random(box.shape[0]) * (box[:, 1] - box[:, 0])


def sample_plane(dtp, rng, x, case, max_tries=50):
    """Unit orthogonal pair in the requested slots (None if unlucky)."""
    for _ in range(max_tries):
        if case == "HH":
            raw = [dtp.embed(1, rng.normal(size=dtp.n1)) for _ in range(2)]
        elif case == "VV":
            raw = [dtp.embed(2, rng.normal(size=dtp.n2)) for _ in range(2)]
        else:
            raw = [dtp.embed(1, rng.normal(size=dtp.n1)),
                   dtp.embed(2, rng.normal(size=dtp.n2))]
        try:
            u, v = ck.gram_schmidt(dtp.assembled, x, np.stack(raw, axis=1)).T
        except Exception:
            continue
        g = dtp.assembled
        det = (ck.inner_product(g, x, u, u) * ck.inner_product(g, x, v, v)
               - ck.inner_product(g, x, u, v) ** 2)
        if abs(det) > 1e-6:
            return u, v
    return None


def connection(dtp, x, a, b):
    """nabla_a b = Gamma^k_ij a^i b^j for constant-component fields, from the
    closed-form Gamma."""
    return np.einsum("kij,i,j->k", pg.point_geometry(dtp, np.asarray(x, float)).gamma, a, b)


def mean_curvature(dtp, x, i):
    """N_i at one point (n,) or each row of a batch (P, n)."""
    x = np.asarray(x, dtype=float)
    return pg._mean_curvature(dtp, x, i, dtp.assembled.inv(x))


# ---------------------------------------------------------------------------
# assembly

def test_assemble_direct_product_flat():
    dtp = flat_direct_product()
    assert np.allclose(dtp.assembled.mat([0.3, -0.7]), np.eye(2))


def test_assemble_polar_blocks():
    dtp = fx.polar_plane()
    g = dtp.assembled.mat([2.0, 0.5])
    assert np.allclose(g, np.diag([1.0, 4.0]))


def test_assemble_block_diagonal_invariant():
    dtp = fx.random_doubly_twisted(5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rand_point(rng, dtp.domain_box)
        g = dtp.assembled.mat(x)
        lam1 = dtp.warp_value(1, x)
        lam2 = dtp.warp_value(2, x)
        assert np.allclose(g[dtp.slot1, dtp.slot1],
                           lam1**2 * dtp.f1.metric.mat(x[dtp.slot1]), atol=1e-12)
        assert np.allclose(g[dtp.slot2, dtp.slot2],
                           lam2**2 * dtp.f2.metric.mat(x[dtp.slot2]), atol=1e-12)
        assert np.allclose(g[dtp.slot1, dtp.slot2], 0.0)


def test_assemble_signature_concatenation():
    dtp = fx.lorentz_direct()
    assert list(dtp.assembled.signature.signs) == [-1, 1, 1]
    assert dtp.assembled.signature.index == 1


def test_assemble_rejects_nonpositive_warp():
    f1 = pg.FactorManifold("a", ck.MetricField.euclidean(1), [[-1, 1]])
    f2 = pg.FactorManifold("b", ck.MetricField.euclidean(1), [[-1, 1]])
    bad = ScalarField(lambda x: x[0], name="x")
    with pytest.raises(InvalidWarp):
        pg.assemble(f1, f2, ScalarField.constant(1.0), bad)


def test_assembled_analytic_derivatives_match_fd():
    dtp = fx.random_doubly_twisted(7)
    bare = strip_analytic(dtp)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rand_point(rng, dtp.domain_box) * 0.9
        assert np.allclose(dtp.assembled.d1(x), bare.assembled.d1(x), atol=1e-6)


# ---------------------------------------------------------------------------
# connection closed form (Levi-Civita of the product, by slot case)

def test_connection_direct_product_reduces_to_factors():
    dtp = flat_direct_product()
    x = [0.2, -0.3]
    assert np.allclose(connection(dtp, x, [1.0, 0.0], [1.0, 0.0]), 0.0)


def test_connection_hv_polar():
    dtp = fx.polar_plane()
    x = [2.0, 0.4]
    assert np.allclose(connection(dtp, x, [1.0, 0.0], [0.0, 1.0]), [0.0, 0.5], atol=1e-12)


def test_connection_vv_polar_matches_christoffel():
    dtp = fx.polar_plane()
    x = [2.0, 0.4]
    assert np.allclose(connection(dtp, x, [0.0, 1.0], [0.0, 1.0]), [-2.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("make", [fx.polar_plane, fx.sphere_polar, fx.lorentz_direct,
                                  lambda: fx.random_doubly_twisted(3),
                                  lambda: fx.build_example1().dtp])
def test_connection_closed_form_equals_oracle(make):
    # the whole tensor: every HH, VV and HV block at once
    dtp = make()
    rng = np.random.default_rng(21)
    x = np.stack([rand_point(rng, dtp.domain_box) * 0.95 for _ in range(15)])
    gap = pg.point_geometry(dtp, x).gamma - ck.christoffel_numeric(dtp.assembled, x)
    assert np.max(np.abs(gap)) < 1e-5


def test_connection_equivalence_survives_fd_route():
    dtp = strip_analytic(fx.random_doubly_twisted(9))
    rng = np.random.default_rng(22)
    x = np.stack([rand_point(rng, dtp.domain_box) * 0.9 for _ in range(5)])
    gap = pg.point_geometry(dtp, x).gamma - ck.christoffel_numeric(dtp.assembled, x)
    assert np.max(np.abs(gap)) < 1e-5


@pytest.mark.parametrize("make", [fx.polar_plane, fx.sphere_polar,
                                  lambda: fx.random_doubly_twisted(11),
                                  lambda: fx.build_example1().dtp])
def test_mixed_connection_identity(make):
    # nabla_X V = -omega1(V) X - omega2(X) V
    dtp = make()
    rng = np.random.default_rng(23)
    for _ in range(8):
        x = rand_point(rng, dtp.domain_box) * 0.95
        X = dtp.embed(1, rng.normal(size=dtp.n1))
        V = dtp.embed(2, rng.normal(size=dtp.n2))
        w1 = pg.mean_curvature_form(dtp, x, 1)
        w2 = pg.mean_curvature_form(dtp, x, 2)
        lhs = np.einsum("kij,i,j->k", ck.christoffel_numeric(dtp.assembled, x), X, V)
        rhs = -(w1 @ V) * X - (w2 @ X) * V
        assert np.max(np.abs(lhs - rhs)) < 1e-5


# ---------------------------------------------------------------------------
# mean curvature vectors

def test_mean_curvature_direct_product_zero():
    dtp = flat_direct_product()
    assert np.allclose(mean_curvature(dtp, [0.1, 0.2], 1), 0.0)
    assert np.allclose(mean_curvature(dtp, [0.1, 0.2], 2), 0.0)


def test_mean_curvature_polar():
    dtp = fx.polar_plane()
    assert np.allclose(mean_curvature(dtp, [2.0, 0.3], 2), [-0.5, 0.0], atol=1e-12)
    assert np.allclose(mean_curvature(dtp, [2.0, 0.3], 1), 0.0)


def test_mean_curvature_slots():
    dtp = fx.random_doubly_twisted(13)
    x = [0.2, -0.1, 0.4, 0.3]
    n1, n2 = mean_curvature(dtp, x, 1), mean_curvature(dtp, x, 2)
    assert np.allclose(n1[dtp.slot1], 0.0)
    assert np.allclose(n2[dtp.slot2], 0.0)
    assert np.max(np.abs(n1)) > 1e-4
    assert np.max(np.abs(n2)) > 1e-4


# ---------------------------------------------------------------------------
# classification

def test_classify_direct_product():
    assert pg.classify(flat_direct_product()).tag is pg.StructureTag.DIRECT_PRODUCT


def test_classify_warped_polar():
    cls = pg.classify(fx.polar_plane())
    assert cls.tag is pg.StructureTag.WARPED
    assert cls.max_n1 < 1e-7
    assert cls.max_domega2 < 1e-6


def test_classify_twisted_example():
    cls = pg.classify(fx.build_example1().dtp, per_axis=5)
    assert cls.tag is pg.StructureTag.TWISTED
    assert cls.max_domega2 > 10 * pg.CLOSED_TOL


def test_classify_doubly_warped_random():
    cls = pg.classify(random_doubly_warped(17))
    assert cls.tag is pg.StructureTag.DOUBLY_WARPED


def test_classify_doubly_twisted_random():
    cls = pg.classify(fx.random_doubly_twisted(19))
    assert cls.tag is pg.StructureTag.DOUBLY_TWISTED


def _swap_product(dtp):
    n1, n2 = dtp.n1, dtp.n2

    def permute_scalar(s):
        def perm(c):
            c = np.asarray(c, dtype=float)
            return np.concatenate([c[n2:], c[:n2]])
        return ScalarField(lambda c: s.eval(perm(c)), name=s.name + "-swapped")

    f1 = pg.FactorManifold(dtp.f2.name, dtp.f2.metric, dtp.f2.domain_box)
    f2 = pg.FactorManifold(dtp.f1.name, dtp.f1.metric, dtp.f1.domain_box)
    return pg.assemble(f1, f2, permute_scalar(dtp.lam2), permute_scalar(dtp.lam1))


def test_classify_invariant_under_factor_swap():
    dw = random_doubly_warped(29)
    assert pg.classify(_swap_product(dw)).tag is pg.StructureTag.DOUBLY_WARPED
    warped = fx.polar_plane()
    swapped_cls = pg.classify(_swap_product(warped))
    assert swapped_cls.tag is pg.StructureTag.WARPED
    # foliation indices exchange: now N2 vanishes and omega1 is closed
    assert swapped_cls.max_n2 < 1e-7
    assert swapped_cls.max_domega1 < 1e-6


# ---------------------------------------------------------------------------
# sectional curvature closed form

def test_sectional_closed_form_sphere_mixed():
    dtp = fx.sphere_polar()
    x = np.array([1.2, 0.5])
    k = pg.sectional_curvature_closed_form(dtp, x, [1.0, 0.0], [0.0, 1.0 / np.sin(1.2)])
    assert k == pytest.approx(1.0, abs=1e-9)


def test_sectional_closed_form_hyperbolic_mixed():
    dtp = fx.hyperbolic_polar()
    x = np.array([1.2, 0.5])
    u, v = [1.0, 0.0], [0.0, 1.0 / np.sinh(1.2)]
    assert pg.sectional_curvature_closed_form(dtp, x, u, v) == pytest.approx(-1.0, abs=1e-9)


def test_sectional_closed_form_flat_zero():
    dtp = flat_direct_product()
    x = np.array([0.1, 0.2])
    k = pg.sectional_curvature_closed_form(dtp, x, [1, 0], [0, 1])
    assert k == pytest.approx(0.0, abs=1e-10)


def test_sectional_closed_form_requires_normalization():
    dtp = fx.sphere_polar()
    x = np.array([1.2, 0.5])
    with pytest.raises(NormalizationError):
        pg.sectional_curvature_closed_form(dtp, x, [2.0, 0.0], [0.0, 1.0])
    # orthogonality violations need a >= 2 dimensional slot
    big = fx.random_doubly_twisted(97)
    y = np.array([0.1, 0.2, -0.1, 0.3])
    u = ck.gram_schmidt(big.assembled, y, big.embed(1, [1.0, 0.4])[:, None])[:, 0]
    with pytest.raises(NormalizationError):
        pg.sectional_curvature_closed_form(big, y, u, u)


def test_sectional_closed_form_rejects_mixed_slot_vectors():
    dtp = fx.polar_plane()
    x = np.array([2.0, 0.4])
    u = [1.0, 0.0]
    v = [0.6, 0.4]  # unit, with components in both slots
    with pytest.raises(CaseMismatch):
        pg.sectional_curvature_closed_form(dtp, x, u, v)


@pytest.mark.parametrize("seed", [31, 37])
def test_sectional_closed_form_equals_oracle_all_cases(seed):
    dtp = fx.random_doubly_twisted(seed)
    rng = np.random.default_rng(seed)
    checked = {"HH": 0, "VV": 0, "HV": 0}
    for _ in range(10):
        x = rand_point(rng, dtp.domain_box) * 0.9
        for case in ("HH", "VV", "HV"):
            plane = sample_plane(dtp, rng, x, case)
            if plane is None:
                continue
            u, v = plane
            kc = pg.sectional_curvature_closed_form(dtp, x, u, v)
            kn = ck.sectional_curvature_numeric(dtp.assembled, x, u, v)
            assert abs(kc - kn) < 1e-5
            checked[case] += 1
    assert all(c > 0 for c in checked.values())


def test_sectional_equivalence_survives_fd_route():
    dtp = strip_analytic(fx.random_doubly_twisted(41))
    rng = np.random.default_rng(41)
    done = 0
    for _ in range(6):
        x = rand_point(rng, dtp.domain_box) * 0.9
        plane = sample_plane(dtp, rng, x, "HV")
        if plane is None:
            continue
        u, v = plane
        kc = pg.sectional_curvature_closed_form(dtp, x, u, v)
        kn = ck.sectional_curvature_numeric(dtp.assembled, x, u, v)
        assert abs(kc - kn) < 1e-5
        done += 1
    assert done > 0


# ---------------------------------------------------------------------------
# lightlike sectional curvature

# Minkowski R^{1,2}: xi = d_t, u = -d_t + d_x, v = d_y
NULL_FRAME_FLAT = ([1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def test_lightlike_flat_minkowski_zero():
    g = ck.MetricField.constant(np.diag([-1.0, 1.0, 1.0]))
    assert abs(pg.lightlike_sectional_curvature(g, [0.0, 0.0, 0.0], *NULL_FRAME_FLAT)) < 1e-12


def test_lightlike_lorentz_direct_zero():
    dtp = fx.lorentz_direct()
    x = [0.1, 0.2, -0.3]
    assert abs(pg.lightlike_sectional_curvature(dtp.assembled, x, *NULL_FRAME_FLAT)) < 1e-7


def test_lightlike_mixed_plane_vanishes_for_warped_fibers():
    # umbilic-fiber projection with integrable horizontal: K_xi(mixed) = 0
    dtp = lorentz_warped_fiber()
    g = dtp.assembled
    for xv in (-0.4, 0.0, 0.5):
        x = np.array([xv, 0.2, -0.1])
        lam = dtp.warp_value(2, x)
        xi = [0.0, 1.0 / lam, 0.0]
        u = [0.0, -1.0 / lam, 1.0 / lam]
        v = [1.0, 0.0, 0.0]
        k = pg.lightlike_sectional_curvature(g, x, xi, u, v)
        assert abs(k) < 1e-5
        # sanity: the metric itself is curved (mixed nondegenerate K != 0)
        kn = ck.sectional_curvature_numeric(g, x, v, xi)
        assert abs(kn) > 0.5


def test_lightlike_nonzero_on_expanding_spacetime():
    dtp = expanding_spacetime()
    g = dtp.assembled
    x = np.array([0.3, 0.1, -0.2])
    a = np.cosh(0.3)
    xi = [1.0, 0.0, 0.0]
    u = [-1.0, 1.0 / a, 0.0]
    v = [0.0, 0.0, 1.0]
    k = pg.lightlike_sectional_curvature(g, x, xi, u, v)
    assert abs(k) > 1e-3
    # invariant under rescaling v
    v2 = [0.0, 0.0, -2.3]
    assert pg.lightlike_sectional_curvature(g, x, xi, u, v2) == pytest.approx(k, abs=1e-8)


def test_lightlike_frame_validation():
    g = ck.MetricField.constant(np.diag([-1.0, 1.0, 1.0]))
    x = [0.0, 0.0, 0.0]
    xi, u, v = NULL_FRAME_FLAT
    with pytest.raises(InvalidFrame):
        pg.lightlike_sectional_curvature(g, x, [2.0, 0, 0], u, v)
    with pytest.raises(InvalidFrame):
        pg.lightlike_sectional_curvature(g, x, xi, [-1.0, 1.1, 0], v)
    with pytest.raises(InvalidFrame):
        pg.lightlike_sectional_curvature(g, x, xi, u, [-1.0, 1.0, 0.0])
    riem = ck.MetricField.euclidean(3)
    with pytest.raises(InvalidFrame):
        pg.lightlike_sectional_curvature(riem, x, xi, u, v)


# ---------------------------------------------------------------------------
# O'Neill T tensor

def test_oneill_t_direct_product_zero():
    dtp = flat_direct_product()
    x = np.array([0.1, 0.2])
    assert np.allclose(pg.oneill_T(dtp, x, [0.3, 0.7], [-0.2, 0.4]), 0.0)


def test_oneill_t_polar_unit_fiber_vector():
    dtp = fx.polar_plane()
    x = np.array([2.0, 0.4])
    e = np.array([0.0, 0.5])  # unit: |d_theta| = r = 2
    out = pg.oneill_T(dtp, x, e, e)
    assert np.allclose(out, mean_curvature(dtp, x, 2), atol=1e-12)
    assert np.allclose(out, [-0.5, 0.0], atol=1e-12)


def test_oneill_t_horizontal_argument_vanishes():
    dtp = fx.polar_plane()
    x = np.array([2.0, 0.4])
    assert np.allclose(pg.oneill_T(dtp, x, [1.0, 0.0], [0.3, 0.7]), 0.0)


@pytest.mark.parametrize("make", [fx.polar_plane, fx.sphere_polar,
                                  lambda: fx.random_doubly_twisted(43)])
def test_oneill_t_closed_form_equals_definitional(make):
    dtp = make()
    rng = np.random.default_rng(43)
    x = np.stack([rand_point(rng, dtp.domain_box) * 0.9 for _ in range(8)])
    E, F = rng.normal(size=(2,) + x.shape)
    closed = pg.oneill_T(dtp, x, E, F)
    assert np.max(np.abs(closed - pg.oneill_T_definitional(
        dtp, ck.christoffel_numeric(dtp.assembled, x), E, F))) < 1e-5
    # a batch row equals the point alone
    for p in range(len(x)):
        assert np.allclose(pg.oneill_T(dtp, x[p], E[p], F[p]), closed[p], rtol=0.0, atol=1e-12)


def test_oneill_t_vertical_bilinearity():
    dtp = fx.polar_plane()
    rng = np.random.default_rng(44)
    x = np.array([1.7, 0.8])
    E, F = rng.normal(size=(2, 2))
    perturbed = E + dtp.embed(1, rng.normal(size=1))
    assert np.allclose(pg.oneill_T(dtp, x, E, F), pg.oneill_T(dtp, x, perturbed, F), atol=1e-12)


def covariant_derivative(dtp, x, X, field):
    """(nabla_X V)^k = X^i d_i V^k + Gamma^k_ij X^i V^j at the point x, for a
    vector field given on batches (P, n) -> (P, n); d_i V by central
    differences."""
    dV = ck.central_diff(field, x, ck.fd_step(x))
    gamma = ck.christoffel_numeric(dtp.assembled, x)
    return X @ dV + np.einsum("kij,i,j->k", gamma, X, field(x[None])[0])


@pytest.mark.parametrize("make", [flat_direct_product, fx.polar_plane, fx.sphere_polar])
def test_oneill_t_covariant_derivative_formula(make):
    # with integrable horizontal distribution (A = 0) only the N terms survive:
    # (nabla_X T)(E,F) = g(E^v, F^v) nabla_X N - g(nabla_X N, F) E^v
    dtp = make()
    g = dtp.assembled
    rng = np.random.default_rng(45)
    for _ in range(4):
        x = rand_point(rng, dtp.domain_box) * 0.9
        X = dtp.embed(1, rng.normal(size=dtp.n1))
        E, F = rng.normal(size=(2, dtp.n))
        # E and F extended with constant components: nabla_X E = Gamma(X, E)
        gamma = ck.christoffel_numeric(g, x)
        dxE = np.einsum("kij,i,j->k", gamma, X, E)
        dxF = np.einsum("kij,i,j->k", gamma, X, F)
        fd = (covariant_derivative(dtp, x, X, lambda p: pg.oneill_T(dtp, p, E, F))
              - pg.oneill_T(dtp, x, dxE, F) - pg.oneill_T(dtp, x, E, dxF))
        dN = covariant_derivative(dtp, x, X, lambda p: mean_curvature(dtp, p, 2))
        Ev = dtp.project(2, E)
        gm = g.mat(x)
        closed = (Ev @ gm @ dtp.project(2, F)) * dN - (dN @ gm @ F) * Ev
        assert np.max(np.abs(fd - closed)) < 1e-4


def test_hessian_form_predicate_sign():
    # lam2 = 1 + x^2 has positive-definite hessian along factor 1
    dtp = bowl_warped()
    x = np.array([0.3, 0.1])
    v = np.array([1.0, 0.0])
    assert v @ pg.point_geometry(dtp, x).warp_hessian(2) @ v > 0.0


def test_mean_curvature_form_of_twisted_warp_not_closed():
    # omega_2 of the twisted construction has a nonzero exterior derivative
    dtp = fx.build_example1().dtp

    def omega2(c):  # coordinate-major batch, evaluated point by point
        return np.stack([pg.mean_curvature_form(dtp, p, 2) for p in c.T], axis=1)

    dw = ck.exterior_derivative_numeric(omega2, [0.5, 0.8], step=1e-4)
    assert abs(dw[0, 1]) > 1e-3
    assert np.allclose(dw, -dw.T)


# ---------------------------------------------------------------------------
# curvature-sign + critical-point diagnostic

def test_teodg_bowl_hypotheses_hold():
    report = pg.teodg_diagnostic(bowl_warped(), n_samples=40)
    assert report.hypotheses_hold
    assert report.histogram["positive"] == 0 and report.histogram["zero"] == 0
    assert any(abs(a[0]) < 1e-6 for a in report.critical_points)


def test_teodg_polar_no_critical_point():
    report = pg.teodg_diagnostic(fx.polar_plane(), n_samples=30)
    assert not report.hypotheses_hold
    assert report.critical_points == []


def test_teodg_flat_direct_product_violated():
    report = pg.teodg_diagnostic(flat_direct_product(), n_samples=30)
    assert not report.hypotheses_hold
    assert report.histogram["negative"] == 0
    assert report.histogram["zero"] > 0
    assert "violated" in report.verdict


def test_teodg_sphere_positive_curvature_witness():
    report = pg.teodg_diagnostic(fx.sphere_polar(), n_samples=30)
    assert not report.hypotheses_hold
    assert report.histogram["positive"] > 0
    assert report.witness is not None


def test_teodg_propagates_non_geometry_errors():
    # a callback bug (here: a factor metric that fails on batches of a multiple
    # of 5 points: teodg's sample batch and its stencils, which classification
    # never makes) must surface, not read as degenerate samples
    def broken(x):
        if np.shape(x)[1] % 5 == 0:
            raise RuntimeError("broken metric callback")
        return np.ones((1, 1) + np.shape(x)[1:])

    f1 = pg.FactorManifold("r", MetricField(1, broken, Signature.riemannian(1)), [[0.5, 3.0]])
    f2 = pg.FactorManifold("th", MetricField.euclidean(1), [[0.0, 6.2]])
    r = fx.function_of_coordinate_warp(0, 2, lambda r: r, lambda r: 1.0, lambda r: 0.0)
    dtp = pg.assemble(f1, f2, ScalarField.constant(1.0), r)
    assert pg.classify(dtp).tag is pg.StructureTag.WARPED
    with pytest.raises(RuntimeError, match="broken metric callback"):
        pg.teodg_diagnostic(dtp, n_samples=5)


def test_teodg_critical_points_from_the_constructions():
    # lam2 = sin r on [0.3, 2.8] has its one critical point at pi/2; sinh r and
    # r have none in their boxes; 1 + x^2 has its minimum at 0
    sphere = pg.teodg_diagnostic(fx.sphere_polar(), n_samples=10)
    assert len(sphere.critical_points) == 1 and not sphere.critical_everywhere
    assert abs(sphere.critical_points[0][0] - np.pi / 2) < 1e-12
    bowl = pg.teodg_diagnostic(bowl_warped(), n_samples=10)
    assert len(bowl.critical_points) == 1 and abs(bowl.critical_points[0][0]) < 1e-12
    for make in (fx.hyperbolic_polar, fx.polar_plane):
        report = pg.teodg_diagnostic(make(), n_samples=10)
        assert report.critical_points == [] and not report.critical_everywhere
        assert "no critical point" in report.verdict


@pytest.mark.parametrize("name, everywhere", [
    ("flat-torus", True), ("mobius", True), ("skewed-torus", True), ("lorentz-direct", True),
    ("sphere-polar", False),
])
def test_teodg_reports_a_constant_warp_as_critical_everywhere(name, everywhere):
    report = pg.teodg_diagnostic(resolve_scenario(name).dtp, n_samples=10)
    assert report.critical_everywhere is everywhere
    if everywhere:  # every point is critical: no grid start is listed as one
        assert report.critical_points == []
        assert "no critical point" not in report.verdict


def test_teodg_constant_warp_satisfies_the_critical_point_hypothesis():
    # lam1 = 1 + y^2, lam2 = 2: a mixed plane has K = -2 v_y^2 / lam1 < 0, and
    # every point is critical for the constant lam2, so the hypotheses hold
    f1 = pg.FactorManifold("line-x", MetricField.euclidean(1), [[-1.0, 1.0]])
    f2 = pg.FactorManifold("line-y", MetricField.euclidean(1), [[-1.0, 1.0]])
    lam1 = fx.function_of_coordinate_warp(1, 2, lambda y: 1 + y * y, lambda y: 2 * y,
                                          lambda y: 2.0, name="1+y^2")
    report = pg.teodg_diagnostic(pg.assemble(f1, f2, lam1, ScalarField.constant(2.0)),
                                 n_samples=10)
    assert report.histogram == {"negative": 10, "zero": 0, "positive": 0}
    assert report.critical_everywhere and report.critical_points == []
    assert report.hypotheses_hold


def test_teodg_rejects_twisted_structures():
    with pytest.raises(InvalidAction):
        pg.teodg_diagnostic(fx.build_example1().dtp)
