"""Models that only the tests build, beside the built-ins of
``warpquot.fixtures``.

``strip_analytic`` gives FD-only variants, copies of exact order 0 that read
only the values, to keep both computation routes honestly independent.  The
built-in quotients take ``DEFAULT_WORD_BOUND``; ``bounded`` rebuilds one
with another word bound.
"""

import dataclasses

import numpy as np

from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot.chartkit import MetricField, ScalarField


def strip_analytic(dtp: pg.DoublyTwistedProduct) -> pg.DoublyTwistedProduct:
    """Same product, every field a copy of exact order 0 (pure FD route)."""

    def bare(field):
        return dataclasses.replace(field, exact_order=0)

    f1 = pg.FactorManifold(dtp.f1.name, bare(dtp.f1.metric), dtp.f1.domain_box)
    f2 = pg.FactorManifold(dtp.f2.name, bare(dtp.f2.metric), dtp.f2.domain_box)
    return pg.assemble(f1, f2, bare(dtp.lam1), bare(dtp.lam2))


def bounded(model: qt.QuotientModel, word_bound: int) -> qt.QuotientModel:
    """The same quotient with another word bound."""
    return qt.QuotientModel(model.dtp, model.generators, model.fundamental_box,
                            model.ident_tol, word_bound)


# ---------------------------------------------------------------------------
# products

def flat_direct_product() -> pg.DoublyTwistedProduct:
    """Euclidean R x R as a direct product."""
    return fx._lines(("line-x", [-2.0, 2.0]), ("line-y", [-2.0, 2.0]))


def lorentz_warped_fiber() -> pg.DoublyTwistedProduct:
    """Riemannian base R, Minkowski fiber R^{1,1}, lam2 = cosh x.

    A warped product whose factor-1 projection is a semi-Riemannian
    submersion with umbilic Lorentzian fibers; mixed degenerate planes have
    vanishing lightlike curvature here.
    """
    f1 = pg.FactorManifold("base-x", MetricField.euclidean(1), [[-1.0, 1.0]])
    mink = MetricField.constant(np.diag([-1.0, 1.0]))
    f2 = pg.FactorManifold("fiber", mink, [[-1.0, 1.0], [-1.0, 1.0]])
    lam2 = fx.function_of_coordinate_warp(0, 3, np.cosh, np.sinh, np.cosh, name="cosh x")
    return pg.assemble(f1, f2, ScalarField.constant(1.0), lam2)


def expanding_spacetime() -> pg.DoublyTwistedProduct:
    """-dt^2 + cosh(t)^2 (dx^2 + dy^2): timelike base, expanding spatial fiber.

    Mixed degenerate planes here are NOT vertical-null planes of the base
    projection, so the lightlike curvature is generically nonzero.
    """
    time = MetricField.constant(np.array([[-1.0]]))
    f1 = pg.FactorManifold("time", time, [[-1.0, 1.0]])
    f2 = pg.FactorManifold("plane", MetricField.euclidean(2), [[-1.0, 1.0], [-1.0, 1.0]])
    lam2 = fx.function_of_coordinate_warp(0, 3, np.cosh, np.sinh, np.cosh, name="cosh t")
    return pg.assemble(f1, f2, ScalarField.constant(1.0), lam2)


def bowl_warped() -> pg.DoublyTwistedProduct:
    """Warped product with lam2 = 1 + x^2: unique critical point at x = 0."""
    return fx._warped_lines(("line-x", [-1.5, 1.5]), ("line-y", [-1.0, 1.0]),
                            lambda x: 1 + x * x, lambda x: 2 * x, lambda x: 2.0, "1+x^2")


def random_doubly_warped(seed: int) -> pg.DoublyTwistedProduct:
    """Randomized doubly warped product (lam1 on factor 2, lam2 on factor 1)."""
    rng = np.random.default_rng(seed)
    f1 = pg.FactorManifold("f1", MetricField.euclidean(1), [[-1.0, 1.0]])
    f2 = pg.FactorManifold("f2", MetricField.euclidean(1), [[-1.0, 1.0]])
    a1, b1, c1 = rng.uniform(0.1, 0.3), rng.uniform(0.3, 1.2), rng.uniform(0, 2)
    a2, b2, c2 = rng.uniform(0.1, 0.3), rng.uniform(0.3, 1.2), rng.uniform(0, 2)
    lam1 = fx.trig_warp([a1], [[0.0, b1]], [c1], name="lam1(y)")
    lam2 = fx.trig_warp([a2], [[b2, 0.0]], [c2], name="lam2(x)")
    return pg.assemble(f1, f2, lam1, lam2)


# ---------------------------------------------------------------------------
# quotients

def klein_bottle_model() -> qt.QuotientModel:
    """Flat Klein bottle: R^2 / <a: (x + 1/2, -y), b: (x, y + 1)>, word bound 6.

    The F1 leaves y = 0 and y = 1/2 close after a and a b^-1 with holonomy
    -1 on their normal line; every other F1 leaf closes after a^2 with
    trivial holonomy and meets its F2 leaf twice.
    """
    return bounded(fx._flat_quotient([0.0, 0.5], [-0.5, 0.5],
                                     [fx._deck("a", 0.5), fx._deck("b", 0.0, 1.0)]), 6)
