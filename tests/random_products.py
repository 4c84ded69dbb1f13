"""Randomized doubly twisted products of any factor dimensions, for the tests
that need more than the 2 + 2 ``fixtures.random_doubly_twisted``."""

import numpy as np

from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot.chartkit import MetricField


def random_twisted(seed: int, n1: int, n2: int) -> pg.DoublyTwistedProduct:
    """``fixtures.random_doubly_twisted``'s construction on factors of
    dimension n1 and n2, drawn in the same order (at 2 + 2 it is that
    fixture): a factor of dimension 1 is a Euclidean line, one of dimension 2
    or more is conformally flat and curved; both warps depend on both slots."""
    rng = np.random.default_rng(seed)
    n = n1 + n2

    def factor(name, dim):
        box = [[-1.0, 1.0]] * dim
        if dim > 1:
            g = fx.conformal_flat_metric(dim, 0.2 + 0.1 * rng.random(), rng.uniform(0.3, 1.2, dim),
                                         rng.uniform(0, 2), box)
        else:
            g = MetricField.euclidean(1, domain_box=np.asarray(box))
        return pg.FactorManifold(name, g, box)

    f1, f2 = factor("f1", n1), factor("f2", n2)
    lam1, lam2 = (fx.trig_warp(rng.uniform(0.1, 0.3, 2), rng.uniform(0.2, 1.2, (2, n)),
                               rng.uniform(0, 2, 2), name=f"warp-{tag}") for tag in "12")
    return pg.assemble(f1, f2, lam1, lam2)
