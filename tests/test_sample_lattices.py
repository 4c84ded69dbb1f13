"""Sample lattices: ``grid_points`` and ``offset_grid_points`` give, bit for
bit, the product of their per-axis samples taken one axis at a time, last
axis fastest, as a C-contiguous point array."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from warpquot import productgeo as pg

# sides may be empty (lo == hi) or tiny, where a side's linspace step is 0
bound = st.floats(-1e6, 1e6, allow_nan=False)
boxes = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(bound, bound).map(sorted), min_size=d, max_size=d))


def product_reference(axes) -> np.ndarray:
    return np.array(list(itertools.product(*axes)))


def assert_same_lattice(pts, ref):
    assert pts.flags.c_contiguous
    assert pts.shape == ref.shape and pts.dtype == ref.dtype
    assert pts.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(box=boxes, per_axis=st.integers(1, 6), inset=st.sampled_from([pg.GRID_INSET, 0.0, 0.1]))
def test_grid_points_is_the_product_of_its_axes(box, per_axis, inset):
    axes = [np.linspace(lo + inset * (hi - lo), hi - inset * (hi - lo), per_axis)
            for lo, hi in np.array(box)]
    assert_same_lattice(pg.grid_points(np.array(box), per_axis, inset), product_reference(axes))


@settings(max_examples=150, deadline=None)
@given(box=boxes, per_axis=st.integers(1, 6))
def test_offset_grid_points_is_the_product_of_its_axes(box, per_axis):
    frac = (np.arange(per_axis) + 0.381966) / per_axis
    axes = []
    for lo, hi in np.array(box):
        pad = pg.GRID_INSET * (hi - lo)
        axes.append(lo + pad + frac * (hi - lo - 2 * pad))
    assert_same_lattice(pg.offset_grid_points(np.array(box), per_axis), product_reference(axes))


def test_a_side_with_a_zero_step_keeps_the_other_sides_bits():
    # one linspace over all sides would take its zero-step branch for every side
    box = np.array([[0.0, 0.0], [-1.3, 2.9]])
    axes = [np.linspace(lo, hi, 7) for lo, hi in box]
    assert_same_lattice(pg.grid_points(box, 7, inset=0.0), product_reference(axes))
