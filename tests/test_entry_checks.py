"""Points, vectors and frames are checked once, at the public entry point.

A point and a vector are arrays (n,), a frame is (n, k) with one column per
vector (chartkit's module notes).  Every public entry point that takes one
from its caller refuses a wrong length or shape with ValueError and a nan
entry with NumericsError, before any other work.
"""

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import transport as tp
from warpquot.errors import NumericsError

from fixture_models import flat_direct_product

POLAR = fx.polar_plane()                 # dr^2 + r^2 dth^2
X = np.array([1.0, 0.5])                 # r = 1: u, v below are g-orthonormal
U, V = np.array([1.0, 0.0]), np.array([0.0, 1.0])
LINE = tp.PiecewiseCurve.line(X, [2.0, 0.5])  # an F1 leaf line from X
LORENTZ = fx.lorentz_direct()
LX = np.array([0.1, 0.2, -0.3])
NULL_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
F = ck.ScalarField(lambda x: x[0] * x[1], name="r th")
G = POLAR.assembled


def _loop_return(frame):
    """``loop_return_map`` of a contractible leaf loop, read with ``frame``."""
    dtp = flat_direct_product()
    loop = tp.PiecewiseCurve.from_function(
        lambda t: np.stack([0.2 * np.sin(2 * np.pi * t), 0.0 * t], axis=1),
        lambda t: np.stack([0.4 * np.pi * np.cos(2 * np.pi * t), 0.0 * t], axis=1))
    job = tp.TransportJob(loop, np.array([[0.0], [1.0]]), 1)
    res, = tp.transport_batch(dtp, [job])
    return tp.loop_return_map(dtp, tp.TransportJob(loop, frame, 1), res, None)


# entry point and argument -> (the call with that argument, a valid value of it)
VECTORS = {
    "inner_product:x": (lambda w: ck.inner_product(G, w, U, V), X),
    "inner_product:u": (lambda w: ck.inner_product(G, X, w, V), U),
    "sectional_curvature_numeric:x": (lambda w: ck.sectional_curvature_numeric(G, w, U, V), X),
    "sectional_curvature_numeric:v": (lambda w: ck.sectional_curvature_numeric(G, X, U, w), V),
    "gradient:x": (lambda w: ck.gradient(F, G, w), X),
    "hessian_matrix:x": (lambda w: ck.hessian_matrix(F, G, w), X),
    "gram_schmidt:x": (lambda w: ck.gram_schmidt(G, w, np.eye(2)), X),
    "sectional_curvature_closed_form:x":
        (lambda w: pg.sectional_curvature_closed_form(POLAR, w, U, V), X),
    "sectional_curvature_closed_form:u":
        (lambda w: pg.sectional_curvature_closed_form(POLAR, X, w, V), U),
    "lightlike_sectional_curvature:x":
        (lambda w: pg.lightlike_sectional_curvature(LORENTZ.assembled, w, *NULL_FRAME), LX),
    "lightlike_sectional_curvature:v":
        (lambda w: pg.lightlike_sectional_curvature(LORENTZ.assembled, LX, *NULL_FRAME[:2], w),
         NULL_FRAME[2]),
    "grad_warp:x": (lambda w: POLAR.grad_warp(2, w), X),
    "normal_frame:x": (lambda w: tp.normal_frame(POLAR, w), X),
    "adapted_translation_closed_form:v0":
        (lambda w: tp.adapted_translation_closed_form(POLAR, LINE, w), V),
}

FRAMES = {
    "gram_schmidt:frame": (lambda w: ck.gram_schmidt(G, X, w), np.eye(2)),
    "transport_batch:frame":
        (lambda w: tp.transport_batch(POLAR, [tp.TransportJob(LINE, w, 1)]), V[:, None]),
    "transport_batch:parallel-frame":
        (lambda w: tp.transport_batch(G, [tp.TransportJob(LINE, w, None)]), np.eye(2)),
    "loop_return_map:frame": (_loop_return, np.array([[0.0], [1.0]])),
}


def _with_nan(value):
    bad = np.array(value, dtype=float)
    bad.flat[-1] = np.nan
    return bad


@pytest.mark.parametrize("case", sorted(VECTORS))
def test_a_wrong_length_or_a_nan_vector_is_refused(case):
    call, good = VECTORS[case]
    call(good)
    for wrong in (np.append(good, 0.0), good[:-1]):
        with pytest.raises(ValueError, match=r"^expected"):
            call(wrong)
    with pytest.raises(NumericsError, match=r"^non-finite (entries|coordinates) in"):
        call(_with_nan(good))


@pytest.mark.parametrize("case", sorted(FRAMES))
def test_a_wrong_shape_or_a_nan_frame_is_refused(case):
    call, good = FRAMES[case]
    call(good)
    n = good.shape[0]
    for wrong in (np.vstack([good, np.zeros((1, good.shape[1]))]), good[:-1], good[:, 0],
                  good[None]):
        with pytest.raises(ValueError, match=rf"^expected a frame \({n}, k\), got shape"):
            call(wrong)
    with pytest.raises(NumericsError, match=r"^non-finite entries in frame"):
        call(_with_nan(good))
