"""Batches of one for the tests that carry one vector or one loop frame
through ``transport.transport_batch``."""

import dataclasses

import numpy as np

from warpquot import transport as tp


def carry(space, curve, v0, foliation=None, tol=None):
    """``v0`` carried along the curve alone: parallel transport, or adapted
    translation in a leaf of F_foliation.  The law the transport keeps must
    hold within ``tol`` (by default 1e-7 for parallel transport and 1e-6 for
    adapted translation).  Returns the result with components (S, n)."""
    res, = tp.transport_batch(space, [tp.TransportJob(curve, [v0], foliation)])
    if tol is None:
        tol = 1e-7 if foliation is None else 1e-6
    assert res.tol_achieved <= tol, (res.tol_achieved, tol)
    return dataclasses.replace(res, components=res.components[:, :, 0])


def holonomy(model, loop, frame, foliation, closing_word=None):
    """``transport.loop_return_map`` of the frame's adapted translation
    around the loop alone.  Without a closing word, a quotient model finds
    one for a loop that does not close in chart coordinates."""
    base, end = loop.point(np.array([0.0, 1.0]))
    if (closing_word is None and hasattr(model, "find_closing_word")
            and np.max(np.abs(end - base)) > tp.LOOP_CLOSURE_TOL):
        closing_word = model.find_closing_word(end, base)
    job = tp.TransportJob(loop, frame, foliation)
    res, = tp.transport_batch(getattr(model, "dtp", model), [job])
    return tp.loop_return_map(model, job, res, closing_word)
