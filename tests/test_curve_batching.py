"""Batched curve evaluation against one-time calls.

``PiecewiseCurve.point`` and ``velocity`` take one time (result ``(n,)``) or
an array of times (result ``(T, n)``).  A batch must give, bit for bit, the
stacked one-time results, and each time must land in the segment of the
rule "the first segment with t <= t1 + 1e-12", also exactly at a break and
1e-12 past it.  The transport passes evaluate the curve once per pass.
"""

import functools
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import scenario
from warpquot import transport as tp
from warpquot.chartkit import CoordPoint, TangentVector
from transport_jobs import carry


@functools.cache
def _curves():
    formula = scenario._build_curve(
        {"formula": ["cos(2*pi*t) + t**3", "exp(-t) * sin(3*t)", "smoothstep(2*t - 0.5)"],
         "breaks": [0.25, 0.6]}, 3, "curves.wavy")
    return {
        "line": tp.PiecewiseCurve.line([0.3, -1.2, 2.0], [1.1, 0.4, -0.5]),
        "catmull-rom": tp.PiecewiseCurve.catmull_rom(
            [[0.0, 0.0], [1.0, 0.5], [2.0, -0.3], [2.5, 1.0]]),
        "formula": formula,
    }


def _segment_at(curve, t):
    """The segment rule, one time at a time: the index of the first segment
    whose end knot t1 has t <= t1 + 1e-12, else the last one."""
    ends = curve.knots[1:]
    return next((k for k, t1 in enumerate(ends) if t <= t1 + 1e-12), len(ends) - 1)


def _special_times(curve):
    out = [0.0, 1.0]
    for b in curve.knots[1:-1].tolist():
        out += [b, b + 1e-12, np.nextafter(b + 1e-12, 2.0), b - 1e-12]
    return out


@pytest.mark.parametrize("name", ["line", "catmull-rom", "formula"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_equals_stacked_one_time_calls(name, data):
    curve = _curves()[name]
    ts = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(_special_times(curve))),
                            min_size=1, max_size=12))
    ts = np.array(ts)
    for attr in ("point", "velocity"):
        batch = getattr(curve, attr)(ts)
        single = np.stack([getattr(curve, attr)(t) for t in ts])
        fn = curve._point if attr == "point" else curve._velocity
        by_rule = np.stack([fn(np.array([t]), np.array([_segment_at(curve, t)]))[0] for t in ts])
        assert batch.shape == single.shape == (len(ts), curve.point(0.0).shape[0])
        np.testing.assert_array_equal(batch, single)
        np.testing.assert_array_equal(batch, by_rule)


def _counting(curve):
    """Record the time arrays of every ``point`` and ``velocity`` call."""
    calls = {"point": [], "velocity": []}
    for attr, log in calls.items():
        method = getattr(curve, attr)
        setattr(curve, attr, lambda t, _m=method, _log=log: (_log.append(np.shape(t)), _m(t))[1])
    return calls


def test_one_point_and_one_velocity_batch_per_collocation_pass():
    dtp = fx.sphere_polar()
    curve = tp.PiecewiseCurve.catmull_rom([[1.2, 0.3], [1.4, 0.9], [1.1, 1.6]])
    grid, _ = curve._samples  # the jobs' grid, evaluated once before the count
    calls = _counting(curve)
    nodes = 3 * 4 * (len(grid) - 1)
    tp.collocation_pass(dtp.assembled, None, [(curve, None)], [4])
    assert calls == {"point": [(nodes,)], "velocity": [(nodes,)]}
    # jobs on the same curve share its evaluation
    calls["point"].clear()
    calls["velocity"].clear()
    tp.collocation_pass(dtp.assembled, dtp, [(curve, None), (curve, 1)], [4])
    assert calls == {"point": [(nodes,)], "velocity": [(nodes,)]}


def test_one_point_and_one_velocity_batch_per_closed_form_transport():
    dtp = fx.random_doubly_twisted(3)
    box = dtp.domain_box
    start = 0.6 * box[:, 0] + 0.4 * box[:, 1]
    pts = [start + np.concatenate([[0.1 * k, 0.05 * k * k], [0.0, 0.0]]) for k in range(4)]
    curve = tp.PiecewiseCurve.catmull_rom(pts)
    v0 = TangentVector(CoordPoint(curve.point(0.0)), dtp.embed(2, [1.0, -0.5]))
    calls = _counting(curve)
    res = tp.adapted_translation_closed_form(dtp, curve, v0)
    # the leaf guard's probe, then the velocity at the samples for the residual
    assert calls == {"point": [(len(res.ts),)], "velocity": [(33,), (len(res.ts),)]}


@pytest.mark.parametrize("name", ["line", "catmull-rom", "formula"])
def test_one_evaluator_call_per_batch_whatever_the_segment_count(name):
    curve = _curves()[name]
    evaluators = {"_point": curve._point, "_velocity": curve._velocity}
    calls = []
    for attr, fn in evaluators.items():
        setattr(curve, attr, lambda t, seg, _fn=fn, _attr=attr: (calls.append((_attr, len(t))),
                                                                 _fn(t, seg))[1])
    try:
        ts = np.linspace(0.0, 1.0, 41)  # times in every segment
        curve.point(ts)
        curve.velocity(ts)
    finally:
        for attr, fn in evaluators.items():
            setattr(curve, attr, fn)
    assert len(curve.knots) - 1 == {"line": 1, "catmull-rom": 3, "formula": 3}[name]
    assert calls == [("_point", 41), ("_velocity", 41)]


def test_transport_result_builds_tangent_vectors_from_its_arrays():
    g = ck.MetricField.euclidean(2)
    curve = tp.PiecewiseCurve.line([0.0, 0.0], [1.0, 0.5])
    res = carry(g, curve, TangentVector(CoordPoint([0.0, 0.0]), [0.3, -0.7]))
    assert res.points.shape == res.components.shape == (len(res.ts), 2)
    np.testing.assert_array_equal(res.end.components, res.components[-1])
    np.testing.assert_array_equal(res.end.base.coords, curve.point(1.0))


@pytest.mark.parametrize("name", ["random-dtp", "flat-torus"])
def test_verify_all_builds_each_curves_transport_grid_once(monkeypatch, name):
    # the leaf line carries the adapted and the parallel job and the closed
    # form: one velocity batch at the 33 probe times and one point batch at
    # its sample times serve all three (2 and 3 such batches before); each
    # holonomy loop is probed and sampled once as well
    seen = []
    for method in ("point", "velocity"):
        exact = getattr(tp.PiecewiseCurve, method)

        def counted(self, t, _exact=exact, _method=method):
            seen.append((self, _method, np.array(t, dtype=float)))
            return _exact(self, t)

        monkeypatch.setattr(tp.PiecewiseCurve, method, counted)
    assert cli.main(["run", name, "verify-all", "--out", os.devnull]) == 0
    grids = {}
    for curve, method, t in seen:
        samples = np.unique(np.concatenate([np.linspace(t0, t1, tp.SAMPLES_PER_SEGMENT) for t0, t1
                                            in zip(curve.knots[:-1], curve.knots[1:])]))
        probe = np.array_equal(t, np.linspace(0.0, 1.0, 33)) and method == "velocity"
        sample = np.array_equal(t, samples) and method == "point"
        grids.setdefault(id(curve), Counter()).update(probe=probe, samples=sample)
    assert len(grids) == (1 if name == "random-dtp" else 3)
    assert all(count == Counter(probe=1, samples=1) for count in grids.values())
