"""Central differences on a block: only the partials a caller reads.

``chartkit.central_diff(..., axes=...)`` forms first partials along a set of
axes, or second partials on a rows x cols set of axes, from the stencil
points of those entries alone; each entry is the same entry of the full
stencil, bit for bit.  ``ScalarField._jet`` takes the same block: the exact
route slices its one call, the FD route differences on the block's stencil.
``classify`` reads the mixed slot-1 x slot-2 block of each warp's hessian
that way, and the count of warp evaluations below pins it; a formula warp
that reads one factor's coordinates is differenced along those alone.
"""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import scenario as sc

from test_fd_golden import SCENARIOS

PROFILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _field(pts):
    """A (Q, 2)-valued elementwise function of (Q, n) points that couples every coordinate."""
    w = np.arange(1, pts.shape[1] + 1) * 0.37
    return np.stack([np.sin(pts @ w) * np.exp(0.3 * pts[:, 0]),
                     np.cos(pts[:, -1] * pts[:, 0]) + pts.sum(axis=1) ** 3], axis=1)


@st.composite
def blocks(draw):
    """(n, order, x, axes, centre): axes (ks,) at order 1, (rows, cols) at
    order 2, the columns equal to the rows, disjoint from them or drawn alone."""
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from([1, 2]))
    subset = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(tuple)
    rows = draw(subset)
    if order == 1:
        axes = (rows,)
    else:
        rest = [k for k in range(n) if k not in rows]
        shape = draw(st.sampled_from(["equal", "disjoint", "any"] if rest else ["equal", "any"]))
        cols = {"equal": st.just(rows), "any": subset,
                "disjoint": st.lists(st.sampled_from(rest), min_size=1, unique=True).map(tuple)}
        axes = (rows, draw(cols[shape]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 4)), n) if draw(st.booleans()) else (n,))
    return n, order, x, axes, draw(st.booleans())


@PROFILE
@given(blocks())
def test_each_block_entry_is_the_full_stencils_entry_bit_for_bit(case):
    n, order, x, axes, centre = case
    steps = ck.fd_step(x, (ck.FD_STEP_1, ck.FD_STEP_2)[order - 1])
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return _field(pts)

    full = ck.central_diff(_field, x, steps, order=order, centre=centre)
    block = ck.central_diff(counted, x, steps, order=order, centre=centre, axes=axes)
    if centre:
        (full, at_full), (block, at) = full, block
        np.testing.assert_array_equal(at, at_full, strict=True)
    lead = (slice(None),) * (x.ndim - 1)
    want = full[lead + np.ix_(*axes)]
    assert block.shape == want.shape
    np.testing.assert_array_equal(block, want, strict=True)
    # only the block's stencil points: the centre (when asked for or on the
    # diagonal), +-e_k along each differenced axis, 4 corners per pair
    if order == 1:
        line, pairs = set(axes[0]), set()
    else:
        rows, cols = axes
        line = set(rows) & set(cols)
        pairs = {(min(r, c), max(r, c)) for r in rows for c in cols if r != c}
    per_point = int(centre or bool(order == 2 and line)) + 2 * len(line) + 4 * len(pairs)
    assert calls == [per_point * (len(x) if x.ndim == 2 else 1)]


def _fields():
    exact = fx.trig_warp([0.2, -0.1], [[0.7, -0.4, 0.3], [0.2, 0.9, -0.6]], [0.3, 1.1])
    return {"exact": exact, "order-1": dataclasses.replace(exact, exact_order=1),
            "fd": dataclasses.replace(exact, exact_order=0)}


@pytest.mark.parametrize("route", ["exact", "order-1", "fd"])
@pytest.mark.parametrize("rows, cols", [((0,), (1, 2)), ((2, 0), (2, 0)), ((1,), (0, 1, 2))])
def test_a_block_jet_is_the_full_jets_block(route, rows, cols):
    field = _fields()[route]
    x = np.array([[0.1, -0.4, 0.7], [0.5, 0.2, -0.3]])
    for pts in (x, x[0]):
        val, grad = ck._call_batch(field._jet, pts, 1, (cols,))
        np.testing.assert_array_equal(val, field.value(pts), strict=True)
        np.testing.assert_array_equal(grad, field.grad_coords(pts)[..., cols], strict=True)
        (hess,) = ck._call_batch(field._jet, pts, 2, (rows, cols))
        np.testing.assert_array_equal(hess, field.hess_coords(pts)[..., rows, :][..., cols],
                                      strict=True)


def test_the_exact_route_of_a_block_jet_makes_one_callback_call(monkeypatch):
    field = _fields()["exact"]
    calls = []
    exact = field.eval

    def eval(x, *order):
        calls.append(order)
        return exact(x, *order)

    monkeypatch.setattr(field, "eval", eval)
    cols = np.ascontiguousarray(np.array([[0.1, -0.4, 0.7]]).T)
    field._jet(cols, 2, ((0,), (1, 2)))
    field._jet(cols, 1, ((2,),))
    assert calls == [(2,), (1,)]


# ---------------------------------------------------------------------------
# classify on the FD route: the warp points it evaluates


def _counted(field, seen):
    def eval(x, *order, _e=field.eval):
        seen.append(np.array(x.T))
        return _e(x, *order)

    return dataclasses.replace(field, eval=eval)


def _classify_tally(dtp):
    """Evidence of classify on dtp and, per warp, its evaluated points by
    kind: the sample point itself, a gradient step (one axis, FD_STEP_1), a
    hessian diagonal step (one axis, FD_STEP_2), a mixed corner (one slot-1
    and one slot-2 axis, FD_STEP_2), or other.  The assembled metric keeps
    the uncounted warps, so only classify's own warp reads are counted."""
    seen = {1: [], 2: []}
    counted = pg.DoublyTwistedProduct(dtp.f1, dtp.f2, _counted(dtp.lam1, seen[1]),
                                      _counted(dtp.lam2, seen[2]), dtp.assembled)
    evidence = pg.classify(counted).evidence
    grid = pg.offset_grid_points(dtp.domain_box, 4)
    lattice = [np.unique(grid[:, k]) for k in range(dtp.n)]  # the grid is their product
    tallies = {}
    for i, batches in seen.items():
        pts = np.concatenate(batches)
        near = np.stack([u[np.abs(pts[:, k, None] - u).argmin(axis=1)]
                         for k, u in enumerate(lattice)], axis=1)
        rel = np.abs(pts - near) / np.maximum(1.0, np.abs(near))
        moved = rel > 0.0
        big = (rel > 5e-5).any(axis=1)
        in1, in2 = moved[:, dtp.slot1].sum(axis=1), moved[:, dtp.slot2].sum(axis=1)
        kinds = np.select([~moved.any(axis=1), (in1 + in2 == 1) & ~big, (in1 + in2 == 1) & big,
                           (in1 == 1) & (in2 == 1) & big],
                          ["centre", "gradient", "diagonal", "corner"], "other")
        tallies[i] = Counter(kinds.tolist())
    return evidence, len(grid), tallies


def _formula_product(tmp_path, name="formula-twisted"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCENARIOS[name]), encoding="utf-8")
    return sc.resolve_scenario(str(path), seed=0).dtp


@pytest.mark.parametrize("source", ["random-dtp", "formula-twisted"])
def test_classify_reads_a_gradient_stencil_and_the_mixed_corners_alone(tmp_path, source):
    dtp = (fx.strip_analytic(sc.resolve_scenario("random-dtp", seed=0).dtp)
           if source == "random-dtp" else _formula_product(tmp_path))
    evidence, P, tallies = _classify_tally(dtp)
    assert min(evidence["max_N1"], evidence["max_N2"]) >= pg.VANISH_TOL  # both warps differenced
    for tally in tallies.values():
        assert tally == Counter({"centre": P, "gradient": 2 * dtp.n * P,
                                 "corner": 4 * dtp.n1 * dtp.n2 * P})
        assert sum(tally.values()) == P * (1 + 2 * dtp.n) + 4 * P * dtp.n1 * dtp.n2


def test_a_warp_on_one_factor_evaluates_its_read_axes_alone(tmp_path):
    # each warp of formula-warped reads the other factor's two coordinates:
    # P centres and the +-e_k neighbours of those two axes, no corner, where
    # its N_i != 0 would read all 4 P n1 n2 of them
    dtp = _formula_product(tmp_path, "formula-warped")
    evidence, P, tallies = _classify_tally(dtp)
    assert min(evidence["max_N1"], evidence["max_N2"]) >= pg.VANISH_TOL
    for i, tally in tallies.items():
        assert dtp.warp(i).reads == dtp.axes(3 - i)
        assert tally == Counter({"centre": P, "gradient": 2 * 2 * P})
    # negative control: the same warps with their read sets unknown take
    # today's numeric route, every stencil, to the same evidence
    unknown = pg.DoublyTwistedProduct(dtp.f1, dtp.f2, dataclasses.replace(dtp.lam1, reads=None),
                                      dataclasses.replace(dtp.lam2, reads=None), dtp.assembled)
    full_evidence, _, full_tallies = _classify_tally(unknown)
    assert full_evidence == evidence
    for tally in full_tallies.values():
        assert tally == Counter({"centre": P, "gradient": 2 * dtp.n * P,
                                 "corner": 4 * dtp.n1 * dtp.n2 * P})


def test_the_full_order_2_jet_fails_the_count(monkeypatch):
    # negative control: the mixed block sliced from the full order-2 jet (a
    # second gradient stencil, the whole hessian stencil) gives the same
    # evidence from more points, hessian diagonals among them
    dtp = fx.strip_analytic(sc.resolve_scenario("random-dtp", seed=0).dtp)
    evidence, P, tallies = _classify_tally(dtp)
    block_jet = ck.ScalarField._jet

    def full_jet(self, cols, order, block=None):
        if block is None or order == 1:
            return block_jet(self, cols, order, block)
        return (block_jet(self, cols, 2)[2][np.ix_(*block)],)

    monkeypatch.setattr(ck.ScalarField, "_jet", full_jet)
    full_evidence, _, full_tallies = _classify_tally(dtp)
    assert full_evidence == evidence
    for tally, full in zip(tallies.values(), full_tallies.values()):
        assert full != tally
        assert full["diagonal"] == 2 * dtp.n * P and full["gradient"] == 4 * dtp.n * P


# ---------------------------------------------------------------------------
# a full order-2 jet on the FD route: each centre point once


@pytest.mark.parametrize("source", ["random-dtp", "formula-twisted"])
def test_a_full_order_2_jet_evaluates_each_centre_once(tmp_path, source):
    # the value is the hessian stencil's centre row; the gradient stencil holds
    # only the +-e_k points: P (1 + 4 n + 2 n (n - 1)) warp values, 41 P at n = 4
    dtp = (fx.strip_analytic(sc.resolve_scenario("random-dtp", seed=0).dtp)
           if source == "random-dtp" else _formula_product(tmp_path))
    x = pg.offset_grid_points(dtp.domain_box, 2)
    P, n = x.shape
    seen = []
    lam = _counted(dtp.lam1, seen)
    assert lam.exact_order == 0
    val, grad, hess = ck._call_batch(lam._jet, x, 2)
    pts = np.concatenate(seen)
    assert len(pts) == P * (1 + 4 * n + 2 * n * (n - 1)) == 41 * P
    counts = Counter(map(bytes, pts))
    assert [counts[bytes(p)] for p in x] == [1] * P
    # the same bits as the value alone and each stencil with its own centre
    np.testing.assert_array_equal(val, lam.value(x), strict=True)
    for order, d in ((1, grad), (2, hess)):
        steps = ck.fd_step(x, (ck.FD_STEP_1, ck.FD_STEP_2)[order - 1])
        want, at = ck.central_diff(lambda q: ck._call_batch(dtp.lam1._value, q), x, steps,
                                   order=order, centre=True)
        np.testing.assert_array_equal(d, want, strict=True)
        np.testing.assert_array_equal(at, val, strict=True)
