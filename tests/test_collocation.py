"""The transport oracle: composite Gauss-Legendre collocation with step doubling.

``transport.transport_batch`` solves Ydot = -Gamma(gamma') Y along known
curves by 3-stage Gauss-Legendre collocation (order 6; Butcher 1964,
Hairer-Norsett-Wanner I, II.7), with Gamma from one batched
``christoffel_numeric`` per pass over every job, the passes at 1 and 2 steps
per interval as one.  Here it is held against scipy's RK45 at
rtol 1e-12 (the oracle of the oracle), its call pattern is counted, and the
doubling cap must raise.
"""

import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import transport as tp
from warpquot.errors import IntegrationError, NumericsError
from warpquot.scenario import list_scenarios, resolve_scenario
from transport_jobs import carry

AGREE = 1e-9  # collocation against the tight RK45 reference


def rk45(g, curve, y0, ts, omega=None, keep=None):
    """Reference Y (len(ts), n, k) and I (len(ts),): scipy's RK45 at rtol
    1e-12 / atol 1e-12 (within 2e-11 of the collocation on every case here),
    restarted at every break, one single-point Gamma per call.
    ``keep`` (n, k) masks the entries of Ydot (normal transport columns)."""
    n, k = y0.shape

    def rhs(t, state):
        pos, vel = curve.point(t), curve.velocity(t)
        dY = -np.einsum("kij,i,jc->kc", ck.christoffel_numeric(g, pos), vel,
                        state[:-1].reshape(n, k))
        if keep is not None:
            dY[~keep] = 0.0
        dI = float(omega(pos[None])[0] @ vel) if omega is not None else 0.0
        return np.concatenate([dY.reshape(-1), [dI]])

    state = np.concatenate([y0.reshape(-1), [0.0]])
    at = {}
    for t0, t1 in zip(curve.knots[:-1], curve.knots[1:]):
        t_eval = np.append(ts[(ts >= t0) & (ts < t1)], t1)
        sol = solve_ivp(rhs, (t0, t1), state, method="RK45", rtol=1e-12,
                        atol=1e-12, t_eval=t_eval)
        assert sol.success
        at.update(zip(t_eval, sol.y.T))
        state = sol.y[:, -1]
    out = np.stack([at[t] for t in ts])
    return out[:, :-1].reshape(len(ts), n, k), out[:, -1]


def leaf_line(dtp):
    box = dtp.domain_box
    start = 0.7 * box[:, 0] + 0.3 * box[:, 1]
    end = start.copy()
    end[dtp.slot1] = (0.25 * box[:, 0] + 0.75 * box[:, 1])[dtp.slot1]
    return tp.PiecewiseCurve.line(start, end)


def leaf_spline(dtp):
    """Two-segment Catmull-Rom curve in an F_1 leaf: its break at t = 1/2
    joins two cubics with different second derivatives."""
    lo, hi = dtp.domain_box[:, 0], dtp.domain_box[:, 1]
    pts = [lo + f * (hi - lo) for f in (0.3, 0.5, 0.7)]
    for p in pts:
        p[dtp.slot2] = pts[0][dtp.slot2]
    pts[1][dtp.slot1.start] += 0.15 * (hi - lo)[dtp.slot1.start]
    return tp.PiecewiseCurve.catmull_rom(pts)


def cases():
    """(label, dtp, curve): the nine built-ins on verify-all's curve, random
    doubly twisted products and a curve across a break."""
    for name in list_scenarios():
        ctx = resolve_scenario(name)
        yield name, ctx.dtp, cli._horizontal_curve(ctx)
    for seed in (0, 3, 11):
        dtp = fx.random_doubly_twisted(seed)
        yield f"random-dtp-{seed}", dtp, leaf_line(dtp)
    dtp = fx.random_doubly_twisted(3)
    yield "random-dtp-3-catmull-rom", dtp, leaf_spline(dtp)


CASES = list(cases())


@pytest.mark.parametrize("label, dtp, curve", CASES, ids=[c[0] for c in CASES])
def test_collocation_matches_tight_rk45(label, dtp, curve):
    rng = np.random.default_rng(7)
    g = dtp.assembled
    v0 = rng.normal(size=dtp.n)
    n0 = dtp.embed(2, rng.normal(size=dtp.n2))
    parallel = carry(g, curve, v0, tol=1e-6)
    adapted = carry(dtp, curve, n0, 1)
    ts = parallel.ts

    # one reference solve: column 0 parallel, column 1 normal transport W,
    # whose adapted translation is A = exp(-I) W (so W = exp(I) A is checked too)
    keep = np.ones((dtp.n, 2), dtype=bool)
    keep[:, 1] = False
    keep[dtp.slot2, 1] = True
    ref, ref_I = rk45(g, curve, np.stack([v0, n0], axis=1), ts,
                      omega=lambda pts: pg.mean_curvature_form(dtp, pts, 2), keep=keep)
    for res, want in ((parallel, ref[:, :, 0]),
                      (adapted, np.exp(-ref_I)[:, None] * ref[:, :, 1])):
        assert list(res.ts) == list(ts), label
        assert np.max(np.abs(res.components - want)) < AGREE, label
    assert np.max(np.abs(adapted.integrals - ref_I)) < AGREE, label


# ---------------------------------------------------------------------------
# call pattern and the doubling cap

def test_one_batched_christoffel_call_per_doubling_pass(monkeypatch):
    christoffel, collocate = ck.christoffel_numeric, tp.collocation_pass
    batches, passes = [], []

    def counted_christoffel(g, x):
        batches.append(np.shape(x))
        return christoffel(g, x)

    def counted_pass(g, dtp, jobs, steps):
        (curve, _), = jobs
        grid = curve._samples[0]
        passes.append((list(steps), sum(3 * s * (len(grid) - 1) for s in steps)))
        return collocate(g, dtp, jobs, steps)

    monkeypatch.setattr(ck, "christoffel_numeric", counted_christoffel)
    monkeypatch.setattr(tp, "collocation_pass", counted_pass)
    levels = {}
    for name in ("sphere-polar", "example1-twisted"):
        ctx = resolve_scenario(name)
        curve = cli._horizontal_curve(ctx)
        batches.clear()
        passes.clear()
        carry(ctx.dtp, curve, cli._ones_normal(ctx.dtp), 1)
        assert batches == [(nodes, ctx.dtp.n) for _, nodes in passes], name
        levels[name] = [steps for steps, _ in passes]
    # step doubling compares two passes at least: the first comparison, 1 and
    # 2 steps, is one pass.  The smooth warp settles there, example1's
    # piecewise one at 8 steps
    assert levels == {"sphere-polar": [[1, 2]], "example1-twisted": [[1, 2], [4], [8]]}


def test_doubling_cap_raises_integration_error(monkeypatch):
    ctx = resolve_scenario("example1-twisted")
    curve = cli._horizontal_curve(ctx)
    v0 = cli._ones_normal(ctx.dtp)
    carry(ctx.dtp, curve, v0, 1)  # settles under the default cap
    monkeypatch.setattr(tp, "MAX_DOUBLINGS", 1)
    with pytest.raises(IntegrationError, match="MAX_DOUBLINGS = 1"):
        carry(ctx.dtp, curve, v0, 1)


# ---------------------------------------------------------------------------
# one batch for many jobs

def _example1_jobs():
    """Jobs on example1 of both foliations, with a frame of two vectors, that
    settle at different doublings: the adapted translation along verify-all's
    leaf line at 8 steps per interval, the parallel transports along it at 4."""
    ctx = resolve_scenario("example1-twisted")
    dtp = ctx.dtp
    curve = cli._horizontal_curve(ctx)
    start = curve.point(0.0)
    rng = np.random.default_rng(3)
    vertical = tp.PiecewiseCurve.line(start, start + dtp.embed(2, [0.4]))
    return dtp, [
        tp.TransportJob(curve, cli._ones_normal(dtp)[:, None], 1),
        tp.TransportJob(curve, rng.normal(size=(dtp.n, 1)), None),
        tp.TransportJob(curve, np.eye(dtp.n), None),
        tp.TransportJob(vertical, dtp.embed(1, [0.7])[:, None], 2),
    ]


def _finest_steps(monkeypatch, dtp, jobs):
    """The step count of the last pass each job of the batch took part in."""
    collocate = tp.collocation_pass
    finest = {}

    def counted(g, dtp, pass_jobs, steps):
        for curve, foliation in pass_jobs:
            for j, job in enumerate(jobs):
                if job.curve is curve and job.foliation == foliation:
                    finest[j] = max(steps)
        return collocate(g, dtp, pass_jobs, steps)

    with monkeypatch.context() as patch:
        patch.setattr(tp, "collocation_pass", counted)
        tp.transport_batch(dtp, jobs)
    return [finest[j] for j in range(len(jobs))]


def test_each_job_of_a_mixed_batch_equals_its_batch_of_one(monkeypatch):
    dtp, jobs = _example1_jobs()
    alone = [tp.transport_batch(dtp, [job])[0] for job in jobs]
    together = tp.transport_batch(dtp, jobs)
    for job, one, mixed in zip(jobs, alone, together):
        assert mixed.components.shape == (len(mixed.ts),) + job.frame.shape
        for field in ("ts", "points", "components", "integrals"):
            assert np.array_equal(getattr(one, field), getattr(mixed, field)), field
        assert (one.integral_omega, one.tol_achieved) == (mixed.integral_omega,
                                                          mixed.tol_achieved)
    # the mix settles at different doublings, the same as each job alone
    assert [_finest_steps(monkeypatch, dtp, [job])[0] for job in jobs[:2]] == [8, 4]
    assert _finest_steps(monkeypatch, dtp, jobs)[:2] == [8, 4]


def test_verify_all_makes_one_christoffel_batch_per_doubling_level(monkeypatch):
    christoffel, collocate = ck.christoffel_numeric, tp.collocation_pass
    passes, inside = [], []

    def counted_christoffel(g, x):
        if inside:  # count only the batches the transport passes make
            inside[-1]["batches"] += 1
        return christoffel(g, x)

    def counted_pass(g, dtp, jobs, steps):
        passes.append({"steps": steps, "jobs": len(jobs), "batches": 0})
        inside.append(passes[-1])
        try:
            return collocate(g, dtp, jobs, steps)
        finally:
            inside.pop()

    monkeypatch.setattr(ck, "christoffel_numeric", counted_christoffel)
    monkeypatch.setattr(tp, "collocation_pass", counted_pass)
    levels = {}
    for name in ("mobius", "flat-torus", "example1-twisted"):
        ctx = resolve_scenario(name)
        loops = sum(len(words) for words in ctx.holonomy_loops.values())
        passes.clear()
        assert cli.main(["run", name, "verify-all", "--out", os.devnull]) == 0
        # every oracle transport of the run is in the first pass, the first
        # comparison (1 and 2 steps) is one pass, and so is each later
        # doubling level, each with one Christoffel batch
        assert passes[0]["jobs"] == 2 + loops, name
        assert [p["batches"] for p in passes] == [1] * len(passes), name
        levels[name] = [p["steps"] for p in passes]
    assert levels == {"mobius": [[1, 2]], "flat-torus": [[1, 2]],
                      "example1-twisted": [[1, 2], [4], [8]]}


def test_the_first_comparison_is_one_pass_equal_to_the_passes_at_1_and_2_steps(monkeypatch):
    dtp, jobs = _example1_jobs()
    collocate = tp.collocation_pass
    calls = []

    def one_count_at_a_time(g, dtp, pass_jobs, steps):
        calls.append((list(pass_jobs), list(steps)))
        return [collocate(g, dtp, pass_jobs, [s])[0] for s in steps]

    fused = tp.transport_batch(dtp, jobs)
    with monkeypatch.context() as patch:
        patch.setattr(tp, "collocation_pass", one_count_at_a_time)
        apart = tp.transport_batch(dtp, jobs)
    assert [steps for _, steps in calls] == [[1, 2], [4], [8]]
    # the pass over both counts, result by result, and the whole batch, bit for bit
    first, _ = calls[0]
    together = collocate(dtp.assembled, dtp, first, [1, 2])
    for s, results in zip((1, 2), together):
        for (transfer, dI), (want_transfer, want_dI) in zip(
                results, collocate(dtp.assembled, dtp, first, [s])[0]):
            assert np.array_equal(transfer, want_transfer) and np.array_equal(dI, want_dI), s
    for one, two in zip(fused, apart):
        for field in ("ts", "points", "components", "integrals"):
            assert np.array_equal(getattr(one, field), getattr(two, field)), field
        assert (one.integral_omega, one.tol_achieved) == (two.integral_omega, two.tol_achieved)
    # the jobs that settle at 8 and 4 steps still do
    assert _finest_steps(monkeypatch, dtp, jobs)[:2] == [8, 4]


def test_a_failing_node_is_named_as_by_the_passes_one_at_a_time():
    # lam2 fails at the first 1-step node, lam1 only at a 2-step node: the
    # pass over both step counts names lam2 there, as the 1-step pass alone does
    box = np.array([[0.0, 1.0]])
    line = tp.PiecewiseCurve.line([0.2, 0.5], [0.8, 0.5])
    ts = np.linspace(0.0, 1.0, tp.SAMPLES_PER_SEGMENT)
    at_1 = line.point(ts[0] + (ts[1] - ts[0]) * tp._GL_C[0])
    at_2 = line.point(ts[0] + (ts[1] - ts[0]) / 2 * (1 + tp._GL_C[2]))

    def warp(name, bad):
        def ev(x, order=0):
            val = np.where(np.abs(x[0] - bad[0]) < 1e-12, np.nan, 1.0)
            return (val, np.zeros(np.shape(x)),
                    np.zeros(np.shape(x)[:1] + np.shape(x)))[:order + 1] if order else val

        return ck.ScalarField(ev, exact_order=2, name=name)

    factor = [pg.FactorManifold(name, ck.MetricField.euclidean(1), box) for name in "xy"]
    dtp = pg.assemble(*factor, warp("lam1", at_2), warp("lam2", at_1))
    job = tp.TransportJob(line, np.array([[0.0], [1.0]]), 1)
    with pytest.raises(NumericsError) as raised:
        tp.transport_batch(dtp, [job])
    assert str(raised.value) == f"scalar field 'lam2' non-finite at {at_1}"


def test_the_doubling_cap_fails_the_whole_batch(monkeypatch):
    dtp, jobs = _example1_jobs()
    monkeypatch.setattr(tp, "MAX_DOUBLINGS", 0)  # one pass: nothing to compare it with
    with pytest.raises(IntegrationError) as raised:
        tp.transport_batch(dtp, jobs)
    assert str(raised.value) == ("transport collocation did not settle within "
                                 "MAX_DOUBLINGS = 0 step doublings (1 steps per grid interval)")
