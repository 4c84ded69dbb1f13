"""Scenario runner: executes named computations and emits JSON/CSV reports.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 input error,
3 numeric failure.  Reports are deterministic for a fixed scenario + seed +
version: keys are emitted sorted and every float is serialized with 17
significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from . import chartkit as ck
from . import fixtures as fx
from . import productgeo as pg
from . import quotient as qt
from . import transport as tp
from .errors import GeometryError, InvalidAction, ScenarioError
from .scenario import ScenarioContext, list_scenarios, resolve_scenario

# ---------------------------------------------------------------------------
# deterministic serialization

def _items(obj: dict) -> list:
    """(str(key), value) pairs of a dict, sorted by the key string alone."""
    return sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])


def _emit(obj) -> str:
    """JSON text of plain values, numpy scalars (as floats and ints), arrays
    (as their ``tolist``) and tuples (as lists)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if not np.isfinite(obj):
            return f'"{obj!r}"'
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_emit(k)}:{_emit(v)}" for k, v in _items(obj)) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    return _emit(report)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for k, v in _items(obj):
            rows.extend(_flatten(v, f"{prefix}{k}."))
        return rows
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
        return rows
    value = _emit(obj) if isinstance(obj, (float, np.floating)) else obj
    return [(prefix.rstrip("."), value)]


def dumps_csv(report: dict) -> str:
    lines = ["key,value"]
    for key, value in _flatten(report):
        text = str(value).replace('"', '""')
        if "," in text or '"' in text:
            text = f'"{text}"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sampling helpers

def _rand_points(rng, box, count):
    """``count`` uniform points (count, n) in the middle 95% of the box along each axis."""
    box = np.asarray(box, dtype=float)
    mid = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0]) * 0.95
    return mid + (2.0 * rng.random((count, box.shape[0])) - 1.0) * half


def _horizontal_curve(ctx: ScenarioContext):
    """Default transport curve: a leaf line through the basepoint."""
    dtp = ctx.dtp
    box = dtp.domain_box
    start = ctx.base().astype(float).copy()
    lo, hi = box[:, 0], box[:, 1]
    start = np.minimum(np.maximum(start, 0.7 * lo + 0.3 * hi), 0.3 * lo + 0.7 * hi)
    end = start.copy()
    end[dtp.slot1] = (0.25 * lo + 0.75 * hi)[dtp.slot1]
    if np.max(np.abs(end - start)) < 1e-9:
        end[dtp.slot1.start] += 0.25 * (hi - lo)[dtp.slot1.start]
    return tp.PiecewiseCurve.line(start, end)


def _compatibility_stencil(dtp, x):
    """Central differences of g at x (P, n), which check the exact derivative
    callbacks, if any, against ``mat``: (dg, g, Gamma), Gamma from that same
    stencil when there are none (the FD route), else None."""
    dg, g = ck.central_diff(dtp.assembled.mat, x, ck.fd_step(x), centre=True)
    return dg, g, (ck._christoffel(ck._checked_inv(g, x), dg)
                   if dtp.assembled.exact_order == 0 else None)


def _christoffel_checks(dg, g, gm):
    """The oracle Gamma gm's worst lower-index asymmetry, and its worst
    metric-compatibility residual against the stencil's dg and g."""
    resid = dg - np.einsum("plki,plj->pkij", gm, g) - np.einsum("plkj,pil->pkij", gm, g)
    return (float(np.max(np.abs(gm - np.swapaxes(gm, -1, -2)), initial=0.0)),
            float(np.max(np.abs(resid), initial=0.0)))


def _christoffel_residuals(dtp, rng, samples):
    """``samples`` random points x (P, n), the oracle Gamma there and its two
    checks (``_christoffel_checks``)."""
    x = _rand_points(rng, dtp.domain_box, samples)
    dg, g, gm = _compatibility_stencil(dtp, x)
    gm = ck.christoffel_numeric(dtp.assembled, x) if gm is None else gm
    return (x, gm, *_christoffel_checks(dg, g, gm))


def _draw_planes(dtp, rng, gm):
    """One random plane per point and case (``pg._sample_planes``, cases in
    the order of ``pg._CASE_SLOTS``) at the points whose metric matrices are
    the rows of gm (P, n, n): the cases that got a plane, and for each its
    rows, U and V."""
    cases, rows, U, V = [], [], [], []
    for case, slots in pg._CASE_SLOTS.items():
        if slots[0] == slots[1] and dtp.factor(slots[0]).dim < 2:
            continue  # a factor plane needs a factor of dimension 2 or more
        u, v, found = pg._sample_planes(dtp, rng, gm, slots)
        if found.any():
            cases.append(case)
            rows.append(np.flatnonzero(found))
            U.append(u[found])
            V.append(v[found])
    return cases, rows, U, V


def _sectional_residuals(dtp, rng, samples):
    """The sectional check (``_sectional_compare``) over ``samples`` random
    points, which share one ``point_geometry`` and one ``riemann_numeric``
    batch; the planes are drawn from the record's g."""
    x = _rand_points(rng, dtp.domain_box, samples)
    geo = pg.point_geometry(dtp, x)
    riem = ck.riemann_numeric(dtp.assembled, x)
    return _sectional_compare(dtp, geo, x, riem, _draw_planes(dtp, rng, geo.g))


def _sectional_compare(dtp, geo, x, riem, planes):
    """Worst |closed form - oracle| sectional curvature per plane case
    (cases in sorted order), and the closed-form values on the mixed (HV)
    planes, at the points x (P, n) with their ``point_geometry`` record geo
    and oracle Riemann tensors riem, on the planes of ``_draw_planes``.  The
    closed form, and after it the oracle, runs once on the planes of every
    case."""
    cases, rows, U, V = planes
    if not cases:
        return {}, []
    idx, U, V = np.concatenate(rows), np.concatenate(U), np.concatenate(V)
    sub = geo.rows(idx)
    kc = pg._sectional_closed_form(dtp, sub, x[idx], U, V)
    kn = ck._sectional_curvature(sub.g, riem[idx], U, V, x[idx])
    cuts = np.cumsum([len(r) for r in rows])[:-1]
    worst = {case: float(np.max(np.abs(d))) for case, d in zip(cases, np.split(kc - kn, cuts))}
    k_values = np.split(kc, cuts)[cases.index("HV")].tolist() if "HV" in cases else []
    return dict(sorted(worst.items())), k_values


def _ones_normal(dtp):
    """The all-ones factor-2 vector, (n,): normal to every F1 leaf."""
    return dtp.embed(2, np.ones(dtp.n2))


def _closed_form_transport_residual(dtp, curve, ref):
    """Worst |closed form - integrated| adapted translation over the samples
    of A(t) and I(t); ``ref`` is the integrated one of ``_ones_normal``."""
    closed = tp.adapted_translation_closed_form(dtp, curve, _ones_normal(dtp))
    return max(float(np.max(np.abs(closed.integrals - ref.integrals))),
               float(np.max(np.abs(closed.components - ref.components[:, :, 0]))))


def _mixed_k_check(expect, k_values):
    """Worst |K - expected| over the mixed-plane values, when the scenario
    expects a constant mixed curvature and there are values; else None."""
    if "mixed_K" not in expect or not k_values:
        return None
    want = float(expect["mixed_K"])
    return Check("mixed-K-expected", max(abs(k - want) for k in k_values),
                 float(expect.get("K_tol", 1e-6)))


def _verdict_expected(expect, verdict) -> bool:
    """The verdict tag, and its reason when one is declared, are the expected ones."""
    if verdict.tag != expect["verdict"]:
        return False
    return "verdict_reason" not in expect or verdict.reason.kind == expect["verdict_reason"]


class Check:
    """One named assertion with a measured value and a budget."""

    def __init__(self, name: str, value: float, budget: float, ok: Optional[bool] = None):
        self.name = name
        self.value = float(value)
        self.budget = float(budget)
        self.ok = bool(value <= budget) if ok is None else bool(ok)

    def row(self) -> dict:
        return {"check": self.name, "value": self.value, "budget": self.budget,
                "pass": self.ok}


# ---------------------------------------------------------------------------
# command implementations

def _structure(ctx, args) -> pg.StructureClass:
    """The run's one classification, which every command that needs the tag
    reads: ``max(4, samples // 4)`` offset grid points per axis."""
    return pg.classify(ctx.dtp, per_axis=max(4, args.samples // 4))


def cmd_classify(ctx, args, rng):
    cls = _structure(ctx, args)
    ok = True
    expected = ctx.expect.get("classification")
    if expected is not None:
        ok = cls.tag.value == expected
    return {"tag": cls.tag.value, "evidence": cls.evidence,
            "expected": expected}, ok


def cmd_christoffel(ctx, args, rng):
    dtp = ctx.dtp
    base = ctx.base()
    gamma = ck.christoffel_numeric(dtp.assembled, base)
    _, _, sym, compat = _christoffel_residuals(dtp, rng, args.samples)
    checks = [Check("lower-index-symmetry", sym, 1e-9),
              Check("metric-compatibility", compat, 1e-5)]
    return {"basepoint": base, "christoffel": gamma,
            "checks": [c.row() for c in checks]}, all(c.ok for c in checks)


def cmd_curvature(ctx, args, rng):
    tol = args.tol if args.tol is not None else 1e-5
    worst, k_values = _sectional_residuals(ctx.dtp, rng, args.samples)
    checks = [Check(f"closed-vs-oracle-{case}", val, tol) for case, val in worst.items()]
    results = {"residuals": worst,
               "mixed_K_samples": k_values[:10],
               "checks": [c.row() for c in checks]}
    ok = all(c.ok for c in checks) and bool(worst)
    c = _mixed_k_check(ctx.expect, k_values)
    if c is not None:
        results["mixed_K_error"] = c.value
        results["checks"].append(c.row())
        ok = ok and c.ok
    return results, ok


def cmd_transport(ctx, args, rng):
    tol = args.tol if args.tol is not None else 1e-6
    curves = sorted((ctx.curves or {"default-horizontal": _horizontal_curve(ctx)}).items())
    results, v0 = [], _ones_normal(ctx.dtp)
    for name, curve in curves:
        try:  # any failure of the curve's own run, its probe first, names its key
            results.append(tp.adapted_translation_closed_form(ctx.dtp, curve, v0))
        except GeometryError as exc:
            if not ctx.curves:  # the default leaf line is no key of the file
                raise
            raise type(exc)(f"curves.{name}: {exc}") from exc
    out = {}
    ok = True
    for (name, _), res, resid in zip(curves, results,
                                     tp.transport_equation_residual(ctx.dtp, results)):
        check = Check("transport-equation", resid, tol)
        out[name] = {"integral_omega": res.integral_omega,
                     "end_components": res.components[-1],
                     "checks": [check.row()]}
        ok = ok and check.ok
    return {"curves": out}, ok


def _run_holonomy(ctx, tol):
    """Closed-form holonomy of every declared loop at the basepoint's
    representative, one batch per foliation, compared with the expected
    matrices; also returns the (foliation, word, HolonomyMap) triples."""
    model = ctx.model
    if model is None or not ctx.holonomy_loops:
        raise ScenarioError("scenario declares no quotient generators / holonomy loops")
    rep0, _ = model.canonical_rep(ctx.base())
    out, maps = [], []
    expected = ctx.expect.get("holonomy", {})
    ok = True
    for i in (1, 2):
        words = [tuple(word) for word in ctx.holonomy_loops.get(i, [])]
        if not words:
            continue
        for j, (word, hol) in enumerate(zip(words, qt.loop_holonomies(model, rep0, i, words))):
            maps.append((i, word, hol))
            entry = {"foliation": i, "word": [list(w) for w in word],
                     "matrix": hol.matrix}
            want = expected.get(str(i))
            if want is not None:  # one matrix per declared loop (ScenarioContext)
                err = float(np.max(np.abs(hol.matrix - np.asarray(want[j], dtype=float))))
                entry["expected_error"] = err
                ok = ok and err <= tol
            out.append(entry)
    return out, ok, rep0, maps


def _holonomy_oracle_residual(model, maps, jobs, results) -> float:
    """Worst |closed form - integrated| holonomy over the loops of ``maps``,
    each read by ``tp.loop_return_map`` from the result of its adapted
    translation job."""
    worst = 0.0
    for (_, word, hol), job, res in zip(maps, jobs, results):
        ref = tp.loop_return_map(model, job, res, qt.word_inverse(word))
        worst = max(worst, float(np.max(np.abs(hol.matrix - ref.matrix))))
    return worst


def cmd_holonomy(ctx, args, rng):
    tol = args.tol if args.tol is not None else 1e-6
    out, ok, rep0, _ = _run_holonomy(ctx, tol)
    return {"basepoint": rep0, "loops": out}, ok


def cmd_intersections(ctx, args, rng):
    model = ctx.model
    if model is None:
        raise ScenarioError("scenario declares no quotient generators")
    wb = args.word_bound if args.word_bound is not None else model.word_bound
    report = qt.leaf_intersection_count(model, ctx.base(), word_bound=wb)
    ok = True
    if "intersections" in ctx.expect:
        ok = report.count == int(ctx.expect["intersections"])
    return {"count": report.count,
            "word_bound_used": report.word_bound_used,
            "lower_bound_only": report.lower_bound_only,
            "witnesses": report.witnesses,
            "expected": ctx.expect.get("intersections")}, ok


def cmd_decompose(ctx, args, rng):
    model = ctx.model
    if model is None:
        raise ScenarioError("scenario declares no quotient generators")
    wb = args.word_bound if args.word_bound is not None else model.word_bound
    tol = args.tol if args.tol is not None else 1e-6
    verdict = qt.decomposition_check(model, ctx.base(), ctx.holonomy_loops,
                                     hol_tol=tol, word_bound=wb, structure=_structure(ctx, args))
    ok = _verdict_expected(ctx.expect, verdict) if "verdict" in ctx.expect else True
    return {"tag": verdict.tag,
            "reason": {"kind": verdict.reason.kind,
                       "foliation": verdict.reason.foliation,
                       "word": ([list(w) for w in verdict.reason.word]
                                if verdict.reason.word else None),
                       "count": verdict.reason.count},
            "expected": ctx.expect.get("verdict")}, ok


def cmd_teodg(ctx, args, rng):
    report = pg.teodg_diagnostic(ctx.dtp, n_samples=args.samples, seed=args.seed,
                                 structure=_structure(ctx, args))
    ok = True
    if "teodg_holds" in ctx.expect:
        ok = report.hypotheses_hold == bool(ctx.expect["teodg_holds"])
    return {"structure": report.tag.value,
            "histogram": report.histogram,
            "critical_points": report.critical_points,
            "critical_everywhere": report.critical_everywhere,
            "hypotheses_hold": report.hypotheses_hold,
            "verdict": report.verdict,
            "witness": report.witness}, ok


def _verdict_and_count(ctx, cls, wb):
    """verify-all's decomposition verdict and intersection count at the word
    bound wb, each None unless the scenario expects it.  The count is read
    from the verdict's own report (same basepoint, loops and bound) when the
    verdict got that far; else ``leaf_intersection_count`` runs, and its
    error surfaces before the verdict's, as if it had run first."""
    verdict = error = count = None
    if "verdict" in ctx.expect:
        try:
            verdict = qt.decomposition_check(ctx.model, ctx.base(), ctx.holonomy_loops,
                                             word_bound=wb, structure=cls)
        except GeometryError as exc:  # raised once the count has run
            error = exc
    if "intersections" in ctx.expect:
        report = verdict.intersections if verdict is not None else None
        count = (report or qt.leaf_intersection_count(ctx.model, ctx.base(), word_bound=wb)).count
    if error is not None:
        raise error
    return verdict, count


def cmd_verify_all(ctx, args, rng):
    dtp = ctx.dtp
    checks: list[Check] = []
    details: dict = {}

    # metric sanity: signature at sampled points
    dtp.assembled.check_at(pg.grid_points(dtp.domain_box, 3))
    checks.append(Check("signature-sanity", 0.0, 1.0, ok=True))

    # three random point sets, drawn in this order: x1 (8) for the Christoffel
    # rows, x2 (6) with one plane per point and case for the sectional rows,
    # x3 (5) with E and F for O'Neill's T.  The closed forms at x1 and x2 read
    # one point_geometry record; every oracle row reads one batch on the
    # assembled metric, Gamma at every row and Riemann at x2's (on the FD
    # route Gamma at x1 comes from the compatibility stencil instead)
    x1, x2 = (_rand_points(rng, dtp.domain_box, k) for k in (8, 6))
    dg, g, gamma1 = _compatibility_stencil(dtp, x1)
    geo = pg.point_geometry(dtp, np.concatenate([x1, x2]))
    geo1, geo2 = geo.rows(slice(0, 8)), geo.rows(slice(8, None))
    planes = _draw_planes(dtp, rng, geo2.g)  # the record's g, as the closed form reads it
    x3 = _rand_points(rng, dtp.domain_box, 5)
    E, F = rng.normal(size=(2,) + x3.shape)
    gamma, riem = ck._christoffel_and_riemann(
        dtp.assembled, np.concatenate([x2, x3] + ([x1] if gamma1 is None else [])), 6)
    gamma1 = gamma[11:] if gamma1 is None else gamma1

    # christoffel symmetry / compatibility
    sym, compat = _christoffel_checks(dg, g, gamma1)
    checks.append(Check("christoffel-symmetry", sym, 1e-9))
    checks.append(Check("metric-compatibility", compat, 1e-5))

    # closed-form connection vs oracle: the whole tensor, every slot block
    checks.append(Check("connection-closed-form",
                        float(np.max(np.abs(geo1.gamma - gamma1))), 1e-5))

    # mixed-connection identity: nabla_X V = -omega1(V) X - omega2(X) V, that is
    # Gamma^k_ij = -delta^k_i omega1_j - delta^k_j omega2_i (i in slot 1, j in slot 2),
    # omega_i read from the same record
    s1, s2, eye = dtp.slot1, dtp.slot2, np.eye(dtp.n)
    w1, w2 = (pg._omega(dtp, i, geo1.dlam[:, i - 1, dtp.slot(3 - i)], geo1.lam[:, i - 1])
              for i in (1, 2))
    rhs = -eye[:, s1, None] * w1[:, None, None, s2] - eye[:, None, s2] * w2[:, None, s1, None]
    checks.append(Check("mixed-connection-identity",
                        float(np.max(np.abs(gamma1[:, :, s1, s2] - rhs))), 1e-5))

    # closed-form sectional curvature vs oracle on available plane types
    worst_k, k_values = _sectional_compare(dtp, geo2, x2, riem, planes)
    for case, val in worst_k.items():
        checks.append(Check(f"sectional-closed-form-{case}", val, 1e-5))

    # O'Neill T: closed form vs connection-based definition
    checks.append(Check("oneill-T-definitional",
                        float(np.max(np.abs(pg.oneill_T(dtp, x3, E, F)
                                            - pg.oneill_T_definitional(dtp, gamma[6:11],
                                                                       E, F)))),
                        1e-5))

    # classification
    cls = _structure(ctx, args)
    details["classification"] = {"tag": cls.tag.value, "evidence": cls.evidence}
    expected = ctx.expect.get("classification")
    if expected is not None:
        checks.append(Check("classification-expected", 0.0, 1.0, ok=cls.tag.value == expected))

    # adapted translation (component constancy, norm law) and parallel transport
    # (conservation of the metric square) along a leaf line: jobs of the oracle
    # batch below, which puts their rows here
    curve = _horizontal_curve(ctx)
    jobs = [tp.TransportJob(curve, _ones_normal(dtp)[:, None], 1),
            tp.TransportJob(curve, rng.normal(size=(dtp.n, 1)), None)]
    transport_rows = len(checks)

    # expected constant mixed curvature, on the sectional sweep's mixed planes
    c = _mixed_k_check(ctx.expect, k_values)
    if c is not None:
        checks.append(c)

    # flat Lorentzian: lightlike curvature vanishes
    if ctx.expect.get("lightlike_zero"):
        xi, u, v = dtp.embed(1, [1.0, 0.0]), [-1.0, 1.0, 0.0], dtp.embed(2, [1.0])
        val = abs(pg.lightlike_sectional_curvature(dtp.assembled, ctx.base(), xi, u, v))
        checks.append(Check("lightlike-flat-zero", val, 1e-7))

    # quotient-model battery, up to the closed-form holonomy of the declared loops
    maps = []
    if ctx.model is not None:
        report = qt.validate(ctx.model)
        checks.append(Check("quotient-validation", report.worst(), qt.ACTION_TOL))
        details["quotient_validation"] = {"words_checked": report.words_checked,
                                          "words_truncated": report.words_truncated}
        if ctx.holonomy_loops:
            _, hol_ok, rep0, maps = _run_holonomy(ctx, 1e-6)
            checks.append(Check("holonomy-expected", 0.0, 1.0, ok=hol_ok))
            jobs += [tp.TransportJob(qt.leaf_loop_curve(ctx.model, rep0, i, word), hol.frame, i)
                     for i, word, hol in maps]

    # the integrating oracle: every transport above in one batch
    adapted, parallel, *around = tp.transport_batch(dtp, jobs)
    checks[transport_rows:transport_rows] = [
        Check("adapted-translation-norm-law", adapted.tol_achieved, 1e-6),
        Check("adapted-translation-constancy",
              float(np.max(np.abs(adapted.components[:, dtp.slot2] - 1.0))), 1e-6),
        Check("adapted-translation-closed-form",
              _closed_form_transport_residual(dtp, curve, adapted), 1e-6),
        Check("parallel-transport-conservation", parallel.tol_achieved, 1e-6)]
    if maps:
        checks.append(Check("holonomy-closed-form",
                            _holonomy_oracle_residual(ctx.model, maps, jobs[2:], around), 1e-6))

    if ctx.model is not None:
        verdict, count = _verdict_and_count(ctx, cls, min(ctx.model.word_bound, 4))
        if count is not None:
            checks.append(Check("intersections-expected", 0.0, 1.0,
                                ok=count == int(ctx.expect["intersections"])))
        if verdict is not None:
            checks.append(Check("decomposition-verdict", 0.0, 1.0,
                                ok=_verdict_expected(ctx.expect, verdict)))
            details["verdict"] = verdict.tag
        if "seam_residual_max" in ctx.expect:
            resid = fx.example1_seam_residual(ctx.model)
            checks.append(Check("twisted-seam-functional-equation", resid,
                                float(ctx.expect["seam_residual_max"])))
        if "leaf_closed_y" in ctx.expect:
            t = qt.leaf_trace(ctx.model, [0.0, float(ctx.expect["leaf_closed_y"])], 1)
            checks.append(Check("leaf-closed", 0.0, 1.0, ok=t.closed))
        if "leaf_open_y" in ctx.expect:
            t = qt.leaf_trace(ctx.model, [0.0, float(ctx.expect["leaf_open_y"])], 1,
                              arc_budget=6.0)
            checks.append(Check("leaf-open-within-budget", 0.0, 1.0, ok=not t.closed))

    details["checks"] = [c.row() for c in checks]
    return details, all(c.ok for c in checks)


_HANDLERS = {
    "classify": cmd_classify,
    "christoffel": cmd_christoffel,
    "curvature": cmd_curvature,
    "transport": cmd_transport,
    "holonomy": cmd_holonomy,
    "intersections": cmd_intersections,
    "decompose": cmd_decompose,
    "teodg": cmd_teodg,
    "verify-all": cmd_verify_all,
}
COMMANDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# entry point

def run(scenario_ref: str, command: str, args) -> tuple[dict, bool]:
    ctx = resolve_scenario(scenario_ref, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    results, passed = _HANDLERS[command](ctx, args, rng)
    report = {
        "schema": "warpquot-report/1",
        "tool": "warpquot",
        "version": __version__,
        "scenario": ctx.name,
        "command": command,
        "seed": args.seed,
        "parameters": {"samples": args.samples,
                       "tol": args.tol,
                       "word_bound": args.word_bound},
        "results": results,
        "pass": passed,
    }
    return report, passed


def _int_from(low: int):
    """An argparse type: an int of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)  # a ValueError is argparse's "invalid ... value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its refusal of a non-integer
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="warpquot",
        description="Doubly twisted/warped product geometry: scenario runner")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    runp = sub.add_parser("run", help="run a named computation on a scenario")
    runp.add_argument("scenario", help="built-in scenario name or path to a JSON file")
    runp.add_argument("command", choices=COMMANDS)
    runp.add_argument("--tol", type=float, default=None,
                      help="override the assertion budget of the command")
    runp.add_argument("--samples", type=_int_from(1), default=20,
                      help="sample count override, at least 1")
    runp.add_argument("--word-bound", dest="word_bound", type=_int_from(0), default=None,
                      help="word length bound override, at least 0")
    runp.add_argument("--seed", type=int, default=0)
    fmt = runp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    runp.add_argument("--out", default=None, help="write the report to a file")

    sub.add_parser("list-scenarios", help="list built-in scenarios")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand == "list-scenarios":
        for name in list_scenarios():
            print(name)
        return 0
    try:
        report, passed = run(ns.scenario, ns.command, ns)
    except (ScenarioError, InvalidAction) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = dumps_csv(report) if ns.csv else dumps_report(report) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
