"""Every check row can fail: a negative control per row name.

``NAMES`` is every row name in the golden reports (every built-in under
every command, the five quotient files and the reach file), so a row that a
command emits is listed without a run of its own.  ``CONTROLS`` maps each
name to one control: an input, a command and one breakage, which is a
changed expectation, a broken input or a monkeypatched term.  A control runs
in-process and must exit 1 with its row present and failing, where the
same run without the breakage, the input's catalog golden text, passes
that row.  A name without a control fails here, and so does a control
whose name no command emits any more.

Every row obeys one rule, ``pass`` iff ``value <= budget``; an expectation
row reads its mismatch against budget 0.
"""

import copy
import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import scenario as sc
from warpquot import transport as tp
from test_check_bodies import _miscalled_sphere
from test_closed_form_connection import _patch_gamma

GOLDEN = Path(__file__).parent / "golden"


def _rows(obj):
    """Every check row anywhere in a report."""
    if isinstance(obj, dict):
        rows = [obj] if "check" in obj else []
        return rows + [r for v in obj.values() for r in _rows(v)]
    if isinstance(obj, list):
        return [r for v in obj for r in _rows(v)]
    return []


def _golden_rows(path):
    """Every check row of every report text of a golden file, by case."""
    cases = json.loads(path.read_text(encoding="utf-8"))
    return {key: _rows(json.loads(case["report"])) for key, case in cases.items()
            if case["report"] is not None}


GOLDEN_ROWS = {path.name: _golden_rows(path) for path in sorted(GOLDEN.glob("*.json"))}
NAMES = sorted({row["check"] for cases in GOLDEN_ROWS.values()
                for rows in cases.values() for row in rows})


class Control(NamedTuple):
    source: str  # a built-in scenario, run at --samples 8 --seed 0 as in its golden
    command: str
    breakage: Callable  # (monkeypatch) -> None


# ---------------------------------------------------------------------------
# breakages

def _expect(name, **changes):
    """The built-in ``name`` with the expectations ``changes``."""
    def apply(mp):
        build, basepoint, loops, expect = sc.BUILTIN_SCENARIOS[name]
        mp.setitem(sc.BUILTIN_SCENARIOS, name, (build, basepoint, loops, {**expect, **changes}))
    return apply


def _fixture(name, broken):
    """The fixture ``fx.<name>`` replaced by ``broken(exact builder)``."""
    def apply(mp):
        mp.setattr(fx, name, broken(getattr(fx, name)))
    return apply


def _asymmetric_d1(exact):
    # conformal_flat_metric with 1e-6 added to d_0 g_01 of its exact d1 alone,
    # so dg is not symmetric in its metric indices: g and the closed-form
    # connection stay right, and metric-compatibility stays in its budget
    def skewed(*args):
        g = exact(*args)

        def eval(x, order=0):
            out = g.eval(x, order)
            if not order:
                return out
            d1 = out[1].copy()
            d1[0, 0, 1] += 1e-6
            return (out[0], d1, *out[2:])

        return ck.MetricField(g.dim, eval, g.signature, exact_order=g.exact_order,
                              domain_box=g.domain_box)
    return skewed


def _swapped_warps(exact):
    def swapped():
        dtp = copy.copy(exact())
        dtp.lam1, dtp.lam2 = dtp.lam2, dtp.lam1
        return dtp
    return swapped


def _curved_lorentz(exact):
    # lam2 = exp(t) on the time axis of Minkowski: a curved Lorentzian product
    def curved():
        dtp = exact()
        lam2 = fx.function_of_coordinate_warp(0, dtp.n, np.exp, np.exp, np.exp, name="exp t")
        return pg.assemble(dtp.f1, dtp.f2, dtp.lam1, lam2)
    return curved


def _reglued(mp):
    # example1's warp extended through its own gluing, the seam read with a
    # gluing of another amplitude
    build, *row = sc.BUILTIN_SCENARIOS["example1-twisted"]

    def reglued(seed):
        model = build(seed)
        model.gluing = fx.TwistedGluing(amplitude=0.31)
        return model

    mp.setitem(sc.BUILTIN_SCENARIOS, "example1-twisted", (reglued, *row))


def _sectional_case(case):
    """The closed-form sectional curvature off by 1e-3 on the planes of one case."""
    def apply(mp):
        exact, slots = pg._sectional_closed_form, pg._CASE_SLOTS[case]

        def broken(dtp, geo, x, U, V):
            hit = (dtp._slots(U) == slots[0]) & (dtp._slots(V) == slots[1])
            return exact(dtp, geo, x, U, V) + 1e-3 * hit

        mp.setattr(pg, "_sectional_closed_form", broken)
    return apply


def _offset(module, name, field=None):
    """``module.name`` with 1e-3 added to its result (or to its ``field``)."""
    def apply(mp):
        exact = getattr(module, name)

        def shifted(*args):
            out = exact(*args)
            if field is None:
                return out + 1e-3
            setattr(out, field, getattr(out, field) + 1e-3)
            return out

        mp.setattr(module, name, shifted)
    return apply


def _drifted_adapted_translation(mp):
    # the integrated adapted translation's normal components scaled by 1 + 1e-3
    exact = tp.transport_batch

    def drifted(space, jobs):
        out = exact(space, jobs)
        for job, res in zip(jobs, out):
            if job.foliation is not None:
                res.components = res.components * (1.0 + 1e-3)
        return out

    mp.setattr(tp, "transport_batch", drifted)


MISCALLED_SPHERE = _fixture("sphere_polar", lambda exact: lambda: _miscalled_sphere(exact))

CONTROLS = {
    "christoffel-symmetry": Control("random-dtp", "christoffel",
                                    _fixture("conformal_flat_metric", _asymmetric_d1)),
    "metric-compatibility": Control("sphere-polar", "christoffel", MISCALLED_SPHERE),
    "connection-closed-form": Control(
        "sphere-polar", "verify-all",
        lambda mp: _patch_gamma(mp, lambda dtp, geo: -geo.gamma)),
    "mixed-connection-identity": Control("polar-plane", "verify-all",
                                         _fixture("polar_plane", _swapped_warps)),
    **{f"sectional-closed-form-{case}": Control("random-dtp", "curvature", _sectional_case(case))
       for case in ("HH", "HV", "VV")},
    "oneill-T-definitional": Control("polar-plane", "verify-all", _offset(pg, "oneill_T")),
    "classification-expected": Control("polar-plane", "verify-all",
                                       _expect("polar-plane", classification="doubly-twisted")),
    "mixed-K-expected": Control("polar-plane", "curvature", _expect("polar-plane", mixed_K=0.5)),
    "lightlike-flat-zero": Control("lorentz-direct", "verify-all",
                                   _fixture("lorentz_direct", _curved_lorentz)),
    "adapted-translation-norm-law": Control("sphere-polar", "verify-all", MISCALLED_SPHERE),
    "adapted-translation-constancy": Control("sphere-polar", "verify-all",
                                             _drifted_adapted_translation),
    "adapted-translation-closed-form": Control(
        "sphere-polar", "verify-all", _offset(tp, "adapted_translation_closed_form", "integrals")),
    "parallel-transport-conservation": Control("sphere-polar", "verify-all", MISCALLED_SPHERE),
    "transport-equation": Control("sphere-polar", "transport", MISCALLED_SPHERE),
    "holonomy-expected": Control("mobius", "verify-all",
                                 _expect("mobius", holonomy={"1": [[[1.0]]]})),
    "holonomy-closed-form": Control("mobius", "verify-all", _offset(tp, "loop_return_map", "matrix")),
    "intersections-expected": Control("mobius", "verify-all", _expect("mobius", intersections=2)),
    "decomposition-verdict": Control(
        "mobius", "verify-all", _expect("mobius", verdict_reason="multiple-intersections")),
    "twisted-seam-functional-equation": Control("example1-twisted", "verify-all", _reglued),
    "leaf-closed": Control("example1-twisted", "verify-all",
                           _expect("example1-twisted", leaf_closed_y=1.0)),
    "leaf-open-within-budget": Control("example1-twisted", "verify-all",
                                       _expect("example1-twisted", leaf_open_y=0.0)),
}


def test_every_row_name_has_a_control():
    assert set(NAMES) == set(CONTROLS)


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_control_fails_its_row(tmp_path, monkeypatch, name):
    source, command, breakage = CONTROLS[name]
    unbroken = GOLDEN_ROWS["catalog_reports.json"][f"{source} {command}"]
    assert [row["pass"] for row in unbroken if row["check"] == name] == [True]
    breakage(monkeypatch)
    out = tmp_path / "report.json"
    code = cli.main(["run", source, command, "--samples", "8", "--out", str(out)])
    assert code == 1
    rows = [row for row in _rows(json.loads(out.read_text())) if row["check"] == name]
    assert rows and not all(row["pass"] for row in rows)


def test_golden_rows_pass_iff_value_within_budget():
    rows = [row for cases in GOLDEN_ROWS.values() for rows in cases.values() for row in rows]
    assert rows
    for row in rows:
        assert row["budget"] >= 0, row
        assert row["pass"] == (row["value"] <= row["budget"]), row
