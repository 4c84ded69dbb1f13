"""Adapted translation in closed form, with an integrating oracle.

Along a leaf of F_1 a normal vector keeps its product-coordinate components
(Ponge & Reckziegel 1993): ``transport.adapted_translation_closed_form``
returns A(t) = v0 and I(t) = ln lam2(gamma(0)) - ln lam2(gamma(t)) without
integrating.  The CLI ``transport`` command runs it; the Gauss-Legendre
collocation of ``transport.transport_batch`` (RK45 in the names of older
tests) is the oracle here and in verify-all's
``adapted-translation-closed-form`` row.  Both routes share one input guard.
"""

import copy
import dataclasses
import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import transport as tp
from warpquot.errors import NotInLeaf
from warpquot.scenario import list_scenarios, load_scenario_file, resolve_scenario
from transport_jobs import carry
from fixture_models import (bowl_warped, expanding_spacetime, flat_direct_product,
                            lorentz_warped_fiber, random_doubly_warped, strip_analytic)

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def norm(g, x, v):
    return float(np.sqrt(abs(ck.inner_product(g, x, v, v))))


def bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def generated_files(tmp_path):
    """A doubly warped and a doubly twisted product file with four curves
    each, and the warped torus with its ``leaf-half-period`` curve, as the
    benchmark generates them."""
    inputs = bench_inputs()
    rng = random.Random("transport-closed-form")
    made = [inputs.product_file(rng, "product-warped", True)[0],
            inputs.product_file(rng, "product-twisted", False)[0],
            inputs.warped_torus(rng)[0]]
    paths = []
    for data in made:
        path = tmp_path / f"{data['name']}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = cli.main(["run", *argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def leaf_line(dtp, foliation=1):
    """Straight curve in the leaf of F_foliation through an inner point of the box."""
    box = dtp.domain_box
    start = 0.7 * box[:, 0] + 0.3 * box[:, 1]
    end = start.copy()
    sl = dtp.slot(foliation)
    end[sl] = (0.25 * box[:, 0] + 0.75 * box[:, 1])[sl]
    return tp.PiecewiseCurve.line(start, end)


def normal_vector(dtp, seed, foliation=1):
    comps = np.random.default_rng(seed).normal(size=dtp.factor(3 - foliation).dim)
    return dtp.embed(3 - foliation, comps)


# ---------------------------------------------------------------------------
# the transport command makes no ODE call

def _no_ode(*args, **kwargs):
    raise AssertionError("ODE oracle called on the closed-form path")


def _refuse_ode(monkeypatch):
    """Make the integrator raise: the collocation oracle."""
    monkeypatch.setattr(tp, "collocation_pass", _no_ode)


def test_transport_command_makes_no_ode_call(tmp_path, monkeypatch):
    scenarios = list_scenarios() + generated_files(tmp_path)
    assert len(scenarios) == 12
    _refuse_ode(monkeypatch)
    for ref in scenarios:
        code, report = run(tmp_path, ref, "transport")
        assert code == 0, ref
        for payload in report["results"]["curves"].values():
            assert [c["check"] for c in payload["checks"]] == ["transport-equation"]


# ---------------------------------------------------------------------------
# the integrating adapted translation is the oracle

PRODUCTS = {
    "flat-direct": flat_direct_product,
    "polar-plane": fx.polar_plane,
    "sphere-polar": fx.sphere_polar,
    "hyperbolic-polar": fx.hyperbolic_polar,
    "lorentz-direct": fx.lorentz_direct,
    "lorentz-warped-fiber": lorentz_warped_fiber,
    "expanding-spacetime": expanding_spacetime,
    "bowl-warped": bowl_warped,
    "random-dtp-3": lambda: fx.random_doubly_twisted(3),
    "random-dw-8": lambda: random_doubly_warped(8),
}


def oracle_cases(tmp_path):
    """(label, dtp, curve, v0, foliation): the nine built-ins on their
    default curve, random doubly twisted products, every product fixture on
    the FD route, the F_2 mirror, and the first Catmull-Rom curve of each
    generated scenario file."""
    for name in list_scenarios():
        ctx = resolve_scenario(name)
        curve = cli._horizontal_curve(ctx)
        yield name, ctx.dtp, curve, normal_vector(ctx.dtp, 1), 1
    for seed in (0, 11, 50):
        dtp = fx.random_doubly_twisted(seed)
        curve = leaf_line(dtp)
        yield f"random-dtp-{seed}", dtp, curve, normal_vector(dtp, seed), 1
    for name, make in PRODUCTS.items():
        dtp = strip_analytic(make())
        curve = leaf_line(dtp)
        yield f"{name}-fd", dtp, curve, normal_vector(dtp, 2), 1
    for dtp in (fx.random_doubly_twisted(71), strip_analytic(fx.random_doubly_twisted(71))):
        curve = leaf_line(dtp, foliation=2)
        yield "random-dtp-71-mirror", dtp, curve, normal_vector(dtp, 71, 2), 2
    for path in generated_files(tmp_path):
        ctx = load_scenario_file(path)
        name, curve = min(ctx.curves.items())
        yield f"{ctx.name}/{name}", ctx.dtp, curve, normal_vector(ctx.dtp, 5), 1


def test_closed_form_matches_rk45(tmp_path):
    # A(t) and the reported integral to the bounds asked of the closed form;
    # I(t) between the ends to 10 x RTOL, the bound that the former RK45
    # oracle's own error (up to 3.2e-9 on these cases) needed; an adaptive
    # quadrature of omega agrees with the closed form to 1e-9: see the next test
    for label, dtp, curve, v0, foliation in oracle_cases(tmp_path):
        closed = tp.adapted_translation_closed_form(dtp, curve, v0, foliation=foliation)
        ref = carry(dtp, curve, v0, foliation)
        assert list(closed.ts) == list(ref.ts), label
        assert all(np.array_equal(a, v0) for a in closed.components), label
        assert np.array_equal(closed.points, ref.points), label
        worst_a = float(np.max(np.abs(closed.components - ref.components)))
        assert worst_a < 1e-8, (label, worst_a)
        assert closed.integral_omega == closed.integrals[-1]
        assert abs(closed.integral_omega - ref.integral_omega) < 1e-9, label
        assert np.max(np.abs(closed.integrals - ref.integrals)) < 10 * tp.RTOL, label
        assert tp.transport_equation_residual(dtp, [closed], foliation)[0] < 1e-8, label


@pytest.mark.parametrize("name", ["example1-twisted", "sphere-polar", "random-dtp"])
def test_closed_form_integral_matches_quadrature(name):
    # I(t) = int_0^t omega_2(gamma') at every sample, omega_2 from
    # mean_curvature_form (FD warp gradient for example1-twisted)
    ctx = resolve_scenario(name)
    curve = cli._horizontal_curve(ctx)
    res = tp.adapted_translation_closed_form(ctx.dtp, curve, cli._ones_normal(ctx.dtp))

    def rate(t):
        form = pg.mean_curvature_form(ctx.dtp, curve.point(t), 2)
        return float(form @ curve.velocity(t))

    for t, integ in zip(res.ts, res.integrals):
        ref, _ = quad(rate, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert abs(integ - ref) < 1e-9, (name, t)


def test_closed_form_polar_lemma_values():
    # components constant, integral of omega_2 = -ln 2, norm law |A| = 2
    dtp = fx.polar_plane()
    curve = tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.5])
    res = tp.adapted_translation_closed_form(dtp, curve, [0.0, 1.0])
    assert np.array_equal(res.components[-1], [0.0, 1.0])
    assert res.integral_omega == pytest.approx(-np.log(2.0), abs=1e-12)
    assert norm(dtp.assembled, res.points[-1], res.components[-1]) == pytest.approx(2.0, abs=1e-12)
    assert res.tol_achieved < 1e-12


# ---------------------------------------------------------------------------
# negative controls

@pytest.mark.parametrize("ref", ["polar-plane", "sphere-polar", "hyperbolic-polar",
                                 "random-dtp", "twisted-file"])
def test_swapped_warps_fail_both_transport_rows(tmp_path, monkeypatch, ref):
    scenario = generated_files(tmp_path)[1] if ref == "twisted-file" else ref
    exact = pg.DoublyTwistedProduct.warp
    monkeypatch.setattr(pg.DoublyTwistedProduct, "warp", lambda self, i: exact(self, 3 - i))
    code, report = run(tmp_path, scenario, "transport")
    assert code == 1
    for payload in report["results"]["curves"].values():
        (row,) = payload["checks"]  # transport-equation, the command's one row
        assert row["pass"] is False, ref
        assert row["value"] > 10 * row["budget"], ref


def test_transport_equation_sees_wrong_samples():
    # the row differentiates the closed form afresh, so samples that drift
    # from it fail even where the formula itself is right
    dtp = fx.random_doubly_twisted(3)
    curve = leaf_line(dtp)
    res = tp.adapted_translation_closed_form(dtp, curve, normal_vector(dtp, 3))
    [exact] = tp.transport_equation_residual(dtp, [res])
    assert exact < 1e-8
    drifted = dataclasses.replace(res, integrals=res.integrals + 1e-3 * res.ts)
    [drift] = tp.transport_equation_residual(dtp, [drifted])
    assert drift > 1e-5
    turn = res.components + 1e-3 * res.ts[:, None] * dtp.embed(2, [1.0, -1.0])
    rotated = dataclasses.replace(res, components=turn)
    [turned] = tp.transport_equation_residual(dtp, [rotated])
    assert turned > 1e-5
    # one batch of all three gives each result's residual to the bit
    assert tp.transport_equation_residual(dtp, [drifted, res, rotated]) == [drift, exact, turned]


def test_transport_command_takes_one_christoffel_batch_for_all_curves(tmp_path, monkeypatch):
    # a four-curve file: one christoffel_numeric batch for the command (one
    # per curve before), and each curve's entry is the one it gets alone
    path = Path(generated_files(tmp_path)[0])
    batches = []
    christoffel = ck.christoffel_numeric
    monkeypatch.setattr(ck, "christoffel_numeric",
                        lambda g, x: batches.append(np.shape(x)) or christoffel(g, x))
    code, report = run(tmp_path, str(path), "transport")
    curves = report["results"]["curves"]
    assert code == 0 and len(curves) == 4
    assert len(batches) == 1
    monkeypatch.undo()
    data = json.loads(path.read_text())
    for name, entry in curves.items():
        alone = tmp_path / "alone.json"
        alone.write_text(json.dumps(dict(data, curves={name: data["curves"][name]})))
        assert run(tmp_path, str(alone), "transport")[1]["results"]["curves"] == {name: entry}


NAN_STRIP = "1 + 0.25*sin(2*pi*x) + 0*sqrt(abs(x - 0.45) - 0.02)"  # not finite on 0.43 < x < 0.47


@pytest.mark.parametrize("case, message", [
    ("leaves-its-leaf",
     "numeric failure: NotInLeaf: curves.b-bad: curve velocity has factor-2 components "
     "at t = 0.0"),
    ("non-finite-warp",
     f"numeric failure: NumericsError: curves.b-bad: scalar field {NAN_STRIP!r} non-finite "
     "at [0.45 0.3 ]"),
])
def test_a_bad_curve_among_good_ones_fails_the_command_with_its_own_error(tmp_path, capsys,
                                                                        case, message):
    # the bad curve sits between two good ones in sorted order; the command
    # exits 3 with the bad curve's failure under its key, as it does with
    # that curve alone
    data = bench_inputs().warped_torus(random.Random(1))[0]
    if case == "leaves-its-leaf":
        bad = [[0.2, 0.6], [0.4, 0.65], [0.6, 0.6]]
    else:
        data["warps"]["lam2"] = NAN_STRIP
        bad = [[0.7, 0.3], [0.3, 0.3]]  # the sample at t = 5/8 is x = 0.45
    good = {"a-good": {"polyline": [[0.6, 0.6], [0.8, 0.6], [0.9, 0.6]]},
            "c-good": {"polyline": [[0.55, 0.2], [0.95, 0.2]]}}
    for curves in ({**good, "b-bad": {"polyline": bad}}, {"b-bad": {"polyline": bad}}):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(dict(data, curves=curves)))
        capsys.readouterr()
        with np.errstate(invalid="ignore"):
            code, report = run(tmp_path, str(path), "transport")
        assert (code, report) == (3, None)
        assert capsys.readouterr().err.strip().splitlines()[-1] == message


def test_swapped_warp_closed_form_fails_verify_all(tmp_path, monkeypatch):
    exact = tp.adapted_translation_closed_form

    def swapped(dtp, *args, **kwargs):
        mirror = copy.copy(dtp)
        mirror.lam1, mirror.lam2 = dtp.lam2, dtp.lam1
        return exact(mirror, *args, **kwargs)

    monkeypatch.setattr(tp, "adapted_translation_closed_form", swapped)
    code, report = run(tmp_path, "polar-plane", "verify-all", "--samples", "8")
    assert code == 1
    rows = {c["check"]: c for c in report["results"]["checks"]}
    assert rows["adapted-translation-closed-form"]["pass"] is False
    assert rows["adapted-translation-closed-form"]["value"] > 1e-2
    assert rows["adapted-translation-norm-law"]["pass"] is True


ROUTES = {"closed-form": tp.adapted_translation_closed_form,
          "rk45": lambda dtp, curve, v0: carry(dtp, curve, v0, 1)}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_both_routes_refuse_the_same_inputs(route):
    translate = ROUTES[route]
    dtp = fx.polar_plane()
    with pytest.raises(NotInLeaf):
        translate(dtp, tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.7]), [0.0, 1.0])
    line = tp.PiecewiseCurve.line([1.0, 0.5], [2.0, 0.5])
    with pytest.raises(ValueError, match="normal"):
        translate(dtp, line, [1.0, 1.0])
