"""The check bodies shared by the commands and verify-all.

Each command and verify-all run the same helper for a check, so a broken
closed form or a wrong expectation must fail both; verify-all's transport
step must report its residual against the check's own budget.
"""

import copy
import json

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import cli
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import transport as tp
from test_closed_form_connection import _patch_gamma
from test_fd_golden import SCENARIOS


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main(["run", *argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def checks_of(report):
    return {c["check"]: c for c in report["results"]["checks"]}


# residuals of verify-all's parallel-transport step that lie between the
# old raise threshold (1e-7) and the check's budget (1e-6); the collocation
# conserves g(v, v) to about 1e-14, so the residual is injected by scaling
# the last transported sample
@pytest.mark.parametrize("scenario, seed, residual", [
    ("sphere-polar", 6, 1.62e-7),
    ("sphere-polar", 10, 7.37e-7),
    ("polar-plane", 10, 4.22e-7),
    ("random-dtp", 6, 3.83e-7),
    ("example1-twisted", 10, 1.16e-7),
])
def test_verify_all_transport_reports_against_its_budget(tmp_path, monkeypatch, scenario, seed,
                                                          residual):
    integrate = tp._integrate

    def drifted(g, dtp, jobs):
        out = integrate(g, dtp, jobs)
        for j, ((curve, _, foliation), (Ys, Is)) in enumerate(zip(jobs, out)):
            if foliation is None:  # the parallel transport
                end = Ys[-1][:, 0]
                q = end @ g.mat(curve.point(curve._samples[0][-1])) @ end
                Ys = Ys.copy()
                Ys[-1] *= np.sqrt(1.0 + residual / q)
                out[j] = Ys, Is
        return out

    monkeypatch.setattr(tp, "_integrate", drifted)
    code, report = run(tmp_path, scenario, "verify-all", "--seed", str(seed), "--samples", "8")
    assert code == 0
    check = checks_of(report)["parallel-transport-conservation"]
    assert check["value"] == pytest.approx(residual, rel=5e-3)
    assert check["budget"] == 1e-6
    assert check["pass"] is True


# every sectional row of both commands, on the analytic route (sphere-polar,
# random-dtp) and the FD route (example1-twisted)
SECTIONAL_ROWS = (("sphere-polar", ("HV",)), ("random-dtp", ("HH", "HV", "VV")),
                  ("example1-twisted", ("HV",)))


def test_sectional_closed_form_error_fails_curvature_and_verify_all(tmp_path, monkeypatch):
    # an error in the closed form on the planes of one case fails that case's
    # row, and only it, in both commands
    exact = pg._sectional_closed_form
    for scenario, cases in SECTIONAL_ROWS:
        for case in cases:
            def broken(dtp, geo, x, U, V, _slots=pg._CASE_SLOTS[case]):
                hit = (dtp._slots(U) == _slots[0]) & (dtp._slots(V) == _slots[1])
                return exact(dtp, geo, x, U, V) + 1e-3 * hit

            monkeypatch.setattr(pg, "_sectional_closed_form", broken)
            for command, prefix in (("curvature", "closed-vs-oracle-"),
                                    ("verify-all", "sectional-closed-form-")):
                code, report = run(tmp_path, scenario, command, "--samples", "8")
                assert code == 1, (scenario, case, command)
                rows = {name[len(prefix):]: c["pass"] for name, c in checks_of(report).items()
                        if name.startswith(prefix)}
                assert rows == {c: c != case for c in cases}, (scenario, case, command)


def test_sign_flipped_connection_fails_verify_all(tmp_path, monkeypatch):
    _patch_gamma(monkeypatch, lambda dtp, geo: -geo.gamma)
    code, report = run(tmp_path, "sphere-polar", "verify-all", "--samples", "8")
    assert code == 1
    checks = checks_of(report)
    assert checks["connection-closed-form"]["pass"] is False
    assert checks["christoffel-symmetry"]["pass"] is True


def test_swapped_warps_fail_the_mixed_connection_identity(tmp_path, monkeypatch):
    # the assembled metric stays right, so only the rows that read the warps
    # (omega_1, omega_2 and the closed form) see the swap
    exact = fx.polar_plane

    def swapped():
        dtp = copy.copy(exact())
        dtp.lam1, dtp.lam2 = dtp.lam2, dtp.lam1
        return dtp

    code, report = run(tmp_path, "polar-plane", "verify-all", "--samples", "8")
    assert code == 0 and checks_of(report)["mixed-connection-identity"]["pass"] is True
    monkeypatch.setattr(fx, "polar_plane", swapped)
    code, report = run(tmp_path, "polar-plane", "verify-all", "--samples", "8")
    assert code == 1
    checks = checks_of(report)
    assert checks["mixed-connection-identity"]["pass"] is False
    assert checks["mixed-connection-identity"]["value"] > 1.0
    assert checks["christoffel-symmetry"]["pass"] is True


def _geometry_reads(monkeypatch):
    """Record the points of every ``point_geometry`` call, the metric dim of
    every ``riemann_numeric`` call, and the metric dim, points and Riemann
    row count of every ``_christoffel_and_riemann`` batch, the product's and
    those under ``riemann_numeric`` alike (factor metrics, read by the closed
    form, have a smaller dim than the product's)."""
    seen = {"geometry": [], "oracle": [], "riemann": []}
    geometry, oracle, riemann = pg.point_geometry, ck._christoffel_and_riemann, ck.riemann_numeric

    def counted_geometry(dtp, x):
        seen["geometry"].append(np.array(x, dtype=float))
        return geometry(dtp, x)

    def counted_oracle(g, pts, m):
        seen["oracle"].append((g.dim, np.array(pts), m))
        return oracle(g, pts, m)

    def counted_riemann(g, x):
        seen["riemann"].append(g.dim)
        return riemann(g, x)

    monkeypatch.setattr(pg, "point_geometry", counted_geometry)
    monkeypatch.setattr(ck, "_christoffel_and_riemann", counted_oracle)
    monkeypatch.setattr(ck, "riemann_numeric", counted_riemann)
    return seen


# random-dtp takes the exact route, a formula file the FD route, example1 is
# a quotient on the FD route and the Moebius band one on the exact route
VERIFY_ALL_SOURCES = (("random-dtp", False), ("formula-twisted", True),
                      ("example1-twisted", True), ("mobius", False))


def test_verify_all_christoffel_rows_read_one_oracle_batch(tmp_path, monkeypatch):
    # per verify-all: one point_geometry record over the 14 points of x1 and
    # x2 (the closed forms), and one oracle batch on the assembled metric,
    # Riemann at x2's 6 rows and Gamma at x2, x3 and, on the exact route, x1
    # (on the FD route Gamma at x1 comes from the compatibility stencil); no
    # riemann_numeric call on the assembled metric
    seen = _geometry_reads(monkeypatch)
    for source, fd in VERIFY_ALL_SOURCES:
        ref = source
        if source in SCENARIOS:
            ref = tmp_path / f"{source}.json"
            ref.write_text(json.dumps(SCENARIOS[source]), encoding="utf-8")
        dtp = cli.resolve_scenario(str(ref), seed=5).dtp
        rng = np.random.default_rng(5)
        x1, x2 = (cli._rand_points(rng, dtp.domain_box, k) for k in (8, 6))
        for key in seen:
            seen[key].clear()
        code, report = run(tmp_path, str(ref), "verify-all", "--seed", "5", "--samples", "8")
        assert code == 0, source
        assert dtp.assembled.exact_order == (0 if fd else 2), source
        assert len(seen["geometry"]) == 1, source
        np.testing.assert_array_equal(seen["geometry"][0], np.concatenate([x1, x2]))
        batches = [(pts, m) for dim, pts, m in seen["oracle"] if dim == dtp.n]
        assert len(batches) == 1, source
        pts, m = batches[0]
        assert (m, len(pts)) == (6, 11 if fd else 19), source
        np.testing.assert_array_equal(pts[:6], x2)
        if not fd:
            np.testing.assert_array_equal(pts[11:], x1)
        assert dtp.n not in seen["riemann"], source


@pytest.mark.parametrize("samples", ["8", "16"])
def test_sectional_sweep_reads_one_geometry_batch(tmp_path, monkeypatch, samples):
    # one product-level Riemann batch and one point_geometry batch per
    # curvature sweep, whatever the sample count; the factor metrics (smaller
    # dim) take one Riemann batch per factor-plane case.  verify-all's sweep
    # reads verify-all's one record and oracle batch (see above)
    dtp = fx.random_doubly_twisted(0)
    seen = _geometry_reads(monkeypatch)
    code, report = run(tmp_path, "random-dtp", "curvature", "--samples", samples)
    assert code == 0
    assert seen["riemann"].count(dtp.n) == 1 and len(seen["geometry"]) == 1
    assert sorted(d for d in seen["riemann"] if d != dtp.n) == [dtp.n1, dtp.n2]


@pytest.mark.parametrize("source", ["random-dtp", "formula-twisted"])
def test_sectional_sweep_evaluates_each_side_once_over_every_plane_case(
        tmp_path, monkeypatch, source):
    # the closed form and the oracle contraction each take the planes of the
    # three cases (HH, HV, VV) in one call; inside the closed form the factor
    # curvatures stay one contraction per factor
    ref = source
    if source != "random-dtp":
        ref = tmp_path / f"{source}.json"
        ref.write_text(json.dumps(SCENARIOS[source]), encoding="utf-8")
    calls = {"closed": [], "oracle": [], "factor": []}
    closed, contract = pg._sectional_closed_form, ck._sectional_curvature

    def counted_closed(dtp, geo, x, U, V):
        calls["closed"].append(len(x))
        return closed(dtp, geo, x, U, V)

    def counted_contract(gm, riem, U, V, pts):
        calls["oracle" if gm.shape[-1] == 4 else "factor"].append(len(pts))
        return contract(gm, riem, U, V, pts)

    monkeypatch.setattr(pg, "_sectional_closed_form", counted_closed)
    monkeypatch.setattr(ck, "_sectional_curvature", counted_contract)
    code, report = run(tmp_path, str(ref), "curvature", "--samples", "8")
    assert code == 0
    assert sorted(report["results"]["residuals"]) == ["HH", "HV", "VV"]
    assert calls["closed"] == calls["oracle"] == [3 * 8]  # one plane per point and case
    assert calls["factor"] == [8, 8]


@pytest.mark.parametrize("seed", range(20))
def test_example1_curvature_passes_at_every_cli_seed(tmp_path, seed):
    # the FD-route input closest to its budget (worst residual about 6e-6
    # against 1e-5 over seeds 0-59)
    code, report = run(tmp_path, "example1-twisted", "curvature", "--samples", "8",
                       "--seed", str(seed))
    assert code == 0


# sphere-polar with lam2 = sin r but derivative callbacks of 2 sin r: the
# closed forms and the analytic oracle read the same wrong callbacks, so only
# rows that difference ``mat`` itself (or integrate against it) can see them
def _miscalled_sphere(sphere=fx.sphere_polar):
    dtp = sphere()
    lam2 = fx.function_of_coordinate_warp(0, 2, np.sin, lambda r: 2.0 * np.cos(r),
                                          lambda r: -2.0 * np.sin(r), name="sin r, 2 sin r'")
    return pg.assemble(dtp.f1, dtp.f2, dtp.lam1, lam2)


def test_wrong_derivative_callbacks_fail_metric_compatibility(tmp_path, monkeypatch):
    code, report = run(tmp_path, "sphere-polar", "christoffel", "--samples", "8")
    assert code == 0
    monkeypatch.setattr(fx, "sphere_polar", _miscalled_sphere)
    code, report = run(tmp_path, "sphere-polar", "christoffel", "--samples", "8")
    assert code == 1
    check = checks_of(report)["metric-compatibility"]
    assert check["pass"] is False and check["value"] > 0.1


def test_verify_all_reports_transport_rows_past_their_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(fx, "sphere_polar", _miscalled_sphere)
    code, report = run(tmp_path, "sphere-polar", "verify-all", "--samples", "8")
    assert code == 1
    checks = checks_of(report)
    for name in ("metric-compatibility", "adapted-translation-norm-law",
                 "parallel-transport-conservation"):
        assert checks[name]["pass"] is False, name
        assert checks[name]["budget"] == (1e-5 if name == "metric-compatibility" else 1e-6)


def flat_torus_file(tmp_path, reason):
    data = {
        "name": "file-flat-torus",
        "factors": [
            {"name": "x-line", "dim": 1, "coords": ["x"], "metric": "euclidean",
             "box": [[0.0, 1.0]]},
            {"name": "y-line", "dim": 1, "coords": ["y"], "metric": "euclidean",
             "box": [[0.0, 1.0]]},
        ],
        "warps": {"lam1": "1", "lam2": "1"},
        "generators": [
            {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
            {"name": "b", "phi": ["x"], "phi_inv": ["x"], "psi": ["y + 1"], "psi_inv": ["y - 1"]},
        ],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
        "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
        "basepoint": [0.0, 0.0],
        "expect": {"verdict": "global-doubly-warped-product", "verdict_reason": reason},
    }
    path = tmp_path / f"torus-{reason}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("reason, passed", [
    ("none", True),
    ("multiple-intersections", False),
])
def test_verdict_reason_expectation_decides_decompose_and_verify_all(tmp_path, reason, passed):
    path = flat_torus_file(tmp_path, reason)
    code, report = run(tmp_path, path, "decompose", "--samples", "8")
    assert report["results"]["tag"] == "global-doubly-warped-product"
    assert report["results"]["reason"]["kind"] == "none"
    assert (code, report["pass"]) == ((0, True) if passed else (1, False))
    code, report = run(tmp_path, path, "verify-all", "--samples", "8")
    assert code == (0 if passed else 1)
    assert checks_of(report)["decomposition-verdict"]["pass"] is passed
