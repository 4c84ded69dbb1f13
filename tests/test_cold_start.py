"""Cold start loads no scipy: only the ODE and optimizer oracles of the
quotient code and broken geodesics need it.

``transport.solve_ivp`` (``broken_geodesic``) and the ``scipy.optimize``
calls of ``leaf_trace`` and ``teodg_diagnostic`` import scipy on first use,
so importing the CLI, resolving a scenario, running the closed-form commands
and verify-all's transport rows (Gauss-Legendre collocation in numpy) load
numpy alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from warpquot import cli
from warpquot import transport as tp

SRC = Path(__file__).resolve().parents[1] / "src"

WARPED_TORUS = {
    "name": "file-warped-torus",
    "factors": [
        {"name": "line-x", "dim": 1, "coords": ["x"], "metric": "euclidean", "box": [[0.0, 1.0]]},
        {"name": "line-y", "dim": 1, "coords": ["y"], "metric": "euclidean", "box": [[0.0, 1.0]]},
    ],
    "warps": {"lam1": "1", "lam2": "1 + 0.25*sin(2*pi*x)", "lam2_dependency": "on-factor1-only"},
    "generators": [
        {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
        {"name": "b", "phi": ["x"], "phi_inv": ["x"], "psi": ["y + 1"], "psi_inv": ["y - 1"]},
    ],
    "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
    "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
    "curves": {"leaf": {"polyline": [[0.1, 0.4], [0.3, 0.4], [0.5, 0.4]]}},
    "basepoint": [0.2, 0.4],
}

COLD_RUN = """
import contextlib, io, json, os, sys
from warpquot import cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


for name in cli.list_scenarios():
    cli.resolve_scenario(name)
codes = {}
for ref in ("flat-torus", "mobius", "sphere-polar", sys.argv[1]):
    for cmd in ("classify", "curvature", "transport", "holonomy", "intersections",
                "decompose"):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes[f"{ref} {cmd}"] = cli.main(["run", ref, cmd])
before = scipy_modules()
verify_all = cli.main(["run", "sphere-polar", "verify-all", "--out", os.devnull])
print(json.dumps({"codes": codes, "scipy": before, "verify_all": verify_all,
                  "scipy_after_verify_all": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One fresh interpreter: the closed-form commands, then sphere-polar verify-all."""
    path = tmp_path_factory.mktemp("cold") / "warped-torus.json"
    path.write_text(json.dumps(WARPED_TORUS))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_start_and_closed_form_commands_load_no_scipy(cold_run):
    assert cold_run["scipy"] == []
    # every command ran to a verdict; sphere-polar has no quotient to decompose
    no_quotient = {f"sphere-polar {cmd}" for cmd in ("holonomy", "intersections", "decompose")}
    assert cold_run["codes"] == {key: 2 if key in no_quotient else 0 for key in cold_run["codes"]}


def test_verify_all_transport_rows_load_no_scipy(cold_run):
    assert cold_run["verify_all"] == 0
    assert cold_run["scipy_after_verify_all"] == []


class _Oracle(Exception):
    pass


def test_verify_all_integrates_through_the_patchable_name(monkeypatch):
    # the transport rows run the collocation oracle, looked up at call time
    def refuse(*args, **kwargs):
        raise _Oracle

    monkeypatch.setattr(tp, "collocation_pass", refuse)
    with pytest.raises(_Oracle):
        cli.main(["run", "sphere-polar", "verify-all", "--out", os.devnull])
