"""Cold start loads no scipy: only the RK45 and optimizer oracles need it.

``transport.solve_ivp`` and the ``scipy.optimize`` calls of ``leaf_trace``
and ``teodg_diagnostic`` import scipy on first use, so importing the CLI,
resolving a scenario and running the closed-form commands load numpy alone.
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
import contextlib, io, json, sys
from warpquot import cli
for name in cli.list_scenarios():
    cli.resolve_scenario(name)
codes = {}
for ref in ("flat-torus", "mobius", "sphere-polar", sys.argv[1]):
    for cmd in ("classify", "curvature", "transport", "holonomy", "intersections",
                "decompose"):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes[f"{ref} {cmd}"] = cli.main(["run", ref, cmd])
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules
                                                  if m.split(".")[0] == "scipy")}))
"""


def test_cold_start_and_closed_form_commands_load_no_scipy(tmp_path):
    path = tmp_path / "warped-torus.json"
    path.write_text(json.dumps(WARPED_TORUS))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scipy"] == []
    # every command ran to a verdict; sphere-polar has no quotient to decompose
    no_quotient = {f"sphere-polar {cmd}" for cmd in ("holonomy", "intersections", "decompose")}
    assert out["codes"] == {key: 2 if key in no_quotient else 0 for key in out["codes"]}


class _Oracle(Exception):
    pass


def test_verify_all_integrates_through_the_patchable_name(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Oracle

    monkeypatch.setattr(tp, "solve_ivp", refuse)
    with pytest.raises(_Oracle):
        cli.main(["run", "sphere-polar", "verify-all", "--out", os.devnull])
