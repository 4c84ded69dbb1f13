"""The runtime is numpy alone: no command loads scipy.

Leaf closure is a projection (``quotient._trace``), teodg's critical points
come from Newton steps on lam2's exact derivatives, and broken geodesics and
every transport integrate by Gauss-Legendre collocation in numpy.  One fresh
interpreter runs every built-in and a generated warped-torus file with
every command, ``teodg`` and ``verify-all`` included: no ``scipy`` module
may be loaded after the closed-form commands, after sphere-polar's
verify-all, or at the end; no module of ``src/warpquot`` may import scipy.
scipy stays a test dependency, as the oracle of the numerics.
"""

from __future__ import annotations

import ast
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


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


codes, scipy = {}, {}


def run(ref, cmd):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[f"{ref} {cmd}"] = cli.main(["run", ref, cmd])


refs = cli.list_scenarios() + [sys.argv[1]]
closed_form = [cmd for cmd in cli.COMMANDS if cmd not in ("teodg", "verify-all")]
for ref in refs:
    for cmd in closed_form:
        run(ref, cmd)
scipy["closed_form"] = scipy_modules()
run("sphere-polar", "verify-all")
scipy["verify_all"] = scipy_modules()
for ref in refs:
    for cmd in cli.COMMANDS:
        if f"{ref} {cmd}" not in codes:
            run(ref, cmd)
scipy["all"] = scipy_modules()
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

NO_QUOTIENT = ("hyperbolic-polar", "lorentz-direct", "polar-plane", "random-dtp", "sphere-polar")
REFUSED = {
    *(f"{ref} {cmd}" for ref in NO_QUOTIENT for cmd in ("holonomy", "intersections", "decompose")),
    # teodg needs a (doubly) warped structure
    "example1-twisted teodg", "random-dtp teodg",
    # example1 declares no holonomy loops, and decompose refuses a twisted product
    "example1-twisted holonomy", "example1-twisted decompose",
}


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One fresh interpreter: every scenario with every command."""
    path = tmp_path_factory.mktemp("cold") / "warped-torus.json"
    path.write_text(json.dumps(WARPED_TORUS))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), path


def _expected(refs, commands):
    return {f"{ref} {cmd}": 2 if f"{ref} {cmd}" in REFUSED else 0
            for ref in refs for cmd in commands}


def test_cold_start_and_closed_form_commands_load_no_scipy(cold_run):
    run, path = cold_run
    assert run["scipy"]["closed_form"] == []
    closed_form = [cmd for cmd in cli.COMMANDS if cmd not in ("teodg", "verify-all")]
    assert len(closed_form) == 7
    refs = cli.list_scenarios() + [str(path)]
    expected = _expected(refs, closed_form)
    assert {key: run["codes"][key] for key in expected} == expected


def test_verify_all_transport_rows_load_no_scipy(cold_run):
    run, _ = cold_run
    assert run["codes"]["sphere-polar verify-all"] == 0
    assert run["scipy"]["verify_all"] == []


def test_every_command_runs_without_scipy(cold_run):
    run, path = cold_run
    assert run["scipy"]["all"] == []
    refs = cli.list_scenarios() + [str(path)]
    assert len(refs) == 10
    assert run["codes"] == _expected(refs, cli.COMMANDS)


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            yield node.module


def test_no_src_module_imports_scipy():
    found = {path.name: list(_scipy_imports(ast.parse(path.read_text())))
             for path in sorted((SRC / "warpquot").glob("*.py"))}
    assert len(found) >= 10
    assert {name: mods for name, mods in found.items() if mods} == {}
    # negative control: the scan sees an import inside a function body
    assert list(_scipy_imports(ast.parse("def f():\n    from scipy import optimize\n"))) == ["scipy"]


class _Oracle(Exception):
    pass


def test_verify_all_integrates_through_the_patchable_name(monkeypatch):
    # the transport rows run the collocation oracle, looked up at call time
    def refuse(*args, **kwargs):
        raise _Oracle

    monkeypatch.setattr(tp, "collocation_pass", refuse)
    with pytest.raises(_Oracle):
        cli.main(["run", "sphere-polar", "verify-all", "--out", os.devnull])
