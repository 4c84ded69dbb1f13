"""Every public function is reached by a command, or says why not.

``tests/test_no_test_only_code.py`` reads names: a public method passes when
any object's attribute of that name is read in ``src/warpquot``, so
``args.samples`` in ``cli.py`` keeps a ``samples`` method of any class alive.
This test runs the commands instead.  Under a call-only ``sys.settrace`` it
runs ``list-scenarios``, every built-in with every command at seed 0, one
report as CSV, and one formula scenario file (formula metric, warps, deck maps and curves)
with every command, all in-process.  Every public top-level function and
public method of the modules the guard scans must then have been entered,
or be on ``UNREACHED`` with the reason it stays; an entry the run entered
fails too, so the table only shrinks.
"""

import importlib
import inspect
import json
import os
import sys

import pytest

from warpquot import cli
from warpquot.scenario import list_scenarios

from test_no_test_only_code import _definitions, _src_trees

_BENCH = "kept by bench/tracer.py's METHODS table alone (ROADMAP item 7)"
UNREACHED = {
    "chartkit.MetricField.d1": _BENCH,
    "chartkit.MetricField.d2": _BENCH,
    "chartkit.ScalarField.grad_coords": _BENCH,
    "chartkit.ScalarField.hess_coords": _BENCH,
    "productgeo.DoublyTwistedProduct.warp_value": _BENCH,
    "productgeo.DoublyTwistedProduct.log_warp": _BENCH,
    "productgeo.DoublyTwistedProduct.grad_warp": _BENCH,
    "productgeo.DoublyTwistedProduct.grad_log_warp": _BENCH,
    "quotient.QuotientModel.find_closing_word": _BENCH,
    "chartkit.gradient": "called by grad_warp and grad_log_warp alone, which bench keeps",
    "chartkit.hessian_matrix": "ALLOWED: the FD oracle of PointGeometry.warp_hessian",
    "chartkit.exterior_derivative_numeric":
        "ALLOWED: the FD oracle of classify's closedness evidence d(omega_i)",
    "productgeo.sectional_curvature_closed_form": "ALLOWED: README quick start",
    "chartkit.sectional_curvature_numeric": "ALLOWED: README, the oracle of the quick start",
}

# a warped torus with a formula factor metric, deck maps on the level path
# (``0*sin(y)`` keeps them non-affine) and a formula and a polyline curve
FORMULA_FILE = {
    "name": "reach-file",
    "factors": [{"name": "circle-x", "dim": 1, "coords": ["x"],
                 "metric": [["1 + 0.1*sin(2*pi*x)**2"]], "signature": [1], "box": [[0.0, 1.0]]},
                {"name": "circle-y", "dim": 1, "coords": ["y"], "metric": "euclidean",
                 "box": [[0.0, 1.0]]}],
    "warps": {"lam1": "1", "lam2": "2 + cos(2*pi*x)", "lam1_dependency": "constant",
              "lam2_dependency": "on-factor1-only"},
    "generators": [{"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"],
                    "psi": ["y"], "psi_inv": ["y"]},
                   {"name": "b", "phi": ["x"], "phi_inv": ["x"],
                    "psi": ["y + 1 + 0*sin(y)"], "psi_inv": ["y - 1"]}],
    "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
    "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
    "curves": {"formula": {"formula": ["0.1 + 0.7*smoothstep(t)", "0.3"], "breaks": [0.5]},
               "polyline": {"polyline": [[0.1, 0.6], [0.5, 0.6], [0.8, 0.6]]}},
    "basepoint": [0.3, 0.6],
    "expect": {"classification": "warped"},
}


def _public():
    """(name, function) of every public top-level function and public method
    of the modules the guard scans; a property, cached property or static
    method by its function."""
    for path, tree in _src_trees().items():
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"warpquot.{path.stem}")
        for qualname, node, cls in _definitions(tree):
            if node.name.startswith("_"):
                continue
            obj = (getattr(module, node.name) if cls is None
                   else vars(getattr(module, cls.name))[node.name])
            for attr in ("fget", "func", "__func__"):
                obj = getattr(obj, attr, obj)
            yield f"{path.stem}.{qualname}", obj


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """The code objects the commands enter, and each run's exit code."""
    path = tmp_path_factory.mktemp("reach") / "reach-file.json"
    path.write_text(json.dumps(FORMULA_FILE), encoding="utf-8")
    runs = [["run", name, command, "--seed", "0"]
            for name in [*list_scenarios(), str(path)] for command in cli.COMMANDS]
    runs.append(["run", "mobius", "decompose", "--seed", "0", "--csv"])
    entered, codes = set(), {}
    for _, fn in _public():
        if hasattr(fn, "cache_clear"):  # a cached body runs on its first call alone
            fn.cache_clear()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)  # call events only: no local tracer is returned

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        cli.main(["list-scenarios"])
        for argv in runs:
            codes[tuple(argv[1:3])] = cli.main([*argv, "--out", os.devnull])
    finally:
        sys.settrace(previous)
    return entered, codes


def test_every_public_function_is_entered_or_says_why_not(reach):
    entered, _ = reach
    missed = sorted(name for name, fn in _public() if inspect.unwrap(fn).__code__ not in entered)
    assert sorted(set(missed) - set(UNREACHED)) == [], "public names no command reaches"
    assert sorted(set(UNREACHED) - set(missed)) == [], "UNREACHED entries the run entered"
    assert all(UNREACHED.values())


def test_the_formula_file_runs_every_command(reach):
    _, codes = reach
    path_codes = {command: code for (name, command), code in codes.items()
                  if name.endswith("reach-file.json")}
    assert path_codes == dict.fromkeys(cli.COMMANDS, 0)
