"""Golden reports of the finite-difference route.

Scenario files have no exact derivatives, so ``classify``'s evidence and
``teodg``'s critical points come from central differences of formula
closures.  The texts in ``golden/fd_reports.json`` are the ``classify`` and
``teodg`` reports (or the exit code and stderr of a refusal) of three inputs,
as the code gave them before the stencils were cut to the partials their
callers read: a 2+2 formula product with twisted warps (each warp on all
four coordinates), its doubly warped twin (each warp on the other factor,
the shape that reaches teodg's Newton search), both written below in the
shape of the benchmark's generated scenario files, and the built-in
example1-twisted.  Any change to the bits of FD evidence fails here.

The ``christoffel``, ``curvature``, ``transport`` and ``verify-all`` reports
of the two formula products, which read the formula factor metrics at every
stencil point, are pinned beside them, as the code gave them while each
factor metric still evaluated every matrix entry's formula on its own.
Regenerate the texts only with a change meant to move those bits, and say
so where the change is recorded.
"""

import json
from pathlib import Path

import pytest

from warpquot import cli

GOLDEN = Path(__file__).parent / "golden" / "fd_reports.json"


def _factor(name, coords, amp, b, c):
    e = f"exp(2*({amp}*sin({b[0]}*{coords[0]} + {b[1]}*{coords[1]} + {c})))"
    return {"name": name, "dim": 2, "coords": coords, "metric": [[e, "0"], ["0", e]],
            "signature": [1, 1], "box": [[-1.0, 1.0], [-1.0, 1.0]]}


def _product(name, lam1, lam2, deps, tag):
    return {"name": name,
            "factors": [_factor("f1", ["x1", "x2"], "0.213457", ("0.842311", "0.377519"), "1.204412"),
                        _factor("f2", ["y1", "y2"], "0.148803", ("0.515026", "1.093370"), "0.361955")],
            "warps": {"lam1": f"exp({lam1})", "lam2": f"exp({lam2})", **deps},
            "curves": {"leaf-path-1": {"polyline": [[0.15, -0.05, 0.3, -0.2], [-0.05, 0.15, 0.3, -0.2],
                                                    [-0.25, -0.05, 0.3, -0.2], [-0.05, -0.25, 0.3, -0.2]]}},
            "basepoint": [0.4123, -0.7315, 0.1882, 0.5567],
            "expect": {"classification": tag}}


SCENARIOS = {
    "formula-twisted": _product(
        "formula-twisted",
        "0.271043*sin(0.613892*x1 + 1.031207*x2 + 0.447120*y1 + 0.905516*y2 + 1.512764)",
        "0.184330*sin(1.127650*x1 + 0.298761*x2 + 0.760244*y1 + 0.531098*y2 + 0.087113)",
        {}, "doubly-twisted"),
    "formula-warped": _product(
        "formula-warped",
        "0.236518*sin(0.954300*y1 + 0.412877*y2 + 0.684521)",
        "0.129964*sin(0.571612*x1 + 1.168035*x2 + 1.843270)",
        {"lam1_dependency": "on-factor2-only", "lam2_dependency": "on-factor1-only"},
        "doubly-warped"),
}
INPUTS = [*SCENARIOS, "example1-twisted"]


def run_report(tmp_path: Path, name: str, command: str, capsys) -> dict:
    """Exit code, report text and stderr of ``warpquot run <name> <command>``
    at --samples 8 (the benchmark's sample count) and --seed 3."""
    ref = name
    if name in SCENARIOS:
        ref = tmp_path / f"{name}.json"
        ref.write_text(json.dumps(SCENARIOS[name]), encoding="utf-8")
    out = tmp_path / f"{name}-{command}.json"
    capsys.readouterr()
    code = cli.main(["run", str(ref), command, "--samples", "8", "--seed", "3", "--out", str(out)])
    report = out.read_text(encoding="utf-8") if out.exists() else None
    return {"exit": code, "report": report, "stderr": capsys.readouterr().err}


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("command", ["classify", "teodg"])
def test_fd_reports_keep_their_bits(tmp_path, capsys, name, command):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {command}"]
    assert run_report(tmp_path, name, command, capsys) == want


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("command", ["christoffel", "curvature", "transport", "verify-all"])
def test_formula_metric_reports_keep_their_bits(tmp_path, capsys, name, command):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {command}"]
    assert run_report(tmp_path, name, command, capsys) == want
