"""Golden reports of the built-in catalog and of five quotient files.

The texts in ``golden/catalog_reports.json`` are the report (or the exit
code and stderr of a refusal) of every built-in scenario under every command
at ``--seed 0 --samples 8``; of ``holonomy``, ``intersections``,
``decompose``, ``transport`` and ``verify-all`` on the five quotient files
written below, in the shape of the benchmark's generated quotient files: the
skewed tori with q = 1 and q = 3, the Moebius band on and off its central
leaf, and a warped torus (the last two commands run the collocation oracle
on loop jobs); and of every command on ``test_reach.FORMULA_FILE`` (a formula
factor metric, non-affine deck maps on the level path, a formula and a
polyline curve).  The catalog texts were taken before the catalog became one
table row per built-in, so any change to a built-in's factors, boxes,
generators, loops, basepoint or expectations fails here.  Regenerate the texts only with a change meant to move them, and
say so where the change is recorded.
"""

import json
from pathlib import Path

import pytest

from warpquot import cli
from warpquot.scenario import list_scenarios

from test_reach import FORMULA_FILE

GOLDEN = Path(__file__).parent / "golden" / "catalog_reports.json"
BIG = 1e9  # the Moebius band's unbounded transversal, as in the built-in


def _line(name, coord, box):
    return {"name": name, "dim": 1, "coords": [coord], "metric": "euclidean", "box": [box]}


def _gen(name, phi, phi_inv, psi, psi_inv):
    return {"name": name, "phi": [phi], "phi_inv": [phi_inv], "psi": [psi], "psi_inv": [psi_inv]}


def _quotient(name, y_box, warps, gens, box, loops, basepoint):
    return {"name": name,
            "factors": [_line("line-x", "x", [0.0, 1.0]), _line("line-y", "y", y_box)],
            "warps": warps, "generators": gens, "fundamental_box": box,
            "holonomy_loops": loops, "basepoint": basepoint}


def _skewed(q, basepoint):
    return _quotient(f"skewed-torus-q{q}", [0.0, 1.0], {"lam1": "1", "lam2": "1"},
                     [_gen("a", "x + 1", "x - 1", "y", "y"),
                      _gen("b", f"x + 1/{q}", f"x - 1/{q}", "y + 1", "y - 1")],
                     [[0.0, 1.0], [0.0, 1.0]],
                     {"1": [[["a", 1]]], "2": [[["a", -1]] + [["b", 1]] * q]}, basepoint)


def _mobius(name, loop, basepoint):
    return _quotient(name, [-1.0, 1.0], {"lam1": "1", "lam2": "1"},
                     [_gen("a", "x + 1", "x - 1", "-y", "-y")],
                     [[0.0, 1.0], [-BIG, BIG]], {"1": [loop]}, basepoint)


QUOTIENTS = {
    "skewed-torus-q1": _skewed(1, [0.6394, 0.0250]),
    "skewed-torus-q3": _skewed(3, [0.2750, 0.2232]),
    "mobius-central": _mobius("mobius-central", [["a", 1]], [0.7365, 0.0]),
    "mobius-off-central": _mobius("mobius-off-central", [["a", 1], ["a", 1]],
                                  [0.8922, -0.5431]),
    "warped-torus": _quotient(
        "warped-torus", [0.0, 1.0],
        {"lam1": "1", "lam2": "1 + 0.271800*sin(2*pi*x)", "lam2_dependency": "on-factor1-only"},
        [_gen("a", "x + 1", "x - 1", "y", "y"), _gen("b", "x", "x", "y + 1", "y - 1")],
        [[0.0, 1.0], [0.0, 1.0]], {"1": [[["a", 1]]], "2": [[["b", 1]]]}, [0.4219, 0.0298]),
}
QUOTIENT_COMMANDS = ("holonomy", "intersections", "decompose", "transport", "verify-all")
FILES = {**QUOTIENTS, FORMULA_FILE["name"]: FORMULA_FILE}
CASES = ([(name, command) for name in list_scenarios() for command in cli.COMMANDS]
         + [(name, command) for name in QUOTIENTS for command in QUOTIENT_COMMANDS]
         + [(FORMULA_FILE["name"], command) for command in cli.COMMANDS])


def run_report(tmp_path: Path, name: str, command: str, capsys) -> dict:
    """Exit code, report text and stderr of ``warpquot run <name> <command>``
    at --samples 8 and --seed 0."""
    ref = name
    if name in FILES:
        ref = tmp_path / f"{name}.json"
        ref.write_text(json.dumps(FILES[name]), encoding="utf-8")
    out = tmp_path / f"{name}-{command}.json"
    capsys.readouterr()
    code = cli.main(["run", str(ref), command, "--samples", "8", "--seed", "0", "--out", str(out)])
    report = out.read_text(encoding="utf-8") if out.exists() else None
    return {"exit": code, "report": report, "stderr": capsys.readouterr().err}


@pytest.mark.parametrize("name, command", CASES)
def test_catalog_reports_keep_their_bits(tmp_path, capsys, name, command):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {command}"]
    assert run_report(tmp_path, name, command, capsys) == want
