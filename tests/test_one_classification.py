"""One classification per run: every command that needs the tag reads it at one grid.

``classify``, ``decompose``, ``teodg`` and ``verify-all`` each act on one
``pg.classify`` at ``max(4, samples // 4)`` offset grid points per axis;
``decompose`` and ``teodg`` hand it on as ``structure``.  The file below
is a flat torus with lam1 = 1 and a narrow Gaussian bump in lam2 at
(0.47, 0.47): lam2 depends on y, so the product is twisted, but a grid of 4
points per axis misses the bump and reads a direct product, while 5 points
per axis find it.  Whatever tag a grid reads, the four commands of one run
must act on the same one; with a grid of their own, ``decompose`` called
the twisted product a global product at ``--samples 20``.
"""

import json

import pytest

from warpquot import cli
from warpquot import productgeo as pg


def _circle(name, coord):
    return {"name": name, "dim": 1, "coords": [coord], "metric": "euclidean", "box": [[0.0, 1.0]]}


BUMP = {
    "name": "gaussian-bump",
    "factors": [_circle("circle-x", "x"), _circle("circle-y", "y")],
    "warps": {"lam1": "1", "lam2": "1 + 0.5*exp(-((x - 0.47)**2 + (y - 0.47)**2)/0.0004)"},
    "generators": [{"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
                   {"name": "b", "phi": ["x"], "phi_inv": ["x"], "psi": ["y + 1"],
                    "psi_inv": ["y - 1"]}],
    "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
}
CLASSIFY = pg.classify
ACCEPTED = ("direct-product", "warped", "doubly-warped")  # what decompose and teodg act on


def _run(tmp_path, capsys, monkeypatch, command, samples):
    """Exit code, results (None on a refusal), stderr and the tags of every
    ``pg.classify`` call the run made, with their grids."""
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(BUMP), encoding="utf-8")
    out = tmp_path / f"{command}.json"
    calls = []

    def counted(dtp, per_axis=4):
        cls = CLASSIFY(dtp, per_axis)
        calls.append((per_axis, cls.tag.value))
        return cls

    monkeypatch.setattr(pg, "classify", counted)
    capsys.readouterr()
    code = cli.main(["run", str(path), command, "--samples", str(samples), "--out", str(out)])
    results = json.loads(out.read_text(encoding="utf-8"))["results"] if code == 0 else None
    return code, results, capsys.readouterr().err, calls


@pytest.mark.parametrize("samples, tag", [(16, "direct-product"), (20, "twisted")])
def test_the_commands_of_a_run_agree_on_the_tag(tmp_path, capsys, monkeypatch, samples, tag):
    runs = {cmd: _run(tmp_path, capsys, monkeypatch, cmd, samples)
            for cmd in ("classify", "decompose", "teodg", "verify-all")}
    for _, _, _, calls in runs.values():  # one classification, at the run's grid
        assert calls == [(max(4, samples // 4), tag)]
    assert runs["classify"][1]["tag"] == tag
    assert runs["verify-all"][1]["classification"]["tag"] == tag
    if tag in ACCEPTED:
        assert runs["decompose"][0] == 0 and runs["teodg"][1]["structure"] == tag
    else:  # both refuse, naming the run's tag
        for cmd in ("decompose", "teodg"):
            code, _, err, _ = runs[cmd]
            assert code == 2 and err.rstrip().endswith(f"got {tag}")
