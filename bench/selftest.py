"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import tracer as tr  # noqa: E402
from worker import Sweeper  # noqa: E402
from warpquot import cli  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _pick(inps, label, commands, **expect):
    inp = dict(next(i for i in inps if i["label"] == label), commands=list(commands))
    inp["expect"] = {**inp["expect"], **expect}
    return inp


def test_same_seed_gives_identical_files(tmp_path):
    for wl in inputs.WORKLOADS:
        a = inputs.generate(wl, 7, tmp_path / "a" / wl)
        b = inputs.generate(wl, 7, tmp_path / "b" / wl)
        c = inputs.generate(wl, 8, tmp_path / "c" / wl)
        strip = [{k: v for k, v in i.items() if k != "ref"} for i in a]
        assert strip == [{k: v for k, v in i.items() if k != "ref"} for i in b]
        assert _files(tmp_path / "a" / wl) == _files(tmp_path / "b" / wl)
        if wl != "products-analytic":
            assert _files(tmp_path / "a" / wl) != _files(tmp_path / "c" / wl)


def test_traced_and_untraced_reports_identical(tmp_path):
    quot = inputs.generate("quotient-verdicts", 3, tmp_path / "q")
    prods = inputs.generate("scenario-files", 3, tmp_path / "p")
    sw = Sweeper(inputs.invocations([_pick(quot, "skewed-torus-q3", ["holonomy", "intersections"]),
                                     _pick(prods, "product-0-warped", ["curvature"])]),
                 tmp_path / "reports")
    sw.sweep()
    original = cli.main
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        sw.sweep()
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert sw.failures == [] and sw.attempted == 6
    m = tr.layer_metrics(tr.span_table(tracer))
    assert m["expr.eval_calls"] > 0 and m["chartkit.d1_fd_calls"] > 0
    assert m["quotient.canonical_rep_calls"] > 0 and m["transport.holonomy_calls"] == 2
    assert m["quotient.intersection_hit_ratio"] > 0


def test_wrong_expectation_counts_as_failure(tmp_path):
    """Negative controls: an expectation that contradicts the construction is
    caught whether it sits in the scenario file or only in the gate's list."""
    data, expect = inputs.skewed_torus(random.Random(5), 2)
    data["expect"]["intersections"] = 3
    path = tmp_path / "wrong-file.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    in_file = {"ref": str(path), "label": "wrong-in-file", "cli_seed": 1,
               "commands": ["intersections"], "expect": expect}
    gate_only = {"ref": str(tmp_path / "right.json"), "label": "wrong-in-gate", "cli_seed": 1,
                 "commands": ["intersections"], "expect": {**expect, "intersections": 3}}
    data["expect"]["intersections"] = 2
    Path(gate_only["ref"]).write_text(json.dumps(data), encoding="utf-8")
    sw = Sweeper(inputs.invocations([in_file, gate_only]), tmp_path / "reports")
    sw.sweep()
    assert sw.attempted == 2
    assert [f["input"] for f in sw.failures] == ["wrong-in-file", "wrong-in-gate"]
    assert "exit code 1" in sw.failures[0]["reasons"]
    assert sw.failures[1]["reasons"] == ["intersections: got 2, expected 3"]


def test_known_defects_stay_out_of_the_mix_and_fail(tmp_path):
    """The inputs marked as known defects are not swept in the timed mix, and
    each of their invocations fails the gate while its defect lasts; once a
    defect is fixed this test fails, and the input belongs in the mix."""
    known = []
    for wl in inputs.WORKLOADS:
        inps = inputs.generate(wl, 4, tmp_path / wl)
        mix = inputs.timed_mix(inps)
        assert mix and all("known_defect" not in i for i in mix)
        known += inputs.known_defects(inps)
    mob = next(i for i in known if i["label"] == "mobius-upper")
    assert 0.1 <= json.loads(Path(mob["ref"]).read_text())["basepoint"][1] <= 0.9
    sw = Sweeper(inputs.invocations(known), tmp_path / "reports")
    sw.sweep()
    assert sw.attempted == 4
    assert [(f["input"], f["command"]) for f in sw.failures] == [
        ("sphere-polar@6", "verify-all"), ("polar-plane@10", "verify-all"),
        ("mobius-upper", "intersections"), ("mobius-upper", "decompose")]
    assert all("IntegrationError" in f["reasons"][-1] for f in sw.failures[:2])
    assert "intersections: got 1, expected 2" in sw.failures[2]["reasons"]
