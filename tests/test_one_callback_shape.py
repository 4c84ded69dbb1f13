"""Every callback sees a coordinate-major batch ``(n, P)``.

A single point reaches a callback as a batch of one, ``(n, 1)``; the only
conversion is ``chartkit._call_batch``.  The guard below wraps every
callback of a scenario (the one ``eval`` of each metric and warp, at every
order it is asked for, and factor map ``apply``/``inverse``/``jacobian``)
with an assertion on the input's rank, and runs every command on it.
"""

import json

import numpy as np
import pytest

from test_holonomy_closed_form import warped_torus_dict
from warpquot import cli, scenario
from warpquot.chartkit import MetricField, ScalarField
from warpquot.quotient import FactorMap

CALLBACKS = {
    MetricField: ("eval",),
    ScalarField: ("eval",),
    FactorMap: ("apply", "inverse", "jacobian"),
}


def _rank_two(fn, what, seen):
    def guarded(x, *order):
        assert np.ndim(x) == 2, f"{what} called with shape {np.shape(x)}"
        seen.add(what + "".join(f"@{k}" for k in order))
        return fn(x, *order)

    return guarded


def _guard(ctx, seen):
    """Wrap, in place, the callbacks of every field and factor map of ctx."""
    dtp = ctx.dtp
    objs = [dtp.f1.metric, dtp.f2.metric, dtp.assembled, dtp.lam1, dtp.lam2]
    if ctx.model is not None:
        objs += [fm for gen in ctx.model.generators for fm in (gen.phi, gen.psi)]
    for obj in {id(o): o for o in objs}.values():
        for attr in CALLBACKS[type(obj)]:
            fn = getattr(obj, attr)
            if fn is not None:
                setattr(obj, attr, _rank_two(fn, f"{type(obj).__name__}.{attr}", seen))
    return ctx


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    data = warped_torus_dict()
    # a formula metric on the first factor, invariant under x -> x + 1
    data["factors"][0].update(metric=[["1 + 0.2*sin(2*pi*x)**2"]], signature=[1])
    path = tmp_path_factory.mktemp("guard") / "warped-torus-formula.json"
    path.write_text(json.dumps(data))
    return str(path)


def _exit_codes(ref, out):
    return [cli.main(["run", ref, command, "--samples", "8", "--out", str(out)])
            for command in cli.COMMANDS]


@pytest.mark.parametrize("ref", scenario.list_scenarios() + ["file"])
def test_every_callback_sees_a_batch(ref, scenario_file, monkeypatch, tmp_path):
    ref = scenario_file if ref == "file" else ref
    plain = _exit_codes(ref, tmp_path / "report.json")
    seen = set()
    monkeypatch.setattr(cli, "resolve_scenario",
                        lambda name, seed=0: _guard(scenario.resolve_scenario(name, seed), seen))
    assert _exit_codes(ref, tmp_path / "report.json") == plain
    assert {"MetricField.eval", "ScalarField.eval"} <= seen
    if ref == "random-dtp":  # every field of exact order 2: the guard sees each order
        assert {f"{cls}.eval@{k}" for cls in ("MetricField", "ScalarField")
                for k in (1, 2)} <= seen
    if scenario.resolve_scenario(ref).model is not None:
        assert "FactorMap.apply" in seen
