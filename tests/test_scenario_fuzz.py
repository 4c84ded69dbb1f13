"""Scenario fuzzing: every file gets a report or a named refusal.

A hypothesis strategy draws scenario dicts around a 1+1-dimensional torus:
expression trees over the whole grammar (wrong argument counts and constant
subtrees included), affine and non-affine generator maps with right and
wrong declared inverses, boxes, basepoints, curves, loop words,
expectations, and fields replaced by values of the wrong type.  Each file
runs one command in-process.  ``cli.main`` must return an exit code (0 to
3) and never raise, a rerun must print the same bytes, and every report
must validate against the versioned schema.  A second property runs an
affine deck group against its non-affine twin (each formula plus
``0*sin(v)``, which keeps a variable inside the call, so the twin takes the
level path) and asks for the same counts, verdicts and tags.

The profile is fixed and derandomized, so the suite runs the same examples
every time (MacIver et al., "Hypothesis", JOSS 4(43), 2019).
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpquot import cli, expr, scenario

jsonschema = pytest.importorskip("jsonschema")
SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas"
                     / "report-v1.schema.json").read_text())

PROFILE = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# ---------------------------------------------------------------------------
# expressions

_NUMBERS = st.one_of(st.sampled_from(["0", "1", "2", "0.5", "10"]), st.floats(0.0, 1e3).map(repr),
                     st.sampled_from(["1e-300", "1e308", "1e400", "9" * 400]))


def _expression(names):
    leaves = st.one_of(st.sampled_from([*names, "pi", "e"]), _NUMBERS)

    def grow(inner):
        # the function's own argument count, or any count up to three
        call = st.sampled_from(sorted(expr._FUNCTIONS)).flatmap(lambda fn: st.tuples(
            st.just(fn), st.one_of(st.lists(inner, min_size=expr._ARITY.get(fn, 1) or 2,
                                            max_size=expr._ARITY.get(fn, 1) or 2),
                                   st.lists(inner, max_size=3))))
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda a: f"-{a}"),
            call.map(lambda c: f"{c[0]}({', '.join(c[1])})"),
        )

    return st.recursive(leaves, grow, max_leaves=6)


def _twin(formula: str, var: str) -> str:
    """The same map with a variable kept inside a call: never affine."""
    return f"{formula} + 0*sin({var})"


# ---------------------------------------------------------------------------
# maps, boxes and points

def _affine_maps(v):
    # (map, its declared inverse), each of which reads as affine
    return [(f"{v} + 1", f"{v} - 1"), (v, v), (f"-{v}", f"-{v}"), (f"{v} + 1/2", f"{v} - 1/2"),
            (f"1 - {v}", f"1 - {v}"), (f"{v} + 2**0.5", f"{v} - 2**0.5")]


def _maps(v):
    right = st.sampled_from(_affine_maps(v)).flatmap(lambda m: st.sampled_from(
        [m, (_twin(m[0], v), _twin(m[1], v))]))
    wrong = st.sampled_from([(f"{v} + 1", f"{v} + 1"), (f"2*{v}", v),
                             (f"{v} + 0.1*sin(2*pi*{v})", v), (f"{v}*{v}", f"sqrt({v})")])
    drawn = st.tuples(_expression([v]), _expression([v]))
    return st.one_of(right, wrong, drawn)


def _generator(name):
    return st.builds(lambda phi, psi: {"name": name, "phi": [phi[0]], "phi_inv": [phi[1]],
                                       "psi": [psi[0]], "psi_inv": [psi[1]]},
                     _maps("x"), _maps("y"))


_COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, math.nan, 1e300]))
_PAIR = st.tuples(_COORD, _COORD).map(sorted).map(list)
_BOX = st.one_of(st.just([[0.0, 1.0]]), st.lists(_PAIR, min_size=1, max_size=1))
_POINT = st.one_of(st.none(), st.lists(_COORD, min_size=2, max_size=2),
                   st.lists(_COORD, min_size=0, max_size=3))
_WARPS = st.one_of(st.sampled_from(["1", "1 + 0.25*sin(2*pi*x)", "2 + cos(y)", "exp(x/4)"]),
                   _expression(["x", "y"]))
_WARPS_Y = st.one_of(st.sampled_from(["1", "2 + cos(y)"]), _expression(["y"]))
_CURVE = st.one_of(
    st.builds(lambda a, b: {"formula": [a, b]}, _expression(["t"]), _expression(["t"])),
    st.builds(lambda pts: {"polyline": pts}, st.lists(_POINT.filter(bool), max_size=4)),
)
_LETTER = st.tuples(st.sampled_from(["a", "b", "zz"]), st.sampled_from([1, -1, 2])).map(list)
_LOOPS = st.dictionaries(st.sampled_from(["1", "2"]),
                         st.lists(st.lists(_LETTER, min_size=1, max_size=3), max_size=2),
                         max_size=2)
# every expectation the commands read, the built-ins' own included
_EXPECT = st.fixed_dictionaries({}, optional={
    "classification": st.sampled_from(["direct-product", "warped", "twisted"]),
    "intersections": st.integers(-1, 3),
    "verdict": st.sampled_from(["global-doubly-warped-product", "obstructed"]),
    "verdict_reason": st.sampled_from(["nontrivial-holonomy", "multiple-intersections"]),
    "holonomy": st.dictionaries(st.sampled_from(["1", "2"]),
                                st.lists(st.just([[1.0]]), max_size=2), max_size=1),
    "mixed_K": st.floats(-1.0, 1.0), "K_tol": st.floats(0.0, 1.0),
    "teodg_holds": st.booleans(), "lightlike_zero": st.booleans(),
    "seam_residual_max": st.floats(0.0, 1.0), "leaf_closed_y": _COORD, "leaf_open_y": _COORD,
})

# ---------------------------------------------------------------------------
# mistyped fields

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=5)
_PATHS = [("name",), ("factors",), ("factors", 0), ("factors", 0, "dim"), ("factors", 0, "box"),
          ("factors", 0, "coords"), ("factors", 1, "metric"), ("factors", 1, "signature"),
          ("warps",), ("warps", "lam1"), ("warps", "lam2_dependency"), ("generators",),
          ("generators", 0), ("generators", 0, "phi"), ("generators", 0, "c1"),
          ("generators", 0, "homothety"), ("fundamental_box",), ("ident_tol",), ("word_bound",),
          ("curves",), ("curves", "c"), ("holonomy_loops",), ("holonomy_loops", "1"),
          ("basepoint",), ("expect",), ("expect", "intersections"), ("expect", "holonomy")]


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutate(data, path, value):
    """Set ``path`` to ``value`` where its parent exists."""
    node = data
    for key in path[:-1]:
        if not _has(node, key):
            return
        node = node[key]
    if isinstance(node, dict) or _has(node, path[-1]):
        node[path[-1]] = value


@st.composite
def scenarios(draw):
    line = {"dim": 1, "metric": "euclidean"}
    data = {
        "name": "fuzz",
        "factors": [{"name": "line-x", "coords": ["x"], "box": draw(_BOX), **line},
                    {"name": "line-y", "coords": ["y"], "box": draw(_BOX), **line}],
        "warps": {"lam1": draw(_WARPS), "lam2": draw(_WARPS)},
    }
    if draw(st.booleans()):
        data["factors"][1].update(metric=[[draw(_WARPS_Y)]], signature=[1])
    gens = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True))
    if gens:
        data["generators"] = [draw(_generator(name)) for name in gens]
        data["fundamental_box"] = draw(st.one_of(st.just([[0.0, 1.0], [0.0, 1.0]]),
                                                 st.lists(_PAIR, min_size=2, max_size=2)))
        data["holonomy_loops"] = draw(_LOOPS)
        if draw(st.booleans()):
            data["word_bound"] = draw(st.integers(0, 6))
    for key, strategy in (("basepoint", _POINT), ("expect", _EXPECT),
                          ("curves", st.dictionaries(st.just("c"), _CURVE, max_size=1))):
        if draw(st.booleans()):
            data[key] = draw(strategy)
    if draw(st.integers(0, 2)) == 0:
        for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=2)):
            _mutate(data, path, draw(_JSON))
    return data


def run(tmp_path, data, command, seed=0):
    """Exit code, stdout and stderr of one in-process run of ``data``."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), command, "--samples", "4", "--seed", str(seed)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@PROFILE
@given(data=scenarios(), command=st.sampled_from(cli.COMMANDS), seed=st.integers(0, 3))
def test_every_file_gets_a_report_or_a_named_refusal(workdir, data, command, seed):
    code, out, err = run(workdir, data, command, seed)
    assert code in (0, 1, 2, 3), (code, err)
    assert run(workdir, data, command, seed) == (code, out, err)
    if out:
        jsonschema.validate(json.loads(out), SCHEMA)
    else:
        assert code in (2, 3) and err.startswith(("input error: ", "numeric failure: ")), err


def _twin_scenario(data):
    twin = json.loads(json.dumps(data))
    for gen in twin["generators"]:
        for key, var in (("phi", "x"), ("phi_inv", "x"), ("psi", "y"), ("psi_inv", "y")):
            gen[key] = [_twin(f, var) for f in gen[key]]
    return twin


def _readout(code, out):
    """The counts, verdicts and tags of a report (or the exit code alone)."""
    if not out:
        return code
    res = json.loads(out)["results"]
    reason = res.get("reason") or {}
    return (code, res.get("tag"), res.get("count"), res.get("lower_bound_only"),
            reason.get("kind"), reason.get("foliation"), reason.get("count"))


@st.composite
def affine_tori(draw):
    gens = ["a", "b"][:draw(st.integers(1, 2))]
    pairs = {v: st.sampled_from(_affine_maps(v)) for v in "xy"}
    return {
        "name": "affine-torus",
        "factors": [{"name": "line-x", "coords": ["x"], "dim": 1, "metric": "euclidean",
                     "box": [[0.0, 1.0]]},
                    {"name": "line-y", "coords": ["y"], "dim": 1, "metric": "euclidean",
                     "box": [[0.0, 1.0]]}],
        "warps": {"lam1": "1", "lam2": draw(st.sampled_from(["1", "1 + 0.25*sin(2*pi*x)"]))},
        "generators": [{"name": name, "phi": [phi[0]], "phi_inv": [phi[1]],
                        "psi": [psi[0]], "psi_inv": [psi[1]]}
                       for name in gens for phi, psi in [(draw(pairs["x"]), draw(pairs["y"]))]],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
        "holonomy_loops": {"1": [[["a", 1]]]},
        "basepoint": draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2)),
    }


@settings(PROFILE, max_examples=60)
@given(data=affine_tori(), command=st.sampled_from(["classify", "intersections", "decompose"]))
def test_affine_map_and_its_non_affine_twin_agree(workdir, data, command):
    # one takes the record path, the other the level path
    for d, recorded in ((data, True), (_twin_scenario(data), False)):
        maps = [fm for g in scenario.parse_scenario(d).model.generators for fm in (g.phi, g.psi)]
        assert all((fm.record is not None) == recorded for fm in maps)
    got = _readout(*run(workdir, data, command)[:2])
    assert _readout(*run(workdir, _twin_scenario(data), command)[:2]) == got
