"""Scenario grammar, file parsing, CLI commands, reports and exit codes."""

import json

import numpy as np
import pytest

from warpquot import cli
from warpquot import expr
from warpquot import productgeo as pg
from warpquot import scenario as sc
from warpquot.errors import ScenarioError
from test_fd_golden import SCENARIOS as FD_SCENARIOS


# ---------------------------------------------------------------------------
# expression grammar

def test_expr_arithmetic_and_functions():
    f = expr.compile_expr("exp(-r) * sin(th) + max(r, 2) ** 2", ["r", "th"])
    r, th = 0.7, 1.1
    assert f([r, th]) == pytest.approx(np.exp(-r) * np.sin(th) + 4.0)


def test_expr_constants_and_unary():
    f = expr.compile_expr("-pi / 2 + +x", ["x"])
    assert f([1.0]) == pytest.approx(1.0 - np.pi / 2)


def test_expr_smoothstep_clamps():
    f = expr.compile_expr("smoothstep(t)", ["t"])
    assert f([-1.0]) == 0.0
    assert f([2.0]) == 1.0
    assert f([0.5]) == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x.real",
    "lambda t: t",
    "[1, 2]",
    "unknown_name",
    "f(3)",
    "x if x else 0",
    "x @ x",
    "'str'",
])
def test_expr_rejects_outside_grammar(bad):
    with pytest.raises(ScenarioError):
        expr.compile_expr(bad, ["x", "t"])


def test_expr_syntax_error_has_position():
    with pytest.raises(ScenarioError, match="line"):
        expr.compile_expr("1 +", ["x"])


def test_expr_checks_argument_counts():
    for ok in ("min(x)", "max(x, t, 1)", "atan2(t, x)", "pow(x, 2)", "smoothstep(x)"):
        expr.compile_expr(ok, ["x", "t"])
    for bad, want in (("sin(x, t)", "sin takes 1"), ("atan2(x)", "atan2 takes 2"),
                      ("pow(2)", "pow takes 2"), ("min()", "min takes one or more"),
                      ("smoothstep(x, 1)", "smoothstep takes 1")):
        with pytest.raises(ScenarioError, match=rf"{want} argument\(s\), got \d at column 0"):
            expr.compile_expr(bad, ["x", "t"])


def test_expr_folds_constants_by_the_operations_they_ran():
    # a subtree without a variable is computed once, as its closure computed it
    f = expr.compile_expr("x * (2*pi) + exp(1) - 1/3 + 2**0.5", ["x"])
    xs = np.array([[-1.5, 0.0, 0.25, 3.0]])
    want = xs[0] * (2 * np.pi) + np.exp(1.0) - 1 / 3 + np.power(2.0, 0.5)
    assert f(xs).tolist() == want.tolist()
    assert expr.compile_expr("sqrt(2) * 3", ["x"])(xs).tolist() == [np.sqrt(2.0) * 3.0] * 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expr_gives_nan_and_inf_without_a_numpy_warning():
    # log(0) + sqrt(0) + 1/0 is -inf + inf, log(-1) nan, exp(1000) inf: the
    # fields' finiteness checks name them, numpy prints nothing
    f = expr.compile_expr("log(x) + sqrt(x) + 1/x + exp(x)", ["x"])
    assert not np.isfinite(f(np.array([[0.0, -1.0, 1000.0]]))).any()


@pytest.mark.parametrize("terms", [201, 980, 5000])
def test_expr_nesting_is_bounded_where_evaluation_could_not_recurse(terms):
    # a left-deep sum nests one level per term; at 980 levels the closures
    # would overflow Python's recursion limit when evaluated, and at 5000 the
    # parser itself raises RecursionError
    with pytest.raises(ScenarioError, match="nested deeper than 200 levels"):
        expr.compile_expr("1" + " + x" * terms, ["x"])
    f = expr.compile_expr("1" + " + x" * 199, ["x"])
    assert f(np.array([[0.5]])).tolist() == [100.5]


# each refused as a warp term when the file is read, not at its first evaluation
NOT_FINITE_OR_MISCALLED = ["1 + 1/(2*0)", "sin(x, y)", "atan2(x)", "min()", "pow(2)",
                           "smoothstep(x, 1)", "log(-1)", "9" * 400, "1e400"]


@pytest.mark.parametrize("term", NOT_FINITE_OR_MISCALLED, ids=lambda t: t[:16])
def test_bad_constant_or_call_exits_2_naming_the_column(capsys, tmp_path, term):
    with pytest.raises(ScenarioError, match=r"^expression .* at column \d+$"):
        expr.compile_expr(term, ["x", "y"])
    data = flat_torus_dict()
    data["warps"]["lam2"] = f"2 + 0*({term})"
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "classify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: expression '2 + 0*(") and " at column " in err


# ---------------------------------------------------------------------------
# scenario parsing

def polar_scenario_dict():
    return {
        "name": "file-polar",
        "factors": [
            {"name": "base", "dim": 1, "coords": ["r"], "metric": "euclidean",
             "box": [[0.5, 3.0]]},
            {"name": "fiber", "dim": 1, "coords": ["th"], "metric": "euclidean",
             "box": [[0.0, 6.2]]},
        ],
        "warps": {"lam1": "1", "lam2": "r", "lam2_dependency": "on-factor1-only"},
        "basepoint": [2.0, 0.5],
        "expect": {"classification": "warped"},
    }


def mobius_scenario_dict():
    return {
        "name": "file-mobius",
        "factors": [
            {"name": "x-line", "dim": 1, "coords": ["x"], "metric": "euclidean",
             "box": [[0.0, 1.0]]},
            {"name": "y-line", "dim": 1, "coords": ["y"], "metric": "euclidean",
             "box": [[-1.0, 1.0]]},
        ],
        "warps": {"lam1": "1", "lam2": "1"},
        "generators": [
            {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"],
             "psi": ["-y"], "psi_inv": ["-y"]},
        ],
        "fundamental_box": [[0.0, 1.0], [-1000000.0, 1000000.0]],
        "holonomy_loops": {"1": [[["a", 1]]]},
        "basepoint": [0.0, 0.0],
        "expect": {"holonomy": {"1": [[[-1.0]]]}},
    }


def test_parse_polar_scenario():
    ctx = sc.parse_scenario(polar_scenario_dict())
    assert ctx.dtp.n == 2
    assert ctx.dtp.assembled.mat([2.0, 0.1])[1, 1] == pytest.approx(4.0)
    assert ctx.model is None


def test_parse_scenario_with_generators_and_loops():
    ctx = sc.parse_scenario(mobius_scenario_dict())
    assert ctx.model is not None
    rep, word = ctx.model.canonical_rep([1.3, 0.5])
    assert np.allclose(rep, [0.3, -0.5])
    assert ctx.holonomy_loops == {1: [(("a", 1),)]}


def test_parse_rejects_unknown_keys():
    data = polar_scenario_dict()
    data["surprise"] = 1
    with pytest.raises(ScenarioError, match="surprise"):
        sc.parse_scenario(data)
    data = polar_scenario_dict()
    data["factors"][0]["extra"] = True
    with pytest.raises(ScenarioError, match=r"factors\[0\]"):
        sc.parse_scenario(data)


def flat_torus_dict():
    """The flat square torus as a scenario file, with one polyline curve."""
    line = {"dim": 1, "metric": "euclidean", "box": [[0.0, 1.0]]}
    return {
        "name": "flat-torus-file",
        "factors": [{"name": "line-x", "coords": ["x"], **line},
                    {"name": "line-y", "coords": ["y"], **line}],
        "warps": {"lam1": "1", "lam2": "1"},
        "generators": [
            {"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"], "psi": ["y"], "psi_inv": ["y"]},
            {"name": "b", "phi": ["x"], "phi_inv": ["x"], "psi": ["y + 1"], "psi_inv": ["y - 1"]},
        ],
        "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
        "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
        "curves": {"c": {"polyline": [[0.1, 0.2], [0.8, 0.2]]}},
        "basepoint": [0.3, 0.6],
    }


def _set(*keys):
    """A mutation setting data[k0][k1]...[kn-1] = value."""
    def mutate(data, value):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return mutate


# (the key the refusal names, where, the mistyped value)
MALFORMED = [
    ("factors[0].dim", _set("factors", 0, "dim"), "a"),
    ("factors[0].box", _set("factors", 0, "box"), "zz"),
    ("factors[0]", _set("factors", 0), 5),
    ("factors[0].coords", _set("factors", 0, "coords"), 5),
    ("scenario.word_bound", _set("word_bound"), "x"),
    ("scenario.word_bound: expected a whole number, got 2.5", _set("word_bound"), 2.5),
    ("factors[0].dim: expected a whole number, got True", _set("factors", 0, "dim"), True),
    ("scenario.basepoint", _set("basepoint"), ["a", "b"]),
    ("holonomy_loops.1", _set("holonomy_loops", "1"), [[["a"]]]),
    ("fundamental_box", _set("fundamental_box"), [[0, 1]]),
    ("curves.c", _set("curves", "c", "polyline"), [[0.5, 0.5]]),
    ("factors[1].signature", _set("factors", 1), {"name": "line-y", "dim": 1, "coords": ["y"],
                                                  "metric": [["1"]], "signature": [2],
                                                  "box": [[0.0, 1.0]]}),
    ("expect.intersections", _set("expect"), {"intersections": "x"}),
    ("expect.holonomy.1: each matrix must be 1x1", _set("expect"),
     {"holonomy": {"1": [[[1.0, 0.0], [0.0, 1.0]]]}}),
    # checks built for one built-in's geometry (example1's seam) are not file keys
    ("expect: unknown keys ['seam_residual_max']", _set("expect"), {"seam_residual_max": 1e-8}),
]


@pytest.mark.parametrize("key,mutate,value", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_field_exits_2_and_names_its_key(capsys, tmp_path, key, mutate, value):
    data = flat_torus_dict()
    path = tmp_path / "flat-torus.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "classify"]) == 0
    mutate(data, value)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["run", str(path), "classify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and key in err, err


@pytest.mark.parametrize("breaks", [[1.5], [0.0], [-0.2], [1.0], [0.5, 0.5]], ids=str)
def test_curve_breaks_must_split_the_unit_interval(capsys, tmp_path, breaks):
    # knots that do not increase strictly from 0 to 1 would give the transport
    # an unsorted grid: the file is refused and the curve named
    data = flat_torus_dict()
    path = tmp_path / "breaks.json"
    data["curves"] = {"c": {"formula": ["0.1 + 0.7*t", "0.2 + 0*t"], "breaks": [0.25, 0.5]}}
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "transport"]) == 0
    data["curves"]["c"]["breaks"] = breaks
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["run", str(path), "transport"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: curves.c: curve knots must increase strictly from 0 to 1")


# a polyline far from the origin, whose point map a central difference cannot
# differentiate to 1e-4, and a formula that is nan on [0, 1/2)
PROBE_FAILURES = [
    ({"polyline": [[1e9, 0.2], [1e9 + 1.0, 0.2]]},
     "segment velocity is not the derivative of its point map"),
    ({"formula": ["0.2 + 0.5*sqrt(t - 0.5)", "0.4"]}, "curve point not finite at t = 0.0"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("curve, message", PROBE_FAILURES, ids=["polyline", "nan-formula"])
def test_a_curve_that_fails_its_probe_fails_only_the_commands_that_read_it(
        capsys, tmp_path, curve, message):
    # the file is read for every command; only transport evaluates its curves,
    # and names the one that fails, the second in key order
    data = flat_torus_dict()
    data["curves"] = {"a": data["curves"]["c"], "c": curve}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    for command in ("classify", "curvature"):
        assert cli.main(["run", str(path), command]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(path), "transport"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: NumericsError: curves.c: {message}"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, mutate, value", [
    ("factors[1].box", _set("factors", 1, "box"), [[0.0, 1e300]]),
    ("factors[0].box", _set("factors", 0, "box"), [[-np.inf, 1.0]]),
    ("scenario.fundamental_box", _set("fundamental_box"), [[0.0, 1.0], [-1e300, 1.0]]),
], ids=["factor-box", "infinite-bound", "fundamental-box"])
def test_a_box_bound_whose_fd_step_overflows_exits_2_naming_its_key(capsys, tmp_path, key,
                                                                   mutate, value):
    data = flat_torus_dict()
    mutate(data, value)
    path = tmp_path / "big-box.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "curvature"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {key}: bound ") and "overflows" in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["classify", "curvature"])
def test_a_box_bound_at_the_limit_runs(capsys, tmp_path, command):
    # at sc._MAX_BOUND the second-difference denominators h**2 and 4 h_i h_j
    # are still finite
    data = flat_torus_dict()
    big = [-sc._MAX_BOUND, sc._MAX_BOUND]
    data["factors"][1]["box"] = [big]
    data["fundamental_box"] = [[0.0, 1.0], big]
    path = tmp_path / "limit-box.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), command]) == 0


@pytest.mark.parametrize("flag, value, low", [("--samples", "0", 1), ("--samples", "-3", 1),
                                              ("--word-bound", "-1", 0)])
def test_a_count_below_its_range_is_refused_by_the_parser(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "skewed-torus", "intersections", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {low}, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key, value", [("--samples", "samples", "1"),
                                              ("--word-bound", "word_bound", "0")])
def test_the_lowest_count_of_each_range_runs(capsys, flag, key, value):
    assert cli.main(["run", "skewed-torus", "intersections", flag, value]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["parameters"][key] == int(value)


@pytest.mark.parametrize("letter", [["zz", 1], ["a", 2], ["a", "1"], ["a", 1, 1], "a", ["b"]])
def test_loop_letters_are_checked_when_the_file_is_read(capsys, tmp_path, letter):
    data = flat_torus_dict()
    data["holonomy_loops"] = {"1": [[["a", 1], letter]]}
    with pytest.raises(ScenarioError, match=r"^holonomy_loops\.1: "):
        sc.parse_scenario(data)
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "holonomy"]) == 2
    assert sc.parse_scenario({**data, "holonomy_loops": {"1": [[["a", -1], ["b", 1.0]]]}}) \
        .holonomy_loops == {1: [(("a", -1), ("b", 1))]}


def test_parse_rejects_wrong_shapes():
    data = polar_scenario_dict()
    data["factors"][0]["coords"] = ["r", "s"]
    with pytest.raises(ScenarioError):
        sc.parse_scenario(data)
    data = polar_scenario_dict()
    data["warps"] = {"lam1": "1"}
    with pytest.raises(ScenarioError, match="lam2"):
        sc.parse_scenario(data)


@pytest.mark.parametrize("key,dep,formula,coord", [
    ("lam2", "on-factor1-only", "r*(1.5 + sin(th))", "th"),
    ("lam1", "on-factor2-only", "1 + 0.1*r", "r"),
    ("lam1", "constant", "1 + 0.1*th", "th"),
])
def test_parse_checks_declared_warp_dependency(key, dep, formula, coord):
    data = polar_scenario_dict()
    data["warps"][key] = formula
    data["warps"][f"{key}_dependency"] = dep
    with pytest.raises(ScenarioError, match=rf"warps\.{key}_dependency: declared '{dep}', "
                                            rf"but d {key}/d {coord} = .* at \["):
        sc.parse_scenario(data)
    data["warps"][f"{key}_dependency"] = "on-product"
    sc.parse_scenario(data)


def test_parse_accepts_declared_dependencies_that_hold(capsys, tmp_path):
    data = polar_scenario_dict()
    data["warps"].update({"lam1": "1 + 0*r", "lam1_dependency": "constant"})
    sc.parse_scenario(data)
    data["warps"]["lam1_dependency"] = "sideways"
    with pytest.raises(ScenarioError, match="dependency must be one of"):
        sc.parse_scenario(data)
    data = polar_scenario_dict()
    data["warps"]["lam2"] = "r*(1.5 + sin(th))"
    path = tmp_path / "mislabelled.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), "classify"]) == 2
    assert "lam2_dependency" in capsys.readouterr().err


def test_parse_formula_metric_and_curves():
    data = polar_scenario_dict()
    data["factors"][1]["metric"] = [["1 + 0 * th"]]
    data["factors"][1]["signature"] = [1]
    data["curves"] = {
        "arc": {"formula": ["1 + t", "0.5"]},
        "poly": {"polyline": [[1.0, 0.0], [1.5, 0.3], [2.0, 0.0]]},
    }
    ctx = sc.parse_scenario(data)
    assert np.allclose(ctx.curves["arc"].point(0.5), [1.5, 0.5])
    assert np.allclose(ctx.curves["poly"].point(1.0), [2.0, 0.0])


def conformal_scenario_dict(metric):
    """A 2+1 product whose plane factor carries the formula metric ``metric``."""
    return {
        "name": "file-conformal",
        "factors": [
            {"name": "plane", "dim": 2, "coords": ["x1", "x2"], "metric": metric,
             "signature": [1, 1], "box": [[-1.0, 1.0], [-1.0, 1.0]]},
            {"name": "line", "dim": 1, "coords": ["y"], "metric": "euclidean",
             "box": [[0.0, 1.0]]},
        ],
        "warps": {"lam1": "1", "lam2": "exp(0.3*x1)"},
    }


# a conformal factor's diagonal entry
E = "exp(2*(0.2*sin(0.8*x1 + 0.4*x2 + 1.2)))"


@pytest.mark.parametrize("rows, distinct", [
    ([[E, "0"], ["0", E]], 2),                         # conformally flat
    ([[E, "0.1*x1*x2"], ["0.1*x1*x2", "1 + x2**2"]], 3),  # symmetric off-diagonal
], ids=["conformal", "symmetric"])
def test_a_formula_metric_evaluates_each_distinct_entry_text_once(monkeypatch, rows, distinct):
    calls = []

    def counted(src, variables, *reads):
        f = expr.compile_expr(src, variables, *reads)
        return lambda v: calls.append(src) or f(v)

    monkeypatch.setattr(sc, "compile_expr", counted)
    ctx = sc.parse_scenario(conformal_scenario_dict(rows))
    pts = pg.offset_grid_points(ctx.dtp.f1.domain_box, 3)
    calls.clear()
    g = ctx.dtp.f1.metric.mat(pts)
    assert len(calls) == len(set(calls)) == distinct
    # each entry holds the bits of its own formula evaluated on the batch
    want = np.array([[expr.compile_expr(t, ["x1", "x2"])(pts.T) for t in row] for row in rows])
    assert g.tobytes() == np.moveaxis(want, -1, 0).tobytes()


@pytest.mark.parametrize("make, mutate, value, commands, message", [
    (lambda: conformal_scenario_dict([[E, "0"], ["0", E]]), _set("factors", 0, "box"),
     [[-1.0, 1.0], [1.0, -1.0]], ("classify", "curvature"),
     "factors[0].box: each [lo, hi] pair needs lo < hi, got row 1 = [1.0, -1.0]"),
    (flat_torus_dict, _set("fundamental_box"), [[1.0, 0.0], [0.0, 1.0]],
     ("intersections", "verify-all"),
     "scenario.fundamental_box: each [lo, hi] pair needs lo < hi, got row 0 = [1.0, 0.0]"),
    (flat_torus_dict, _set("fundamental_box"), [[0.0, 0.0], [0.0, 1.0]],
     ("intersections", "verify-all"),
     "scenario.fundamental_box: each [lo, hi] pair needs lo < hi, got row 0 = [0.0, 0.0]"),
], ids=["reversed-factor-box", "reversed-fundamental-box", "empty-fundamental-box"])
def test_a_box_row_whose_lo_is_not_below_its_hi_exits_2_naming_its_key(
        capsys, tmp_path, make, mutate, value, commands, message):
    data = make()
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data))
    for command in commands:
        assert cli.main(["run", str(path), command]) == 0
    mutate(data, value)
    path.write_text(json.dumps(data))
    for command in commands:
        capsys.readouterr()
        assert cli.main(["run", str(path), command]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_load_scenario_file_and_syntax_errors(tmp_path):
    path = tmp_path / "polar.json"
    path.write_text(json.dumps(polar_scenario_dict()))
    ctx = sc.load_scenario_file(path)
    assert ctx.name == "file-polar"
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",')
    with pytest.raises(ScenarioError, match="line 1"):
        sc.load_scenario_file(bad)


def test_resolve_scenario_unknown():
    with pytest.raises(ScenarioError):
        sc.resolve_scenario("no-such-scenario")


def test_builtin_roster():
    names = sc.list_scenarios()
    assert "mobius" in names
    assert "example1-twisted" in names
    assert len(names) >= 8
    for required in ("flat-torus", "skewed-torus", "sphere-polar",
                     "hyperbolic-polar", "lorentz-direct", "random-dtp"):
        assert required in names


# ---------------------------------------------------------------------------
# CLI runs: verdicts, reports, exit codes

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_mobius_decompose(capsys):
    code, out = run_cli(capsys, "run", "mobius", "decompose")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["tag"] == "obstructed"
    assert report["results"]["reason"]["kind"] == "nontrivial-holonomy"


def test_cli_flat_torus_decompose(capsys):
    code, out = run_cli(capsys, "run", "flat-torus", "decompose")
    assert code == 0
    assert json.loads(out)["results"]["tag"] == "global-doubly-warped-product"


def test_cli_skewed_torus_intersections(capsys):
    code, out = run_cli(capsys, "run", "skewed-torus", "intersections", "--word-bound", "4")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 2
    assert len(results["witnesses"]) == 2


def test_cli_sphere_curvature(capsys):
    code, out = run_cli(capsys, "run", "sphere-polar", "curvature")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mixed_K_error"] <= 1e-6
    for k in results["mixed_K_samples"]:
        assert k == pytest.approx(1.0, abs=1e-6)


def test_cli_holonomy_matrix(capsys):
    code, out = run_cli(capsys, "run", "mobius", "holonomy")
    assert code == 0
    loops = json.loads(out)["results"]["loops"]
    assert np.allclose(loops[0]["matrix"], [[-1.0]], atol=1e-9)


def test_cli_classify_expected_mismatch_exits_1(capsys, tmp_path):
    data = polar_scenario_dict()
    data["expect"]["classification"] = "twisted"  # wrong on purpose
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "run", str(path), "classify")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_cli_input_error_exits_2(capsys):
    code = cli.main(["run", "definitely-not-a-scenario", "classify"])
    assert code == 2


def test_cli_numeric_error_exits_3(capsys, tmp_path):
    data = polar_scenario_dict()
    data["warps"]["lam2"] = "r - 1.0"  # non-positive on part of the box
    data["factors"][0]["box"] = [[0.5, 3.0]]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(data))
    code = cli.main(["run", str(path), "classify"])
    assert code in (2, 3)


def test_cli_reports_are_deterministic(capsys):
    _, out1 = run_cli(capsys, "run", "random-dtp", "verify-all", "--seed", "3")
    _, out2 = run_cli(capsys, "run", "random-dtp", "verify-all", "--seed", "3")
    assert out1 == out2
    _, out3 = run_cli(capsys, "run", "random-dtp", "classify", "--seed", "4")
    _, out4 = run_cli(capsys, "run", "random-dtp", "classify", "--seed", "4")
    assert out3 == out4


def test_cli_float_serialization_17_digits():
    text = cli.dumps_report({"x": 1.0 / 3.0, "y": [2.0 ** 0.5]})
    assert "0.33333333333333331" in text
    assert "1.4142135623730951" in text
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0


# numpy scalars, arrays, tuples, int keys and non-finite floats as results
# carry them; the golden texts pin both report formats byte for byte
_MIXED_RESULTS = {"f64": np.float64(1.0) / 3.0, "f32": np.float32(0.1), "i64": np.int64(-7),
                  "grid": np.array([[1.5, -2.0], [np.pi, 4.0]]), "pair": (1, 2.5),
                  "by_index": {10: "ten", 2: {1: np.float64(0.5)}}, "flag": True, "none": None,
                  "nan": float("nan"), "inf": np.float64(np.inf), "ninf": -np.inf,
                  "text": 'a, "quoted" word'}


def test_report_walk_json_golden():
    assert cli.dumps_report({"results": _MIXED_RESULTS}) == (
        '{"results":{"by_index":{"10":"ten","2":{"1":0.5}},"f32":0.10000000149011612,'
        '"f64":0.33333333333333331,"flag":true,"grid":[[1.5,-2],[3.1415926535897931,4]],'
        '"i64":-7,"inf":"inf","nan":"nan","ninf":"-inf","none":null,"pair":[1,2.5],'
        '"text":"a, \\"quoted\\" word"}}')


def test_report_walk_csv_golden():
    assert cli.dumps_csv({"results": _MIXED_RESULTS}) == (
        'key,value\n'
        'results.by_index.10,ten\n'
        'results.by_index.2.1,0.5\n'
        'results.f32,0.10000000149011612\n'
        'results.f64,0.33333333333333331\n'
        'results.flag,True\n'
        'results.grid.0.0,1.5\n'
        'results.grid.0.1,-2\n'
        'results.grid.1.0,3.1415926535897931\n'
        'results.grid.1.1,4\n'
        'results.i64,-7\n'
        'results.inf,"""inf"""\n'
        'results.nan,"""nan"""\n'
        'results.ninf,"""-inf"""\n'
        'results.none,None\n'
        'results.pair.0,1\n'
        'results.pair.1,2.5\n'
        'results.text,"a, ""quoted"" word"\n')


def test_cli_csv_output(capsys):
    code, out = run_cli(capsys, "run", "mobius", "intersections", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("results.count,1") for line in lines)


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["run", "flat-torus", "classify", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["scenario"] == "flat-torus"


def test_cli_file_scenario_holonomy(capsys, tmp_path):
    path = tmp_path / "mobius.json"
    path.write_text(json.dumps(mobius_scenario_dict()))
    code, out = run_cli(capsys, "run", str(path), "holonomy")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert np.allclose(report["results"]["loops"][0]["matrix"], [[-1.0]], atol=1e-8)


def _mobius_three_loops(matrices):
    data = mobius_scenario_dict()
    data["holonomy_loops"] = {"1": [[["a", 1]] * k for k in (1, 2, 3)]}
    data["expect"] = {"holonomy": {"1": matrices}}
    return data


def test_holonomy_expectation_must_cover_every_declared_loop(capsys, tmp_path):
    # one matrix for three loops used to check only the first one and pass
    path = tmp_path / "mobius.json"
    path.write_text(json.dumps(_mobius_three_loops([[[-1.0]]])))
    with pytest.raises(ScenarioError, match="1 matrices for 3 declared"):
        sc.load_scenario_file(path)
    code, _ = run_cli(capsys, "run", str(path), "holonomy")
    assert code == 2
    with pytest.raises(ScenarioError, match="foliation indices"):
        sc.parse_scenario({**mobius_scenario_dict(), "expect": {"holonomy": {"3": []}}})


@pytest.mark.parametrize("third, code", [(-1.0, 0), (1.0, 1)])
def test_holonomy_expectation_checks_the_last_loop(capsys, tmp_path, third, code):
    # a a a has holonomy -1 on the central Moebius leaf; a wrong third matrix fails
    path = tmp_path / "mobius.json"
    path.write_text(json.dumps(_mobius_three_loops([[[-1.0]], [[1.0]], [[third]]])))
    got, out = run_cli(capsys, "run", str(path), "holonomy")
    assert got == code
    loops = json.loads(out)["results"]["loops"]
    assert [lp["expected_error"] for lp in loops] == [0.0, 0.0, abs(third + 1.0)]


def drifting_cylinder_dict():
    """R^2 / <(x + 1, y + 0.41421356)> on a tall box: every F1 leaf drifts in y."""
    data = flat_torus_dict()
    data.update(name="drifting-cylinder", curves={}, holonomy_loops={},
                fundamental_box=[[0.0, 1.0], [-1e9, 1e9]])
    data["factors"][1]["box"] = [[-1e9, 1e9]]
    data["generators"] = [{"name": "a", "phi": ["x + 1"], "phi_inv": ["x - 1"],
                           "psi": ["y + 0.41421356"], "psi_inv": ["y - 0.41421356"]}]
    return data


@pytest.mark.parametrize("data, key, y, row", [
    (flat_torus_dict(), "leaf_open_y", 0.3, "leaf-open-within-budget"),   # the leaf closes
    (drifting_cylinder_dict(), "leaf_closed_y", 0.2, "leaf-closed"),      # the leaf drifts
])
def test_verify_all_leaf_rows_fail_on_the_wrong_leaf(capsys, tmp_path, monkeypatch,
                                                     data, key, y, row):
    # a file declares no leaf expectation (they are example1's alone), so the
    # parsed scenario gets it as the built-in's context carries it
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(data))
    ctx = sc.load_scenario_file(path)
    ctx.expect[key] = y
    monkeypatch.setattr(cli, "resolve_scenario", lambda ref, seed=0: ctx)
    code, out = run_cli(capsys, "run", str(path), "verify-all")
    assert code == 1
    failed = [c["check"] for c in json.loads(out)["results"]["checks"] if not c["pass"]]
    assert failed == [row]


def test_cli_transport_command(capsys):
    code, out = run_cli(capsys, "run", "polar-plane", "transport")
    assert code == 0
    curves = json.loads(out)["results"]["curves"]
    for payload in curves.values():
        for check in payload["checks"]:
            assert check["pass"]


def test_cli_teodg_command(capsys):
    code, out = run_cli(capsys, "run", "sphere-polar", "teodg")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["hypotheses_hold"] is False
    assert results["histogram"]["positive"] > 0


def test_report_matches_versioned_schema(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path
    schema = json.loads((Path(__file__).resolve().parents[1]
                         / "schemas" / "report-v1.schema.json").read_text())
    data = polar_scenario_dict()
    data["curves"] = {"arc": {"formula": ["1 + t", "0.5"]},
                      "poly": {"polyline": [[1.0, 0.5], [1.5, 0.5], [2.5, 0.5]]}}
    path = tmp_path / "polar-curves.json"
    path.write_text(json.dumps(data))
    for scenario_name, command in (("mobius", "decompose"), ("sphere-polar", "verify-all"),
                                   ("polar-plane", "transport"), ("sphere-polar", "transport"),
                                   (str(path), "transport"), (str(path), "verify-all")):
        code, out = run_cli(capsys, "run", scenario_name, command)
        assert code == 0, (scenario_name, command)
        report = json.loads(out)
        jsonschema.validate(report, schema)
        if command == "transport" and scenario_name == str(path):
            assert sorted(report["results"]["curves"]) == ["arc", "poly"]
        if (scenario_name, command) == ("sphere-polar", "transport"):
            transport = report
    # negative controls: the rows of each transport curve are validated too
    for key, bad in (("value", "oops"), ("pass", "maybe")):
        broken = json.loads(json.dumps(transport))
        broken["results"]["curves"]["default-horizontal"]["checks"][0][key] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)
    # negative control: each check row is validated, so a string value fails
    broken = json.loads(json.dumps(report))
    broken["results"]["checks"][0]["value"] = "0.0"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, schema)


# the formula-warped product of the FD goldens with one factor metric and
# its declared signature changed
@pytest.mark.parametrize("metric, signature, refusal", [
    ([["1", "0"], ["0", "-1"]], [1, 1], "(1 negative) do not match signature index 0"),
    ([["1", "0"], ["0", "1"]], [1, -1], "(0 negative) do not match signature index 1"),
    ([["1", "0"], ["0", "0*x1"]], [1, 1], "near-zero eigenvalue"),
    ([["1", "0"], ["0", "1/x1"]], [1, 1], "non-finite metric entries"),
], ids=["riemannian-declared", "lorentzian-declared", "degenerate", "non-finite"])
@pytest.mark.parametrize("command", ["classify", "curvature", "transport", "verify-all"])
def test_a_formula_metric_is_refused_where_its_signature_does_not_hold(
        tmp_path, capsys, metric, signature, refusal, command):
    data = json.loads(json.dumps(FD_SCENARIOS["formula-warped"]))
    data["factors"][0].update(metric=metric, signature=signature)
    path = tmp_path / "wrong-signature.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", str(path), command]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"input error: factors[0].signature: {signature} does not hold "
                          "at the box centre: "), err
    assert refusal in err and "[0. 0.]" in err


def test_the_signature_check_reads_the_box_centre_alone(monkeypatch):
    # one point per formula factor, the centre of its box; the presets skip it
    seen = []
    check = sc.MetricField.check_at

    def counted(self, x):
        seen.append(np.array(x, dtype=float))
        return check(self, x)

    monkeypatch.setattr(sc.MetricField, "check_at", counted)
    data = conformal_scenario_dict([[E, "0"], ["0", E]])
    data["factors"][0]["box"] = [[-1.0, 3.0], [0.5, 1.5]]
    sc.parse_scenario(data)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], [1.0, 1.0])
