"""Seeded inputs for the three benchmark workloads.

Every input is an invocation list entry: a scenario reference (a built-in
name or a generated JSON file), the CLI ``--seed`` it runs with, the commands
swept on it and the answers expected from its construction.  Expected answers
never come from running warpquot: they follow from how each file is built.
Only ``random`` from the standard library is used, so the same seed always
gives byte-identical files.

The timed mix holds only invocations that pass at this commit, so that a
run whose result reads incorrect always means a regression.  Inputs that hit
a known defect carry a ``known_defect`` description: they are run once per
run outside the timed mix, gated like the rest, and listed while the defect
lasts (see ``known_defects``).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PRODUCT_COMMANDS = ("classify", "curvature", "transport", "verify-all")
QUOTIENT_COMMANDS = ("classify", "curvature", "transport", "holonomy", "intersections",
                     "decompose", "verify-all")

# One sample count for every invocation: classify then samples a 4-point grid
# per axis and curvature 8 random planes, which keeps a sweep within seconds.
CLI_ARGS = ("--samples", "8")

# verify-all runs at the CLI's default seed in the timed mix.  Its
# parallel-transport step raises IntegrationError on some seeds (tolerance
# 1e-7 against the check's 1e-6 budget), so a drawn seed would make runs
# fail at random; failing seeds run as known defects instead.
VERIFY_ALL_SEED = 0
TRANSPORT_TOL_DEFECT = ("verify-all raises IntegrationError: the parallel-transport "
                        "tolerance 1e-7 is tighter than the check's 1e-6 budget")
MOBIUS_LEAF_DEFECT = ("off the Moebius central leaf with y0 > 0 the vertical leaf is "
                      "traced upwards only, so the intersection at (x0, -y0) is missed")

SKEW_QS = (1, 3)
BIG = 1e9  # unbounded transversal of the Moebius band, as in the built-in


def _num(v: float) -> str:
    return f"{v:.6f}"


def _dump(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# products-analytic: built-ins only

def products_analytic(rng: random.Random, out_dir: Path) -> list[dict]:
    """random-dtp at two seeds drawn from the workload seed (and verify-all at
    the default seed), plus four built-ins; and two verify-all seeds that hit
    ``TRANSPORT_TOL_DEFECT``."""
    inputs = [{"ref": "random-dtp", "label": f"random-dtp@{s}", "cli_seed": s,
               "commands": [c for c in PRODUCT_COMMANDS if c != "verify-all"],
               "expect": {"classification": "doubly-twisted"}}
              for s in (rng.randrange(1, 10**6), rng.randrange(1, 10**6))]
    inputs.append({"ref": "random-dtp", "label": f"random-dtp@{VERIFY_ALL_SEED}",
                   "cli_seed": VERIFY_ALL_SEED, "commands": ["verify-all"],
                   "expect": {"classification": "doubly-twisted"}})
    for name, tag in (("sphere-polar", "warped"), ("hyperbolic-polar", "warped"),
                      ("polar-plane", "warped"), ("lorentz-direct", "direct-product")):
        inputs.append({"ref": name, "label": name, "cli_seed": rng.randrange(1, 10**6),
                       "commands": list(PRODUCT_COMMANDS),
                       "expect": {"classification": tag}})
    for name, seed in (("sphere-polar", 6), ("polar-plane", 10)):
        inputs.append({"ref": name, "label": f"{name}@{seed}", "cli_seed": seed,
                       "verify_all_seed": seed, "commands": ["verify-all"],
                       "expect": {"classification": "warped"},
                       "known_defect": TRANSPORT_TOL_DEFECT})
    return inputs


# ---------------------------------------------------------------------------
# scenario-files: 2+2-dimensional formula products

def _trig(rng: random.Random, coords: list[str]) -> str:
    """a sin(b . x + c) with random a, b and c."""
    amp = rng.uniform(0.1, 0.3)
    arg = " + ".join(f"{_num(rng.uniform(0.2, 1.2))}*{c}" for c in coords)
    return f"{_num(amp)}*sin({arg} + {_num(rng.uniform(0.0, 2.0))})"


def _conformal_factor(rng: random.Random, name: str, coords: list[str]) -> dict:
    """exp(2 phi) times the identity, phi = a sin(b . x + c)."""
    phi = _trig(rng, coords)
    e = f"exp(2*({phi}))"
    return {"name": name, "dim": 2, "coords": coords,
            "metric": [[e, "0"], ["0", e]], "signature": [1, 1],
            "box": [[-1.0, 1.0], [-1.0, 1.0]]}


def _leaf_polyline(rng: random.Random) -> list[list[float]]:
    """Four points a quarter turn apart on a circle of radius 0.2 inside a
    uniformly drawn F1 leaf: every curve has the same length, and only its
    leaf, centre and turn are drawn."""
    leaf = [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)]
    cx, cy, th = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.0, 2 * math.pi)
    return [[cx + 0.2 * math.cos(th + k * math.pi / 2),
             cy + 0.2 * math.sin(th + k * math.pi / 2)] + leaf for k in range(4)]


def product_file(rng: random.Random, name: str, warped: bool) -> tuple[dict, dict]:
    """A doubly warped (each warp on the opposite factor) or doubly twisted
    (both warps on all four coordinates) product, with four Catmull-Rom curves
    in F1 leaves."""
    xs, ys = ["x1", "x2"], ["y1", "y2"]
    f1 = _conformal_factor(rng, "f1", xs)
    f2 = _conformal_factor(rng, "f2", ys)
    if warped:
        lam1, lam2 = _trig(rng, ys), _trig(rng, xs)
        deps = {"lam1_dependency": "on-factor2-only", "lam2_dependency": "on-factor1-only"}
        tag = "doubly-warped"
    else:
        lam1, lam2 = _trig(rng, xs + ys), _trig(rng, xs + ys)
        deps = {}
        tag = "doubly-twisted"
    curves = {f"leaf-path-{j}": {"polyline": _leaf_polyline(rng)} for j in range(1, 5)}
    data = {"name": name, "factors": [f1, f2],
            "warps": {"lam1": f"exp({lam1})", "lam2": f"exp({lam2})", **deps},
            "curves": curves,
            "basepoint": [rng.uniform(-1.0, 1.0) for _ in range(4)],
            "expect": {"classification": tag}}
    return data, {"classification": tag}


def scenario_files(rng: random.Random, out_dir: Path) -> list[dict]:
    inputs = []
    for k, warped in enumerate((True, False)):
        name = f"product-{k}-{'warped' if warped else 'twisted'}"
        data, expect = product_file(rng, name, warped)
        path = out_dir / f"{name}.json"
        _dump(path, data)
        inputs.append({"ref": str(path), "label": name, "cli_seed": rng.randrange(1, 10**6),
                       "commands": list(PRODUCT_COMMANDS), "expect": expect})
    return inputs


# ---------------------------------------------------------------------------
# quotient-verdicts: flat tori, the Moebius band, a warped torus

def _euclid(name: str, coord: str, box: list) -> dict:
    return {"name": name, "dim": 1, "coords": [coord], "metric": "euclidean", "box": [box]}


def _gen(name: str, phi: str, phi_inv: str, psi: str, psi_inv: str) -> dict:
    return {"name": name, "phi": [phi], "phi_inv": [phi_inv], "psi": [psi], "psi_inv": [psi_inv]}


def skewed_torus(rng: random.Random, q: int) -> tuple[dict, dict]:
    """R^2 / <(x+1, y), (x+1/q, y+1)>: the leaves through any point meet q
    times (at x0 + k/q), both holonomies are trivial, so the quotient is a
    global product exactly when q = 1."""
    verdict = ({"verdict": "global-doubly-warped-product"} if q == 1 else
               {"verdict": "obstructed", "verdict_reason": "multiple-intersections"})
    expect = {"classification": "direct-product", "intersections": q,
              "holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]}, **verdict}
    data = {"name": f"skewed-torus-q{q}",
            "factors": [_euclid("line-x", "x", [0.0, 1.0]), _euclid("line-y", "y", [0.0, 1.0])],
            "warps": {"lam1": "1", "lam2": "1"},
            "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                           _gen("b", f"x + 1/{q}", f"x - 1/{q}", "y + 1", "y - 1")],
            "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
            "holonomy_loops": {"1": [[["a", 1]]], "2": [[["a", -1]] + [["b", 1]] * q]},
            "basepoint": [rng.random(), rng.random()],
            "expect": expect}
    return data, expect


def mobius(rng: random.Random, central: bool, upper: bool = False) -> tuple[dict, dict]:
    """R^2 / <(x+1, -y)>.  On the central leaf y = 0 the loop a has holonomy
    -1 and the leaves meet once; off it the F1 leaf closes after a^2 with
    trivial holonomy and meets the vertical leaf at (x0, y0) and (x0, -y0).
    Off the central leaf y0 is drawn uniformly from the lower half, or from
    the upper half with ``upper`` (a known defect, ``MOBIUS_LEAF_DEFECT``)."""
    if central:
        y0, loop = 0.0, [["a", 1]]
        expect = {"classification": "direct-product", "intersections": 1,
                  "holonomy": {"1": [[[-1.0]]]},
                  "verdict": "obstructed", "verdict_reason": "nontrivial-holonomy"}
    else:
        y0 = rng.uniform(0.1, 0.9) if upper else rng.uniform(-0.9, -0.1)
        loop = [["a", 1], ["a", 1]]
        expect = {"classification": "direct-product", "intersections": 2,
                  "holonomy": {"1": [[[1.0]]]},
                  "verdict": "obstructed", "verdict_reason": "multiple-intersections"}
    name = "central" if central else "upper" if upper else "off-central"
    data = {"name": f"mobius-{name}",
            "factors": [_euclid("line-x", "x", [0.0, 1.0]), _euclid("line-y", "y", [-1.0, 1.0])],
            "warps": {"lam1": "1", "lam2": "1"},
            "generators": [_gen("a", "x + 1", "x - 1", "-y", "-y")],
            "fundamental_box": [[0.0, 1.0], [-BIG, BIG]],
            "holonomy_loops": {"1": [loop]},
            "basepoint": [rng.random(), y0],
            "expect": expect}
    return data, expect


def warped_torus(rng: random.Random) -> tuple[dict, dict]:
    """Axis torus with lam2 = 1 + eps sin(2 pi x): the deck group acts by
    isometries, lam2 is periodic so normal transport along either loop
    returns to the start (trivial holonomy), and the leaves meet once.  Its
    transport curve runs along the basepoint's F1 leaf over half a period,
    from a uniformly drawn x, so its length does not hang on the basepoint."""
    eps = rng.uniform(0.1, 0.4)
    expect = {"classification": "warped", "intersections": 1,
              "holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]},
              "verdict": "global-doubly-warped-product"}
    x0, y0 = rng.random(), rng.random()
    u = rng.uniform(0.0, 0.5)
    data = {"name": "warped-torus",
            "factors": [_euclid("line-x", "x", [0.0, 1.0]), _euclid("line-y", "y", [0.0, 1.0])],
            "warps": {"lam1": "1", "lam2": f"1 + {_num(eps)}*sin(2*pi*x)",
                      "lam2_dependency": "on-factor1-only"},
            "generators": [_gen("a", "x + 1", "x - 1", "y", "y"),
                           _gen("b", "x", "x", "y + 1", "y - 1")],
            "fundamental_box": [[0.0, 1.0], [0.0, 1.0]],
            "holonomy_loops": {"1": [[["a", 1]]], "2": [[["b", 1]]]},
            "curves": {"leaf-half-period": {"polyline": [[u + k / 6, y0] for k in range(4)]}},
            "basepoint": [x0, y0],
            "expect": expect}
    return data, expect


def quotient_verdicts(rng: random.Random, out_dir: Path) -> list[dict]:
    made = [skewed_torus(rng, q) for q in SKEW_QS]
    made += [mobius(rng, True), mobius(rng, False), warped_torus(rng)]
    inputs = []
    for data, expect in made:
        path = out_dir / f"{data['name']}.json"
        _dump(path, data)
        inputs.append({"ref": str(path), "label": data["name"],
                       "cli_seed": rng.randrange(1, 10**6),
                       "commands": list(QUOTIENT_COMMANDS), "expect": expect})
    # the built-in twisted quotient declares no holonomy loops, and its
    # decomposition is refused by design (a leaf never closes), so only the
    # commands that apply to it run
    inputs.append({"ref": "example1-twisted", "label": "example1-twisted",
                   "cli_seed": rng.randrange(1, 10**6),
                   "commands": [c for c in QUOTIENT_COMMANDS
                                if c not in ("holonomy", "decompose")],
                   "expect": {"classification": "twisted"}})
    data, expect = mobius(rng, False, upper=True)
    path = out_dir / f"{data['name']}.json"
    _dump(path, data)
    inputs.append({"ref": str(path), "label": data["name"],
                   "cli_seed": rng.randrange(1, 10**6),
                   "commands": ["intersections", "decompose"], "expect": expect,
                   "known_defect": MOBIUS_LEAF_DEFECT})
    return inputs


WORKLOADS = {
    "products-analytic": products_analytic,
    "scenario-files": scenario_files,
    "quotient-verdicts": quotient_verdicts,
}


def generate(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's files under ``out_dir`` and return its inputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out_dir)


def timed_mix(inputs: list[dict]) -> list[dict]:
    return [i for i in inputs if "known_defect" not in i]


def known_defects(inputs: list[dict]) -> list[dict]:
    return [i for i in inputs if "known_defect" in i]


def invocations(inputs: list[dict]) -> list[tuple[dict, str, list[str]]]:
    """Every input with each of its commands, and the CLI arguments of that
    invocation (without ``--out``)."""
    out = []
    for inp in inputs:
        for cmd in inp["commands"]:
            seed = (inp.get("verify_all_seed", VERIFY_ALL_SEED) if cmd == "verify-all"
                    else inp["cli_seed"])
            out.append((inp, cmd, ["run", inp["ref"], cmd, "--seed", str(seed), *CLI_ARGS]))
    return out
