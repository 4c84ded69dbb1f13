"""Scenario files and the built-in scenario catalog.

A scenario declares two factors (dimension, metric formula or named preset,
signature, domain box, coordinate names), warp formulas over the product
coordinates, optional deck generators (coordinate formulas with declared
inverses), curves (parametric formulas or Catmull-Rom polylines), holonomy
loop words and expectations.  Files are JSON; unknown keys are rejected with
their path, and syntax errors carry line/column positions.  Every [lo, hi]
row of a factor ``box`` or the ``fundamental_box`` needs lo < hi.

A declared warp dependency (``lamK_dependency``) is proved from the formula
when it reads no coordinate of an excluded factor (``ScalarField.reads``);
only a formula that does, such as ``x1 - x1 + y1`` declared on factor 2
alone, is differenced on the 3-per-axis lattice.

A formula factor metric compiles each distinct entry text once and evaluates
each closure once per batch, its value standing wherever its text does: a
conformally flat 2x2 metric runs two closures, not four, at every point.

A curve's input errors (keys, formula syntax, component count, point shapes
and count, knots) are refused when the file is read, for every command
(``ScenarioError``, exit 2).  Its probe (continuity, finite values, velocity
against the point map; ``tp.PiecewiseCurve``) runs at its first evaluation,
so a probe failure (``NumericsError``, exit 3) shows only in the commands
that evaluate curves: ``transport``.

The built-in catalog is the table ``BUILTIN_SCENARIOS``: one row per
built-in, holding its builder, basepoint, holonomy loops and expectations.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import chartkit as ck
from . import fixtures as fx
from . import productgeo as pg
from . import quotient as qt
from . import transport as tp
from .chartkit import MetricField, ScalarField, Signature
from .errors import ScenarioError
from .expr import affine_form, compile_expr

_PRESET_METRICS = {
    "euclidean": lambda dim, box: MetricField.euclidean(dim, domain_box=box),
    "minkowski": lambda dim, box: MetricField.constant(
        np.diag([-1.0] + [1.0] * (dim - 1)), domain_box=box),
}


@dataclass
class ScenarioContext:
    """A scenario resolved into live model objects."""

    name: str
    dtp: pg.DoublyTwistedProduct
    model: Optional[qt.QuotientModel] = None
    curves: dict = field(default_factory=dict)
    holonomy_loops: dict = field(default_factory=dict)
    basepoint: Optional[np.ndarray] = None
    expect: dict = field(default_factory=dict)

    def __post_init__(self):
        # an expectation is checked loop by loop, so a missing matrix would
        # leave a declared loop unchecked
        for key, mats in self.expect.get("holonomy", {}).items():
            if str(key) not in ("1", "2"):
                raise ScenarioError("expect.holonomy: keys must be foliation indices 1 or 2")
            declared = len(self.holonomy_loops.get(int(key), []))
            if len(mats) != declared:
                raise ScenarioError(
                    f"expect.holonomy.{key}: {len(mats)} matrices for {declared} "
                    f"declared foliation-{key} loops")
            d = self.dtp.factor(3 - int(key)).dim  # the leaves' normal space is the other factor
            if any(np.shape(m) != (d, d) for m in mats):
                raise ScenarioError(f"expect.holonomy.{key}: each matrix must be {d}x{d}")

    def base(self) -> np.ndarray:
        if self.basepoint is not None:
            return self.basepoint
        box = (self.model.fundamental_box if self.model is not None
               else self.dtp.domain_box)
        mid = 0.5 * (np.maximum(box[:, 0], -10.0) + np.minimum(box[:, 1], 10.0))
        return mid


# ---------------------------------------------------------------------------
# strict-keys helpers

_MISSING = object()


def _check_keys(obj, allowed: set, path: str):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _require(obj: dict, key: str, path: str, convert=None, default=_MISSING):
    """``obj[key]`` through ``convert``, or ``default`` as it is when the key
    is absent or null and a default is given.  A missing required key, or a
    value that ``convert`` refuses (ValueError, TypeError, OverflowError), is
    a ScenarioError that names the key's path."""
    value = obj.get(key)
    if value is None and default is _MISSING:
        raise ScenarioError(f"{path}: missing required key {key!r}")
    if value is None:
        return default
    try:
        return value if convert is None else convert(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"{path}.{key}: {exc}") from exc


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _texts(value) -> list:
    """A list of formulas or coordinate names, as strings."""
    return [str(v) for v in _list(value)]


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


# the largest box bound at which the second-difference denominators h**2 and
# 4 h_i h_j, h = FD_STEP_2 |bound|, stay finite
_MAX_BOUND = np.sqrt(np.finfo(float).max / 4.0) / ck.FD_STEP_2


def _box(value) -> np.ndarray:
    """[lo, hi] rows with lo < hi and every bound within ``_MAX_BOUND``; the
    row count is checked where the box is used."""
    box = _floats(value)
    big = box[np.abs(box) > _MAX_BOUND]
    if big.size:
        raise ValueError(f"bound {float(big[0])!r} is past {_MAX_BOUND:.4g}, "
                         "where the squared finite-difference step overflows")
    if box.ndim == 2 and box.shape[1] == 2 and not (box[:, 0] < box[:, 1]).all():
        k = int(np.argmin(box[:, 0] < box[:, 1]))
        raise ValueError(f"each [lo, hi] pair needs lo < hi, got row {k} = {box[k].tolist()}")
    return box


def _int(value) -> int:
    """A whole number (``2`` or ``2.0``), not a string, a fraction or a flag."""
    if isinstance(value, (bool, str)) or int(value) != value:
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# factor / warp / generator builders

def _build_factor(spec: dict, path: str) -> tuple[pg.FactorManifold, list]:
    _check_keys(spec, {"name", "dim", "coords", "metric", "signature", "box"}, path)
    name = _require(spec, "name", path, str)
    dim = _require(spec, "dim", path, _int)
    coords = _require(spec, "coords", path, _texts)
    if dim < 1 or len(coords) != dim:
        raise ScenarioError(f"{path}: {dim} coordinates expected, got {coords}")
    box = _require(spec, "box", path, _box)
    if box.shape != (dim, 2):
        raise ScenarioError(f"{path}: box must be {dim} [lo, hi] pairs")
    metric_spec = _require(spec, "metric", path)
    if isinstance(metric_spec, str):
        if metric_spec not in _PRESET_METRICS:
            raise ScenarioError(f"{path}: unknown metric preset {metric_spec!r} "
                                f"(available: {sorted(_PRESET_METRICS)})")
        metric = _PRESET_METRICS[metric_spec](dim, box)
    else:
        rows = _require(spec, "metric", path, lambda m: [_texts(r) for r in _list(m)])
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ScenarioError(f"{path}: metric formula matrix must be {dim}x{dim}")
        # each distinct entry text compiles once, in first-occurrence
        # row-major order, so the refusal names the first bad entry row by row
        texts = list(dict.fromkeys(t for row in rows for t in row))
        closures = [compile_expr(t, coords) for t in texts]
        where = [[texts.index(t) for t in row] for row in rows]
        sig = _require(spec, "signature", path, Signature)  # a formula metric declares it
        if sig.n != dim:
            raise ScenarioError(f"{path}.signature: {dim} entries expected, got {sig.n}")

        def ev(x, _c=closures, _where=where):
            # each closure runs once, with the shape of one coordinate, and its
            # value stands wherever its text does: (dim, dim, P) for a batch
            vals = [f(x) for f in _c]
            return np.array([[vals[k] for k in row] for row in _where])

        metric = MetricField(dim, ev, sig, domain_box=box)
    return pg.FactorManifold(name, metric, box), coords


def _warp(formula: str, coords: list) -> ScalarField:
    """A warp formula's field, with the axes its formula reads (``ScalarField.reads``)."""
    reads = set()
    lam = compile_expr(formula, coords, reads)
    return ScalarField(lam, name=formula, reads=tuple(sorted(reads)))


def _check_dependency(dtp: pg.DoublyTwistedProduct, i: int, dependency: str, slots: tuple,
                      coords: list, pts: np.ndarray):
    """The declared dependency of lam_i, checked on ``pts``, the file's
    3-per-axis grid over the domain box: each partial along ``slots``, the
    excluded factors' slots, must stay within VANISH_TOL * max(1, |lam_i|).
    lam_i is differenced along those slots only, its value read from the
    same jet."""
    val, partials = ck._call_batch(dtp.warp(i)._jet, pts, 1, (slots,))
    scale = pg.VANISH_TOL * np.maximum(1.0, np.abs(val))
    bad = np.abs(partials) > scale[:, None]
    if bad.any():
        p, k = divmod(int(np.argmax(bad)), len(slots))
        raise ScenarioError(
            f"warps.lam{i}_dependency: declared {dependency!r}, but d lam{i}/d "
            f"{coords[slots[k]]} = {partials[p, k]:.3e} at {pts[p]}")


def _affine_record(formulas: list, coords: list) -> Optional[tuple]:
    """(A, b) of a map whose every coordinate formula is affine (``affine_form``), else None."""
    forms = [affine_form(str(s), coords) for s in formulas]
    if any(form is None for form in forms):
        return None
    return np.array([c for c, _ in forms]), np.array([k for _, k in forms])


def _build_factor_map(fwd: list, inv: list, coords: list, path: str) -> qt.FactorMap:
    """The map and its declared inverse from their formulas.  When every
    formula of both is affine, the map is their records, each read from its
    own formulas, so ``validate`` still checks that the declared inverse
    inverts; otherwise every formula compiles to a closure."""
    if len(fwd) != len(coords) or len(inv) != len(coords):
        raise ScenarioError(f"{path}: map formulas must have one entry per coordinate")
    record = _affine_record(fwd, coords)
    inv_record = _affine_record(inv, coords) if record is not None else None
    if inv_record is not None:
        return qt.FactorMap.from_record((record, inv_record))
    fs = [compile_expr(s, coords) for s in fwd]
    gs = [compile_expr(s, coords) for s in inv]
    return qt.FactorMap(
        apply=lambda x, _fs=fs: np.array([f(x) for f in _fs]),
        inverse=lambda x, _gs=gs: np.array([g(x) for g in _gs]),
    )


def _build_curve(spec: dict, n: int, path: str) -> tp.PiecewiseCurve:
    _check_keys(spec, {"formula", "polyline", "breaks"}, path)
    try:  # the constructors refuse too few points and breaks outside (0, 1)
        if "formula" in spec:
            comps = [compile_expr(s, ["t"]) for s in _require(spec, "formula", path, _texts)]
            if len(comps) != n:
                raise ScenarioError(f"{path}: curve formula needs {n} components")
            return tp.PiecewiseCurve.from_function(
                lambda t, _c=comps: np.stack([f(t[None]) for f in _c], axis=1),
                breaks=_require(spec, "breaks", path, lambda b: [float(t) for t in _list(b)], ()))
        if "polyline" in spec:
            pts = _require(spec, "polyline", path, lambda v: [_floats(p) for p in _list(v)])
            if any(p.shape != (n,) for p in pts):
                raise ScenarioError(f"{path}: polyline points must have {n} coordinates")
            return tp.PiecewiseCurve.catmull_rom(pts)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"{path}: curve needs 'formula' or 'polyline'")


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


def _loop_words(words, moves: set) -> list:
    """Declared loop words as tuples of (generator name, +1 or -1) letters."""
    out = [[tuple(_list(letter)) for letter in _list(word)] for word in _list(words)]
    bad = [letter for word in out for letter in word if letter not in moves]
    if bad:
        raise ValueError(f"letter {list(bad[0])} is not a declared generator with sign 1 or -1")
    return [tuple((g, int(s)) for g, s in word) for word in out]


# factors whose slots a warp declared with each dependency must not vary along
_DEPENDENCIES = {"on-product": (), "on-factor1-only": (2,), "on-factor2-only": (1,),
                 "constant": (1, 2)}

_TOP_KEYS = {"name", "factors", "warps", "generators", "fundamental_box", "ident_tol",
             "word_bound", "curves", "holonomy_loops", "basepoint", "expect"}
_WARP_KEYS = {"lam1", "lam2", "lam1_dependency", "lam2_dependency"}
_GEN_KEYS = {"name", "phi", "phi_inv", "psi", "psi_inv", "c1", "c2", "homothety"}
# each expectation a file may declare, as the commands read it; the checks
# of example1's seam and leaves and of the Lorentzian product's lightlike
# frame are built for those built-ins' geometry alone
_EXPECT = {"classification": str, "verdict": str, "verdict_reason": str, "intersections": _int,
           "mixed_K": float, "K_tol": float, "teodg_holds": _flag,
           "holonomy": lambda v: {k: [_floats(m) for m in _list(ms)] for k, ms in dict(v).items()}}


def parse_scenario(data: dict, name_hint: str = "") -> ScenarioContext:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "scenario")
    name = _require(data, "name", "scenario", str, name_hint or "scenario")
    factors = _require(data, "factors", "scenario", _list)
    if len(factors) != 2:
        raise ScenarioError("scenario: exactly two factors required")
    f1, coords1 = _build_factor(factors[0], "factors[0]")
    f2, coords2 = _build_factor(factors[1], "factors[1]")
    coords = coords1 + coords2
    if len(set(coords)) != len(coords):
        raise ScenarioError("scenario: coordinate names must be unique across factors")

    warps = _require(data, "warps", "scenario")
    _check_keys(warps, _WARP_KEYS, "warps")
    deps = [_require(warps, f"lam{i}_dependency", "warps", str, "on-product") for i in (1, 2)]
    if any(dep not in _DEPENDENCIES for dep in deps):
        raise ScenarioError(f"warps: dependency must be one of {sorted(_DEPENDENCIES)}")
    formulas = [_require(warps, f"lam{i}", "warps", str) for i in (1, 2)]
    dtp = pg.assemble(f1, f2, *(_warp(f, coords) for f in formulas))
    # a dependency whose excluded slots the formula never reads is proved;
    # the others are checked numerically, on one grid for both warps
    slots = [sum((dtp.axes(f) for f in _DEPENDENCIES[dep]), ()) for dep in deps]
    unproved = [(i, dep, s) for i, dep, s in zip((1, 2), deps, slots)
                if set(s) & set(dtp.warp(i).reads)]
    if unproved:
        pts = pg.grid_points(dtp.domain_box, 3)
        for i, dep, s in unproved:
            _check_dependency(dtp, i, dep, s, coords, pts)

    model = None
    gens = []
    for k, gspec in enumerate(_require(data, "generators", "scenario", _list, [])):
        path = f"generators[{k}]"
        _check_keys(gspec, _GEN_KEYS, path)
        gens.append(qt.DeckGenerator(
            name=_require(gspec, "name", path, str),
            phi=_build_factor_map(_require(gspec, "phi", path, _texts),
                                  _require(gspec, "phi_inv", path, _texts), coords1, path),
            psi=_build_factor_map(_require(gspec, "psi", path, _texts),
                                  _require(gspec, "psi_inv", path, _texts), coords2, path),
            c1=_require(gspec, "c1", path, float, 1.0),
            c2=_require(gspec, "c2", path, float, 1.0),
            homothety=_require(gspec, "homothety", path, _flag, True),
        ))
    if gens:
        try:
            model = qt.QuotientModel(
                dtp, gens, _require(data, "fundamental_box", "scenario", _box),
                ident_tol=_require(data, "ident_tol", "scenario", float, qt.DEFAULT_IDENT_TOL),
                word_bound=_require(data, "word_bound", "scenario", _int, qt.DEFAULT_WORD_BOUND))
        except ValueError as exc:  # the message names the parameter, which is the key
            raise ScenarioError(f"scenario: {exc}") from exc

    curves = {}
    for cname, cspec in _require(data, "curves", "scenario", dict, {}).items():
        curves[cname] = _build_curve(cspec, dtp.n, f"curves.{cname}")

    moves = {(gen.name, sign) for gen in gens for sign in (1, -1)}
    loops = {}
    for key, words in _require(data, "holonomy_loops", "scenario", dict, {}).items():
        if key not in ("1", "2", 1, 2):
            raise ScenarioError("holonomy_loops: keys must be foliation indices 1 or 2")
        loops[int(key)] = _require(data["holonomy_loops"], key, "holonomy_loops",
                                   lambda w: _loop_words(w, moves))

    basepoint = _require(data, "basepoint", "scenario", _floats, None)
    if basepoint is not None and basepoint.shape != (dtp.n,):
        raise ScenarioError(f"basepoint must have {dtp.n} coordinates")

    expect = _require(data, "expect", "scenario", dict, {})
    _check_keys(expect, set(_EXPECT), "expect")
    return ScenarioContext(name=name, dtp=dtp, model=model, curves=curves,
                           holonomy_loops=loops, basepoint=basepoint,
                           expect={k: _require(expect, k, "expect", _EXPECT[k]) for k in expect})


def load_scenario_file(path) -> ScenarioContext:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(data, name_hint=path.stem)


# ---------------------------------------------------------------------------
# built-in scenarios

# name -> (builder of the product or quotient from the seed, basepoint or
# None, holonomy loops, expectations); only random-dtp's builder reads the seed
BUILTIN_SCENARIOS = {
    "mobius": (lambda seed: fx.mobius_model(), [0.0, 0.0], fx.HOLONOMY_LOOPS["mobius"],
               {"classification": "direct-product", "holonomy": {"1": [[[-1.0]]]},
                "intersections": 1,
                "verdict": "obstructed", "verdict_reason": "nontrivial-holonomy"}),
    "flat-torus": (lambda seed: fx.flat_torus_model(), [0.0, 0.0], fx.HOLONOMY_LOOPS["flat-torus"],
                   {"classification": "direct-product",
                    "holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]}, "intersections": 1,
                    "verdict": "global-doubly-warped-product"}),
    "skewed-torus": (lambda seed: fx.skewed_torus_model(), [0.0, 0.0],
                     fx.HOLONOMY_LOOPS["skewed-torus"],
                     {"classification": "direct-product",
                      "holonomy": {"1": [[[1.0]]], "2": [[[1.0]]]}, "intersections": 2,
                      "verdict": "obstructed", "verdict_reason": "multiple-intersections"}),
    "example1-twisted": (lambda seed: fx.example1_model(), [0.0, 0.0], {},
                         {"classification": "twisted", "seam_residual_max": 1e-8,
                          "leaf_closed_y": 0.0, "leaf_open_y": 1.0}),
    "sphere-polar": (lambda seed: fx.sphere_polar(), [np.pi / 2, 1.0], {},
                     {"classification": "warped", "mixed_K": 1.0, "K_tol": 1e-6}),
    "hyperbolic-polar": (lambda seed: fx.hyperbolic_polar(), [1.0, 1.0], {},
                         {"classification": "warped", "mixed_K": -1.0, "K_tol": 1e-6}),
    "polar-plane": (lambda seed: fx.polar_plane(), [2.0, 0.5], {},
                    {"classification": "warped", "mixed_K": 0.0, "K_tol": 1e-7}),
    "lorentz-direct": (lambda seed: fx.lorentz_direct(), [0.0, 0.0, 0.0], {},
                       {"classification": "direct-product", "lightlike_zero": True}),
    "random-dtp": (fx.random_doubly_twisted, None, {},
                   {"classification": "doubly-twisted"}),
}


def _builtin(name: str, seed: int) -> ScenarioContext:
    """The context of a catalog row, with its own model, basepoint, loops
    and expectations on every call."""
    build, basepoint, loops, expect = BUILTIN_SCENARIOS[name]
    built = build(seed)
    model = built if isinstance(built, qt.QuotientModel) else None
    return ScenarioContext(
        name=name, dtp=built if model is None else model.dtp, model=model,
        holonomy_loops=copy.deepcopy(loops), expect=copy.deepcopy(expect),
        basepoint=None if basepoint is None else np.array(basepoint, dtype=float))


def list_scenarios() -> list[str]:
    return sorted(BUILTIN_SCENARIOS)


def resolve_scenario(ref: str, seed: int = 0) -> ScenarioContext:
    """Look up a built-in by name, else load a scenario file from a path."""
    if ref in BUILTIN_SCENARIOS:
        return _builtin(ref, seed)
    if Path(ref).exists():
        return load_scenario_file(ref)
    raise ScenarioError(
        f"{ref!r} is neither a built-in scenario ({', '.join(list_scenarios())}) "
        f"nor an existing file")
