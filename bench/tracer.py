"""Span tracer that wraps warpquot's public functions from outside the package.

``Tracer.install`` replaces each public function of the layer modules, a
list of public methods, and the closures returned by ``expr.compile_expr``
with wrappers that record one span per call: name, start, end and parent.
Functions are patched wherever callers look them up: the module attribute
(which also catches calls from inside the module), every other warpquot
module that bound the same object by name at import (``cli`` binds
``resolve_scenario``, ``scenario`` binds ``compile_expr``), and the command
table of ``cli``.  Methods are patched on their class.  ``uninstall`` puts
every original back, so untraced sweeps run the unmodified program.

Spans live in flat arrays until the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("cli", "scenario", "expr", "chartkit", "productgeo", "transport", "quotient")

METHODS = {
    "chartkit": {"MetricField": ("mat", "inv", "d1", "d2", "check_at"),
                 "ScalarField": ("value", "grad_coords", "hess_coords")},
    "productgeo": {"DoublyTwistedProduct": ("warp_value", "log_warp", "grad_warp",
                                            "grad_log_warp")},
    "quotient": {"QuotientModel": ("in_box", "apply_gen", "apply_word", "gen_jacobian",
                                   "word_jacobian", "canonical_rep", "find_closing_word",
                                   "enumerate_words"),
                 "FactorMap": ("__call__", "jac")},
}

# names bound from outside the package that count as a layer's own work
IMPORTED = {"transport": ("solve_ivp",)}

# span values: a number taken from the return value, for ratio metrics
VALUES = {
    "quotient.leaf_trace": lambda r: len(r.points),
    "quotient.QuotientModel.enumerate_words": len,
    "quotient.leaf_intersection_count": lambda r: r.count,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.value: array = array("d")
        self._cur = [-1]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, route=None, after=None):
        """Wrapper recording a span per call.  ``route(args)`` picks a span
        name per call; ``after(result)`` returns (result, span value)."""
        nid = None if route else self._id(name)
        routes = {k: self._id(f"{name}[{k}]") for k in ("fd", "analytic")} if route else None
        name_of, parent, start, end, value = (self.name_of, self.parent, self.start,
                                              self.end, self.value)
        cur = self._cur
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(routes[route(args)] if routes else nid)
            parent.append(cur[0])
            value.append(0.0)
            end.append(0.0)
            up = cur[0]
            cur[0] = i
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                cur[0] = up
            if after is not None:
                out, value[i] = after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def _after(self, name: str):
        if name == "expr.compile_expr":
            return lambda fn: (self.wrap(fn, "expr.eval"), 0.0)
        measure = VALUES.get(name)
        return (lambda r: (r, float(measure(r)))) if measure else None

    def _route(self, name: str):
        if name == "chartkit.MetricField.d1":
            return lambda args: "fd" if args[0].analytic_d1 is None else "analytic"
        return None

    def _set(self, owner, attr, new):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        pkg = importlib.import_module("warpquot")
        modules = [importlib.import_module(f"warpquot.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"warpquot.{layer}")
            for attr, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if (own and not attr.startswith("_")) or attr in IMPORTED.get(layer, ()):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(obj, name, after=self._after(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self.wrap(cls.__dict__[meth], name,
                                                   route=self._route(name),
                                                   after=self._after(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        handlers = importlib.import_module("warpquot.cli")._HANDLERS
        for key, fn in list(handlers.items()):
            if id(fn) in wrapped:
                self._set(handlers, key, wrapped[id(fn)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def clear(self) -> None:
        for arr in (self.name_of, self.parent, self.start, self.end, self.value):
            del arr[:]


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans

def _flags(par: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """OR of ``bits`` over every proper ancestor of each span (pointer jumping)."""
    has = par >= 0
    safe = np.where(has, par, 0)
    mask = np.where(has, bits[safe], 0)
    jump = np.where(has, par, -1)
    while np.any(jump >= 0):
        ok = jump >= 0
        j = np.where(ok, jump, 0)
        mask = np.where(ok, mask | mask[j], mask)
        jump = np.where(ok, jump[j], -1)
    return mask


def span_table(tracer: Tracer) -> dict:
    """Copies of the recorded spans as arrays; ``name`` indexes ``names``."""
    return {"names": list(tracer.names),
            "name": np.frombuffer(tracer.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(tracer.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(tracer.start).copy(),
            "end": np.frombuffer(tracer.end).copy(),
            "value": np.frombuffer(tracer.value).copy()}


UNDER = {"mat": ("chartkit.MetricField.mat",),
         "solve": ("transport.solve_ivp",),
         "bfs": ("quotient.QuotientModel.canonical_rep",
                 "quotient.QuotientModel.find_closing_word"),
         "intersections": ("quotient.leaf_intersection_count",)}


def layer_metrics(table: dict) -> dict:
    """Per-layer counts and times of one traced sweep (see bench/README.md)."""
    names, name, par = table["names"], table["name"], table["parent"]
    dur = table["end"] - table["start"]
    value = table["value"]
    n_names = len(names)
    child = np.bincount(par + 1, weights=dur, minlength=len(dur) + 1)[1:]
    self_t = dur - child
    bits = np.zeros(n_names, dtype=np.int64)
    for k, group in enumerate(UNDER.values()):
        for nm in group:
            if nm in names:
                bits[names.index(nm)] |= 1 << k
    flags = _flags(par, bits[name])
    under = {key: (flags >> k) & 1 == 1 for k, key in enumerate(UNDER)}

    def sel(*full):
        ids = [names.index(f) for f in full if f in names]
        return np.isin(name, ids)

    def calls(*full):
        return int(sel(*full).sum())

    def total(*full, of=None):
        return float((dur if of is None else of)[sel(*full)].sum())

    def us_per_call(mask):
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    layer_of = np.array([nm.split(".", 1)[0] for nm in names])
    layer_self = {layer: float(self_t[layer_of[name] == layer].sum()) for layer in LAYERS}

    mat = sel("chartkit.MetricField.mat")
    solves = calls("transport.solve_ivp")
    rhs = int((sel("chartkit.christoffel_numeric") & under["solve"]).sum())
    enum = sel("quotient.QuotientModel.enumerate_words")
    tried = float(value[enum & under["intersections"]].sum())
    hits = total("quotient.leaf_intersection_count", of=value)
    return {
        "cli.self_s": layer_self["cli"],
        "cli.dumps_report_s": total("cli.dumps_report"),
        "scenario.resolve_calls": calls("scenario.resolve_scenario"),
        "scenario.resolve_s": total("scenario.resolve_scenario"),
        "expr.compile_calls": calls("expr.compile_expr"),
        "expr.compile_s": total("expr.compile_expr"),
        "expr.eval_calls": calls("expr.eval"),
        "expr.eval_s": total("expr.eval"),
        "chartkit.mat_calls": int(mat.sum()),
        "chartkit.mat_us_per_call": us_per_call(mat & ~under["mat"]),
        "chartkit.mat_nested_ratio": float((mat & under["mat"]).sum() / max(1, mat.sum())),
        "chartkit.d1_fd_calls": calls("chartkit.MetricField.d1[fd]"),
        "chartkit.d1_analytic_calls": calls("chartkit.MetricField.d1[analytic]"),
        "chartkit.christoffel_calls": calls("chartkit.christoffel_numeric"),
        "chartkit.christoffel_us_per_call": us_per_call(sel("chartkit.christoffel_numeric")),
        "chartkit.riemann_calls": calls("chartkit.riemann_numeric"),
        "chartkit.riemann_us_per_call": us_per_call(sel("chartkit.riemann_numeric")),
        "chartkit.exterior_derivative_calls": calls("chartkit.exterior_derivative_numeric"),
        "chartkit.scalar_value_calls": calls("chartkit.ScalarField.value"),
        "chartkit.self_s": layer_self["chartkit"],
        "productgeo.classify_s": total("productgeo.classify"),
        "productgeo.sectional_closed_form_calls": calls("productgeo.sectional_curvature_closed_form"),
        "productgeo.connection_closed_form_calls": calls("productgeo.connection_closed_form"),
        "productgeo.mean_curvature_form_calls": calls("productgeo.mean_curvature_form"),
        "productgeo.self_s": layer_self["productgeo"],
        "transport.solves": solves,
        "transport.rhs_calls": rhs,
        "transport.rhs_per_solve": rhs / solves if solves else 0.0,
        "transport.holonomy_calls": calls("transport.holonomy_map"),
        "transport.self_s": layer_self["transport"],
        "quotient.canonical_rep_calls": calls("quotient.QuotientModel.canonical_rep"),
        "quotient.canonical_rep_s": total("quotient.QuotientModel.canonical_rep"),
        "quotient.bfs_nodes": int((sel("quotient.QuotientModel.apply_gen") & under["bfs"]).sum()),
        "quotient.leaf_trace_calls": calls("quotient.leaf_trace"),
        "quotient.leaf_trace_points": int(total("quotient.leaf_trace", of=value)),
        "quotient.words_enumerated": int(value[enum].sum()),
        "quotient.intersection_hit_ratio": hits / tried if tried else 0.0,
        "quotient.validate_s": total("quotient.validate"),
        "quotient.self_s": layer_self["quotient"],
    }
