"""Every function in ``src/warpquot`` has a caller outside the tests.

The test AST-scans each module except ``fixtures.py`` (which holds the
fixtures the tests and the built-in scenarios share).  A top-level function
passes when one of these holds, outside its own ``def``:

* ``src/warpquot`` names it: by bare name in its own module, as
  ``alias.name`` where ``alias`` is an imported warpquot module, in a
  from-import of its module, or as a string (a ``getattr`` target);
* code under ``bench/`` reads it as an attribute of an imported warpquot
  module (``cli.main``), or ``bench/tracer.py`` names it as the string
  ``"layer.name"`` (the spans its per-layer metrics read);
* it is exported from ``warpquot/__init__.py``;
* it is on ``ALLOWED`` below, with the reason it stays.

A public method passes when its name is read anywhere in ``src/warpquot``
(an identifier, an attribute or a string) or ``bench/tracer.py``'s
``METHODS`` table lists it under its class; an exported class keeps no
method alive.  A private method (``_name``, not a dunder) passes only when
its name is read in ``src/warpquot`` outside its own ``def``.  An attribute
of another object, such as ``np.linalg.norm``, keeps no top-level function
alive, and a ``bench/`` name that merely equals a method's (the tracer's
``after`` parameter) keeps no method alive.

A function that only tests call is a second way to compute what the
library already computes on its command path; delete it, or move its test
onto the kernel that remains.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "warpquot"
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"

ALLOWED = {
    "sectional_curvature_closed_form": "README quick start: one plane's closed-form K",
    "sectional_curvature_numeric": "README: the one-plane oracle of that closed form",
    "hessian_matrix": "the FD oracle of PointGeometry.warp_hessian",
    "exterior_derivative_numeric": "the FD oracle of classify's closedness evidence d(omega_i)",
}


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}


@functools.cache
def _src_trees():
    return _parse(SRC.glob("*.py"))


def _definitions(tree):
    """(qualified name, def node, class node or None) for each top-level
    function and each method other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item, node


def _references(tree) -> Counter:
    """Names read in tree: identifiers, attributes, imported names, and
    string constants (``getattr`` targets and the tracer's method tables)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _function_references(tree, own: str, modules) -> Counter:
    """(module, name) pairs that can name a top-level function in tree, whose
    module is ``own``; strings count under the module ``"*"``.  The package
    imports itself relatively: ``from . import chartkit as ck`` binds a module
    alias, ``from .chartkit import name`` imports a name."""
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for a in node.names if a.name in modules}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[own, node.id] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out[aliases[node.value.id], node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
            for alias in node.names:
                out[node.module, alias.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out["*", node.value] += 1
    return out


def _function_called(refs: Counter, module: str, name: str) -> int:
    return refs[module, name] + refs["*", name]


def _bench_keeps(modules):
    """What ``bench/`` keeps alive: the (module, function) pairs that its code
    reads as an attribute of an imported warpquot module or that the tracer
    names as ``"layer.name"``, and the (module, class, method) triples of the
    tracer's ``METHODS`` table, read from its source."""
    functions, methods = set(), set()
    for path, tree in _parse(BENCH.rglob("*.py")).items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "warpquot":
                aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
            elif isinstance(node, ast.Import):
                aliases.update((a.asname, a.name.split(".")[1]) for a in node.names
                               if a.asname and a.name.startswith("warpquot."))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                functions.add((aliases[node.value.id], node.attr))
            elif path == TRACER and isinstance(node, ast.Constant) and isinstance(node.value, str):
                functions.add(tuple(node.value.split(".", 1)))
            elif (path == TRACER and isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]):
                methods = {(layer, cls, meth)
                           for layer, classes in ast.literal_eval(node.value).items()
                           for cls, meths in classes.items() for meth in meths}
    return functions, methods


def _exported(tree):
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _test_only():
    trees = _src_trees()
    modules = {path.stem for path in trees}
    exported = _exported(trees[SRC / "__init__.py"])
    src_refs = sum((_references(t) for t in trees.values()), Counter())
    fn_refs = sum((_function_references(t, path.stem, modules) for path, t in trees.items()),
                  Counter())
    bench_functions, bench_methods = _bench_keeps(modules)
    unused = []
    for path, tree in trees.items():
        if path.name in ("fixtures.py", "__init__.py"):
            continue
        for qualname, node, cls in _definitions(tree):
            name = node.name
            if cls is None:
                kept = name in ALLOWED or name in exported or (path.stem, name) in bench_functions
            else:
                kept = (not name.startswith("_")
                        and (name in ALLOWED or (path.stem, cls.name, name) in bench_methods))
            if kept:
                continue
            if cls is None:
                own = _function_references(node, path.stem, modules)
                used = (_function_called(fn_refs, path.stem, name)
                        - _function_called(own, path.stem, name))
            else:
                used = src_refs[name] - _references(node)[name]
            if used <= 0:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_src_function_has_a_non_test_caller():
    unused = _test_only()
    assert not unused, f"functions that only tests call: {unused}"


def test_the_allowlist_names_live_functions():
    defined = {node.name for tree in _src_trees().values()
               for _, node, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_an_attribute_of_another_object_names_no_function():
    tree = ast.parse("import numpy as np\n"
                     "from . import chartkit as ck\n"
                     "from .transport import solve\n"
                     "np.linalg.norm(x)\n"
                     "ck.gram_schmidt(g)\n"
                     "helper(x)\n"
                     "getattr(module, 'named')\n")
    refs = _function_references(tree, "quotient", {"chartkit", "quotient", "transport"})
    assert _function_called(refs, "chartkit", "norm") == 0
    assert _function_called(refs, "chartkit", "gram_schmidt") == 1
    assert _function_called(refs, "transport", "solve") == 1
    assert _function_called(refs, "quotient", "helper") == 1
    assert _function_called(refs, "chartkit", "helper") == 0
    assert _function_called(refs, "productgeo", "named") == 1
