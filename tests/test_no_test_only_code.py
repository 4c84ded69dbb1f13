"""Every function in ``src/warpquot`` has a caller outside the tests.

The test AST-scans each module except ``fixtures.py`` (which holds the
fixtures the tests and the built-in scenarios share).  A top-level function
or a public method passes when one of these holds:

* its name is referenced in ``src/warpquot`` outside its own ``def``;
* its name is read in a file under ``bench/`` (as an identifier or a
  string, such as the tracer's method table);
* it is exported from ``warpquot/__init__.py``, or is a method of a class
  that is;
* it is on ``ALLOWED`` below, with the reason it stays.

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

ALLOWED = {
    "sectional_curvature_closed_form": "README quick start: one plane's closed-form K",
    "sectional_curvature_numeric": "README: the one-plane oracle of that closed form",
    "hessian_matrix": "the FD oracle of PointGeometry.warp_hessian",
    "exterior_derivative_numeric": "the FD oracle of classify's closedness evidence d(omega_i)",
    "broken_geodesic": "acceptance criterion 9 specifies it",
    "broken_length": "acceptance criterion 9 specifies it",
    "velocity_profile": "acceptance criterion 9 specifies it",
}


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}


@functools.cache
def _src_trees():
    return _parse(SRC.glob("*.py"))


def _definitions(tree):
    """(qualified name, def node, class node or None) for each top-level
    function and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
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


def _exported(tree):
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _test_only():
    trees = _src_trees()
    exported = _exported(trees[SRC / "__init__.py"])
    src_refs = sum((_references(t) for t in trees.values()), Counter())
    bench_refs = sum((_references(t) for t in _parse(BENCH.rglob("*.py")).values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.name in ("fixtures.py", "__init__.py"):
            continue
        for qualname, node, cls in _definitions(tree):
            name = node.name
            if (name in ALLOWED or name in exported or (cls is not None and cls.name in exported)
                    or bench_refs[name]):
                continue
            if src_refs[name] - _references(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_src_function_has_a_non_test_caller():
    unused = _test_only()
    assert not unused, f"functions that only tests call: {unused}"


def test_the_allowlist_names_live_functions():
    defined = {node.name for tree in _src_trees().values()
               for _, node, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
