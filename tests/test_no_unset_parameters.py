"""Every optional parameter in ``src/warpquot`` is set by a call there.

The parameter-level twin of ``test_no_test_only_code.py``.  The test
AST-scans each module except ``fixtures.py`` (which holds the fixtures the
tests and the built-in scenarios share) and lists the optional parameters
(those with a default) of every function, method and nested function.  A
parameter passes when some call in ``src/warpquot`` passes it, by keyword or
by position (a ``*args`` or ``**kwargs`` argument passes every one), or when
it is on ``ALLOWED`` below with the reason it stays.

A call matches a definition by name: ``name(...)`` or ``obj.name(...)``.
Where ``obj`` is a class defined in the package, the call matches only that
class's method, so ``MetricField.constant(..., name=...)`` does not set the
``name`` of ``ScalarField.constant``.  A bound method call skips ``self``.

Exempt are dunders (``__init__``, ``__call__``: their callers name the class
or call the instance) and closure captures, the parameters whose name starts
with an underscore (``def ev(c, _w=w)``).

A parameter that no call sets doubles a configuration that no command runs;
replace it with its default (a module constant where it is a threshold) and
delete the code that only it kept alive.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "warpquot"

_SYMMETRIC = "the paper's statement is symmetric in the two foliations"
ALLOWED = {
    "transport.adapted_translation_closed_form.foliation": _SYMMETRIC,
    "transport.transport_equation_residual.foliation": _SYMMETRIC,
    "quotient.build_example1.epsilon":
        "a parameter of the construction and an input of the InvalidH negative controls",
    "quotient.build_example1.gluing":
        "a parameter of the construction and an input of the InvalidH negative controls",
    "chartkit.exterior_derivative_numeric.n": "an FD oracle on the function-level ALLOWED table",
    "chartkit.exterior_derivative_numeric.step": "an FD oracle on the function-level ALLOWED table",
    "transport.PiecewiseCurve.from_function.velocity_fn": "documented in the README",
    "cli.main.argv": "the entry point: None reads sys.argv",
}


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}


@functools.cache
def _src_trees():
    return _parse(SRC.glob("*.py"))


def _walk_defs(node, prefix, cls):
    """(qualified name, def node, enclosing class name or None) for every
    function under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk_defs(child, f"{prefix}{child.name}.", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{child.name}", child, cls
            yield from _walk_defs(child, f"{prefix}{child.name}.", None)
        else:
            yield from _walk_defs(child, prefix, cls)


def _optional(fn):
    """(index among the positional parameters or None, name) of each
    parameter of fn that has a default."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(pos) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _bound(fn, cls) -> bool:
    """Whether a call through an instance or class skips fn's first parameter."""
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return cls is not None and not static


def inventory(trees=None):
    """(module.qualname.param, def node, class, positional index) of every
    optional parameter outside fixtures.py, closure captures excluded."""
    out = []
    for path, tree in (trees or _src_trees()).items():
        if path.name == "fixtures.py":
            continue
        for qualname, fn, cls in _walk_defs(tree, "", None):
            for index, name in _optional(fn):
                if not name.startswith("_"):
                    out.append((f"{path.stem}.{qualname}.{name}", fn, cls, index))
    return out


def _calls(trees):
    """(callee name, class named as the receiver or None, call node) of every call."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    out = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                out.append((node.func.id, None, node))
            elif isinstance(node.func, ast.Attribute):
                value = node.func.value
                receiver = value.id if isinstance(value, ast.Name) and value.id in classes else None
                out.append((node.func.attr, receiver, node))
    return out


def _sets(call: ast.Call, name: str, index, skip: int) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index - skip


def unset(trees=None):
    """Optional parameters outside fixtures.py, other than dunders' and
    closure captures, that no call in the package passes."""
    trees = trees or _src_trees()
    calls = _calls(trees)
    out = []
    for qualname, fn, cls, index in inventory(trees):
        name = qualname.rsplit(".", 1)[1]
        if fn.name.startswith("__"):
            continue
        skip = int(_bound(fn, cls))
        if not any(callee == fn.name and receiver in (None, cls) and _sets(call, name, index, skip)
                   for callee, receiver, call in calls):
            out.append(qualname)
    return out


def test_every_optional_parameter_is_set_by_a_src_call():
    found = [q for q in unset() if q not in ALLOWED]
    assert not found, f"optional parameters that no call in src/ sets: {found}"


def test_the_allowlist_names_live_unset_parameters():
    assert set(ALLOWED) <= set(unset())


def _synthetic(source: str):
    return {Path("synthetic.py"): ast.parse(source)}


def test_a_parameter_no_call_sets_is_found():
    trees = _synthetic(
        "class Field:\n"
        "    def grad(self, x, n=None):\n"
        "        return x\n"
        "    @staticmethod\n"
        "    def constant(c, name=''):\n"
        "        return c\n"
        "class Other:\n"
        "    @staticmethod\n"
        "    def constant(c, name=''):\n"
        "        return c\n"
        "def solve(f, tol=1e-7, steps=17, *, rtol=1e-9):\n"
        "    def ev(c, _w=f):\n"
        "        return c\n"
        "    return f.grad(ev)\n"
        "def run(argv=None):\n"
        "    solve(g, 1e-6)\n"
        "    Other.constant(1.0, name='one')\n"
        "    return solve(*argv)\n")
    assert unset(trees) == ["synthetic.Field.grad.n", "synthetic.Field.constant.name",
                            "synthetic.solve.rtol", "synthetic.run.argv"]
    trees = _synthetic("def solve(f, tol=1e-7):\n    return f\nsolve(g)\n")
    assert unset(trees) == ["synthetic.solve.tol"]
    trees = _synthetic("def solve(f, tol=1e-7):\n    return f\nsolve(g, tol=1e-6)\n")
    assert unset(trees) == []
