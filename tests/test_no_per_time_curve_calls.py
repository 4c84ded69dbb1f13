"""No code in ``src/warpquot`` evaluates a curve one time value at a time.

``PiecewiseCurve.point`` and ``velocity`` take an array of times, so a loop
or comprehension that calls either with an argument built from its own loop
variable (``[curve.point(t) for t in ts]``) makes one call per time where one
batch would do.  The test AST-scans each module and fails on any such call,
inside a ``for`` loop or a list, set, dict or generator comprehension.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "warpquot"
CURVE_METHODS = {"point", "velocity"}


def _targets(node) -> set:
    """The names a loop or comprehension binds per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    else:
        targets = [gen.target for gen in node.generators]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _per_time_calls(tree) -> list:
    """Line numbers of ``x.point(...)``/``x.velocity(...)`` calls whose
    arguments read a variable that an enclosing loop or comprehension binds."""
    found = []
    loops = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for loop in ast.walk(tree):
        if not isinstance(loop, loops):
            continue
        names = _targets(loop)
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in CURVE_METHODS
                    and any(isinstance(n, ast.Name) and n.id in names
                            for arg in [*node.args, *(k.value for k in node.keywords)]
                            for n in ast.walk(arg))):
                found.append(node.lineno)
    return sorted(set(found))


def test_no_src_loop_evaluates_a_curve_per_time():
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _per_time_calls(ast.parse(path.read_text(), str(path)))]
    assert not offenders, f"per-time curve calls (pass the times as one array): {offenders}"


def test_the_scan_tells_a_per_time_loop_from_a_batch():
    per_time = ("pos = np.stack([curve.point(t) for t in nodes])\n"
                "for k, t in enumerate(ts):\n"
                "    v = curve.velocity(t=ts[k])\n"
                "vel = {t: c.velocity(float(t)) for t in ts}\n")
    assert _per_time_calls(ast.parse(per_time)) == [1, 3, 4]
    batched = ("pos, vel = curve.point(nodes), curve.velocity(nodes)\n"
               "for seg in segments:\n"
               "    start = curve.point(0.0)\n"
               "ends = [fn(seg.t1) for seg in segments]\n")
    assert _per_time_calls(ast.parse(batched)) == []
