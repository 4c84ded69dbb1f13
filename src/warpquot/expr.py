"""Restricted arithmetic expression grammar for scenario files.

Supports numbers, declared variable names, + - * / ** and unary minus, and a
fixed function table (trig, hyperbolics, exp/log, sqrt, abs, min/max, pow,
smoothstep).  Expressions are parsed with the ast module, validated against a
whitelist and compiled to nested closures over numpy functions; no
general-purpose interpreter is invoked on scenario content.

Compiled expressions follow the coordinate-major contract of ``chartkit``:
``v`` is a batch ``(n, P)`` (one point is a batch of one), ``v[i]`` is
variable i, and the result has the shape of one variable (a constant
expression is broadcast).  Every operation is a numpy ufunc applied
elementwise, so a point rounds alike alone and in any batch.  A domain error
(``log`` of a negative number) gives nan and a division by zero inf, which
the finiteness checks of the fields that evaluate the expression report.

``affine_form`` reads the same AST as ``c . v + k`` when the expression is
affine in its variables, which gives a deck map in a scenario file its
closed-form affine record (``quotient.FactorMap.record``).
"""

from __future__ import annotations

import ast
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ScenarioError


def smoothstep(t):
    """0 for t <= 0, 1 for t >= 1, cubic 3t^2 - 2t^3 between; elementwise."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan, "atan2": np.arctan2,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "pow": np.power,
    "min": lambda *a: functools.reduce(np.minimum, a),
    "max": lambda *a: functools.reduce(np.maximum, a),
    "smoothstep": smoothstep,
}


_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: np.power,  # the ufunc: Python's float ** rounds like libm instead
}


def _parse(src: str) -> ast.Expression:
    try:
        return ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(
            f"expression {src!r}: syntax error at line {exc.lineno}, column {exc.offset}") from exc


def compile_expr(src: str, variables: Sequence[str]) -> Callable:
    """Compile ``src`` to a function of a coordinate-major batch ``(n, P)``
    ordered as ``variables``.  Raises ScenarioError with position info on
    anything outside the grammar."""
    names = {name: i for i, name in enumerate(variables)}
    tree = _parse(src)

    def bad(node, what):
        return ScenarioError(
            f"expression {src!r}: {what} at column {getattr(node, 'col_offset', '?')}")

    def build(node) -> Callable:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                c = float(node.value)
                return lambda v, _c=c: _c
            raise bad(node, f"literal {node.value!r} is not a number")
        if isinstance(node, ast.Name):
            if node.id in names:
                i = names[node.id]
                return lambda v, _i=i: v[_i]
            if node.id in _CONSTANTS:
                c = _CONSTANTS[node.id]
                return lambda v, _c=c: _c
            raise bad(node, f"unknown name {node.id!r} (declared: {sorted(names)})")
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise bad(node, f"operator {type(node.op).__name__} not allowed")
            left, right = build(node.left), build(node.right)
            return lambda v, _l=left, _r=right, _op=op: _op(_l(v), _r(v))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                inner = build(node.operand)
                return lambda v, _f=inner: -_f(v)
            if isinstance(node.op, ast.UAdd):
                return build(node.operand)
            raise bad(node, f"unary {type(node.op).__name__} not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise bad(node, "only calls to the fixed function table are allowed")
            if node.keywords:
                raise bad(node, "keyword arguments not allowed")
            fn = _FUNCTIONS[node.func.id]
            args = [build(a) for a in node.args]
            return lambda v, _fn=fn, _a=args: _fn(*[f(v) for f in _a])
        raise bad(node, f"construct {type(node).__name__} not allowed")

    body = build(tree)

    def compiled(v):
        v = np.asarray(v, dtype=float)
        if 0 in v.strides:
            # a broadcast (stride-0) axis reads as a scalar operand to numpy's
            # loops, which round differently (pow squares an exponent of 2.0);
            # the copy lays the points out as any batch is
            v = v.copy()
        out = body(v)
        return out if np.shape(out) == v.shape[1:] else np.broadcast_to(out, v.shape[1:])

    return compiled


def affine_form(src: str, variables: Sequence[str]) -> Optional[tuple[np.ndarray, float]]:
    """``src`` as ``c . v + k``: the coefficients c, one per variable, and the
    constant k, when the expression is affine in ``variables``; None otherwise.

    Affine means built from numbers, the variables, ``pi`` and ``e`` by + and
    -, unary minus, products with one constant side and division by a
    constant (a side is constant when its coefficients are all zero).  Calls,
    powers and anything else give None, as do non-finite coefficients.  c
    and k take the expression's own operations, so ``x + 1/3`` gives k =
    1/3 as the expression rounds it; a variable alone has k = -0.0, which
    adds to any number without changing it.
    """
    names = {name: i for i, name in enumerate(variables)}
    zero = [0.0] * len(names)

    def form(node):
        if isinstance(node, ast.BinOp):
            left, right = form(node.left), form(node.right)
            if left is None or right is None:
                return None
            (cl, kl), (cr, kr), op = left, right, type(node.op)
            if op is ast.Add:
                return [a + b for a, b in zip(cl, cr)], kl + kr
            if op is ast.Sub:
                return [a - b for a, b in zip(cl, cr)], kl - kr
            if op is ast.Mult and not any(cl):
                return [kl * c for c in cr], kl * kr
            if op is ast.Mult and not any(cr):
                return [c * kr for c in cl], kl * kr
            if op is ast.Div and not any(cr) and kr:
                return [c / kr for c in cl], kl / kr
            return None
        if isinstance(node, ast.Name):
            if node.id in names:
                c = zero.copy()
                c[names[node.id]] = 1.0
                return c, -0.0
            return (zero, _CONSTANTS[node.id]) if node.id in _CONSTANTS else None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return zero, float(node.value)
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = form(node.operand)
            if inner is None or isinstance(node.op, ast.UAdd):
                return inner
            return [-c for c in inner[0]], -inner[1]
        return None

    out = form(_parse(src).body)
    if out is None or not all(map(math.isfinite, out[0] + [out[1]])):
        return None
    return np.array(out[0]), out[1]
