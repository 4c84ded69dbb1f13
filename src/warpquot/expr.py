"""Restricted arithmetic expression grammar for scenario files.

Supports numbers, declared variable names, + - * / ** and unary minus, and a
fixed function table (trig, hyperbolics, exp/log, sqrt, abs, min/max, pow,
smoothstep) whose argument counts are checked: ``atan2`` and ``pow`` take
two, ``min`` and ``max`` one or more and every other function one.
Expressions are parsed with the ast module, validated against a whitelist
and lowered in one walk of the AST to nested closures over numpy functions;
no general-purpose interpreter is invoked on scenario content.

Compiled expressions follow the coordinate-major contract of ``chartkit``:
``v`` is a batch ``(n, P)`` (one point is a batch of one), ``v[i]`` is
variable i, and the result has the shape of one variable (a constant
expression is broadcast).  Every operation on a variable is a numpy ufunc
applied elementwise, so a point rounds alike alone and in any batch.  A
domain error (``log`` of a negative number) gives nan and a division by
zero inf, without a numpy warning, and the finiteness checks of the fields
that evaluate the expression report it.

A subtree without a variable is folded to its value once, by the operation
its closure would run (Python float arithmetic for + - * /, numpy for ** and
calls), and a folded value that is not finite, or an operation that raises,
is refused with the expression and column, as is a tree nested deeper than
``_MAX_DEPTH`` levels.

``affine_form`` reads the same walk as ``c . v + k`` when the expression is
affine in its variables, which gives a deck map in a scenario file its
closed-form affine record (``quotient.FactorMap.record``).

The walk also records the variables the expression reads: every name it
lowers to ``v[i]``.  Nothing else reaches the closure, so a variable outside
that set cannot change its value, and a central difference along it is
exactly 0; ``scenario`` hands the set to a warp (``ScalarField.reads``).  The
set is syntactic: ``x - x + y`` reads x.
"""

from __future__ import annotations

import ast
import contextlib
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

# argument counts other than one; None is one or more
_ARITY = {"atan2": 2, "pow": 2, "min": None, "max": None}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# deepest expression tree: its closures nest as deep when evaluated, and
# Python's recursion limit (1000 frames) must hold them with the caller's frames
_MAX_DEPTH = 200

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: np.power,  # the ufunc: Python's float ** rounds like libm instead
}


def _affine(op, left, right):
    """The form (c, k) of ``left op right`` from its sides' forms (c, k), or None
    when it is not affine: a product needs a constant side (all coefficients
    zero) and a division a nonzero constant divisor."""
    (cl, kl), (cr, kr) = left, right
    if op is ast.Add:
        return [a + b for a, b in zip(cl, cr)], kl + kr
    if op is ast.Sub:
        return [a - b for a, b in zip(cl, cr)], kl - kr
    if op is ast.Mult and not (any(cl) and any(cr)):
        return ([kl * c for c in cr] if not any(cl) else [c * kr for c in cl]), kl * kr
    if op is ast.Div and not any(cr) and kr:
        return [c / kr for c in cl], kl / kr
    return None


def _bad(src: str, node, what: str) -> ScenarioError:
    return ScenarioError(f"expression {src!r}: {what} at column {node.col_offset}")


def _fold(src: str, node, op, args, numpy: bool) -> float:
    """The value ``op(*args)`` of ``node``, a subtree without a variable,
    computed once by the operation its closure would run; a ScenarioError
    when it raises or is not finite."""
    # numpy warns where Python float arithmetic raises; only numpy's
    # operations run under errstate, whose entry costs more than a literal
    try:
        with np.errstate(all="ignore") if numpy else contextlib.nullcontext():
            value = float(op(*args))
    except ArithmeticError:  # ZeroDivisionError, OverflowError
        value = math.nan
    if not math.isfinite(value):
        raise _bad(src, node, f"constant {ast.get_source_segment(src, node)!r} is not finite")
    return value


def _lower(src: str, variables: Sequence[str], affine: bool,
           reads: Optional[set] = None) -> tuple[Callable, Optional[tuple]]:
    """Walk ``src``'s AST once: its closure over a coordinate-major batch and,
    when ``affine``, its form ``([c_i], k)`` while it is affine in
    ``variables`` (else None); the index of each variable read goes into
    ``reads``.  Each node lowers to (closure, form); a folded constant has no
    closure and the form (zeros, value).  A call's arguments are walked
    without forms: no affine expression has a variable in one."""
    names = {name: i for i, name in enumerate(variables)}
    zero = [0.0] * len(names)
    reads = set() if reads is None else reads

    def walk(node, want, levels):  # levels: how much deeper the tree may still nest
        if not levels:
            raise _bad(src, node, f"nested deeper than {_MAX_DEPTH} levels")
        kind = type(node)
        if kind is ast.Constant and type(node.value) in (int, float):
            # a literal has no sign, and one below 1e308 is a finite float
            return None, (zero, float(node.value) if node.value < 1e308
                          else _fold(src, node, float, (node.value,), False))
        if kind is ast.Name:
            if node.id in names:
                i = names[node.id]
                reads.add(i)
                form = ([float(j == i) for j in range(len(zero))], -0.0) if want else None
                return (lambda v, _i=i: v[_i]), form
            if node.id in _CONSTANTS:
                return None, (zero, _CONSTANTS[node.id])
            raise _bad(src, node, f"unknown name {node.id!r} (declared: {sorted(names)})")
        if kind is ast.BinOp:
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise _bad(src, node, f"operator {type(node.op).__name__} not allowed")
            lf, lform = walk(node.left, want, levels - 1)
            rf, rform = walk(node.right, want, levels - 1)
            if lf is None and rf is None:
                return None, (zero, _fold(src, node, op, (lform[1], rform[1]), op is np.power))
            form = lform and rform and _affine(type(node.op), lform, rform)
            if lf is None:
                return (lambda v, _c=lform[1], _r=rf, _op=op: _op(_c, _r(v))), form
            if rf is None:
                return (lambda v, _l=lf, _c=rform[1], _op=op: _op(_l(v), _c)), form
            return (lambda v, _l=lf, _r=rf, _op=op: _op(_l(v), _r(v))), form
        if kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.UAdd):
            f, form = walk(node.operand, want, levels - 1)
            if type(node.op) is ast.USub:
                f, form = f and (lambda v, _f=f: -_f(v)), form and ([-c for c in form[0]], -form[1])
            return f, form
        if kind is ast.Call:
            name = getattr(node.func, "id", None)  # None unless the callee is a plain name
            if name not in _FUNCTIONS or node.keywords:
                raise _bad(src, node, "only positional calls to the function table are allowed")
            fn, n, count = _FUNCTIONS[name], len(node.args), _ARITY.get(name, 1)
            if (n != count) if count else not n:
                raise _bad(src, node, f"{name} takes {count or 'one or more'} argument(s), got {n}")
            args = [walk(a, False, levels - 1) for a in node.args]
            if n == 1 and args[0][0]:  # the common call, of one argument with a variable
                return (lambda v, _fn=fn, _a=args[0][0]: _fn(_a(v))), None
            if not any(f for f, _ in args):
                return None, (zero, _fold(src, node, fn, [form[1] for _, form in args], True))
            fs = [f or (lambda v, _c=form[1]: _c) for f, form in args]
            return (lambda v, _fn=fn, _a=fs: _fn(*[f(v) for f in _a])), None
        raise _bad(src, node, f"{ast.get_source_segment(src, node)!r} is outside the grammar")

    try:
        # ast.parse without its keyword handling, which costs as much as a short walk
        f, form = walk(compile(src, "<expression>", "eval", ast.PyCF_ONLY_AST).body, affine, _MAX_DEPTH)
    except SyntaxError as exc:
        raise ScenarioError(
            f"expression {src!r}: syntax error at line {exc.lineno}, column {exc.offset}") from exc
    except RecursionError:  # too deep for the parser itself (a long sum, say)
        raise ScenarioError(f"expression {src!r}: nested deeper than {_MAX_DEPTH} levels") from None
    body = f or (lambda v, _c=form[1]: _c)

    def compiled(v):
        # a broadcast (stride-0) axis reads as a scalar operand to numpy's
        # loops, which round differently (pow squares an exponent of 2.0);
        # the copy lays the points out as any batch is
        v = np.asarray(v, dtype=float)
        v = v.copy() if 0 in v.strides else v
        with np.errstate(all="ignore"):  # a nan or inf goes on to the checks that name it
            out = body(v)
        return out if np.shape(out) == v.shape[1:] else np.broadcast_to(out, v.shape[1:])

    return compiled, form


def compile_expr(src: str, variables: Sequence[str], reads: Optional[set] = None) -> Callable:
    """Compile ``src`` to a function of a coordinate-major batch ``(n, P)``
    ordered as ``variables``; the index of each variable it reads is added to
    the set ``reads``, when given.  Raises ScenarioError with position info on
    anything outside the grammar, a call with the wrong argument count, or a
    constant subexpression that is not finite."""
    return _lower(src, variables, False, reads)[0]


def affine_form(src: str, variables: Sequence[str]) -> Optional[tuple[np.ndarray, float]]:
    """``src`` as ``c . v + k``: the coefficients c, one per variable, and the
    constant k, when the expression is affine in ``variables``; None otherwise.

    Affine means built from constants, the variables, + and -, unary minus,
    products with one constant side and division by a nonzero constant (a
    side is constant when its coefficients are all zero).  A constant is any
    subexpression without a variable, calls and powers included, folded to
    its value; a call or power of a variable, and anything else, gives None,
    as do non-finite coefficients.  c and k take the expression's own
    operations, so ``x + 1/3`` gives k = 1/3 as the expression rounds it; a
    variable alone has k = -0.0, which adds to any number without changing
    it.  Refuses what ``compile_expr`` refuses, with the same ScenarioError.
    """
    form = _lower(src, variables, True)[1]
    if form is None or not all(map(math.isfinite, form[0] + [form[1]])):
        return None
    return np.array(form[0]), form[1]
