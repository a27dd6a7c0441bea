"""Tiny arithmetic-expression compiler for config strings.

Grammar: identifiers are the chart coordinate names of the manifold
(``Manifold.coord_names``, plus ``pi``), operators ``+ - * / ^``, functions
``sin cos exp tanh log`` (``sqrt`` and ``abs`` are accepted as conveniences).
Expressions compile to vectorized numpy functions of coordinate arrays.

``compile_partials`` differentiates the parsed tree symbolically: one rule
per operator (sum, difference, product, quotient, power, unary minus) and per
function builds the derivative as a new tree, and the literals 0 and 1 fold
away as it is built (``0*u`` is 0, ``1*u`` and ``u^1`` are ``u``), so a term
that does not depend on the coordinate costs nothing.  Each partial compiles
through the same ``build`` as the expression.  The derivative of ``abs`` is
``sign``, a function only partials may call.
"""

from __future__ import annotations

import ast
from typing import Sequence

import numpy as np

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

# the functions a partial may call: a source cannot name ``sign``
_PARTIAL_FUNCS = {**_FUNCS, "sign": np.sign}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _aliases(names: Sequence[str]) -> dict[str, int]:
    table = {n: i for i, n in enumerate(names)}
    # x, y, z aliases for low-dimensional Cartesian charts
    if names and names[0].startswith("x") and names[0] != "x":
        for alias, i in zip("xyz", range(len(names))):
            table.setdefault(alias, i)
    return table


class ExpressionError(ValueError):
    pass


def _parse(source: str) -> ast.AST:
    try:
        return ast.parse(source.replace("^", "**"), mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc}") from exc


def _builder(source: str, names: Sequence[str], table: dict[str, int], funcs: dict):
    """``build(node)``: the numpy closure of a tree, refusing what the grammar does not allow."""

    def build(node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant in {source!r}")
            val = float(node.value)
            return lambda c: val
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return lambda c: np.pi
            if node.id not in table:
                raise ExpressionError(
                    f"unknown identifier {node.id!r}; coordinates are {list(names)}"
                )
            i = table[node.id]
            return lambda c: c[..., i]
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ExpressionError(f"operator not allowed in {source!r}")
            left, right = build(node.left), build(node.right)
            return lambda c: op(left(c), right(c))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = build(node.operand)
                return lambda c: -operand(c)
            if isinstance(node.op, ast.UAdd):
                return build(node.operand)
            raise ExpressionError(f"operator not allowed in {source!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in funcs:
                raise ExpressionError(f"function not allowed in {source!r}")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError("functions take exactly one argument")
            fn = funcs[node.func.id]
            arg = build(node.args[0])
            return lambda c: fn(arg(c))
        raise ExpressionError(f"syntax not allowed in {source!r}")

    return build


def _vectorized(inner, source: str):
    """``evaluate(coords)``, a fresh ``coords.shape[:-1]`` array of ``inner(coords)``.

    ``evaluate.inner`` is the bare closure: a float coordinate array in, an
    array or (for a literal) a float out, for callers that write it into an
    array of their own.
    """

    def evaluate(coords):
        coords = np.asarray(coords, dtype=float)
        out = inner(coords)
        return np.broadcast_to(np.asarray(out, dtype=float), coords.shape[:-1]).copy()

    evaluate.source = source
    evaluate.inner = inner
    return evaluate


def compile_expression(source: str, names: Sequence[str]):
    """Compile ``source`` to ``f(coords)`` acting on (..., len(names)) arrays."""
    build = _builder(source, names, _aliases(names), _FUNCS)
    return _vectorized(build(_parse(source)), source)


# -- symbolic partials -------------------------------------------------------------


def _num(value: float) -> ast.Constant:
    return ast.Constant(float(value))


def _is(node, value: float) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _neg(a):
    if isinstance(a, ast.Constant):
        return _num(-a.value)
    if isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub):
        return a.operand
    return ast.UnaryOp(ast.USub(), a)


def _add(a, b):
    if _is(a, 0):
        return b
    if _is(b, 0):
        return a
    return ast.BinOp(a, ast.Add(), b)


def _sub(a, b):
    if _is(b, 0):
        return a
    if _is(a, 0):
        return _neg(b)
    return ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _num(0)
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    return ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    if _is(a, 0):
        return _num(0)
    if _is(b, 1):
        return a
    return ast.BinOp(a, ast.Div(), b)


def _pow(a, b):
    if _is(b, 0):
        return _num(1)
    if _is(b, 1):
        return a
    return ast.BinOp(a, ast.Pow(), b)


def _call(name: str, a):
    return ast.Call(ast.Name(name, ast.Load()), [a], [])


def _derivative(node, table: dict[str, int], j: int):
    """The tree of d node / d x_j (``node`` already accepted by ``build``)."""

    def d(n):
        return _derivative(n, table, j)

    if isinstance(node, ast.Constant):
        return _num(0)
    if isinstance(node, ast.Name):
        return _num(1 if node.id != "pi" and table[node.id] == j else 0)
    if isinstance(node, ast.UnaryOp):
        return _neg(d(node.operand)) if isinstance(node.op, ast.USub) else d(node.operand)
    if isinstance(node, ast.BinOp):
        a, b = node.left, node.right
        da, db = d(a), d(b)
        op = type(node.op)
        if op is ast.Add:
            return _add(da, db)
        if op is ast.Sub:
            return _sub(da, db)
        if op is ast.Mult:
            return _add(_mul(da, b), _mul(a, db))
        if op is ast.Div:
            if _is(db, 0):
                return _div(da, b)
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        if _is(db, 0):  # a^b = b a^(b-1) a'
            b1 = _num(b.value - 1) if isinstance(b, ast.Constant) else _sub(b, _num(1))
            return _mul(_mul(b, _pow(a, b1)), da)
        # a^b (b' log a + b a' / a)
        return _mul(node, _add(_mul(db, _call("log", a)), _div(_mul(b, da), a)))
    # a call of one of the seven functions
    u = node.args[0]
    du = d(u)
    if _is(du, 0):
        return du
    name = node.func.id
    if name == "sin":
        return _mul(_call("cos", u), du)
    if name == "cos":
        return _neg(_mul(_call("sin", u), du))
    if name == "exp":
        return _mul(node, du)
    if name == "tanh":
        return _mul(_sub(_num(1), _pow(node, _num(2))), du)
    if name == "log":
        return _div(du, u)
    if name == "sqrt":
        return _div(du, _mul(_num(2), node))
    return _mul(_call("sign", u), du)  # abs


def compile_partials(source: str, names: Sequence[str]) -> list:
    """``[d f/d names[j] for j]`` of ``f = compile_expression(source, names)``.

    Refuses what ``compile_expression`` refuses.  A partial that folds to a
    literal returns it broadcast over the rows.
    """
    table = _aliases(names)
    tree = _parse(source)
    _builder(source, names, table, _FUNCS)(tree)
    build = _builder(source, names, table, _PARTIAL_FUNCS)
    return [
        _vectorized(build(_derivative(tree, table, j)), f"d({source})/d{name}")
        for j, name in enumerate(names)
    ]


def compile_scalar(source: str, manifold):
    """Scalar function of points on ``manifold``: f(coords (..., cd)) -> (...,)."""
    return compile_expression(source, manifold.coord_names)
