"""Tiny arithmetic-expression compiler for config strings.

Grammar: identifiers are the chart coordinate names of the manifold
(plus ``pi``), operators ``+ - * / ^``, functions ``sin cos exp tanh log``
(``sqrt`` and ``abs`` are accepted as conveniences).  Expressions compile to
vectorized numpy functions of coordinate arrays.
"""

from __future__ import annotations

import ast

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

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def coordinate_names(manifold) -> list[str]:
    """Chart coordinate names used by expressions on this manifold."""
    name = manifold.name
    if name == "circle":
        return ["theta"]
    if name == "torus2":
        return ["theta1", "theta2"]
    if name == "hyperbolic-h2":
        return ["x", "y"]
    if name == "sphere2":
        return ["x", "y", "z"]
    return [f"x{i + 1}" for i in range(manifold.chart_dim)]


def _aliases(names: list[str]) -> dict[str, int]:
    table = {n: i for i, n in enumerate(names)}
    # x, y, z aliases for low-dimensional Cartesian charts
    if names and names[0].startswith("x") and names[0] != "x":
        for alias, i in zip("xyz", range(len(names))):
            table.setdefault(alias, i)
    return table


class ExpressionError(ValueError):
    pass


def compile_expression(source: str, names: list[str]):
    """Compile ``source`` to ``f(coords)`` acting on (..., len(names)) arrays."""
    table = _aliases(names)
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
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
                    f"unknown identifier {node.id!r}; coordinates are {names}"
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
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"function not allowed in {source!r}")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError("functions take exactly one argument")
            fn = _FUNCS[node.func.id]
            arg = build(node.args[0])
            return lambda c: fn(arg(c))
        raise ExpressionError(f"syntax not allowed in {source!r}")

    inner = build(tree)

    def evaluate(coords):
        coords = np.asarray(coords, dtype=float)
        out = inner(coords)
        return np.broadcast_to(np.asarray(out, dtype=float), coords.shape[:-1]).copy()

    evaluate.source = source
    return evaluate


def compile_scalar(source: str, manifold):
    """Scalar function of points on ``manifold``: f(coords (..., cd)) -> (...,)."""
    return compile_expression(source, coordinate_names(manifold))
