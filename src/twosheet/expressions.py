"""Minimal arithmetic expression grammar for scalar fields on space-time.

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | atom
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, sqrt, abs.  Variables: t, x, y, z, standing for the
coordinates x^0..x^3.  Every node knows its analytic derivative (abs
differentiates to sign, which is what the weight fields |Phi| need away from
zeros).

An Expression parses and simplifies its tree once, then compiles it into one
closure of nested numpy operations; calls and constant folding both run that
closure, so there is a single evaluator.  Evaluation is vectorized over numpy
arrays, and division by zero gives inf or nan without a warning.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression", "VARIABLES"]

VARIABLES = ("t", "x", "y", "z")

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

ArrayLike = Union[float, np.ndarray]


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the offending position or point."""


# ---------------------------------------------------------------------------
# tokenizer


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
    """Return (kind, text, position) triples; kinds: num, name, op."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (src[j].isdigit() or src[j] == "." or src[j] in "eE"
                             or (seen_e and src[j] in "+-" and src[j - 1] in "eE")):
                if src[j] in "eE":
                    # only treat as exponent if followed by digit or sign+digit
                    k = j + 1
                    if k < n and src[k] in "+-":
                        k += 1
                    if k >= n or not src[k].isdigit():
                        break
                    seen_e = True
                j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ExpressionError(f"bad numeric literal {src[i:j]!r} at position {i}")
            tokens.append(("num", src[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
        elif c in "+-*/()":
            tokens.append(("op", c, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {c!r} at position {i}")
    return tokens


# ---------------------------------------------------------------------------
# AST: nodes are ('num', v) | ('var', name) | ('call', fname, node)
#                | (op, left, right) for op in '+-*/' | ('neg', node)


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression {self.src!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExpressionError(f"expected {op!r} at position {tok[2]} in {self.src!r}")

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"trailing input at position {tok[2]} in {self.src!r}")
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            node = (tok[1], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            node = (tok[1], node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            inner = self.unary()
            return inner if tok[1] == "+" else ("neg", inner)
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return ("num", float(tok[1]))
        if tok[0] == "name":
            name = tok[1]
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if name not in _FUNCS:
                    raise ExpressionError(
                        f"unknown function {name!r} at position {tok[2]} in {self.src!r}"
                    )
                self.take()
                inner = self.expr()
                self.expect_op(")")
                return ("call", name, inner)
            if name not in VARIABLES:
                raise ExpressionError(
                    f"unknown variable {name!r} at position {tok[2]} in {self.src!r}"
                )
            return ("var", name)
        if tok[0] == "op" and tok[1] == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {tok[1]!r} at position {tok[2]} in {self.src!r}")


def _divide(left, right):
    # scoped: x/0 is inf or nan by design, and pytest makes a RuntimeWarning an error;
    # np.true_divide is `/` on arrays, and on two floats it gives inf/nan, not
    # ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(left, right)


def _compile(node):
    """One closure env -> value for the tree, env indexed like VARIABLES.

    Each node becomes one nested function that runs its node's operation on its
    children's results, in the order a recursive tree walk would, so values are
    bit-identical to walking the tree."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        index = VARIABLES.index(node[1])
        return lambda env: env[index]
    if kind == "neg":
        inner = _compile(node[1])
        return lambda env: -inner(env)
    if kind == "call":
        func, inner = _FUNCS[node[1]], _compile(node[2])
        return lambda env: func(inner(env))
    left, right = _compile(node[1]), _compile(node[2])
    if kind == "+":
        return lambda env: left(env) + right(env)
    if kind == "-":
        return lambda env: left(env) - right(env)
    if kind == "*":
        return lambda env: left(env) * right(env)
    return lambda env: _divide(left(env), right(env))


def _fold(node):
    """The constant node as one number, evaluated by its own closure."""
    return ("num", float(_compile(node)(())))


_ZERO = ("num", 0.0)


def _finite_where_coordinates_are(node) -> bool:
    """True for finite numbers and variables joined by +, - and * alone: such a
    factor u can never turn 0 * u into nan."""
    kind = node[0]
    if kind == "num":
        return math.isfinite(node[1])
    if kind == "var":
        return True
    if kind == "neg":
        return _finite_where_coordinates_are(node[1])
    return kind in ("+", "-", "*") and all(map(_finite_where_coordinates_are, node[1:]))


def _simplify(node):
    """Fold constants and drop additive/multiplicative identities (keeps gradients
    tidy).  0 * u folds to 0 only where u cannot be nan or infinite, and 0 / u
    never does, so a simplified field is nan wherever its written form is."""
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        node = ("neg", _simplify(node[1]))
        return _fold(node) if node[1][0] == "num" else node
    if kind == "call":
        node = ("call", node[1], _simplify(node[2]))
        return _fold(node) if node[2][0] == "num" else node
    left, right = _simplify(node[1]), _simplify(node[2])
    if left[0] == "num" and right[0] == "num":
        return _fold((kind, left, right))
    if kind == "+":
        if left == _ZERO:
            return right
        if right == _ZERO:
            return left
    elif kind == "-":
        if right == _ZERO:
            return left
    elif kind == "*":
        if ((left == _ZERO and _finite_where_coordinates_are(right))
                or (right == _ZERO and _finite_where_coordinates_are(left))):
            return _ZERO
        if left == ("num", 1.0):
            return right
        if right == ("num", 1.0):
            return left
    elif kind == "/":
        if right == ("num", 1.0):
            return left
    return (kind, left, right)


def _derivative(node, var: str):
    """Simplified derivative tree.  A chain-rule or product-rule term whose inner
    derivative simplifies to zero is zero, whatever the factor it multiplies."""
    kind = node[0]
    if kind == "num":
        return _ZERO
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return _simplify(("neg", _derivative(node[1], var)))
    if kind == "call":
        inner, d_inner = node[2], _derivative(node[2], var)
        if d_inner == _ZERO:
            return _ZERO
        name = node[1]
        if name == "sin":
            outer = ("call", "cos", inner)
        elif name == "cos":
            outer = ("neg", ("call", "sin", inner))
        elif name == "exp":
            outer = ("call", "exp", inner)
        elif name == "sqrt":
            outer = ("/", ("num", 0.5), ("call", "sqrt", inner))
        elif name == "abs":
            # sign(u) written as u/|u|; fine away from zeros of u
            outer = ("/", inner, ("call", "abs", inner))
        else:  # pragma: no cover - tokenizer rejects unknown functions
            raise ExpressionError(f"no derivative rule for {name!r}")
        return _simplify(("*", outer, d_inner))
    left, right = node[1], node[2]
    dl, dr = _derivative(left, var), _derivative(right, var)
    if kind in "+-":
        return _simplify((kind, dl, dr))
    dl_right = _ZERO if dl == _ZERO else ("*", dl, right)
    left_dr = _ZERO if dr == _ZERO else ("*", left, dr)
    if kind == "*":
        return _simplify(("+", dl_right, left_dr))
    # quotient rule
    num = _simplify(("-", dl_right, left_dr))
    return _ZERO if num == _ZERO else _simplify(("/", num, ("*", right, right)))


def _render(node) -> str:
    kind = node[0]
    if kind == "num":
        v = node[1]
        return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
    if kind == "var":
        return node[1]
    if kind == "neg":
        return f"(-{_render(node[1])})"
    if kind == "call":
        return f"{node[1]}({_render(node[2])})"
    return f"({_render(node[1])} {kind} {_render(node[2])})"


def _walk(fn, *args):
    """fn(*args) for a recursive tree walker (parser, simplifier, derivative,
    renderer, compiler) or a compiled closure: a tree too deep for the stack is bad
    input."""
    try:
        return fn(*args)
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None


class Expression:
    """A parsed scalar field over the coordinates (t, x, y, z).

    Callable with coordinate arrays; `gradient` stacks the analytic partials.
    """

    def __init__(self, source: str, _node=None):
        self.source = source
        self._node = _walk(lambda: _simplify(_Parser(source).parse() if _node is None else _node))
        self._run = _walk(_compile, self._node)
        self._derivs: Dict[str, "Expression"] = {}

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n) with n the space-time dimension.

        The result is a fresh array: one the closure has just made is returned as is,
        and a scalar, or a view of points (the expression `t`), is copied out."""
        points = np.asarray(points, dtype=float)
        env = tuple(points[..., i] if i < points.shape[-1] else 0.0
                    for i in range(len(VARIABLES)))
        out = _walk(self._run, env)
        if isinstance(out, np.ndarray) and out.base is None:
            return out
        return np.broadcast_to(np.asarray(out, dtype=float), points.shape[:-1]).copy()

    def evaluate(self, **coords: ArrayLike) -> ArrayLike:
        return _walk(self._run, tuple(coords.get(name, 0.0) for name in VARIABLES))

    def derivative(self, var: str) -> "Expression":
        if var not in VARIABLES:
            raise ExpressionError(f"unknown variable {var!r}")
        if var not in self._derivs:
            node = _walk(_derivative, self._node, var)
            self._derivs[var] = Expression(_walk(_render, node), _node=node)
        return self._derivs[var]

    def gradient(self, points: np.ndarray, dimension: int) -> np.ndarray:
        """Stack of coordinate partials, shape (..., dimension)."""
        points = np.asarray(points, dtype=float)
        parts = [self.derivative(VARIABLES[i])(points) for i in range(dimension)]
        return np.stack(parts, axis=-1)

    def is_constant(self) -> bool:
        return self._node[0] == "num"

    def constant_value(self) -> float:
        if not self.is_constant():
            raise ExpressionError(f"{self.source!r} is not constant")
        return self._node[1]

    def __repr__(self) -> str:
        return f"Expression({self.source!r})"


def parse_expression(source: str) -> Expression:
    """Parse `source` against the field grammar; raises ExpressionError with position."""
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("empty expression")
    return Expression(source)
