"""A small arithmetic expression language for user-supplied section functions.

Grammar (usual precedence, power binds tightest and associates right):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | VARIABLE | FUNCTION '(' expr ')' | '(' expr ')'

so "-2^2" is -(2^2) and "2^3^2" is 2^(3^2).  Variable names are restricted
per call site (two-argument functions use x and z, three-argument ones
x, y and z).  Evaluation works on floats and elementwise on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Node",
    "ExpressionError",
    "EvaluationError",
    "FUNCTIONS",
    "parse",
    "as_function",
    "evaluate",
    "to_text",
]


class ExpressionError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvaluationError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_OPERATORS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", an operator character, or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_exp = False
            while j < n:
                d = text[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_exp and j + 1 < n and (
                    text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
                ):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"malformed number '{text[i:j]}'", i) from None
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character '{c}'", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.variables = tuple(variables)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected '{kind}'", tok.pos)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function '{tok.text}' (available: {', '.join(sorted(FUNCTIONS))})",
                        tok.pos,
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg)
            if tok.text not in self.variables:
                allowed = ", ".join(self.variables)
                raise ExpressionError(
                    f"unknown identifier '{tok.text}' (allowed variables: {allowed})", tok.pos
                )
            return Var(tok.text)
        raise ExpressionError("syntax error", tok.pos)


def parse(text: str, variables: Sequence[str]) -> Node:
    """Parse text into an expression tree over the given variable names."""
    parser = _Parser(_tokenize(text), variables)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionError("syntax error", tail.pos)
    return node


def as_function(node: Node, variables: Sequence[str]):
    """node as a function of the variables, bound positionally.

    numpy's floating-point warnings are silenced once per call, for the
    whole evaluation; overflow and invalid operations give inf and NaN.
    """
    variables = tuple(variables)

    def fn(*args):
        with np.errstate(all="ignore"):
            return evaluate(node, dict(zip(variables, args)))

    return fn


def evaluate(node: Node, env: dict):
    """Evaluate over floats or numpy arrays; only division is guarded (|denominator| >= 1e-300).

    numpy's floating-point error state is the caller's; as_function
    silences its warnings.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvaluationError(f"no value bound for variable '{node.name}'") from None
    if isinstance(node, Neg):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](evaluate(node.arg, env))
    left = evaluate(node.left, env)
    right = evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(np.abs(right) < 1e-300):
            raise EvaluationError("division by (near-)zero denominator")
        return left / right
    if node.op == "^":
        return left**right
    raise ValueError(f"unknown operator {node.op!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def to_text(node: Node) -> str:
    """Pretty-print with minimal parentheses; parse(to_text(t)) == t for parsed trees.

    Hand-built trees holding negative Const literals reparse to the
    equivalent Neg form instead.
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _prec(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    left = to_text(node.left)
    right = to_text(node.right)
    prec = _PREC[node.op]
    if node.op == "^":
        # power: left must be an atom; the exponent slot reparses anything down to unary
        if _prec(node.left) <= 4:
            left = f"({left})"
        if _prec(node.right) < 3:
            right = f"({right})"
    else:
        if _prec(node.left) < prec:
            left = f"({left})"
        if _prec(node.right) <= prec:
            right = f"({right})"
    return f"{left} {node.op} {right}"
