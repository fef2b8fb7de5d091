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

import functools
import math
from typing import NamedTuple, Sequence, Union

import numpy as np


class ExpressionError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvaluationError(ArithmeticError):
    pass


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Node"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


class Call(NamedTuple):
    fn: str
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]

FUNCTIONS = {
    "exp": np.exp,
    "expm1": np.expm1,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_OPERATORS = "+-*/^()"


class _Token(NamedTuple):
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
    whole evaluation; overflow and invalid operations give inf and NaN.  A
    call that raises EvaluationError raises it again naming the first
    input row (in the order of the broadcast arguments) at which the
    evaluation raises, as in "... at z = 0.0" or "... at (x, z) = (1.0, 0.0)".
    """
    variables = tuple(variables)

    def fn(*args):
        with np.errstate(all="ignore"):
            try:
                return evaluate(node, dict(zip(variables, args)))
            except EvaluationError as err:
                raise EvaluationError(f"{err}{_raising_row(node, variables, args)}") from None

    return fn


def _raising_row(node: Node, variables: tuple, args) -> str:
    """' at <variables> = <values>' naming the first row of args at which node raises, or ''.

    A call on scalars raised at its arguments; the rows of array arguments
    are evaluated one by one, in the order of the broadcast.
    """
    row = args
    if any(np.ndim(arg) for arg in args):
        for row in zip(*(np.ravel(column) for column in np.broadcast_arrays(*args))):
            try:
                evaluate(node, dict(zip(variables, row)))
            except EvaluationError:
                break
        else:
            return ""
    names, values = ", ".join(variables), ", ".join(repr(float(v)) for v in row)
    return f" at {names} = {values}" if len(row) == 1 else f" at ({names}) = ({values})"


def evaluate(node: Node, env: dict):
    """Evaluate over floats or numpy arrays; only division and power are guarded.

    Division raises EvaluationError where |denominator| < 1e-300.  ^ is
    numpy's power on floats and arrays alike, so a float evaluation is
    bit for bit a row of an array one, and it raises EvaluationError where
    a negative base has a finite non-integer exponent or a zero base a
    negative one (enclose calls those powers unknown).

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
        if np.any((left < 0) & np.isfinite(right) & (np.floor(right) != right)):
            raise EvaluationError("negative base to a fractional power")
        if np.any((left == 0) & (right < 0)):
            raise EvaluationError("zero to a negative power")
        # numpy's power loop differs in the last bit between an operand of
        # stride 0 (a scalar) and a contiguous one, so both operands are
        # copied to contiguous arrays of one shape, of one row for floats
        shape = np.broadcast_shapes(np.shape(left), np.shape(right))
        base, exponent = (np.array(np.broadcast_to(v, shape or (1,)), dtype=float) for v in (left, right))
        power = np.power(base, exponent)
        return power if shape else power[0]
    raise ValueError(f"unknown operator {node.op!r}")


# ------------------------------------------------------- interval enclosure

# Ulps by which a FUNCTIONS entry's float64 result may differ from the exact
# value, as enclose assumes it.  sqrt is correctly rounded and abs exact.
# Measured against glibc's math module over 10^6 arguments on an x86-64
# machine with AVX-512 (numpy 2.4.6, whose exp and log there are SIMD
# kernels), no kernel was off by more than 3 ulps of its result (tanh; exp,
# expm1, log, tan and power 1, sin and cos 0).
FUNCTION_ULPS = 8
# |arguments| beyond which sin and cos are bounded by [-1, 1] and tan is unknown.
_TRIG_RANGE = 2.0**20
# fn -> (c, pi): sin and cos have their maxima at c + pi*k for even k and
# their minima there for odd k; tan has its poles at c + pi*k.
_PERIODIC = {"sin": (math.pi / 2, math.pi), "cos": (0.0, math.pi), "tan": (math.pi / 2, math.pi)}


def _outward(lo, hi, known=True, ulps: float = 0.0):
    """[lo, hi] widened outward by ulps ulps of each bound and then one more.

    Each bound b moves by (|b| * 2^-52 + 2^-1074) * (ulps + 1): |b| * 2^-52
    is at least one ulp of a normal b and 2^-1074 one ulp of a subnormal
    one, so b moves by at least one np.nextafter step, and by at least
    ulps + 1/2 ulps after rounding, at a tenth of np.nextafter's cost.
    Where known is False or a bound is NaN or infinite, the result is
    unknown.  An infinite bound is not let through: 1/x would then be the
    finite [0, 1] on [1, inf], but unknown on the point inf inside it, whose
    outward rounding is NaN, and enclosures would not be inclusion-isotone.
    """
    step, tiny = 2.0**-52 * (ulps + 1), 2.0**-1074 * (ulps + 1)
    lo = lo - (np.abs(lo) * step + tiny)
    hi = hi + (np.abs(hi) * step + tiny)
    ok = known & (lo <= hi) & np.isfinite(lo) & np.isfinite(hi)
    if not ok.all():
        lo, hi = np.where(ok, lo, -np.inf), np.where(ok, hi, np.inf)
    return lo, hi


def _is_known(box) -> np.ndarray:
    """False where the box is unknown or has a NaN bound (NaN^0 and 1^NaN are 1)."""
    return (box[0] <= box[1]) & ~((box[0] == -np.inf) & (box[1] == np.inf))


def _turns(lo, hi, start: float, half: float):
    """The least and greatest k for which start + half*k may lie in [lo, hi].

    The range is widened by 1e-9 plus a relative 1e-12 of k, far beyond the
    rounding of the arithmetic, so it never misses such a point; it is
    empty (first > last) where there is none.
    """
    tlo, thi = (lo - start) / half, (hi - start) / half
    margin = 1e-9 + 1e-12 * np.maximum(np.abs(tlo), np.abs(thi))
    return np.ceil(tlo - margin), np.floor(thi + margin)


def _enclose_call(fn: str, box):
    lo, hi = box
    known = _is_known(box)
    if fn == "abs":
        return _outward(
            np.where(lo >= 0, lo, np.where(hi <= 0, -hi, 0.0)),
            np.where(lo >= 0, hi, np.maximum(-lo, hi)),
            known,
        )
    if fn in ("log", "sqrt"):
        known = known & (lo > 0 if fn == "log" else lo >= 0)
    fn_lo, fn_hi = FUNCTIONS[fn](lo), FUNCTIONS[fn](hi)
    ulps = 0.0 if fn == "sqrt" else 2 * FUNCTION_ULPS
    if fn not in _PERIODIC:  # monotone increasing
        return _outward(fn_lo, fn_hi, known, ulps)
    known = known & np.isfinite(lo) & np.isfinite(hi)
    near = known & (np.maximum(np.abs(lo), np.abs(hi)) <= _TRIG_RANGE)
    first, last = _turns(lo, hi, *_PERIODIC[fn])
    if fn == "tan":  # increasing between poles
        return _outward(fn_lo, fn_hi, near & (first > last), ulps)
    # maxima at even k, minima at odd k
    single = first == last
    even = first % 2 == 0
    top = ~near | (first < last) | (single & even)
    bottom = ~near | (first < last) | (single & ~even)
    return _outward(
        np.where(bottom, -1.0, np.minimum(fn_lo, fn_hi)),
        np.where(top, 1.0, np.maximum(fn_lo, fn_hi)),
        known,
        ulps,
    )


def _extremes(ends: list):
    """Elementwise least and greatest of the arrays ends; NaN wherever one is NaN."""
    return functools.reduce(np.minimum, ends), functools.reduce(np.maximum, ends)


def _products(left, right, op):
    """The extremes of op over the corners of two boxes; a point box has one corner."""
    return _extremes([op(a, b) for a in _corners(left) for b in _corners(right)])


def _corners(box):
    return box[:1] if box[0] is box[1] else box


def _enclose_power(base, exponent):
    blo, bhi = base
    elo, ehi = exponent
    known = _is_known(base) & _is_known(exponent)
    integer = (elo == ehi) & (np.abs(elo) <= 2.0**20) & (np.floor(elo) == elo)
    # x^n for an integer n is monotone on either side of 0, and n < 0 has a
    # pole there; for x > 0, x^y is monotone in x and in y, so the corners
    # of the box hold its extremes
    across = (blo < 0) & (bhi > 0)
    known &= np.where(integer, ~((elo < 0) & (blo <= 0) & (bhi >= 0)), blo > 0)
    ends = [np.power(b, e) for b in (blo, bhi) for e in (elo, ehi)]
    ends.append(np.where(integer & across & (elo > 0), 0.0, ends[0]))
    lo, hi = _extremes(ends)
    one = integer & (elo == 0)  # x^0 is 1 for every x
    return _outward(
        np.where(one, 1.0, lo), np.where(one, 1.0, hi), known, 2 * FUNCTION_ULPS
    )


def enclose(node: Node, boxes: dict) -> tuple[np.ndarray, np.ndarray]:
    """Outward-rounded interval evaluation of node over numpy arrays of boxes.

    boxes maps every variable to a pair (lo, hi) of floats or arrays, all
    broadcastable together; box i is made of the i-th intervals.  Returns
    arrays (lo, hi) such that, on every point of box i, `evaluate` of node
    raises nothing and its float result lies in [lo[i], hi[i]].  A box on
    which that cannot be proved gets (-inf, inf), "unknown": its results
    may be NaN, and the division guard may raise.  Unknown costs a caller
    time, never a wrong answer.  Bounds are proved as follows:

      * + - * / are correctly rounded and monotone, so their results lie
        between the results at the ends; every bound is then moved at
        least one ulp outward (see _outward).  A quotient is unknown
        wherever the denominator may be below 1e-300 in magnitude (where
        the guard of `evaluate` raises), and any operation is unknown where
        it may give NaN (inf - inf, 0 * inf, inf / inf).  A product of two
        identical subtrees is enclosed as their square, x^2 below, since
        evaluate gives both factors one value.
      * Every FUNCTIONS entry except abs and sqrt is assumed to be within
        FUNCTION_ULPS = 8 ulps of the exact result (see FUNCTION_ULPS), so
        its bounds are widened by twice that and one ulp.  exp, expm1,
        log, tanh and sqrt are increasing; log is unknown where x <= 0,
        and sqrt where x < 0.
      * sin and cos take the values at the ends, or -1 and 1 where the box
        may contain a minimum or maximum (found with a wide margin); tan is
        unknown where the box may contain a pole.  Beyond |x| = 2^20, sin
        and cos give [-1, 1] and tan is unknown.
      * x^n for an integer constant n is bounded piecewise (unknown across
        0 for n < 0); any other power needs x > 0 and takes the extremes of
        the box's corners.  These rules also make unknown every power
        at which evaluate raises (0 to a negative power, a negative number
        to a fractional one) and overflow, since an interval with an
        infinite bound is unknown.
      * An operand that is unknown or has a NaN bound makes the result of
        every operator and function unknown (NaN^0 and 1^NaN included,
        which numpy calls 1), and negation keeps it so; a NaN value of a
        variable that node reads thus gives node no finite enclosure on
        any box.
    """
    with np.errstate(all="ignore"):
        lo, hi = _enclose(node, boxes)
    shape = np.broadcast_shapes(*(np.shape(b) for box in boxes.values() for b in box))
    return tuple(v if np.shape(v) == shape else np.broadcast_to(v, shape) for v in (lo, hi))


def _enclose(node: Node, boxes: dict):
    if isinstance(node, Const):  # a point box of one shared value: one corner (see _corners)
        return (np.float64(node.value),) * 2
    if isinstance(node, Var):
        try:
            lo, hi = boxes[node.name]
        except KeyError:
            raise EvaluationError(f"no value bound for variable '{node.name}'") from None
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if isinstance(node, Neg):
        lo, hi = _enclose(node.operand, boxes)
        return -hi, -lo
    if isinstance(node, Call):
        return _enclose_call(node.fn, _enclose(node.arg, boxes))
    left = _enclose(node.left, boxes)
    if node.op == "*" and node.left == node.right:  # evaluate gives both factors one value
        return _enclose_power(left, _enclose(Const(2.0), boxes))
    right = _enclose(node.right, boxes)
    if node.op == "+":
        return _outward(left[0] + right[0], left[1] + right[1])
    if node.op == "-":
        return _outward(left[0] - right[1], left[1] - right[0])
    if node.op == "*":
        return _outward(*_products(left, right, np.multiply))
    if node.op == "/":
        guard = (right[0] >= 1e-300) | (right[1] <= -1e-300)
        return _outward(*_products(left, right, np.divide), guard)
    if node.op == "^":
        return _enclose_power(left, right)
    raise ValueError(f"unknown operator {node.op!r}")


def substitute(node: Node, trees: dict) -> Node:
    """node with every variable named in trees replaced by its tree."""
    if isinstance(node, Var):
        return trees.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.operand, trees))
    if isinstance(node, Call):
        return Call(node.fn, substitute(node.arg, trees))
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, trees), substitute(node.right, trees))
    return node


# ------------------------------------------------------------ derivatives

_ZERO, _ONE = Const(0.0), Const(1.0)


def _is(node: Node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _plus(a: Node, b: Node) -> Node:
    return b if _is(a, 0.0) else a if _is(b, 0.0) else BinOp("+", a, b)


def _minus(a: Node, b: Node) -> Node:
    return a if _is(b, 0.0) else Neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _times(a: Node, b: Node) -> Node:
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else BinOp("*", a, b)


def _over(a: Node, b: Node) -> Node:
    return _ZERO if _is(a, 0.0) else a if _is(b, 1.0) else BinOp("/", a, b)


def _power(a: Node, b: Node) -> Node:
    return _ONE if _is(b, 0.0) else a if _is(b, 1.0) else BinOp("^", a, b)


# fn -> its derivative at the argument u, as a tree over u
_CHAIN = {
    "exp": lambda u: Call("exp", u),
    "expm1": lambda u: Call("exp", u),
    "log": lambda u: _over(_ONE, u),
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: BinOp("+", _ONE, BinOp("^", Call("tan", u), Const(2.0))),
    "tanh": lambda u: BinOp("-", _ONE, BinOp("^", Call("tanh", u), Const(2.0))),
    "sqrt": lambda u: _over(_ONE, BinOp("*", Const(2.0), Call("sqrt", u))),
    "abs": lambda u: _over(u, Call("abs", u)),
}


def derivative(node: Node, var: str) -> Node:
    """The symbolic derivative of node in the variable var, one rule per operator.

    Terms that are zero and factors that are one are folded away, so a
    subtree free of var costs nothing.  Where the derivative is not defined
    (abs and sqrt at 0, a pole), its tree divides by zero there, and
    enclose calls it unknown.
    """
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        d = derivative(node.operand, var)
        return _ZERO if _is(d, 0.0) else Neg(d)
    if isinstance(node, Call):
        return _times(_CHAIN[node.fn](node.arg), derivative(node.arg, var))
    u, v = node.left, node.right
    du, dv = derivative(u, var), derivative(v, var)
    if node.op == "+":
        return _plus(du, dv)
    if node.op == "-":
        return _minus(du, dv)
    if node.op == "*":
        return _plus(_times(du, v), _times(u, dv))
    if node.op == "/":
        if _is(dv, 0.0):
            return _over(du, v)
        return _over(_minus(_times(du, v), _times(u, dv)), BinOp("^", v, Const(2.0)))
    if node.op == "^":
        if _is(dv, 0.0):  # v u^(v - 1) u'
            less = Const(v.value - 1.0) if isinstance(v, Const) else BinOp("-", v, _ONE)
            return _times(_times(v, _power(u, less)), du)
        # u^v (v' log u + v u'/u)
        inner = _plus(_times(dv, Call("log", u)), _times(v, _over(du, u)))
        return _times(node, inner)
    raise ValueError(f"unknown operator {node.op!r}")
