"""Parser, evaluator, enclosure and slope enclosure of the small function-expression language."""

import math
import operator

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from mpmath import iv
from hypothesis import strategies as st

import solvloop.expressions as ex


def ev(text, **env):
    names = tuple(sorted(env)) if env else ()
    return ex.evaluate(ex.parse(text, names), env)


# ---------------------------------------------------------------- parsing

def test_numbers_and_arithmetic():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2) * 3") == 9.0
    assert ev("7/2") == 3.5
    assert ev("2 - 3 - 4") == -5.0  # left associative
    assert ev("1.5e2") == 150.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("2^-3") == 0.125
    assert ev("(-2)^2") == 4.0


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_variables_and_functions():
    assert ev("x + 2*z", x=1.0, z=3.0) == 7.0
    assert abs(ev("sin(x)^2 + cos(x)^2", x=0.7) - 1.0) < 1e-15
    assert ev("exp(0)") == 1.0
    assert abs(ev("log(exp(2))") - 2.0) < 1e-15
    assert ev("sqrt(abs(-9))") == 3.0
    assert abs(ev("tanh(0.5)") - math.tanh(0.5)) < 1e-15


def test_unknown_variable_rejected_at_parse():
    with pytest.raises(ex.ExpressionError):
        ex.parse("x + q", ("x", "z"))


def test_unknown_function_rejected():
    with pytest.raises(ex.ExpressionError):
        ex.parse("sinh(x)", ("x",))


def test_syntax_error_carries_position():
    with pytest.raises(ex.ExpressionError) as info:
        ex.parse("x + ", ("x",))
    assert "position 4" in str(info.value)
    assert info.value.position == 4


@pytest.mark.parametrize(
    "deepest,deeper,position",
    [
        ("(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, 100),
        ("-" * 99 + "x", "-" * 101 + "x", 100),
        ("+".join(["x"] * 100), "+".join(["x"] * 101), 199),
        ("sin(" * 99 + "x" + ")" * 99, "sin(" * 100 + "x" + ")" * 100, 0),
        ("x^" * 99 + "x", "x^" * 100 + "x", 1),
    ],
    ids=["brackets", "minus-signs", "sums", "calls", "powers"],
)
def test_parse_refuses_what_is_nested_deeper_than_max_depth(deepest, deeper, position):
    # a tree or text nested MAX_DEPTH deep parses, evaluates and encloses
    # with its slope; one level more is an ExpressionError, before the
    # parser or a tree walk runs out of recursion, at the token where the
    # text nests too deep or at the operator of the node that is too deep
    assert ex.MAX_DEPTH == 100
    tree = ex.parse(deepest, ("x",))
    assert math.isfinite(ex.evaluate(tree, {"x": 0.5}))
    (lo, hi), (dlo, dhi) = ex.enclose(tree, {"x": (0.5, 0.5)}, "x")
    assert lo <= ex.evaluate(tree, {"x": 0.5}) <= hi and dlo <= dhi
    with pytest.raises(ex.ExpressionError, match=f"nested deeper than 100 levels at position {position}$"):
        ex.parse(deeper, ("x",))
    with pytest.raises(ex.ExpressionError, match="nested deeper than 100 levels"):
        ex.parse("-" * 3000 + "x", ("x",))


def test_trailing_garbage_rejected():
    with pytest.raises(ex.ExpressionError):
        ex.parse("1 + 2 )", ())


def test_empty_input_rejected():
    with pytest.raises(ex.ExpressionError):
        ex.parse("   ", ())


@pytest.mark.parametrize(
    "text",
    [
        "x + z",
        "x*z + 1",
        "-x + 2*(1 - exp(-2*z))",
        "2^3^2",
        "-2^2",
        "(x + z)^2",
        "sin(x)*cos(z) - tan(x/2)",
        "x/(z + 1)",
        "sqrt(abs(x))",
        "((x) + (z))",
    ],
)
def test_parse_follows_python_precedence(text):
    # the grammar's precedence and associativity are Python's, with ^ for **
    env = {"x": 0.7, "z": -0.3}
    expected = eval(text.replace("^", "**"), dict(ex.FUNCTIONS), dict(env))
    assert ex.evaluate(ex.parse(text, ("x", "z")), env) == expected


# ---------------------------------------------------------------- evaluation

def test_vectorized_evaluation():
    tree = ex.parse("x*z + 1", ("x", "z"))
    xs = np.linspace(-2, 2, 11)
    out = ex.evaluate(tree, {"x": xs, "z": 2.0})
    assert np.abs(out - (2.0 * xs + 1.0)).max() == 0.0


def test_division_by_zero_guarded():
    tree = ex.parse("1/x", ("x",))
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(tree, {"x": 0.0})


def test_missing_environment_entry():
    tree = ex.parse("x + z", ("x", "z"))
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(tree, {"x": 1.0})


def test_power_on_floats_is_a_row_of_power_on_arrays():
    # ^ is numpy's power on floats and arrays alike: every row of an array
    # evaluation equals the float evaluation bit for bit, and both raise
    # exactly where enclose calls the power unknown: a negative base to a
    # finite non-integer exponent, or zero to a negative one
    rng = np.random.default_rng(5)
    n = 20000
    bases = np.concatenate([rng.uniform(-50, 50, n), [0.0, -0.0, 1e-300, -2.0, 2.0, np.inf, -np.inf, np.nan]])
    exponents = np.concatenate([rng.uniform(-20, 20, n), [-1.0, -0.5, 400.0, 0.5, -3.0, 2.0, 3.0, 1.0]])
    exponents[: n // 3] = np.round(exponents[: n // 3])  # integers
    exponents[n // 3 : n // 2] = np.round(exponents[n // 3 : n // 2]) + 0.5
    tree = ex.parse("x^y", ("x", "y"))
    raising = ((bases < 0) & np.isfinite(exponents) & (np.floor(exponents) != exponents)) | (
        (bases == 0) & (exponents < 0)
    )
    assert raising.sum() > 1000 and (~raising).sum() >= 10_000
    with np.errstate(all="ignore"):
        array = ex.evaluate(tree, {"x": bases[~raising], "y": exponents[~raising]})
        for b, e, value in zip(bases[~raising].tolist(), exponents[~raising].tolist(), array.tolist()):
            single = ex.evaluate(tree, {"x": b, "y": e})
            assert np.float64(single).tobytes() == np.float64(value).tobytes(), (b, e)
        for b, e in zip(bases[raising].tolist(), exponents[raising].tolist()):
            with pytest.raises(ex.EvaluationError):
                ex.evaluate(tree, {"x": b, "y": e})
            lo, hi = ex.enclose(tree, {"x": (b, b), "y": (e, e)})
            assert (lo, hi) == (-math.inf, math.inf), (b, e)
        with pytest.raises(ex.EvaluationError):
            ex.evaluate(tree, {"x": bases, "y": exponents})


# ---------------------------------------------------------------- enclosure

_LEAVES = st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 1e-3, 40.0, 1e300]).map(ex.Const) | st.sampled_from(
    ["x", "y"]
).map(ex.Var)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        sub.map(ex.Neg),
        st.builds(ex.Call, st.sampled_from(sorted(ex.FUNCTIONS)), sub),
        st.builds(ex.BinOp, st.sampled_from("+-*/^"), sub, sub),
    ),
    max_leaves=6,
)
_ENDS = st.floats(-30, 30) | st.sampled_from(
    [0.0, -1.0, 1.0, math.pi / 2, 1e-300, -1e-300, 5e-324, 700.0, 1e10, 2.0**21, -1e300]
)


def _box_points(a, b, fractions):
    """The ends, linspace nodes and the given interior fractions of [a, b]."""
    inner = [a + f * (b - a) for f in fractions]
    return np.clip(np.array([a, b, *np.linspace(a, b, 9), *inner]), a, b)


@settings(max_examples=400)
@given(tree=_TREES, x=st.tuples(_ENDS, _ENDS), y=st.tuples(_ENDS, _ENDS),
       fractions=st.lists(st.floats(0, 1), max_size=6))
def test_enclose_contains_every_computed_value(tree, x, y, fractions):
    # wherever the enclosure is known, evaluation raises nothing and every
    # float it computes on the box (corners, linspace nodes, random
    # interior points) lies inside
    (xa, xb), (ya, yb) = sorted(x), sorted(y)
    lo, hi = ex.enclose(tree, {"x": ([xa, 0.0], [xb, 0.0]), "y": ([ya, 0.0], [yb, 0.0])})
    assert lo.shape == hi.shape == (2,)
    for (a, b, c, d), low, high in zip([(xa, xb, ya, yb), (0.0, 0.0, 0.0, 0.0)], lo, hi):
        if low == -math.inf and high == math.inf:
            continue
        xs, ys = (g.ravel() for g in np.meshgrid(_box_points(a, b, fractions), _box_points(c, d, fractions)))
        values = np.broadcast_to(ex.as_function(tree, ("x", "y"))(xs, ys), xs.shape)
        assert np.all((low <= values) & (values <= high)), (repr(tree), low, high)


@settings(max_examples=400)
@given(tree=_TREES, x=st.tuples(_ENDS, _ENDS), y=st.tuples(_ENDS, _ENDS),
       fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_a_point_without_a_finite_enclosure_leaves_none_to_its_boxes(tree, x, y, fractions):
    # enclosures are inclusion-isotone: where a point of a box has no
    # finite enclosure, the box has none either, so numerics.root_rows may
    # fail a row at once on a midpoint without a finite enclosure; the box
    # and the point are enclosed in one stacked call, as root_rows does
    (xa, xb), (ya, yb) = sorted(x), sorted(y)
    px, py = (min(max(a * (1 - f) + b * f, a), b) for (a, b), f in zip([(xa, xb), (ya, yb)], fractions))
    lo, hi = ex.enclose(tree, {"x": ([xa, px], [xb, px]), "y": ([ya, py], [yb, py])})
    finite = np.isfinite(lo) & np.isfinite(hi)
    assert finite[1] or not finite[0], (repr(tree), (xa, xb, px), (ya, yb, py), lo, hi)


def test_an_overflowing_operand_leaves_its_boxes_no_finite_enclosure():
    # found by the property above: exp overflows at the point 1e10, so
    # 0/exp(x) was unknown there, while on [0, 1e10] exp gave [1, inf] and
    # the quotient the finite [0, 0]; an infinite bound makes both unknown
    lo, hi = ex.enclose(ex.parse("0/exp(x)", ("x",)), {"x": ([0.0, 1e10], [1e10, 1e10])})
    assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2


_POINTS = _ENDS | st.sampled_from([-0.0, -5e-324, math.inf, -math.inf, math.nan])


def _constants_as_variables(node, points: dict):
    """node with each constant c replaced by the variable repr(c), bound in points to (c, c)."""
    if isinstance(node, ex.Const):
        points[repr(node.value)] = (node.value, node.value)
        return ex.Var(repr(node.value))
    if isinstance(node, ex.Var):
        return node
    return type(node)(*(_constants_as_variables(v, points) if isinstance(v, tuple) else v for v in node))


@settings(max_examples=400)
@given(tree=_TREES, c=_POINTS, op=st.sampled_from("+-*/^"), first=st.booleans(),
       x=st.tuples(_POINTS, _POINTS), y=st.tuples(_POINTS, _POINTS))
def test_a_constant_encloses_as_its_point_box(tree, c, op, first, x, y):
    # a constant is enclosed as one shared value, so c*X takes the two
    # products of c and the ends of X, not the four of the corners of the
    # point box (c, c) and X: the enclosures are the same bit for bit, on
    # boxes with signed zeros, subnormals, infinities and NaN ends
    assume(tree != ex.Const(c))  # c*c would be enclosed as a square
    node = ex.BinOp(op, *((ex.Const(c), tree) if first else (tree, ex.Const(c))))
    points: dict = {}
    variables = _constants_as_variables(node, points)
    boxes = {"x": ([x[0], 0.0], [x[1], 0.0]), "y": ([y[0], -0.0], [y[1], 1.0])}
    got = ex.enclose(node, boxes)
    expected = ex.enclose(variables, {**boxes, **points})
    assert [v.tobytes() for v in got] == [v.tobytes() for v in expected], repr(node)


@pytest.mark.parametrize(
    "text,x,expected",
    [
        ("1/x", (-1.0, 1.0), None),  # the division guard may fire
        ("1/(x - 1)", (1.0, 2.0), None),
        ("tan(x)", (1.5, 1.6), None),  # a pole
        ("log(x)", (0.0, 1.0), None),
        ("sqrt(x)", (-1e-3, 1.0), None),
        ("x^0.5", (0.0, 1.0), None),
        ("x^-1", (-1.0, 1.0), None),
        ("(-8)^(1/3) + x", (0.0, 1.0), None),  # evaluate raises
        ("10^400 + x", (0.0, 1.0), None),  # overflows to inf
        ("exp(1000*x) - exp(1000*x)", (0.0, 1.0), None),  # inf - inf
        ("x^2", (-1.0, 2.0), (0.0, 4.0)),
        ("x^3", (-1.0, 2.0), (-1.0, 8.0)),
        ("sin(x)", (0.0, math.pi), (0.0, 1.0)),
        ("cos(x)", (1.0, 5.0), (-1.0, math.cos(1.0))),
        ("abs(x) + 2^3", (-3.0, 1.0), (8.0, 11.0)),
        ("exp(-x)", (math.inf, math.inf), (0.0, 0.0)),
        ("sin(x)", (1e7, 1e7 + 1), (-1.0, 1.0)),
        ("expm1(x)", (-800.0, -40.0), (-1.0, -1.0)),  # saturates at -1
        ("expm1(x)", (-1e-10, 1e-10), (math.expm1(-1e-10), math.expm1(1e-10))),
        ("expm1(x)", (710.0, 800.0), None),  # overflows beyond 709.78
    ],
)
def test_enclose_edges(text, x, expected):
    lo, hi = (float(v) for v in ex.enclose(ex.parse(text, ("x",)), {"x": x}))
    if expected is None:
        assert (lo, hi) == (-math.inf, math.inf)
    else:
        assert lo <= expected[0] and expected[1] <= hi
        assert expected[0] - lo <= 1e-12 * max(1.0, abs(lo)) and hi - expected[1] <= 1e-12 * max(1.0, abs(hi))


@pytest.mark.parametrize("box", [(math.nan, math.nan), (-math.inf, math.inf)])
def test_a_nan_or_unknown_operand_gives_no_finite_enclosure(box):
    # every operator and function, on either side: so a NaN column that a
    # tree reads leaves it no finite enclosure on any box (numpy's NaN^0
    # and 1^NaN are 1, but the enclosure does not know that)
    x = ex.Var("x")
    others = [ex.Const(v) for v in (0.0, 1.0, -1.5, 2.0)] + [ex.Var("u")]
    trees = [x, ex.Neg(x)] + [ex.Call(fn, x) for fn in ex.FUNCTIONS]
    trees += [ex.BinOp(op, *pair) for op in "+-*/^" for y in others for pair in ((x, y), (y, x))]
    for tree in trees:
        lo, hi = ex.enclose(tree, {"x": box, "u": (1.0, 2.0)})
        assert not (np.isfinite(lo) and np.isfinite(hi)), tree


# The exact ranges, enclosed by mpmath's interval arithmetic at 120 bits.
# mpmath can overestimate a range (iv.expm1 gives [0, ...] on
# [4.4e-167, 1e-10], iv.tan about [-0.78, 0.42] on [2^20 - 1, 2^20], where
# tan rises from -0.78 to 0.35), so an increasing function's range runs from
# its value at the lower end to its value at the upper one, each enclosed
# on a point; so does tan's, where mpmath finds it finite (no pole).  tanh,
# which mpmath.iv lacks, is expm1(2x)/(expm1(2x) + 2) there.
def _increasing(fn):
    return lambda x: iv.mpf([fn(x.a).a, fn(x.b).b])


def _iv_tan(x):
    whole = iv.tan(x)
    if math.isinf(float(whole.a)) or math.isinf(float(whole.b)):
        return whole
    return _increasing(iv.tan)(x)


_IV_FUNCTIONS = {
    "exp": _increasing(iv.exp),
    "expm1": _increasing(iv.expm1),
    "log": _increasing(iv.log),
    "sin": iv.sin,
    "cos": iv.cos,
    "tan": _iv_tan,
    "tanh": _increasing(lambda p: iv.expm1(2 * p) / (iv.expm1(2 * p) + 2)),
    "sqrt": _increasing(iv.sqrt),
    "abs": iv.fabs,
}
_IV_OPERATORS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    # an integer point exponent is a power of x, which may be negative
    "^": lambda x, y: x ** int(y.a) if y.a == y.b and y.a == int(y.a) else x ** y,
}
assert set(_IV_FUNCTIONS) == set(ex.FUNCTIONS)


def _holds_exact_range(tree, boxes, exact):
    """Whether enclose of tree on boxes is unknown or holds exact, mpmath's range on the same boxes."""
    lo, hi = (float(v) for v in ex.enclose(tree, boxes))
    if lo == -math.inf and hi == math.inf:
        return True
    precision = iv.prec
    iv.prec = 120
    try:
        ranges = exact(*(iv.mpf(list(box)) for box in boxes.values()))
    except (ValueError, ZeroDivisionError):  # mpmath declines a range that the enclosure bounded
        return False
    finally:
        iv.prec = precision
    return lo <= ranges.a and ranges.b <= hi


_EDGE_BOXES = [
    (math.pi / 2 - 1e-12, math.pi / 2 + 1e-12),  # a maximum of sin
    (math.pi - 1e-9, math.pi),  # a minimum of cos, up to pi's rounding
    (-math.pi / 2 - 1e-15, -math.pi / 2),
    (3 * math.pi / 2 - 1e-3, 3 * math.pi / 2 + 1e-3),
    (math.pi / 2 - 1e-6, math.pi / 2 - 1e-8),  # just below a pole of tan
    (1.0, math.pi + 1.2),  # across a pole of tan, though tan(1.0) < tan(pi + 1.2)
    (-math.pi / 2 + 1e-8, -math.pi / 2 + 1e-3),
    (5e-324, 1e-310),  # subnormal bounds
    (-1e-310, 5e-324),
    (-5e-324, 0.0),
    (2.0**20 - 1.0, 2.0**20),  # the end of sin's and cos's argument range
    (2.0**20 - 1e-6, 2.0**20 + 1e-6),
    (-(2.0**20) - 3.0, -(2.0**20) + 3.0),
    (1.0, 1.0),
    (0.5, 3.0),
    (-2.0, 3.0),
]


@pytest.mark.parametrize("fn", sorted(ex.FUNCTIONS))
@pytest.mark.parametrize("box", _EDGE_BOXES)
def test_enclose_holds_the_exact_range_of_every_function_at_edges(fn, box):
    assert _holds_exact_range(ex.Call(fn, ex.Var("x")), {"x": box}, _IV_FUNCTIONS[fn])


@pytest.mark.parametrize("op", list(_IV_OPERATORS))
@pytest.mark.parametrize("x", _EDGE_BOXES[7:])
@pytest.mark.parametrize("y", [(2.0, 2.0), (-3.0, -3.0), (0.5, 0.5), (-1e-310, 5e-324), (0.25, 3.5), (-2.0, 1e-300)])
def test_enclose_holds_the_exact_range_of_every_operator_at_edges(op, x, y):
    tree = ex.BinOp(op, ex.Var("x"), ex.Var("y"))
    assert _holds_exact_range(tree, {"x": x, "y": y}, _IV_OPERATORS[op])


@pytest.mark.parametrize(
    "text,square,box",
    [
        *(("t*t", lambda t: t**2, box) for box in [
            (-2.0, 3.0), (-3.0, 2.0), (-1e-310, 5e-324), (-5e-324, 0.0), (-1e200, 1e-300),
            (-1e300, 1e300),
        ]),
        ("(t - 1)*(t - 1)", lambda t: (t - 1) ** 2, (0.0, 3.0)),
    ],
)
def test_enclose_takes_a_product_of_one_subtree_as_its_square(text, square, box):
    # evaluate gives both factors one value, so across 0 the product is no
    # lower than 0, where independent factors would give -|lo|*hi
    tree = ex.parse(text, ("t",))
    assert _holds_exact_range(tree, {"t": box}, square)
    lo, hi = (float(v) for v in ex.enclose(tree, {"t": box}))
    assert -1e-300 < lo <= 0.0 or (lo, hi) == (-math.inf, math.inf)


_MAGNITUDES = st.sampled_from([1e-300, 1e-10, 1e-3, 1.0, 10.0, 700.0, 1e6, 2.0**20, 1e300])
_BOXES = st.builds(
    lambda s, a, b: tuple(sorted((s * a, s * b))), _MAGNITUDES, st.floats(-3, 3), st.floats(-3, 3)
)


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(ex.FUNCTIONS) + list(_IV_OPERATORS)), x=_BOXES, y=_BOXES)
def test_enclose_holds_the_exact_range_on_random_boxes(name, x, y):
    # an independent oracle: mpmath's interval arithmetic at 120 bits
    if name in ex.FUNCTIONS:
        tree, boxes, exact = ex.Call(name, ex.Var("x")), {"x": x}, _IV_FUNCTIONS[name]
    else:
        tree, boxes, exact = ex.BinOp(name, ex.Var("x"), ex.Var("y")), {"x": x, "y": y}, _IV_OPERATORS[name]
    assert _holds_exact_range(tree, boxes, exact)


@given(st.floats(allow_nan=False) | st.sampled_from([5e-324, -5e-324, 2.0**-1022, 1.0, 2.0, -0.5]))
def test_outward_rounding_moves_at_least_one_ulp(v):
    with np.errstate(all="ignore"):
        lo, hi = ex._outward(np.float64(v), np.float64(v))
        if math.isinf(v):  # an interval of one infinity is unknown
            assert (lo, hi) == (-math.inf, math.inf)
        else:
            assert lo <= np.nextafter(v, -math.inf) and np.nextafter(v, math.inf) <= hi


# ---------------------------------------------------------------- slopes

_SYMBOLS = {"x": sympy.Symbol("x", real=True), "y": sympy.Symbol("y", real=True)}
_SYMPY_FUNCTIONS = {
    "exp": sympy.exp, "expm1": lambda a: sympy.exp(a) - 1, "log": sympy.log, "sin": sympy.sin,
    "cos": sympy.cos, "tan": sympy.tan, "tanh": sympy.tanh, "sqrt": sympy.sqrt, "abs": sympy.Abs,
}


_SYMPY_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _sympy(node):
    """The tree as an exact sympy expression: every constant is the rational of its float."""
    if isinstance(node, ex.Const):
        return sympy.Rational(node.value)
    if isinstance(node, ex.Var):
        return _SYMBOLS[node.name]
    if isinstance(node, ex.Neg):
        return -_sympy(node.operand)
    if isinstance(node, ex.Call):
        return _SYMPY_FUNCTIONS[node.fn](_sympy(node.arg))
    return _SYMPY_OPERATORS[node.op](_sympy(node.left), _sympy(node.right))


@pytest.mark.parametrize(
    "text",
    [
        # every operator, with the variable on either side and on both
        "x + y^2", "y - x", "-x*y", "x*x*y", "x/y", "y/x", "x/(x + y)",
        "x^3", "x^0.5", "x^-2", "x^y", "y^x", "x^x", "2^x", "x^1", "x^0",
        # every FUNCTIONS entry, applied to an inner function of x
        *(f"{fn}(x*y + 2)" for fn in sorted(ex.FUNCTIONS)),
        "abs(x*y - 2)", "sin(cos(x)^2)*exp(-x/y)",
    ],
)
def test_derivative_agrees_with_sympy(text):
    # sympy differentiates its own copy of the tree; at point boxes on
    # three points, the slope holds sympy's derivative there, evaluated to
    # 40 digits at the exact rational of each float, and is a few ulps of
    # max(1, |slope|) wide: every node rounds it outward, a function by 17
    # ulps (176 at most on these trees)
    tree = ex.parse(text, ("x", "y"))
    assert set(ex.FUNCTIONS) == set(_SYMPY_FUNCTIONS)
    theirs = sympy.diff(_sympy(tree), _SYMBOLS["x"])
    for x, y in [(0.3, 0.7), (0.9, 1.3), (1.7, 0.4)]:
        _, (lo, hi) = ex.enclose(tree, {"x": (x, x), "y": (y, y)}, "x")
        lo, hi = float(lo), float(hi)
        exact = theirs.evalf(40, subs={_SYMBOLS["x"]: sympy.Rational(x), _SYMBOLS["y"]: sympy.Rational(y)})
        assert lo <= exact <= hi, (text, lo, exact, hi)
        assert hi - lo <= 512 * math.ulp(max(1.0, abs(lo), abs(hi))), (text, lo, hi)


@settings(max_examples=200, deadline=None)
@given(tree=_TREES, x=st.tuples(_ENDS, _ENDS), y=st.tuples(_ENDS, _ENDS),
       fractions=st.lists(st.fractions(0, 1, max_denominator=7), max_size=2))
def test_a_finite_slope_holds_sympys_derivative_on_its_box(tree, x, y, fractions):
    # wherever the enclosures of a tree that reads x and of its slope in x
    # on a box are finite, sympy's exact derivative lies in the slope at
    # the box's corners and at interior rational points, each evaluated to
    # 40 digits at exact rationals (a subtree free of x has the slope 0 even
    # where it is unknown, as in x + log(0))
    assume("Var(name='x')" in repr(tree))
    (xa, xb), (ya, yb) = sorted(x), sorted(y)
    value, (lo, hi) = ex.enclose(tree, {"x": (xa, xb), "y": (ya, yb)}, "x")
    lo, hi = float(lo), float(hi)
    assume(np.isfinite(value).all() and math.isfinite(lo) and math.isfinite(hi))
    theirs = sympy.diff(_sympy(tree), _SYMBOLS["x"])
    ends = [(sympy.Rational(a), sympy.Rational(b)) for a, b in ((xa, xb), (ya, yb))]
    inner = [sympy.Rational(f.numerator, f.denominator) for f in fractions]
    points = [(a + f * (b - a)) for a, b in ends for f in [sympy.Integer(0), sympy.Integer(1), *inner]]
    for px in points[: len(points) // 2]:
        for py in points[len(points) // 2 :]:
            exact = theirs.evalf(40, subs={_SYMBOLS["x"]: px, _SYMBOLS["y"]: py}, maxn=400)
            assert lo <= exact <= hi, (repr(tree), (xa, xb), (ya, yb), px, py, lo, exact, hi)


def test_derivative_folds_zero_terms_and_unit_factors():
    # a subtree free of x has the slope 0 and costs nothing, and x has the
    # slope 1, which multiplies exactly: x*y has y's box as its slope, and
    # x - 2*y the point 1; the value is the one enclose gives without wrt
    boxes = {"x": (np.array([0.5, -2.0]), np.array([1.5, 3.0])),
             "y": (np.array([0.1, -7.0]), np.array([0.3, 1e300]))}
    for text, expected in [
        ("3*y + sin(y)", [[0.0, 0.0], [0.0, 0.0]]),
        ("x*y", [[0.1, -7.0], [0.3, 1e300]]),
        ("x - 2*y", [[1.0, 1.0], [1.0, 1.0]]),
    ]:
        tree = ex.parse(text, ("x", "y"))
        value, slope = ex.enclose(tree, boxes, "x")
        assert [v.tolist() for v in slope] == expected, text
        assert [v.tobytes() for v in value] == [v.tobytes() for v in ex.enclose(tree, boxes)], text


def test_slopes_of_abs_and_of_a_zeroth_power_are_exact():
    # abs has the slope sign(x) on a box off 0 and none on one that reaches
    # 0 (it was enclosed as x/|x|, [0.5, 2] on [1, 2]); x^0 is constant,
    # so its slope is 0 also on a box across 0 (it was unknown there)
    def slope(text, box):
        return tuple(float(v) for v in ex.enclose(ex.parse(text, ("x",)), {"x": box}, "x")[1])

    assert slope("abs(x)", (1.0, 2.0)) == (1.0, 1.0)
    assert slope("abs(x)", (-2.0, -1.0)) == (-1.0, -1.0)
    assert slope("abs(x)", (-1.0, 2.0)) == slope("abs(x)", (0.0, 2.0)) == (-math.inf, math.inf)
    assert slope("x^0", (-1.0, 2.0)) == (0.0, 0.0)
    assert slope("x^0", (1.0, 2.0)) == (0.0, 0.0)
