"""Root finding and the saturating-exponential fit."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import solvloop as sl
from solvloop import expressions as ex
from solvloop import numerics
from solvloop.numerics import root_rows

from conftest import per_row


# ---------------------------------------------------------------- 1-D roots

def bisect(fn, lo, hi, tol=1e-12):
    """Standard bisection on a bracketing interval; returns the midpoint at width tol.

    Where adjacent doubles are more than tol apart (|root| beyond about
    8.8e3 at tol = 1e-12), it stops when the midpoint equals an end.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("interval does not bracket a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles wider than tol
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class _Traced:
    """numpy-style arithmetic on u that records an expression tree.

    A test function written for numpy arrays, such as
    lambda x: np.cos(np.pi * x), returns its tree over u when called on
    _Traced(ex.Var("u")): numpy's ufuncs call the method of their name on
    such an object.  The same function evaluated on np.linspace is the
    test's own reference.
    """

    def __init__(self, node):
        self.node = node

    def _op(op, swap=False):
        def method(self, other):
            pair = (self.node, _node(other))
            return _Traced(ex.BinOp(op, *(pair[::-1] if swap else pair)))

        return method

    __add__, __radd__ = _op("+"), _op("+", swap=True)
    __sub__, __rsub__ = _op("-"), _op("-", swap=True)
    __mul__, __rmul__ = _op("*"), _op("*", swap=True)
    __truediv__, __rtruediv__ = _op("/"), _op("/", swap=True)
    __pow__ = _op("^")

    def __neg__(self):
        return _Traced(ex.Neg(self.node))

    def sin(self):
        return _Traced(ex.Call("sin", self.node))

    def cos(self):
        return _Traced(ex.Call("cos", self.node))

    def sqrt(self):
        return _Traced(ex.Call("sqrt", self.node))


def _node(value):
    return value.node if isinstance(value, _Traced) else ex.Const(float(value))


def _tree(fn):
    return fn(_Traced(ex.Var("u"))).node


def root1d(fn, interval):
    """All roots of one numpy-style function, raising its error.

    root_rows and narrow_roots on one row; each root is the midpoint of its
    narrowed box, as in loops.loop_rdiv_batch.
    """
    tree = _tree(fn)
    (boxes,) = per_row(root_rows(tree, {}, [interval[0]], [interval[1]]), 1)
    if isinstance(boxes, ValueError):
        raise boxes
    if not boxes:
        return []
    lo, hi = numerics.narrow_roots(tree, {}, *zip(*boxes))
    return (0.5 * (lo + hi)).tolist()


def test_bisect_simple_root():
    r = bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-14)
    assert abs(r - math.sqrt(2.0)) < 1e-12


def test_root1d_sine_roots():
    roots = root1d(np.sin, (-10.0, 10.0))
    assert len(roots) == 7
    for r, k in zip(roots, range(-3, 4)):
        assert abs(r - k * math.pi) < 1e-9


def test_root1d_exact_grid_zero():
    # the first halving of [-1, 1] ends a box at the root 0; both boxes
    # share it and only [0, 0.25) counts it, as the exact zero at its lower end
    roots = root1d(lambda x: x * (x - 0.75) * (x + 0.75), (-1.0, 1.0))
    assert roots == [-0.75, 0.0, 0.75]
    # an exact zero at the window's upper end counts, and one at its lower end
    assert root1d(lambda x: x - 1.0, (0.0, 1.0)) == [1.0]
    assert root1d(lambda x: x - 1.0, (1.0, 2.0)) == [1.0]


def test_root1d_no_roots():
    assert root1d(lambda x: x * x + 1.0, (-5.0, 5.0)) == []


def test_root1d_quadratic_two_roots():
    roots = root1d(lambda x: (x - 0.5) * (x + 0.25), (-1.0, 1.0))
    assert len(roots) == 2
    assert abs(roots[0] + 0.25) < 1e-10 and abs(roots[1] - 0.5) < 1e-10


def test_root1d_rejects_nonfinite_values():
    # NaN beyond 0.5: no box across it is excluded or decided
    fn = lambda x: (x - 0.25) * np.sqrt(0.5 - x) / np.sqrt(0.5 - x)
    with pytest.raises(ValueError, match="unresolved"):
        root1d(fn, (0.0, 1.0))
    assert root1d(fn, (0.0, 0.4)) == [0.25]


def _linspace_roots(fn, interval, resolution):
    """The roots a plain sign-change count sees on np.linspace nodes.

    Every node where fn is an exact zero, and the middle of every cell whose
    end values differ in sign.
    """
    xs = np.linspace(interval[0], interval[1], resolution + 1)
    ys = np.asarray(fn(xs), dtype=float)
    changes = ys[:-1] * ys[1:] < 0
    return sorted([*xs[ys == 0.0].tolist(), *(0.5 * (xs[:-1] + xs[1:]))[changes].tolist()])


@pytest.mark.parametrize(
    "fn,interval,resolution",
    [
        (np.sin, (-10.0, 10.0), 10000),
        (lambda x: x**3 - 0.25 * x, (-1.0, 1.0), 10000),
        (lambda x: np.cos(np.pi * x), (0.0, 4.0), 4),
        (lambda x: (x - 0.25) * (x + 0.5) * x, (-1.0, 1.0), 8),
        (lambda x: x - 2.0 * np.sin(x) - 0.3, (-10.0, 10.0), 2048),
    ],
)
def test_root1d_matches_cell_loop_reference(fn, interval, resolution):
    # the proof finds every root a sign-change count finds, each within a
    # cell of it
    got = root1d(fn, interval)
    expected = _linspace_roots(fn, interval, resolution)
    cell = (interval[1] - interval[0]) / resolution
    assert len(got) == len(expected)
    assert all(abs(g - e) <= cell for g, e in zip(got, expected))


def test_root1d_grid_zero_between_sign_changes():
    # x = 0.5 is the first halving point and an exact zero; the roots at
    # 0.1 and 0.9 lie inside boxes
    fn = lambda x: (x - 0.1) * (x - 0.5) * (x - 0.9)
    roots = root1d(fn, (0.0, 1.0))
    assert len(roots) == 3
    assert roots[1] == 0.5
    assert abs(roots[0] - 0.1) < 1e-12 and abs(roots[2] - 0.9) < 1e-12


def test_root1d_adjacent_cells_each_bracket_a_root():
    roots = root1d(lambda x: np.cos(np.pi * x), (0.0, 4.0))
    assert len(roots) == 4
    for r, k in zip(roots, range(4)):
        assert abs(r - (k + 0.5)) < 1e-11


def test_root1d_counts_roots_closer_than_1e9():
    # roots 7e-10 apart are two roots: there is no grid and no merge
    close = lambda x: (x - 0.5e-9) * (x - 1.2e-9)
    assert len(root1d(close, (0.0, 4e-9))) == 2
    apart = lambda x: (x - 0.5e-9) * (x - 2.5e-9)
    assert len(root1d(apart, (0.0, 4e-9))) == 2


def test_root1d_circle_line_two_roots():
    # the circle x^2 + y^2 = 1 restricted to the line (x, y) = u*(1, 1)
    roots = root1d(lambda u: 2.0 * u * u - 1.0, (-2.0, 2.0))
    s = math.sqrt(0.5)
    assert len(roots) == 2
    assert abs(roots[0] + s) < 1e-9 and abs(roots[1] - s) < 1e-9


def test_root1d_rejects_a_sign_change_across_a_pole():
    # no box across the pole at 0.3 has a finite enclosure
    with pytest.raises(ValueError, match="unresolved"):
        root1d(lambda x: 1.0 / (x - 0.3), (0.0, 1.0))
    # a steep genuine root still counts
    assert len(root1d(lambda x: 1e9 * (x - 0.3), (0.0, 1.0))) == 1


def test_root1d_tangential_and_triple_roots_are_unresolved():
    # the derivative vanishes at the root, so no box there is decided; the
    # proof cannot tell these from two or three close roots
    for fn in (lambda x: (x - 0.3) * (x - 0.3), lambda x: x * x * x):
        with pytest.raises(ValueError, match="unresolved"):
            root1d(fn, (-1.0, 1.0))


@st.composite
def _batch(draw, width):
    """A tree over u and columns, and 1-12 rows of column values.

    The tree is c*prod(u - r_k) over degree roots, for a pole kind divided
    by (u - s), for a NaN kind times sqrt(s - u)/sqrt(s - u), which is NaN
    beyond s; every root and s lie in [-width, width].
    """
    degree = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["poly"] * 3 + ["pole", "nan"]))
    tree = ex.Var("c")
    for k in range(degree):
        tree = ex.BinOp("*", tree, ex.BinOp("-", ex.Var("u"), ex.Var(f"r{k}")))
    if kind == "pole":
        tree = ex.BinOp("/", tree, ex.BinOp("-", ex.Var("u"), ex.Var("s")))
    if kind == "nan":
        root = ex.Call("sqrt", ex.BinOp("-", ex.Var("s"), ex.Var("u")))
        tree = ex.BinOp("*", tree, ex.BinOp("/", root, root))
    value = st.floats(-width, width, allow_subnormal=False) | st.integers(-8, 8).map(lambda k: width * k / 8)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        roots = draw(st.lists(value, min_size=degree, max_size=degree, unique=True))
        c = draw(st.sampled_from([1.0, -2.5, 1e-3, 40.0]))
        rows.append({"c": c, "s": draw(value), **{f"r{k}": r for k, r in enumerate(roots)}})
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return tree, kind, rows, columns


@settings(max_examples=60)
@given(
    data=st.data(),
    block_points=st.integers(1, 200),
    # beyond about 8.8e3 adjacent doubles are farther apart than tol = 1e-12
    width=st.sampled_from([1.0, 2e4, 1e6, 1e12]),
)
def test_root_rows_equals_root1d_and_scalar_bisect(data, block_points, width):
    # rows batched together, in blocks of any size, give exactly what each
    # gives alone; a resolved row has one proved box per root, each holding
    # it, and a pole or a NaN on the window is never resolved; narrowed, each
    # box still holds its root and is at most 1e-12 or 8 ulps of the root
    # wide (outward rounding leaves one or two ulps on either side of a root
    # that is a double: 4 ulps, 1.8e-12, at 3072), and its midpoint is within
    # 1e-12 plus half its width of bisect's root on the proved box where the
    # float residual changes sign across it
    tree, kind, rows, columns = data.draw(_batch(width))
    n = len(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "MAX_BOXES", 256)  # unresolved rows end sooner
        alone = [
            per_row(root_rows(tree, {k: v[i : i + 1] for k, v in columns.items()}, [-width], [width]), 1)[0]
            for i in range(n)
        ]
        patch.setattr(numerics, "BLOCK_POINTS", block_points)
        batch = per_row(root_rows(tree, columns, [-width] * n, [width] * n), n)
    assert repr(batch) == repr(alone)
    for row, got in zip(rows, batch):
        roots = sorted(v for k, v in row.items() if k.startswith("r"))
        if kind != "poly":
            assert isinstance(got, ValueError) and str(got).startswith("unresolved")
            continue
        if min(np.diff(roots).tolist(), default=math.inf) < 1e-4 * width:
            # roots this close may be unresolved
            assert not isinstance(got, ValueError) or str(got).startswith("unresolved")
            continue
        assert not isinstance(got, ValueError), got
        assert len(got) == len(roots)
        assert all(a < r < b for (a, b), r in zip(got, roots))
        if not got:
            continue
        cols = {k: np.full(len(got), v) for k, v in row.items()}
        lo, hi = numerics.narrow_roots(tree, cols, *zip(*got))
        assert (lo <= roots).all() and (roots <= hi).all()
        fn = lambda x, row=row: float(ex.evaluate(tree, {"u": x, **row}))
        for (a, b), r, mid, w in zip(got, roots, 0.5 * (lo + hi), hi - lo):
            assert w <= max(1e-12, 8 * math.ulp(r))
            if abs(r) <= 8e3 and fn(a) * fn(b) < 0:
                assert abs(mid - bisect(fn, a, b)) <= 1e-12 + w / 2


def test_root_rows_skips_nodes_whose_sign_an_enclosure_proves(monkeypatch):
    # the u-derivative is enclosed only on boxes whose residual enclosure
    # holds 0: u*u + 1 encloses as u^2 + 1, to [1, 26] on [-5, 5], which
    # excludes the window at once, and a line's root is proved on its first box
    u = ex.Var("u")
    no_root = ex.BinOp("+", ex.BinOp("*", u, u), ex.Const(1.0))
    boxes = _enclosed(monkeypatch, no_root)
    assert per_row(root_rows(no_root, {}, [-5.0], [5.0]), 1) == [[]]
    assert boxes == {"residual": 2, "slope": 0}
    line = ex.BinOp("-", u, ex.Const(0.3))
    boxes = _enclosed(monkeypatch, line)
    ((a, b),) = per_row(root_rows(line, {}, [-1.0], [1.0]), 1)[0]
    assert a < 0.3 < b and b - a < 1e-15
    assert boxes == {"residual": 2, "slope": 1}


def test_root_rows_never_misplaces_a_root_whose_residual_underflows():
    # (-0.5)*(-5e-324) rounds to 0, so the root 5e-324 and the split point 0
    # of [-1, 1] have the same float residual; the proof holds the root
    (got,) = per_row(root_rows(ex.parse("(u - 0.5)*(u - 5e-324)", ("u",)), {}, [-1.0], [1.0]), 1)
    assert len(got) == 2
    (a, b), (c, d) = got
    assert a < 5e-324 < b and c < 0.5 < d
    assert (a, b) != (0.0, 0.0)


def test_root_rows_names_a_window_too_wide_for_floats():
    # hi - lo overflows: the window is at fault, not the function
    (got,) = per_row(root_rows(ex.Call("sin", ex.Var("u")), {}, [-1e308], [1e308]), 1)
    assert isinstance(got, ValueError)
    assert str(got) == "window [-1e+308, 1e+308] is wider than the largest float"


def test_root_rows_budget_ends_an_unresolved_row(monkeypatch):
    # a tangential root is split until its row has enclosed MAX_BOXES boxes,
    # then fails: its midpoints have finite enclosures, so it is not retired
    tree = ex.parse("(u - 1.5)^2", ("u",))
    boxes = _enclosed(monkeypatch, tree)
    monkeypatch.setattr(numerics, "MAX_BOXES", 100)
    (got,) = per_row(root_rows(tree, {}, [1.0], [2.0]), 1)
    assert str(got) == "unresolved: no exclusion or monotonicity proof near u = 1.5 after 105 boxes"
    assert boxes["residual"] // 2 == 105


def test_an_unresolved_row_counts_the_boxes_it_enclosed(monkeypatch):
    # the double root at 1 leaves a box too narrow to halve in round 19,
    # long before the budget ends: the error says 145 boxes, not 1000
    tree = ex.parse("(u-1)*(u-1)", ("u",))
    boxes = _enclosed(monkeypatch, tree)
    (got,) = per_row(root_rows(tree, {}, [0.0], [3.0]), 1)
    assert str(got) == "unresolved: no exclusion or monotonicity proof near u = 1 after 145 boxes"
    assert boxes["residual"] // 2 == 145


def test_root_rows_retires_a_row_with_an_unknown_midpoint_at_once(monkeypatch):
    # sqrt(-u) is unknown at the midpoint of [1, 2], and so on every box
    # that holds it: the row fails in its first round, and says why
    tree = ex.Call("sqrt", ex.Neg(ex.Var("u")))
    boxes = _enclosed(monkeypatch, tree)
    (got,) = per_row(root_rows(tree, {}, [1.0], [2.0]), 1)
    assert str(got) == "unresolved: no finite enclosure near u = 1"
    assert boxes == {"residual": 2, "slope": 0}


def test_root_rows_drops_the_roots_of_a_row_that_runs_out_of_boxes(monkeypatch):
    # both rows prove their root at 0.25 (twice: the split point 0.25 is a
    # root); row 0 then spends its budget on the tangential root at s = 0.75:
    # it keeps its error and no entries; row 1, with s beyond the window,
    # keeps the root
    tree = ex.parse("(u - 0.25)*(u - s)^2", ("u", "s"))
    proved = []
    sort_boxes = numerics._sort_boxes

    def spied(tree, newton, columns, a, b):
        out = sort_boxes(tree, newton, columns, a, b)
        proved.extend(columns["s"][out[5]].tolist())
        return out

    monkeypatch.setattr(numerics, "_sort_boxes", spied)
    monkeypatch.setattr(numerics, "MAX_BOXES", 100)
    rows, a, b, errors = root_rows(tree, {"s": np.array([0.75, 2.0])}, [0.0, 0.0], [1.0, 1.0])
    assert proved.count(0.75) == 2 and proved.count(2.0) == 2
    assert rows.tolist() == [1] and a[0] < 0.25 < b[0]
    assert list(errors) == [0]
    assert str(errors[0]) == "unresolved: no exclusion or monotonicity proof near u = 0.75 after 104 boxes"


@pytest.mark.parametrize("block_points", [2, numerics.BLOCK_POINTS])
def test_root_rows_mixed_batch_equals_one_row_calls(monkeypatch, block_points):
    # rows of every outcome in one batch, in blocks of any size, give what
    # each gives alone: one root, two roots (one at the first split point 0,
    # proved in two overlapping boxes and counted once), none, a NaN
    # column, a window too wide for floats, an empty window
    tree = ex.parse("(u - c)*(u - d)", ("u", "c", "d"))
    c = np.array([0.3, 0.0, 3.0, math.nan, -0.5, 0.3])
    d = np.array([5.0, 0.75, 5.0, 0.5, 0.5, 5.0])
    lo = np.array([-1.0, -1.0, -1.0, -1.0, -1e308, 1.0])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 1e308, 1.0])
    alone = [
        per_row(root_rows(tree, {"c": c[i : i + 1], "d": d[i : i + 1]}, lo[i : i + 1], hi[i : i + 1]), 1)[0]
        for i in range(6)
    ]
    monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
    rows, a, b, errors = found = root_rows(tree, {"c": c, "d": d}, lo, hi)
    batch = per_row(found, 6)
    assert repr(batch) == repr(alone)
    assert np.bincount(rows, minlength=6).tolist() == [1, 2, 0, 0, 0, 0]
    assert a[0] < 0.3 < b[0] and a[1] < 0.0 < b[1] and a[2] < 0.75 < b[2]
    assert {r: str(e) for r, e in errors.items()} == {
        3: "unresolved: no finite enclosure near u = -1",
        4: "window [-1e+308, 1e+308] is wider than the largest float",
        5: "interval needs lo < hi",
    }


def _right_division_rows(n):
    """(tree, columns, m1, line): n case-C right divisions of sin-small, rows of one line residual."""
    spec = sl.SectionSpec("C", sl.GroupParam(2.0), sl.FunctionSpec.preset("sin-small", 3))
    rng = np.random.default_rng(5)
    m1, m2 = (sl.LoopPoint(*rng.uniform(-5, 5, (2, n)), rng.uniform(-0.5, 0.5, n)) for _ in "12")
    line = sl.sections.right_translation_system(spec, m2, sl.loops.loop_mul(spec, m1, m2))
    return (*sl.sections.line_residual_rows(line, np.arange(n)), m1, line)


def _enclosed(monkeypatch, residual):
    """Boxes enclosed from now on: of the tree residual (a box and its midpoint
    count 2) and of the Newton operator, which encloses the slope."""
    boxes = {"residual": 0, "slope": 0}
    enclose = ex.enclose

    def counted(tree, env):
        boxes["residual" if tree is residual else "slope"] += np.size(env["u"][0])
        return enclose(tree, env)

    monkeypatch.setattr(ex, "enclose", counted)
    return boxes


def test_root_rows_fails_a_row_that_reads_a_nan_column_at_once(monkeypatch):
    # only the window and its midpoint are enclosed: the midpoint has no
    # finite enclosure, and the error says so, not that the budget was
    # spent, as it does for a row that no box resolves; a NaN column that
    # the tree does not read is ignored
    boxes = []
    enclose = ex.enclose

    def counted(tree, env):
        boxes.append(np.size(env["u"][0]))
        return enclose(tree, env)

    monkeypatch.setattr(ex, "enclose", counted)
    # every point of the window is a root of u - u, so no box is settled
    (budgeted,) = per_row(root_rows(ex.BinOp("-", ex.Var("u"), ex.Var("u")), {}, [1.0], [2.0]), 1)
    assert sum(boxes) >= numerics.MAX_BOXES
    assert str(budgeted) == "unresolved: no exclusion or monotonicity proof near u = 1 after 1017 boxes"
    boxes.clear()
    tree = ex.BinOp("-", ex.Var("u"), ex.Var("c"))
    (got,) = per_row(root_rows(tree, {"c": np.array([math.nan]), "d": np.array([1.0])}, [1.0], [2.0]), 1)
    assert type(got) is type(budgeted)
    assert str(got) == "unresolved: no finite enclosure near u = 1"
    assert boxes == [2]
    ((a, b),) = per_row(root_rows(tree, {"c": np.array([1.5]), "d": np.array([math.nan])}, [1.0], [2.0]), 1)[0]
    assert a < 1.5 < b


def test_narrow_roots_takes_one_step_per_right_division(monkeypatch):
    # 500 case-C right divisions on the window [-10, 10]: root_rows proves
    # every root in its first round, and one interval Newton step centred
    # on the float Newton iterate narrows each proved box to 1e-12: one
    # enclosure of the residual and one of the Newton operator per row
    tree, columns, m1, line = _right_division_rows(500)
    boxes = _enclosed(monkeypatch, tree)
    found = per_row(root_rows(tree, columns, np.full(500, -10.0), np.full(500, 10.0)), 500)
    assert boxes == {"residual": 1000, "slope": 500}
    boxes.update(residual=0, slope=0)
    lo, hi = numerics.narrow_roots(tree, columns, *np.array([roots[0] for roots in found]).T)
    assert (hi - lo <= 1e-12).all()
    assert (abs(0.5 * (lo + hi) - (m1.x - line.base[0])) <= 1e-10).all()
    assert boxes["residual"] <= 500 and boxes["slope"] <= 500


def test_refined_right_divisions_agree_with_brentq():
    # an independent oracle: scipy's brentq on root_rows' proved box lies in
    # the narrowed box, at most 1e-14 wide (a few ulps of the root, as the
    # step is centred on the float Newton iterate), up to brentq's own
    # tolerance
    tree, columns, _, _ = _right_division_rows(500)
    found = per_row(root_rows(tree, columns, np.full(500, -10.0), np.full(500, 10.0)), 500)
    assert all(len(roots) == 1 for roots in found)
    (a, b) = np.array([roots[0] for roots in found]).T
    lo, hi = numerics.narrow_roots(tree, columns, a, b)
    assert (hi - lo <= 1e-14).all()
    for i in range(500):
        row = {name: col[i] for name, col in columns.items()}
        fn = lambda u: float(ex.evaluate(tree, {"u": u, **row}))
        brent = optimize.brentq(fn, a[i], b[i], xtol=1e-12)
        tol = 1e-12 + 4 * np.finfo(float).eps * abs(brent)  # brentq's xtol and default rtol
        assert lo[i] - tol <= brent <= hi[i] + tol


def _centres(monkeypatch) -> list:
    """The centres m of every Newton step of narrow_roots from now on, one array per step."""
    centres = []
    newton = numerics._newton

    def spied(tree, columns, a, b, m, f):
        centres.append(m.copy())
        return newton(tree, columns, a, b, m, f)

    monkeypatch.setattr(numerics, "_newton", spied)
    return centres


def test_narrow_roots_centres_every_row_on_its_midpoint_where_evaluate_raises(monkeypatch):
    # the slope (u - d)/abs(u - d) raises in evaluate at the midpoint 0.5 of
    # row 0, so the first step of both rows is centred on their midpoints;
    # row 1 still narrows to a box proved to hold its root (the exact
    # residual changes sign across it), and row 0, whose F'(X) is unknown
    # since abs' derivative is undefined in X, keeps its box, as it does
    # with any centre
    tree = ex.parse("u - 0.3 + 0.001*abs(u - d)", ("u", "d"))
    centres = _centres(monkeypatch)
    lo, hi = numerics.narrow_roots(tree, {"d": np.array([0.5, 5.0])}, [0.0, 0.0], [1.0, 1.0])
    assert centres[0].tolist() == [0.5, 0.5]
    assert (lo[0], hi[0]) == (0.0, 1.0)
    exact = lambda u: Fraction(u) - Fraction(3, 10) + Fraction(1, 1000) * (5 - Fraction(u))
    assert hi[1] - lo[1] <= 1e-12 and exact(lo[1]) <= 0 <= exact(hi[1])


def test_narrow_roots_keeps_the_midpoint_where_the_float_iterate_leaves_the_box(monkeypatch):
    # tanh(u - 3) is flat at the midpoint 0 of [-5, 5]: the float Newton
    # step lands near u = 100, outside the box, so row 0 is centred on its
    # midpoint, and row 1, whose root 0.2 is near, on its iterate; both
    # still narrow to boxes of at most 1e-12 that hold their roots
    tree = ex.parse("tanh(u - c)", ("u", "c"))
    centres = _centres(monkeypatch)
    lo, hi = numerics.narrow_roots(tree, {"c": np.array([3.0, 0.2])}, [-5.0, -5.0], [5.0, 5.0])
    assert centres[0][0] == 0.0 and abs(centres[0][1] - 0.2) <= 1e-15
    assert (hi - lo <= 1e-12).all()
    assert lo[0] <= 3.0 <= hi[0] and lo[1] <= 0.2 <= hi[1]  # tanh(u - c) = 0 at u = c exactly


def test_root_rows_takes_no_more_rounds_than_bisection_where_newton_is_useless(monkeypatch):
    # a flat cubic with a tiny linear term: F'(X) reaches down to 1e-20 on
    # every box around the root, so a Newton step gains little until the
    # box is about 1e-10 wide; a box whose step gains less than half is
    # halved instead, so the proof and the narrowing together take no more
    # rounds than bisection to 1e-12 (45 on [-10, 10])
    tree = ex.parse("(u - 0.3)^3 + 1e-20*(u - 0.3)", ("u",))
    rounds = []
    enclose = ex.enclose

    def counted(t, env):
        rounds.append(t is tree)
        return enclose(t, env)

    monkeypatch.setattr(ex, "enclose", counted)
    ((a, b),) = per_row(root_rows(tree, {}, [-10.0], [10.0]), 1)[0]
    lo, hi = numerics.narrow_roots(tree, {}, [a], [b])
    assert a < 0.3 < b and lo[0] <= 0.3 <= hi[0] and hi[0] - lo[0] <= 1e-12
    assert sum(rounds) <= 45


def test_bisection_stops_where_doubles_are_wider_than_tol():
    # the root 1.4e5 has neighbouring doubles 2.9e-11 apart, more than the
    # 1e-12 the narrowing aims at; it must still end, when a step gains nothing
    code = (
        "from solvloop import expressions as ex; from solvloop.numerics import root_rows, narrow_roots; "
        "tree = ex.parse('u*u - 2e10', ('u',)); "
        "_, a, b, _ = root_rows(tree, {}, [0.0], [2e5]); "
        "print(repr([float(v[0]) for v in narrow_roots(tree, {}, a, b)]))"
    )
    src = str(Path(sl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    lo, hi = eval(proc.stdout)
    assert Fraction(lo) ** 2 <= 2 * 10**10 <= Fraction(hi) ** 2  # the box holds sqrt(2e10)
    root = 0.5 * (lo + hi)
    assert abs(root - math.sqrt(2e10)) <= 2 * math.ulp(root)


# ---------------------------------------------------------------- fitting

@pytest.mark.parametrize("K", (-3.0, 0.5, 2.0))
def test_fit_recovers_saturating_coefficient(K):
    zs = np.linspace(-3.0, 3.0, 50)
    fit = sl.numerics.fit_saturating_exponential(zs, [K * -math.expm1(-z) for z in zs])
    assert abs(fit.coefficient - K) <= 1e-9
    assert fit.rms_residual <= 1e-12


def test_fit_respects_rate():
    zs = np.linspace(-2.0, 2.0, 40)
    fit = sl.numerics.fit_saturating_exponential(zs, [1.5 * -math.expm1(-2.0 * z) for z in zs], rate=2.0)
    assert abs(fit.coefficient - 1.5) <= 1e-9


def test_fit_excludes_near_zero_abscissae():
    zs = np.concatenate([[0.0], np.linspace(0.5, 3.0, 20)])
    values = [123.0]  # garbage at z=0 must be ignored
    values += [2.0 * -math.expm1(-z) for z in zs[1:]]
    fit = sl.numerics.fit_saturating_exponential(zs, values)
    assert abs(fit.coefficient - 2.0) <= 1e-9
    assert fit.n_samples == 20


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        sl.numerics.fit_saturating_exponential([1.0], [0.5])


def test_fit_scales_its_basis_exactly():
    # the coefficient is bit for bit the unscaled least-squares formula
    # wherever that does not underflow, and survives where it does
    rng = np.random.default_rng(3)
    for rate in (1.0, -0.7, 3e-5, 2.5):
        zs = rng.uniform(-3, 3, 40)
        values = rng.normal(size=40)
        basis = -np.expm1(-rate * zs)
        fit = sl.numerics.fit_saturating_exponential(zs, values, rate=rate)
        assert fit.coefficient == float(basis @ values) / float(basis @ basis)
    tiny = sl.numerics.fit_saturating_exponential([1.0, 2.0, 3.0], [2e-200, 4e-200, 6e-200], rate=1e-200)
    assert tiny.coefficient == 2.0 and tiny.rms_residual == 0.0


def test_fit_flags_model_mismatch():
    zs = np.linspace(-3.0, 3.0, 30)
    fit = sl.numerics.fit_saturating_exponential(zs, zs * zs)
    assert fit.max_residual > 1e-4


def test_twisted_additivity_exact_member_vs_perturbed():
    zs = list(np.linspace(-3.0, 3.0, 25))
    member = lambda z: 2.0 * -np.expm1(-z)
    assert sl.numerics.twisted_additivity_residual(member, zs, member(np.array(zs))) <= 1e-12
    perturbed = lambda z: 2.0 * -np.expm1(-z) + 0.01 * z * z
    assert sl.numerics.twisted_additivity_residual(perturbed, zs, perturbed(np.array(zs))) > 1e-4


def test_twisted_additivity_nan_pair_is_infinite():
    # the member 1 - e^{-z} up to z = 2.5 and NaN beyond, as
    # (1-exp(-z))*sqrt(2.5-z)/sqrt(2.5-z) is; only pair sums z1 + z2 get there
    zs = list(np.linspace(-1.5, 1.5, 11))
    member = lambda z: np.where(z <= 2.5, -np.expm1(-z), np.nan)
    assert sl.numerics.twisted_additivity_residual(member, zs, member(np.array(zs))) == math.inf


def test_twisted_additivity_rate_parameter():
    member = lambda z: -0.5 * -np.expm1(-3.0 * z)
    zs = list(np.linspace(-1.5, 1.5, 20))
    assert sl.numerics.twisted_additivity_residual(member, zs, member(np.array(zs)), rate=3.0) <= 1e-11
