"""Root finding and the saturating-exponential fit."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvloop as sl
from solvloop import expressions as ex
from solvloop import numerics
from solvloop.numerics import root_rows


# ---------------------------------------------------------------- 1-D roots

def bisect(fn, lo, hi, tol=1e-12):
    """Standard bisection on a bracketing interval; returns the midpoint at width tol.

    Where adjacent doubles are more than tol apart (|root| beyond about
    8.8e3 at tol = 1e-12), it stops when the midpoint equals an end.

    The scalar reference whose iterates root_rows reproduces for all its
    brackets at once.
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


def _unknown(rows, a, b):
    """An enclosure that proves nothing: root_rows then evaluates every grid node."""
    return np.full(a.shape, -np.inf), np.full(a.shape, np.inf)


def root1d(fn, interval, resolution=10000):
    """All roots of one function of numpy arrays: root_rows on one row, raising its error."""
    (roots,) = root_rows(lambda rows, pts: fn(pts), _unknown, [interval[0]], [interval[1]], resolution)
    if isinstance(roots, ValueError):
        raise roots
    return roots


def test_bisect_simple_root():
    r = bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-14)
    assert abs(r - math.sqrt(2.0)) < 1e-12


def test_root1d_sine_roots():
    roots = root1d(np.sin, (-10.0, 10.0))
    assert len(roots) == 7
    for r, k in zip(roots, range(-3, 4)):
        assert abs(r - k * math.pi) < 1e-9


def test_root1d_exact_grid_zero():
    roots = root1d(lambda x: x**3, (-1.0, 1.0))
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-9


def test_root1d_no_roots():
    assert root1d(lambda x: x * x + 1.0, (-5.0, 5.0)) == []


def test_root1d_quadratic_two_roots():
    roots = root1d(lambda x: (x - 0.5) * (x + 0.25), (-1.0, 1.0))
    assert len(roots) == 2
    assert abs(roots[0] + 0.25) < 1e-10 and abs(roots[1] - 0.5) < 1e-10


def test_root1d_scalar_only_function():
    # the scan evaluates on arrays only: a function that rejects them raises
    # its error out of the scan, as any error but a ValueError does
    def f(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar only")
        return x - 0.3

    with pytest.raises(TypeError, match="scalar only"):
        root1d(f, (0.0, 1.0), resolution=100)


def test_root1d_rejects_nonfinite_values():
    def f(x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr > 0.5, np.nan, arr - 0.25)

    with pytest.raises(ValueError):
        root1d(f, (0.0, 1.0))


def _root1d_loop(fn, interval, tol=1e-12, resolution=10000):
    """Cell-by-cell reference for the vectorised scan of root_rows."""
    xs = np.linspace(interval[0], interval[1], resolution + 1)
    ys = np.asarray(fn(xs), dtype=float)
    roots = []
    for i in range(len(xs) - 1):
        if ys[i] == 0.0:
            roots.append(float(xs[i]))
        if ys[i] * ys[i + 1] < 0:
            roots.append(bisect(lambda x: float(fn(x)), float(xs[i]), float(xs[i + 1]), tol))
    if ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


@pytest.mark.parametrize(
    "fn,interval,resolution",
    [
        (np.sin, (-10.0, 10.0), 10000),
        (lambda x: x**3, (-1.0, 1.0), 10000),
        (lambda x: np.cos(np.pi * x), (0.0, 4.0), 4),
        (lambda x: (x - 0.25) * (x + 0.5) * x, (-1.0, 1.0), 8),
        (lambda x: x - 2.0 * np.sin(x) - 0.3, (-10.0, 10.0), 2048),
    ],
)
def test_root1d_matches_cell_loop_reference(fn, interval, resolution):
    got = root1d(fn, interval, resolution=resolution)
    assert got == _root1d_loop(fn, interval, resolution=resolution)


def test_root1d_grid_zero_between_sign_changes():
    # nodes 0, 0.25, ..., 1: x = 0.5 is an exact node zero, the roots at 0.1
    # and 0.9 are bracketed by the first and the last cell
    fn = lambda x: (x - 0.1) * (x - 0.5) * (x - 0.9)
    roots = root1d(fn, (0.0, 1.0), resolution=4)
    assert len(roots) == 3
    assert roots[1] == 0.5
    assert abs(roots[0] - 0.1) < 1e-12 and abs(roots[2] - 0.9) < 1e-12


def test_root1d_adjacent_cells_each_bracket_a_root():
    roots = root1d(lambda x: np.cos(np.pi * x), (0.0, 4.0), resolution=4)
    assert len(roots) == 4
    for r, k in zip(roots, range(4)):
        assert abs(r - (k + 0.5)) < 1e-11


def test_root1d_merges_roots_within_1e9():
    # cells of width 1e-9 separate both pairs of roots; only the pair closer
    # than 1e-9 is merged into one root
    close = lambda x: (x - 0.5e-9) * (x - 1.2e-9)
    assert len(root1d(close, (0.0, 4e-9), resolution=4)) == 1
    apart = lambda x: (x - 0.5e-9) * (x - 2.5e-9)
    assert len(root1d(apart, (0.0, 4e-9), resolution=4)) == 2


def test_root1d_circle_line_two_roots():
    # the circle x^2 + y^2 = 1 restricted to the line (x, y) = u*(1, 1)
    roots = root1d(lambda u: 2.0 * u * u - 1.0, (-2.0, 2.0))
    s = math.sqrt(0.5)
    assert len(roots) == 2
    assert abs(roots[0] + s) < 1e-9 and abs(roots[1] - s) < 1e-9


def test_root1d_rejects_a_sign_change_across_a_pole():
    # bisection converges onto the pole at 0.3, where the residual is huge
    with pytest.raises(ValueError, match="is not a root"):
        root1d(lambda x: 1.0 / (x - 0.3), (0.0, 1.0), resolution=4)
    # a steep genuine root still counts
    assert len(root1d(lambda x: 1e9 * (x - 0.3), (0.0, 1.0), resolution=4)) == 1


class _Row:
    """A test function: c * prod(x - roots) [/ (x - pole)], NaN or raising ValueError beyond a cut.

    The product is an expression tree, so expressions.enclose bounds it.
    """

    def __init__(self, c, roots, kind, cut, pole=None):
        self.kind, self.cut = kind, cut
        tree = ex.Const(c)
        for r in roots:
            tree = ex.BinOp("*", tree, ex.BinOp("-", ex.Var("x"), ex.Const(r)))
        if pole is not None:
            tree = ex.BinOp("/", tree, ex.BinOp("-", ex.Var("x"), ex.Const(pole)))
        self.tree = tree

    def __call__(self, x):
        y = np.broadcast_to(ex.as_function(self.tree, ("x",))(x), np.shape(x))
        beyond = np.asarray(x) > self.cut
        if self.kind == "raise" and np.any(beyond):
            raise ValueError(f"beyond the cut {self.cut!r}")
        if self.kind == "nan":
            y = np.where(beyond, np.nan, y)
        return y

    def enclose(self, a, b):
        lo, hi = ex.enclose(self.tree, {"x": (a, b)})
        beyond = (b > self.cut) if self.kind != "poly" else np.zeros(np.shape(b), dtype=bool)
        return np.where(beyond, -np.inf, lo), np.where(beyond, np.inf, hi)


@st.composite
def _rows(draw, resolution, width):
    grid = np.linspace(-width, width, resolution + 1)
    node = st.integers(0, resolution).map(lambda k: float(grid[k]))
    root = st.floats(-width, width) | node
    c = draw(st.sampled_from([1.0, -2.5, 1e-3, 40.0]))
    roots = draw(st.lists(root, max_size=4))
    kind = draw(st.sampled_from(["poly"] * 6 + ["nan", "raise"]))
    cut = draw(st.floats(-width, width))
    # a pole inside a cell: the sign change across it is not a root
    k = draw(st.integers(0, resolution - 1))
    pole = draw(st.none() | st.just(float(grid[k] + 0.3 * (grid[k + 1] - grid[k]))))
    return _Row(c, roots, kind, cut, pole)


def _outcome(call):
    try:
        return call()
    except ArithmeticError as err:  # a node on a pole
        return err


@settings(max_examples=60)
@given(
    data=st.data(),
    # resolutions that are and are not CHUNK_CELLS * 4**k chunks
    resolution=st.integers(2, 40) | st.sampled_from([63, 64, 65, 200, 257, 2048, 10000]),
    block_points=st.integers(1, 200),
    # beyond about 8.8e3 adjacent doubles are farther apart than tol = 1e-12
    width=st.sampled_from([1.0, 2e4, 1e6, 1e12]),
    chunk_cells=st.integers(1, 9) | st.just(numerics.CHUNK_CELLS),
    unknown_every=st.integers(1, 4),
)
def test_root_rows_equals_root1d_and_scalar_bisect(
    data, resolution, block_points, width, chunk_cells, unknown_every
):
    # the batched scan gives every row exactly what it gives the row alone,
    # in blocks of any size, and every bisected root is scalar bisect's;
    # with an enclosure (known on every unknown_every-th chunk at most) it
    # gives exactly what it gives with one that is unknown everywhere
    rows = data.draw(st.lists(_rows(resolution, width), min_size=1, max_size=12))

    def fn_rows(idx, pts):
        return np.stack([rows[i](p) for i, p in zip(idx.tolist(), pts)])

    def enclose(idx, a, b):
        lo, hi = np.empty(a.shape), np.empty(a.shape)
        for i in np.unique(idx).tolist():  # idx may name a row many times
            lo[idx == i], hi[idx == i] = rows[i].enclose(a[idx == i], b[idx == i])
        hidden = np.round((a + width) / (2 * width) * resolution) % unknown_every != 0
        return np.where(hidden, -np.inf, lo), np.where(hidden, np.inf, hi)

    chunk_cells = max(chunk_cells, -(-resolution // 400))  # at most 400 chunks a row, for speed
    saved = numerics.BLOCK_POINTS, numerics.CHUNK_CELLS
    numerics.BLOCK_POINTS, numerics.CHUNK_CELLS = block_points, chunk_cells
    try:
        lo, hi = [-width] * len(rows), [width] * len(rows)
        batch = _outcome(lambda: root_rows(fn_rows, _unknown, lo, hi, resolution=resolution))
        pruned = _outcome(lambda: root_rows(fn_rows, enclose, lo, hi, resolution=resolution))
    finally:
        numerics.BLOCK_POINTS, numerics.CHUNK_CELLS = saved
    assert repr(pruned) == repr(batch)
    if isinstance(batch, ArithmeticError):
        return
    for row, got in zip(rows, batch):
        try:
            alone = root1d(row, (-width, width), resolution=resolution)
        except ValueError as err:
            alone = err
        if isinstance(alone, ValueError):
            assert isinstance(got, ValueError) and str(got) == str(alone)
            continue
        assert got == alone
        assert got == _root1d_loop(row, (-width, width), resolution=resolution)


def test_root_rows_skips_nodes_whose_sign_an_enclosure_proves():
    # x - 0.3 on [-1, 1]: only the chunk holding the root is scanned
    calls = []

    def fn_rows(rows, pts):
        calls.append(pts.size)
        return pts - 0.3

    def enclose(rows, a, b):
        return a - 0.3, b - 0.3

    dense = root_rows(fn_rows, _unknown, [-1.0], [1.0], resolution=10000)
    points = sum(calls)
    calls.clear()
    assert root_rows(fn_rows, enclose, [-1.0], [1.0], resolution=10000) == dense
    assert sum(calls) < points / 50


def test_root_rows_names_a_window_too_wide_for_floats():
    # hi - lo overflows: the window is at fault, not the function
    (got,) = root_rows(lambda rows, pts: np.sin(pts), _unknown, [-1e308], [1e308])
    assert isinstance(got, ValueError)
    assert str(got) == "window [-1e+308, 1e+308] is wider than the largest float"


def test_bisection_stops_where_doubles_are_wider_than_tol():
    # the root 1.4e5 has neighbouring doubles 2.9e-11 apart, more than the
    # default tol; the midpoint stops moving and the scan must still end
    code = (
        "import numpy as np; from solvloop.numerics import root_rows; "
        "unknown = lambda rows, a, b: (np.full(a.shape, -np.inf), np.full(a.shape, np.inf)); "
        "print(root_rows(lambda rows, x: x*x - 2e10, unknown, [0.0], [2e5], resolution=10)[0])"
    )
    src = str(Path(sl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    (root,) = eval(proc.stdout)
    lo, hi = np.linspace(0.0, 2e5, 11)[7:9].tolist()
    assert root == bisect(lambda x: x * x - 2e10, lo, hi)
    assert abs(root - math.sqrt(2e10)) <= 2 * math.ulp(root)


# ---------------------------------------------------------------- fitting

@pytest.mark.parametrize("K", (-3.0, 0.5, 2.0))
def test_fit_recovers_saturating_coefficient(K):
    zs = np.linspace(-3.0, 3.0, 50)
    fit = sl.fit_saturating_exponential(zs, [K * -math.expm1(-z) for z in zs])
    assert abs(fit.coefficient - K) <= 1e-9
    assert fit.rms_residual <= 1e-12
    assert fit.rate == 1.0


def test_fit_respects_rate():
    zs = np.linspace(-2.0, 2.0, 40)
    fit = sl.fit_saturating_exponential(zs, [1.5 * -math.expm1(-2.0 * z) for z in zs], rate=2.0)
    assert abs(fit.coefficient - 1.5) <= 1e-9


def test_fit_excludes_near_zero_abscissae():
    zs = np.concatenate([[0.0], np.linspace(0.5, 3.0, 20)])
    values = [123.0]  # garbage at z=0 must be ignored
    values += [2.0 * -math.expm1(-z) for z in zs[1:]]
    fit = sl.fit_saturating_exponential(zs, values)
    assert abs(fit.coefficient - 2.0) <= 1e-9
    assert fit.n_samples == 20


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        sl.fit_saturating_exponential([1.0], [0.5])


def test_fit_flags_model_mismatch():
    zs = np.linspace(-3.0, 3.0, 30)
    fit = sl.fit_saturating_exponential(zs, zs * zs)
    assert fit.max_residual > 1e-4


def test_twisted_additivity_exact_member_vs_perturbed():
    zs = list(np.linspace(-3.0, 3.0, 25))
    member = lambda z: 2.0 * -np.expm1(-z)
    assert sl.twisted_additivity_residual(member, zs) <= 1e-12
    perturbed = lambda z: 2.0 * -np.expm1(-z) + 0.01 * z * z
    assert sl.twisted_additivity_residual(perturbed, zs) > 1e-4


def test_twisted_additivity_nan_pair_is_infinite():
    # the member 1 - e^{-z} up to z = 2.5 and NaN beyond, as
    # (1-exp(-z))*sqrt(2.5-z)/sqrt(2.5-z) is; only pair sums z1 + z2 get there
    zs = list(np.linspace(-1.5, 1.5, 11))
    member = lambda z: np.where(z <= 2.5, -np.expm1(-z), np.nan)
    assert sl.twisted_additivity_residual(member, zs) == math.inf


def test_twisted_additivity_rate_parameter():
    member = lambda z: -0.5 * -np.expm1(-3.0 * z)
    zs = list(np.linspace(-1.5, 1.5, 20))
    assert sl.twisted_additivity_residual(member, zs, rate=3.0) <= 1e-11
