"""Root counting and least-squares utilities for the loop verifiers.

Three workhorses:

  * root_rows: a proof of the number of roots of many functions of one
    unknown u (one row each, a tree over u and the row's columns) on their
    windows.  It uses the exclusion and monotonicity tests of interval
    global search (Moore, Interval Analysis, 1966; Neumaier, Interval
    Methods for Systems of Equations, 1990): batched adaptive subdivision in
    which every box is excluded (its residual enclosure, expressions.enclose,
    is finite and excludes 0), decided (the enclosures of the residual and
    of its u-derivative, expressions.derivative, are finite and the
    derivative's excludes 0, so the residual is strictly monotone there and
    its end values count its one root or none) or halved.  A row whose
    boxes are not all excluded or decided within MAX_BOXES boxes is
    unresolved: poles, NaN values and tangential roots fail, never pass; a
    row that reads a NaN column fails at once.  There is no grid, so roots
    closer together than any spacing are counted.
  * refine_roots: the root in a bracket of root_rows, by batched
    bisection with a safeguarded Newton step on the same u-derivative: the
    midpoint halves every bracket each round, and the Newton point with two
    neighbours 0.8e-12 apart ends it once Newton has converged: about 4
    rounds for a right division, where bisection takes 45.
  * fit_saturating_exponential: least-squares fit of the one-parameter family
    K*(1 - e^{-rate*z}) together with a residual for the characteristic
    two-argument identity f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import expressions
from .group import elementwise, largest

__all__ = [
    "FitResult",
    "root_rows",
    "refine_roots",
    "fit_saturating_exponential",
    "twisted_additivity_residual",
]


# Points or boxes per array evaluation or enclosure.  Every float array of
# an evaluation then stays under 128 KiB; blocks of 2**15 points ran 1.3-1.8
# times slower per point on the development machine (an x86-64 Xeon with
# glibc).
BLOCK_POINTS = 16000
# Residual boxes a row may enclose before its root count is unresolved.
MAX_BOXES = 1000

def _values(tree: expressions.Node, columns: dict, pts: np.ndarray) -> np.ndarray:
    """tree at u = pts[i, j] with the values columns[name][i]: an array of the 2-D pts's shape."""
    env = {name: col[:, None] for name, col in columns.items()}
    with np.errstate(all="ignore"):
        return np.broadcast_to(expressions.evaluate(tree, {**env, "u": pts}), pts.shape)


def _points(columns: dict) -> dict:
    """columns as point boxes for expressions.enclose."""
    return {name: (col, col) for name, col in columns.items()}


def _sort_boxes(tree, slope, columns: dict, a: np.ndarray, b: np.ndarray, top: np.ndarray):
    """(split, boxes, lower, upper): the boxes [a[i], b[i]] to halve, and the roots found.

    Root k lies in box boxes[k], in the bracket [lower[k], upper[k]].

    columns holds every box's row values; top is the upper end of every
    box's window.  A box is excluded when the residual's enclosure is finite
    and excludes 0, decided when the enclosures of the residual and of its
    u-derivative (slope) are finite and the derivative's excludes 0, and
    split otherwise.  A decided box [a, b) holds one root when its end
    values differ in sign (bracket [a, b]) or f(a) is an exact zero
    (bracket [a, a]), and none otherwise; only the window's upper end is
    closed, so f(b) = 0 there is a root too (bracket [b, b]).
    """
    rlo, rhi = expressions.enclose(tree, {**_points(columns), "u": (a, b)})
    known = np.isfinite(rlo) & np.isfinite(rhi)
    split = ~(known & ((rlo > 0) | (rhi < 0)))
    test = np.flatnonzero(known & split)  # only these may need the derivative
    sub = {name: col[test] for name, col in columns.items()}
    dlo, dhi = expressions.enclose(slope, {**_points(sub), "u": (a[test], b[test])})
    decided = np.isfinite(dlo) & np.isfinite(dhi) & ((dlo > 0) | (dhi < 0))
    test, sub = test[decided], {name: col[decided] for name, col in sub.items()}
    split[test] = False
    a, b = a[test], b[test]
    fa, fb = _values(tree, sub, np.stack([a, b], axis=1)).T
    upper = (fb == 0.0) & (b == top[test])
    root = (fa == 0.0) | (np.sign(fa) * np.sign(fb) < 0) | upper
    zero = np.where(upper, b, a)  # the exact zero, where there is one
    return split, test[root], zero[root], np.where((fa == 0.0) | upper, zero, b)[root]


def _unresolved(u) -> ValueError:
    return ValueError(
        f"unresolved: no exclusion or monotonicity proof near u = {u:.6g} within {MAX_BOXES} boxes"
    )


def root_rows(
    tree: expressions.Node, columns: dict, lo, hi
) -> list[Union[list[tuple[float, float]], ValueError]]:
    """The roots in u of many functions on their windows, proved, one row per function.

    Row r is the function tree of u and of the values columns[name][r] of
    the other variables on the window [lo[r], hi[r]].  Every row starts as
    one box; each round encloses the residual over all open boxes of all
    rows, in blocks of BLOCK_POINTS, and sorts them (see _sort_boxes):
    excluded boxes are dropped, decided ones give their root or none, and
    the rest are halved.  A box counts as [a, b), so a root on an end two
    boxes share is counted once.  Point evaluations happen only where the
    enclosure is finite, where evaluate cannot raise.

    Returns one entry per row: the brackets (a, b) of its roots in
    increasing order, each holding exactly one root, which is a when a ==
    b and otherwise lies strictly between them, where the residual is
    strictly monotone and changes sign (see refine_roots); or the
    ValueError that rules the row out: a bad window, or an unresolved root
    count (a box that has not been excluded or decided after MAX_BOXES
    boxes of the row, or cannot be halved).  A row in which a column that
    the tree reads is NaN fails before the first round with the text that
    the end of its budget would give, since no box of it can have a finite
    enclosure (see expressions.enclose).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out: list = [[] for _ in lo]
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(lo < hi) | ~np.isfinite(hi - lo)
    # a NaN value that the tree reads makes the row's enclosure unknown on
    # every box, so the row fails at once, as at the end of its budget:
    # its lowest box is always the one at lo
    nan = np.zeros(len(lo), dtype=bool)
    for name in expressions.variables(tree) & columns.keys():
        nan |= columns[name] != columns[name]
    for r in np.flatnonzero(bad | nan).tolist():
        if not lo[r] < hi[r]:
            out[r] = ValueError("interval needs lo < hi")
        elif bad[r]:
            out[r] = ValueError(f"window [{lo[r]:g}, {hi[r]:g}] is wider than the largest float")
        else:
            out[r] = _unresolved(lo[r])
    bad |= nan
    slope = expressions.derivative(tree, "u")
    rows = np.flatnonzero(~bad)
    a, b = lo[rows], hi[rows]
    spent = np.zeros(len(lo), dtype=np.intp)
    while rows.size:
        spent += np.bincount(rows, minlength=len(lo))
        split = np.zeros(len(rows), dtype=bool)
        for s in range(0, len(rows), BLOCK_POINTS):
            block = slice(s, s + BLOCK_POINTS)
            r = rows[block]
            cols = {name: col[r] for name, col in columns.items()}
            split[block], boxes, x, y = _sort_boxes(tree, slope, cols, a[block], b[block], hi[r])
            for row, bracket in zip(r[boxes].tolist(), zip(x.tolist(), y.tolist())):
                out[row].append(bracket)
        rows, a, b = rows[split], a[split], b[split]
        mid = 0.5 * (a + b)
        stuck = (spent[rows] >= MAX_BOXES) | ~((a < mid) & (mid < b))
        for i in np.flatnonzero(stuck)[np.lexsort((a[stuck], rows[stuck]))].tolist():
            if not bad[rows[i]]:  # the lowest stuck box of the row names it
                bad[rows[i]] = True
                out[rows[i]] = _unresolved(a[i])
        live = ~bad[rows]
        rows, a, b, mid = np.repeat(rows[live], 2), a[live], b[live], mid[live]
        a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
    return [o if isinstance(o, ValueError) else sorted(o) for o in out]


def refine_roots(tree: expressions.Node, columns: dict, lo, hi) -> np.ndarray:
    """The root in every bracket [lo[i], hi[i]] that root_rows gave row i of (tree, columns).

    Bisection with a safeguarded Newton step, batched over all brackets.
    Each round makes one call at four points of every unfinished bracket:
    mid = 0.5*(lo + hi), the Newton point c (x - f(x)/f'(x) from the last
    Newton point x, or mid where that is not strictly inside the bracket or
    not finite) and c -+ 0.4e-12; and one more call for f'(c), on the
    u-derivative tree.  Each point in that order that is still strictly
    inside the bracket becomes lo where its computed sign is f(lo)'s and hi
    where it is the other one, and is the root where f is an exact zero.
    mid is always one of them, so a bracket at least halves every round
    and takes no more rounds than bisection; once Newton has converged,
    the pair c -+ 0.4e-12, 0.8e-12 apart, brackets the root.  As in
    bisection, a bracket ends with its midpoint when hi - lo <= 1e-12 or
    mid is not strictly inside it (where adjacent doubles are more than
    1e-12 apart); a bracket with lo == hi is its root.  The columns are
    gathered anew only in rounds in which some bracket ended.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    slope = expressions.derivative(tree, "u")
    root = np.full(len(lo), np.nan)
    todo, cols = np.arange(len(lo)), columns
    sign = np.sign(_values(tree, cols, lo[:, None])[:, 0])  # f(lo)'s
    c = np.full(len(lo), np.nan)
    while todo.size:
        mid = 0.5 * (lo + hi)
        going = (hi - lo > 1e-12) & (lo < mid) & (mid < hi)
        if not going.all():
            root[todo[~going]] = mid[~going]
            todo, lo, hi, mid, sign, c = (v[going] for v in (todo, lo, hi, mid, sign, c))
            if not todo.size:
                break
            cols = {name: col[todo] for name, col in columns.items()}
        c = np.where((lo < c) & (c < hi), c, mid)
        below, above = c - 0.4e-12, c + 0.4e-12
        # c -+ 0.4e-12 may leave the bracket, and so the proved box, where
        # evaluate may raise; mid stands in and, an end by its turn, is skipped
        pts = np.stack([mid, c, np.where(lo < below, below, mid), np.where(above < hi, above, mid)])
        fs = _values(tree, cols, pts.T).T
        for p, fp in zip(pts, fs):
            inside = (lo < p) & (p < hi)
            same, zero = np.sign(fp) * sign > 0, fp == 0.0
            lo = np.where(inside & (same | zero), p, lo)
            hi = np.where(inside & (~same | zero), p, hi)  # a zero leaves lo == hi == p
        with np.errstate(all="ignore"):
            c = c - fs[1] / _values(slope, cols, c[:, None])[:, 0]
    return root


class FitResult(NamedTuple):
    coefficient: float
    rms_residual: float
    max_residual: float
    n_samples: int
    rate: float = 1.0


def fit_saturating_exponential(zs, values, rate: float = 1.0) -> FitResult:
    """Least-squares coefficient K for values = K*(1 - e^{-rate*zs}), over arrays of samples.

    values broadcasts to the shape of zs (a constant is one value for every
    sample).  Samples with |z| < 1e-3 are discarded (the basis function
    vanishes to first order there and would only add noise); at least 2
    usable samples are required.
    """
    zs = np.asarray(zs, dtype=float)
    keep = np.abs(zs) >= 1e-3
    zs, vals = zs[keep], np.broadcast_to(np.asarray(values, dtype=float), keep.shape)[keep]
    if len(zs) < 2:
        raise ValueError("need at least 2 samples with |z| >= 1e-3")
    basis = -np.expm1(-rate * zs)
    denom = float(basis @ basis)
    if denom == 0.0:
        raise ValueError("degenerate sample placement")
    coeff = float(basis @ vals) / denom
    resid = vals - coeff * basis
    return FitResult(
        coefficient=coeff,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_residual=float(np.abs(resid).max()),
        n_samples=len(zs),
        rate=rate,
    )


def twisted_additivity_residual(
    fn: Callable[[np.ndarray], np.ndarray], zs: Sequence[float], values, rate: float = 1.0
) -> float:
    """Worst violation of f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1) over all ordered pairs.

    Each pair's violation is relative to the magnitudes of its terms:
    |lhs - rhs| / max(1, |lhs|, |f(z2)|, |e^{-rate*z2}*f(z1)|), so rounding
    in large values of an exact member stays near one ulp of the largest
    term, even where the two terms of rhs cancel.  Zero exactly on the
    family K*(1 - e^{-rate*z}); any other continuous function with f(0)=0
    violates it somewhere.  A pair whose violation is NaN (a NaN value, or
    infinities) makes the residual infinite.  values holds f at the
    samples zs (a constant is broadcast), so fn is evaluated elementwise
    only once, on the array of every pair sum z1 + z2; a constant result
    is broadcast.
    """
    zs = np.asarray(zs, dtype=float)
    sums = zs[:, None] + zs  # row z1, column z2
    values = np.broadcast_to(np.asarray(values, dtype=float), zs.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = np.broadcast_to(np.asarray(fn(sums), dtype=float), sums.shape)
        twisted = elementwise(math.exp, -rate * zs) * values[:, None]
        scale = np.maximum(np.maximum(abs(lhs), abs(values)), np.maximum(abs(twisted), 1.0))
        error = abs(lhs - (values + twisted)) / scale
    return largest(np.where(error == error, error, math.inf))
