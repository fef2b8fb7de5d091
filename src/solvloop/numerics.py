"""Root proofs and least-squares utilities for the loop verifiers.

Three workhorses:

  * root_rows: the roots of many functions of one unknown u (one row each,
    a tree over u and the row's columns) on their windows, each proved to
    lie alone in a box, by interval global search (Moore, Interval
    Analysis, 1966; Neumaier, Interval Methods for Systems of Equations,
    1990, ch. 5): batched adaptive subdivision in which every box is
    excluded by its residual enclosure (expressions.enclose), narrowed by
    the interval Newton operator N(X) = m - F(m)/F'(X), F'(X) enclosed in
    the same walk by forward-mode slopes, or split into 2, 4 or 8 pieces
    (multisection; Csallner, Csendes & Markót, J. Global Optim. 16, 2000),
    as many as the row's own count of boxes to split allows.  N(X) ∩ X = ∅
    proves that X holds no root, N(X) ⊂ int X that it holds exactly one, in
    N(X).  Poles, NaN values and tangential roots leave a row unresolved
    within MAX_BOXES boxes, or at once where a box midpoint has no finite
    enclosure, and the error says which (and, for an unsettled box, how
    many boxes the row enclosed): they fail, never pass.  There is no grid,
    so roots closer together than any spacing are counted.  It returns flat
    arrays (the row and box of every root) and a dict of the failed rows'
    errors.
  * narrow_roots: the same operator on proved boxes, down to 1e-12, each
    step centred on the box's float Newton iterate, whose slope is a
    forward difference (any centre in X gives a proof; Rump, Acta
    Numerica 19, 2010), so a right division takes one step.  evaluate runs
    only to choose that centre, under a guard.
  * fit_saturating_exponential: least-squares fit of the one-parameter family
    K*(1 - e^{-rate*z}) together with a residual for the characteristic
    two-argument identity f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import expressions
from .group import exp


# Boxes per enclosure.  The residual is enclosed on each box and on its
# midpoint, so every float array of an enclosure then stays under 128 KiB;
# blocks of 2**15 points ran 1.3-1.8 times slower per point on the
# development machine (an x86-64 Xeon with glibc).
BLOCK_POINTS = 8000
# Residual boxes a row may enclose before its root count is unresolved.
MAX_BOXES = 1000
# The interval Newton operator N(X) = m - F(m)/F'(X), a tree over the point
# m and the enclosures f of F(m) and d of F'(X).
_NEWTON = expressions.parse("m - f/d", ("m", "f", "d"))
# Float Newton steps that _centres takes at most, and the relative move
# below which a row has converged.
CENTRE_STEPS, CENTRE_TOL = 8, 2.0**-44


def _newton(tree, columns: dict, a: np.ndarray, b: np.ndarray, m: np.ndarray):
    """(F(X), F(m), N(X)): enclosures on every box X = [a[i], b[i]] with the row values columns.

    m is a point of X, the centre.  One enclosure of tree, on the boxes
    stacked on the points, gives F(X), F(m) and the slope F'(X).  enclose
    rounds N outward, and its division rule makes N unknown, (-inf, inf),
    where F'(X) may come within 1e-300 of 0.
    """
    boxes = {name: (col, col) for name, col in columns.items()}
    (flo, fhi), (dlo, dhi) = expressions.enclose(tree, {**boxes, "u": (np.stack([a, m]), np.stack([b, m]))}, "u")
    f = (flo[1], fhi[1])
    return (flo[0], fhi[0]), f, expressions.enclose(_NEWTON, {"m": (m, m), "f": f, "d": (dlo[0], dhi[0])})


def _sort_boxes(tree, columns: dict, a: np.ndarray, b: np.ndarray):
    """(keep, a, b, split, dead, proved, lower, upper): what becomes of the boxes [a[i], b[i]].

    Box i goes on, where keep[i], as [a[i], b[i]] of the result, split
    where split[i]; root k is proved to lie alone in [lower[k], upper[k]]
    by box proved[k].  One enclosure bounds the residual and its slope on
    every box and the residual at its midpoint, the centre of a Newton step
    (see _newton).  dead[i] says that the enclosure at the midpoint of box
    i is not finite: enclosures are inclusion-isotone, so no box that
    holds that point can ever be settled.  A box whose enclosure is finite
    and excludes 0 is dropped.  Any other box with a finite enclosure takes
    its Newton step: N(X) ⊂ int X proves a root in N(X); an
    empty N(X) ∩ X drops the box; a nonempty one at most half as wide as X
    goes on, widened across each end of X that N(X) reaches by 64 ulps of
    its larger bound (epsilon-inflation: a root on an end of X is then
    inside it); anything else, an unknown N(X) included, is split.
    """
    (flo, fhi), f, (nlo, nhi) = _newton(tree, columns, a, b, 0.5 * (a + b))
    known = np.isfinite(flo) & np.isfinite(fhi)
    dead = ~(np.isfinite(f[0]) & np.isfinite(f[1]))
    keep = ~(known & ((flo > 0) | (fhi < 0)))
    test = np.flatnonzero(known & keep)
    x, y, nlo, nhi = a[test], b[test], nlo[test], nhi[test]
    lo, hi = np.maximum(x, nlo), np.minimum(y, nhi)  # N(X) ∩ X
    inside = (x < nlo) & (nhi < y)
    step = ~inside & (lo <= hi) & (hi - lo <= 0.5 * (y - x))
    pad = (np.maximum(np.abs(lo), np.abs(hi)) * 2.0**-52 + 2.0**-1074) * 64
    a, b, split = a.copy(), b.copy(), keep.copy()
    a[test] = np.where(step & (nlo <= x), lo - pad, lo)
    b[test] = np.where(step & (nhi >= y), hi + pad, hi)
    keep[test] = ~inside & (lo <= hi)
    split[test] = ~step
    return keep, a, b, split, dead, test[inside], nlo[inside], nhi[inside]


def _pieces(rows, a, b, n: int) -> list:
    """The boxes [a[i], b[i]] of rows rows (of n rows) cut in k pieces, as (rows, a, b) for k = 8, 4, 2.

    Each box is cut into k equal pieces by nested halving, so they share
    their ends, and the box's own ends are the first and last.  k is the
    largest of 2, 4 and 8 with k*m <= 8, where m is the number of boxes of
    the box's row here, or 2 where the k pieces would not be strictly
    increasing (the caller fails a box too narrow to halve).
    """
    q = np.empty((len(rows), 9))  # the ends of 8 pieces of every box
    q[:, 0], q[:, 8] = a, b
    for h in (4, 2, 1):
        q[:, h :: 2 * h] = 0.5 * (q[:, : -h : 2 * h] + q[:, 2 * h :: 2 * h])
    m = np.bincount(rows, minlength=n)[rows]
    stride = np.where(m == 1, 1, np.where(m == 2, 2, 4))  # 8 // k
    for s in (1, 2):
        stride[(stride == s) & ~(np.diff(q[:, ::s]) > 0).all(axis=1)] = 4
    out = []
    for s in (1, 2, 4):
        ends = q[stride == s, ::s]
        out.append((np.repeat(rows[stride == s], 8 // s), ends[:, :-1].ravel(), ends[:, 1:].ravel()))
    return out


def _unresolved(u, dead: bool, spent: int) -> ValueError:
    """The error of a row retired on a box from u once it has enclosed spent boxes.

    dead: the box's midpoint has no finite enclosure; else the box is not settled.
    """
    if dead:
        return ValueError(f"unresolved: no finite enclosure near u = {u:.6g}")
    return ValueError(
        f"unresolved: no exclusion or monotonicity proof near u = {u:.6g} after {spent} boxes"
    )


def _merged(boxes) -> list:
    """Proved boxes (row, a, b), sorted, with overlapping boxes of a row merged into their intersection.

    The residual is strictly monotone on each proved box, so two that
    overlap are monotone on their union and hold the same root.
    """
    out = sorted(boxes)
    for i in range(len(out) - 1, 0, -1):
        if out[i][0] == out[i - 1][0] and out[i][1] <= out[i - 1][2]:
            out[i - 1 : i + 1] = [(*out[i][:2], min(out[i - 1][2], out[i][2]))]
    return out


def root_rows(
    tree: expressions.Node, columns: dict, lo, hi
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, ValueError]]:
    """The roots in u of many functions on their windows, proved, one row per function.

    Row r is the function tree of u and of the values columns[name][r] of
    the other variables on the window [lo[r], hi[r]].  Every row starts as
    one box; each round encloses the residual over all open boxes of all
    rows, in blocks of BLOCK_POINTS, and sorts them (see _sort_boxes):
    excluded boxes are dropped, Newton steps prove roots, drop boxes or
    narrow them, and the rest are split (see _pieces): a row with n boxes
    to split cuts each in k equal pieces, k the largest of 2, 4 and 8 with
    k*n <= 8, so its boxes depend neither on the other rows nor on
    BLOCK_POINTS.  Enclosures only are computed, so evaluate never runs
    where it could raise.

    Returns (rows, a, b, errors), one entry k per proved root, sorted by row
    and then by position: row rows[k] has exactly one root in the box
    [a[k], b[k]], a < root < b, on which the residual is strictly monotone;
    np.bincount(rows, minlength=len(lo)) counts the roots of every row.
    errors maps each row ruled out, which has no entries, to its ValueError: a
    bad window, or an unresolved root count: a box that has not been settled
    after MAX_BOXES boxes of the row, or cannot be halved, or whose midpoint
    has no finite enclosure, which retires the row in the round it is seen,
    since every box that holds that point would be split until the budget
    ends.  The lowest such box of the row names it, and an unsettled
    box's error counts the boxes its row enclosed.  A row unknown on every
    box fails in its first round, as does a row in which a column that the
    tree reads is NaN (see expressions.enclose).  A root on an end that two
    boxes share is proved by both, in boxes that overlap, and counted once.
    Inflation lets a root within rounding of a window's end count as in it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    errors: dict[int, ValueError] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(lo < hi) | ~np.isfinite(hi - lo)
    for r in np.flatnonzero(bad).tolist():
        if not lo[r] < hi[r]:
            errors[r] = ValueError("interval needs lo < hi")
        else:
            errors[r] = ValueError(f"window [{lo[r]:g}, {hi[r]:g}] is wider than the largest float")
    rows = np.flatnonzero(~bad)
    a, b = lo[rows], hi[rows]
    found = [(rows[:0], a[:0], b[:0])]  # the rows and boxes of the roots proved in each block
    spent = np.zeros(len(lo), dtype=np.intp)
    while rows.size:
        spent += np.bincount(rows, minlength=len(lo))
        keep, split, dead = (np.zeros(len(rows), dtype=bool) for _ in range(3))
        for s in range(0, len(rows), BLOCK_POINTS):
            block = slice(s, s + BLOCK_POINTS)
            r = rows[block]
            cols = {name: col[r] for name, col in columns.items()}
            keep[block], a[block], b[block], split[block], dead[block], proved, x, y = _sort_boxes(
                tree, cols, a[block], b[block]
            )
            found.append((r[proved], x, y))
        rows, a, b, split, dead = rows[keep], a[keep], b[keep], split[keep], dead[keep]
        mid = 0.5 * (a + b)
        stuck = dead | (spent[rows] >= MAX_BOXES) | (split & ~((a < mid) & (mid < b)))
        for i in np.flatnonzero(stuck)[np.lexsort((a[stuck], rows[stuck]))].tolist():
            if not bad[rows[i]]:  # the lowest stuck box of the row names it
                bad[rows[i]] = True
                errors[int(rows[i])] = _unresolved(a[i], dead[i], int(spent[rows[i]]))
        whole, cut = ~bad[rows] & ~split, ~bad[rows] & split
        pieces = _pieces(rows[cut], a[cut], b[cut], len(lo)) if cut.any() else []
        rows, a, b = (np.concatenate(v) for v in zip((rows[whole], a[whole], b[whole]), *pieces))
    rows, a, b = (np.concatenate(v) for v in zip(*found))
    counts = np.bincount(rows, minlength=len(lo))
    counts[bad] = 0  # a failed row keeps no entries
    many = counts[rows] >= 2  # rare: sorted and merged in Python
    boxes = _merged(zip(rows[many].tolist(), a[many].tolist(), b[many].tolist()))
    at = np.zeros(len(lo), dtype=np.intp)
    at[rows] = np.arange(len(rows))  # the entry of every row that has one
    lone = np.flatnonzero(counts == 1)
    rows, a, b = lone, a[at[lone]], b[at[lone]]
    if boxes:  # the rows with two or more boxes go in by row
        rows, a, b = (np.concatenate([v, np.array(w)]) for v, w in zip((rows, a, b), zip(*boxes)))
        order = np.argsort(rows, kind="stable")
        rows, a, b = rows[order], a[order], b[order]
    return rows, a, b, errors


def _centres(tree, columns: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A point of every box [a[i], b[i]] near its root: the float Newton iterate.

    From the midpoint, steps u - F(u)/F'(u) with evaluate and F' a forward
    difference over h = 2^-26 max(1, |u|) (any centre in X gives a proof),
    until no row moves by more than CENTRE_TOL max(1, |u|), or for
    CENTRE_STEPS steps; a row keeps an iterate only where it is strictly
    inside its box (so finite).  evaluate checks its guards on all rows at
    once, so where it raises, every row takes its midpoint.
    """
    mid = u = 0.5 * (a + b)
    try:
        with np.errstate(all="ignore"):
            for _ in range(CENTRE_STEPS):
                scale = np.maximum(1.0, np.abs(u))
                h = 2.0**-26 * scale
                f = expressions.evaluate(tree, {**columns, "u": u})
                move = f * h / (expressions.evaluate(tree, {**columns, "u": u + h}) - f)
                step = u - move
                inside = (a < step) & (step < b)
                u = np.where(inside, step, u)
                if not (inside & (np.abs(move) > CENTRE_TOL * scale)).any():
                    break
    except expressions.EvaluationError:
        return mid
    return u


def narrow_roots(tree: expressions.Node, columns: dict, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Proved root boxes [lo[i], hi[i]] of root_rows, narrowed; box i is row i of (tree, columns).

    Every box X becomes N(X) ∩ X (see _newton; one enclosure of the
    residual a step), which still holds its root, until it is at most
    1e-12 wide or a step leaves it as wide as it was (where outward
    rounding keeps it wider, a few ulps of the root beyond about
    |u| = 2e3, or F'(X) is no longer enclosed away from 0).  N(X)
    encloses the root for any centre m in X, so each step is centred on
    the float Newton iterate of its box (see _centres): evaluate only
    chooses the centre, and the step itself still only encloses.  With
    F(m) within rounding of 0, N(X) is a few ulps wide, so a right division
    takes one step.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    todo = np.flatnonzero(hi - lo > 1e-12)
    while todo.size:
        x, y = lo[todo], hi[todo]
        cols = {name: col[todo] for name, col in columns.items()}
        m = _centres(tree, cols, x, y)
        nlo, nhi = _newton(tree, cols, x, y, m)[2]
        lo[todo], hi[todo] = np.maximum(x, nlo), np.minimum(y, nhi)
        width = hi[todo] - lo[todo]
        todo = todo[(width < y - x) & (width > 1e-12)]
    return lo, hi


class FitResult(NamedTuple):
    coefficient: float
    rms_residual: float
    max_residual: float
    n_samples: int


def fit_saturating_exponential(zs, values, rate: float = 1.0) -> FitResult:
    """Least-squares coefficient K for values = K*(1 - e^{-rate*zs}), over arrays of samples.

    values broadcasts to the shape of zs (a constant is one value for every
    sample).  Samples with |z| < 1e-3 are discarded (the basis function
    vanishes to first order there and would only add noise); at least 2
    usable samples are required.  The residuals are relative to
    max(1, max|values|), so rounding in an exact member's large values
    stays near one ulp.
    """
    zs = np.asarray(zs, dtype=float)
    keep = np.abs(zs) >= 1e-3
    zs, vals = zs[keep], np.broadcast_to(np.asarray(values, dtype=float), keep.shape)[keep]
    if len(zs) < 2:
        raise ValueError("need at least 2 samples with |z| >= 1e-3")
    basis = -np.expm1(-rate * zs)
    # basis @ basis underflows where |rate*z| is below about 1e-154; scaled
    # by the power of two 2^-e, each product and sum is the unscaled one
    # times a power of two, so wherever that does not underflow or overflow
    # the coefficient is bit for bit the same
    e = math.frexp(np.abs(basis).max())[1]
    scaled = np.ldexp(basis, -e)
    denom = float(scaled @ scaled)
    if denom == 0.0:
        raise ValueError(f"1 - e^(-rate*z) is 0 at every sample (rate {rate:g})")
    coeff = math.ldexp(float(scaled @ vals) / denom, -e)
    resid = (vals - coeff * basis) / np.maximum(1.0, np.abs(vals).max())
    return FitResult(
        coefficient=coeff,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_residual=float(np.abs(resid).max()),
        n_samples=len(zs),
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
        twisted = exp(-rate * zs) * values[:, None]
        scale = np.maximum(np.maximum(abs(lhs), abs(values)), np.maximum(abs(twisted), 1.0))
        error = abs(lhs - (values + twisted)) / scale
    return float(np.max(np.where(error == error, error, math.inf), initial=0.0))
