"""Root finding and least-squares utilities for the loop verifiers.

Two workhorses:

  * root_rows: sign-change scans of many functions (one row each) over
    uniform grids, evaluated in blocks, plus one batched bisection of
    every bracket of every row.  Returns every bracketed root of every
    row, which makes it usable as a root *counter* for uniqueness
    certification, not just a solver.  Its rows come with an interval
    enclosure (expressions.enclose, through sections.line_residual_rows),
    and the scan skips every chunk of CHUNK_CELLS cells whose sign an
    enclosure proves: that of the chunk, or of a coarser box holding it
    (the enclosure starts with one box per row and splits only the boxes
    it cannot prove).  Its result is exactly that of a scan of every node.
  * fit_saturating_exponential: least-squares fit of the one-parameter family
    K*(1 - e^{-rate*z}) together with a residual for the characteristic
    two-argument identity f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .group import elementwise, largest

__all__ = [
    "FitResult",
    "root_rows",
    "fit_saturating_exponential",
    "twisted_additivity_residual",
]


# Points per array evaluation.  Every float array of an evaluation then
# stays under 128 KiB; blocks of 2**15 points ran 1.3-1.8 times slower per
# point on the development machine (an x86-64 Xeon with glibc).
BLOCK_POINTS = 16000
# Levels of every bracket's midpoint tree evaluated per bisection round:
# 15 midpoints, of which the bisection path uses 4.  Deeper trees take fewer
# rounds but evaluate exponentially more unused points.
BISECT_LEVELS = 4


# Grid cells per chunk of a scan, and boxes of chunks per enclosure call.
# Enclosing BLOCK_POINTS chunks per call raised the peak heap of a
# loop-check command from 1.5 to 2.7 MB; 4000 keep it at 1.5 MB and took no
# measurable time more.
CHUNK_CELLS = 64
ENCLOSE_CHUNKS = 4000
# Parts that a box of chunks whose enclosure proves nothing is split into.
FAN_OUT = 4


def _nodes(k: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int) -> np.ndarray:
    """Nodes k of np.linspace(lo, hi, resolution + 1), bit for bit: a 2-D array.

    k holds node indices as floats, does not decrease along its last axis
    (so only its last column can be node resolution, which is hi itself),
    and broadcasts with the columns lo and hi.
    """
    delta = hi - lo
    step = delta / resolution
    x = k * step
    tiny = step == 0.0
    if tiny.any():  # linspace's path for subnormal steps
        x = np.where(tiny, k / resolution * delta, x)
    x += lo
    np.copyto(x[:, -1], hi[:, 0], where=k[..., -1] == resolution)
    return x


class _RowEvaluator:
    """fn_rows evaluated in blocks of at most BLOCK_POINTS points.

    A block whose evaluation raises is evaluated again row by row, and a
    row that raises point by point.  A point that raises gets the value NaN,
    and its exception is kept in `raised` under (row, point), so it is
    charged only if a scan or a bisection step really uses that point.
    """

    def __init__(self, fn_rows) -> None:
        self.fn_rows = fn_rows
        self.raised: dict[tuple[int, float], Exception] = {}

    def __call__(self, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        per = max(1, BLOCK_POINTS // pts.shape[1])
        if len(rows) > per:
            return np.concatenate(
                [self(rows[i : i + per], pts[i : i + per]) for i in range(0, len(rows), per)]
            )
        try:
            return np.broadcast_to(np.asarray(self.fn_rows(rows, pts), dtype=float), pts.shape)
        except Exception as err:
            if pts.size == 1:
                self.raised[(int(rows[0]), float(pts[0, 0]))] = err
                return np.full(pts.shape, np.nan)
        if len(rows) > 1:
            return np.concatenate([self(rows[i : i + 1], pts[i : i + 1]) for i in range(len(rows))])
        return np.concatenate([self(rows, pts[:, j : j + 1]) for j in range(pts.shape[1])], axis=1)

    def first_error(self, row: int, pts: Iterable[float]) -> Optional[Exception]:
        """The exception of the first of pts (points of row) whose evaluation raised."""
        if self.raised:
            for x in pts:
                if (row, x) in self.raised:
                    return self.raised[(row, x)]
        return None


def _bisect_rows(
    evaluate: _RowEvaluator,
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, list[Optional[Exception]]]:
    """Scalar bisection on many brackets at once, bit for bit.

    Bracket k is [lo[k], hi[k]] of function rows[k], whose value at lo[k]
    is flo[k] and whose value at hi[k] has the opposite sign (neither is
    zero).  Scalar bisection halves a bracket at mid = 0.5*(lo + hi) while
    hi - lo > tol, keeps the half whose ends differ in sign (hi = mid when
    f(lo)*f(mid) < 0, else lo = mid), returns mid when f(mid) is an exact
    zero and otherwise 0.5*(lo + hi) of the last bracket; where adjacent
    doubles are more than tol apart it stops when mid equals an end.  Each
    round evaluates the next BISECT_LEVELS levels of every unfinished
    bracket's midpoint tree at once and then replays those decisions on
    them, so every root is the scalar one.  Returns the roots and, per
    bracket, the exception of the first point on the bisection path whose
    evaluation raised (the root is then NaN), or None.
    """
    per = max(1, BLOCK_POINTS // 2**BISECT_LEVELS)
    if len(lo) > per:
        parts = [
            _bisect_rows(evaluate, *(v[s : s + per] for v in (rows, lo, hi, flo)), tol)
            for s in range(0, len(lo), per)
        ]
        return np.concatenate([p[0] for p in parts]), [e for p in parts for e in p[1]]
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    root = np.full(len(lo), np.nan)
    errors: list[Optional[Exception]] = [None] * len(lo)
    todo = np.arange(len(lo))
    while todo.size:
        a, b, fa = lo[todo], hi[todo], flo[todo]
        # level l of the tree has 2^l nodes; node j's children are nodes 2j
        # (left half) and 2j + 1 (right half) of level l + 1
        los, his = a[:, None], b[:, None]
        levels = []
        for level in range(BISECT_LEVELS):
            mid = 0.5 * (los + his)
            levels.append(mid)
            if level + 1 < BISECT_LEVELS:
                los = np.stack([los, mid], axis=2).reshape(len(todo), -1)
                his = np.stack([mid, his], axis=2).reshape(len(todo), -1)
        mids = np.concatenate(levels, axis=1)
        del los, his, levels
        fmids = evaluate(rows[todo], mids)
        k = np.arange(len(todo))
        node = np.zeros(len(todo), dtype=np.intp)
        live = np.ones(len(todo), dtype=bool)
        for level in range(BISECT_LEVELS):
            pos = (1 << level) - 1 + node
            m, fm = mids[k, pos], fmids[k, pos]
            going = live & (b - a > tol) & (a < m) & (m < b)
            done = live & ~going
            root[todo[done]] = 0.5 * (a[done] + b[done])
            for i in np.flatnonzero(going & np.isnan(fm)) if evaluate.raised else ():
                err = evaluate.first_error(int(rows[todo[i]]), [float(m[i])])
                if err is not None:
                    errors[todo[i]] = err
                    going[i] = False
            hit = going & (fm == 0.0)
            root[todo[hit]] = m[hit]
            going &= ~hit
            right = going & ~(fa * fm < 0)
            b = np.where(going & ~right, m, b)
            a = np.where(right, m, a)
            fa = np.where(right, fm, fa)
            node = 2 * node + right
            live = going
        lo[todo], hi[todo], flo[todo] = a, b, fa
        todo = todo[live]
    return root, errors


def _open_segments(
    scan: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    resolution: int,
    enclose: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple],
):
    """The grid segments a scan evaluates, in blocks (rows, first, steps).

    Segment i is the nodes first[i] + steps of row rows[i], where steps is
    0.0, 1.0, ... up to the segment's number of cells.  A row's cells are
    cut into chunks of CHUNK_CELLS (the last one shorter), and only the
    chunks that no enclosure proves are evaluated.  The enclosure works
    coarse to fine: a box of chunks per row that covers them all, then, for
    each box whose residual enclosure over its end nodes is not finite and
    of one sign, its FAN_OUT parts, down to single chunks.  A proven box is
    left out: every node in it is then finite, nonzero, of that sign, and
    raises nothing.  Boxes are enclosed in blocks of at most ENCLOSE_CHUNKS,
    and segments come in blocks of at most BLOCK_POINTS nodes (at least one
    segment).
    """
    span = CHUNK_CELLS
    chunks = -(-resolution // span)
    rows, first = scan, np.zeros(len(scan))  # the open boxes: row, first chunk
    size = 1  # chunks per box
    while size < chunks:
        size *= FAN_OUT
    while rows.size:
        proven = np.zeros(len(rows), dtype=bool)
        for s in range(0, len(rows), ENCLOSE_CHUNKS):
            r, c = rows[s : s + ENCLOSE_CHUNKS], first[s : s + ENCLOSE_CHUNKS, None]
            ends = [
                _nodes(np.minimum(k * span, resolution), lo[r, None], hi[r, None], resolution)
                for k in (c, c + size)
            ]
            elo, ehi = enclose(r, np.minimum(*ends), np.maximum(*ends))
            known = np.isfinite(elo) & np.isfinite(ehi) & ((elo > 0) | (ehi < 0))
            proven[s : s + len(r)] = known[:, 0]
            del ends, elo, ehi, known  # freed before the next block is enclosed
        rows, first = rows[~proven], first[~proven]
        if size == 1:
            break
        size //= FAN_OUT
        rows = np.repeat(rows, FAN_OUT)
        first = (first[:, None] + size * np.arange(float(FAN_OUT))).ravel()
        rows, first = rows[first < chunks], first[first < chunks]
    ramp = np.arange(span + 1.0)
    short = first == chunks - 1
    for pick, cells in ((~short, span), (short, resolution - (chunks - 1) * span)):
        per = max(1, BLOCK_POINTS // (cells + 1))
        picked_rows, picked_first = rows[pick], first[pick] * span
        for s in range(0, len(picked_rows), per):
            yield picked_rows[s : s + per], picked_first[s : s + per], ramp[: cells + 1]


def root_rows(
    fn_rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
    enclose: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple],
    lo: Sequence[float],
    hi: Sequence[float],
    resolution: int = 10000,
) -> list[Union[list[float], ValueError]]:
    """All bracketed roots of many functions, one row per function.

    fn_rows(rows, pts) returns, for every i, function rows[i] evaluated
    elementwise at pts[i]: an array of the shape of the 2-D array pts.
    enclose(rows, a, b) returns arrays (lo, hi) of the shape of the 2-D
    arrays a and b that contain the computed value of function rows[i] at
    every float of [a[i, j], b[i, j]], or are not finite where that is not
    known.

    Row r is scanned on resolution uniform cells over [lo[r], hi[r]].  The
    scan skips the grid nodes of every chunk of CHUNK_CELLS cells whose
    sign the enclosure of the chunk or of a coarser box proves, enclosing
    coarse to fine (see _open_segments); the result is exactly that of a
    scan of every node, which an enclosure that is unknown everywhere
    gives.  Grid nodes that are exact zeros count as roots; every sign
    change between adjacent nodes is refined by scalar bisection to a
    width of 1e-12 (see _bisect_rows), all rows' brackets together, and
    is a root only if the residual there is at most 1e-8 times the largest
    of 1 and the scan values at the cell's ends (a sign change across a
    pole is not).  Roots
    closer than 1e-9 are merged.  Roots separated by less than the grid
    spacing can be missed, as can tangential (even-order) zeros;
    resolution is the caller's knob.

    Returns one entry per row: its sorted roots, or the ValueError that
    rules the row out (a bad interval or resolution, a window too wide for
    floats, a non-finite value on the grid, a pole, or a ValueError raised
    by the row's function at a point that scan and bisection use).  Any
    other exception raised there propagates, the lowest row's first.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    evaluate = _RowEvaluator(fn_rows)
    failed: dict[int, Exception] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(lo < hi) | (resolution < 2) | ~np.isfinite(hi - lo)
    for r in np.flatnonzero(bad).tolist():
        if not lo[r] < hi[r]:
            failed[r] = ValueError("interval needs lo < hi")
        elif resolution < 2:
            failed[r] = ValueError("resolution must be at least 2")
        else:
            failed[r] = ValueError(f"window [{lo[r]:g}, {hi[r]:g}] is wider than the largest float")
    scan = np.flatnonzero(~bad)
    found: list[list[float]] = [[] for _ in lo]
    nonfinite: dict[int, list[tuple[float, list[float]]]] = {}  # row -> (first node, NaN nodes)
    brackets = []
    for rows, first, steps in _open_segments(scan, lo, hi, resolution, enclose):
        cells = len(steps) - 1
        xs = _nodes(first[:, None] + steps, lo[rows, None], hi[rows, None], resolution)
        ys = evaluate(rows, xs)
        for i in np.flatnonzero(~np.isfinite(ys).all(axis=1)):
            nonfinite.setdefault(int(rows[i]), []).append((first[i], xs[i][np.isnan(ys[i])].tolist()))
        zero = ys == 0.0
        zero[first > 0, 0] = False  # the end node of an open segment before, or proven nonzero
        i, j = np.divmod(np.flatnonzero(zero), cells + 1)
        for i, j in zip(i.tolist(), j.tolist()):
            found[rows[i]].append(float(xs[i, j]))
        i, j = np.divmod(np.flatnonzero(ys[:, :-1] * ys[:, 1:] < 0), cells)
        if i.size:
            brackets.append((rows[i], first[i] + j, xs[i, j], xs[i, j + 1], ys[i, j], ys[i, j + 1]))
    for r, segments in nonfinite.items():
        nans = [x for _, xs in sorted(segments) for x in xs]
        failed[r] = evaluate.first_error(r, nans) or ValueError(
            "function returned non-finite values on the scan grid"
        )
    rows = np.zeros(0, dtype=np.intp)
    if brackets:
        rows, k, a, b, ya, yb = (np.concatenate(col) for col in zip(*brackets))
        order = np.lexsort((k, rows))  # by row, then along it, as a full scan finds them
        order = order[[int(r) not in failed for r in rows[order]]]
        rows, a, b, ya, yb = (v[order] for v in (rows, a, b, ya, yb))
    if rows.size:
        us, errors = _bisect_rows(evaluate, rows, a, b, ya, 1e-12)
        resid = evaluate(rows, us[:, None])[:, 0]
        small = np.abs(resid) <= 1e-8 * np.maximum(1.0, np.maximum(np.abs(ya), np.abs(yb)))
        for n, (r, u, res) in enumerate(zip(rows.tolist(), us.tolist(), resid.tolist())):
            if errors[n] is not None:
                failed.setdefault(r, errors[n])
            elif not small[n]:
                failed.setdefault(
                    r, ValueError(f"sign change at u = {u!r} is not a root (residual {res:.3e})")
                )
            else:
                found[r].append(u)
    for r in sorted(failed):
        if not isinstance(failed[r], ValueError):
            raise failed[r]
    out: list[Union[list[float], ValueError]] = []
    for r, roots in enumerate(found):
        if r in failed:
            out.append(failed[r])
            continue
        merged: list[float] = []
        for x in sorted(roots):
            if not merged or x - merged[-1] > 1e-9:
                merged.append(x)
        out.append(merged)
    return out


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
    fn: Callable[[np.ndarray], np.ndarray], zs: Sequence[float], rate: float = 1.0
) -> float:
    """Worst violation of f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1) over all ordered pairs.

    Each pair's violation is relative to the magnitudes of its terms:
    |lhs - rhs| / max(1, |lhs|, |f(z2)|, |e^{-rate*z2}*f(z1)|), so rounding
    in large values of an exact member stays near one ulp of the largest
    term, even where the two terms of rhs cancel.  Zero exactly on the
    family K*(1 - e^{-rate*z}); any other continuous function with f(0)=0
    violates it somewhere.  A pair whose violation is NaN (a NaN value, or
    infinities) makes the residual infinite.  fn is evaluated elementwise
    on arrays, twice: at the samples and at every pair sum z1 + z2; a
    constant result is broadcast.
    """
    zs = np.asarray(zs, dtype=float)
    sums = zs[:, None] + zs  # row z1, column z2
    values = np.broadcast_to(np.asarray(fn(zs), dtype=float), zs.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = np.broadcast_to(np.asarray(fn(sums), dtype=float), sums.shape)
        twisted = elementwise(math.exp, -rate * zs) * values[:, None]
        scale = np.maximum(np.maximum(abs(lhs), abs(values)), np.maximum(abs(twisted), 1.0))
        error = abs(lhs - (values + twisted)) / scale
    return largest(np.where(error == error, error, math.inf))
