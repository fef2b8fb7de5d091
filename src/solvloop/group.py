"""Arithmetic in a one-parameter family of 4-dimensional solvable matrix groups.

An element with coordinates (x1, x2, x3, x4) is the upper-triangular matrix

    [ e^(a*x4)   0          0          x1 ]
    [ 0          e^x4       x4*e^x4    x2 ]
    [ 0          0          e^x4       x3 ]
    [ 0          0          0          1  ]

for a fixed real shape parameter a != 0.  The group is solvable; its
commutator subgroup is the abelian slab {x4 = 0}.  This module provides the
product, inverse and matrix conversions, the Lie algebra (brackets, matrix
representation, exponential), the automorphisms fixing the grading direction,
and the exact rank that decides the dimensions of the centre and of
normalizers from the bracket table.

The coordinates of GroupElement and AlgebraVector may be floats or
equal-length float64 columns, one row per sample (scalars mixed with columns
broadcast).  The law functions evaluate all rows of columns at once, each row
bit for bit as the scalar call would.  Their exponentials, exp and expm1, are
numpy's on floats and columns alike (so report digits may differ in the last
bits across CPUs) and raise OverflowError, a usage error on the command line.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class GroupParam:
    """Shape parameter of the group family.  a = 0 is excluded (the matrix form degenerates)."""

    def __init__(self, a: float) -> None:
        if a == 0:
            raise ValueError("shape parameter a must be nonzero")
        if not math.isfinite(a):
            raise ValueError("shape parameter a must be finite")
        self.a = a


class GroupElement(NamedTuple):
    x1: float
    x2: float
    x3: float
    x4: float

    coords = property(tuple)  # (x1, x2, x3, x4)


IDENTITY = GroupElement(0.0, 0.0, 0.0, 0.0)


class AlgebraVector(NamedTuple):
    """Tangent vector c1*e1 + c2*e2 + c3*e3 + c4*e4 at the identity."""

    c1: float
    c2: float
    c3: float
    c4: float

    coords = property(tuple)  # (c1, c2, c3, c4)

    def scaled(self, factor: float) -> "AlgebraVector":
        return AlgebraVector(factor * self.c1, factor * self.c2, factor * self.c3, factor * self.c4)

    def plus(self, other: "AlgebraVector") -> "AlgebraVector":
        return AlgebraVector(*(x + y for x, y in zip(self, other)))


E1 = AlgebraVector(1.0, 0.0, 0.0, 0.0)
E2 = AlgebraVector(0.0, 1.0, 0.0, 0.0)
E3 = AlgebraVector(0.0, 0.0, 1.0, 0.0)
E4 = AlgebraVector(0.0, 0.0, 0.0, 1.0)
BASIS = (E1, E2, E3, E4)


def coordinate_distance(u: Sequence, v: Sequence):
    """Hybrid absolute/relative distance: max_i |u_i - v_i| / max(1, |u_i|, |v_i|).

    Behaves like an absolute bound near the origin and like a relative bound
    for large coordinates, so a single tolerance is meaningful across the
    exponential coordinate growth of the group.  A NaN difference (a NaN
    coordinate, or infinities that do not match) is infinitely far, so no
    tolerance test can pass on it.  A float for float coordinates; the
    distance of every row for columns.
    """
    if len(u) != len(v):
        raise ValueError("coordinate tuples must have equal length")
    worst = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in zip(u, v):
            # np.maximum keeps a NaN once it appears
            worst = np.maximum(worst, abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1.0))
    worst = np.where(worst == worst, worst, math.inf)
    return worst if worst.ndim else float(worst)


def stack(points: Sequence):
    """Points of one coordinate record as one point with a column per coordinate."""
    return type(points[0])(*np.array([q.coords for q in points], dtype=float).T)


def split(cls, rows: np.ndarray) -> list:
    """Draws with one sample per row as column points of cls, one per run of its arity columns."""
    arity = len(cls._fields)
    return [cls(*rows[:, i : i + arity].T) for i in range(0, rows.shape[1], arity)]


def _unless_overflow(fn, x):
    """fn(x) for fn np.exp or np.expm1: a float for a float, a column for a column.

    Raises math's OverflowError where a finite entry overflows; NaN and inf do not.
    Neither overflows at or below 709 (the log of the largest float is 709.78).
    """
    column = isinstance(x, np.ndarray)
    if not ((x > 709.0).any() if column else x > 709.0):
        return fn(x) if column else float(fn(x))
    with np.errstate(over="ignore"):
        y = fn(x)
    if np.any(np.isinf(y) & np.isfinite(x)):
        raise OverflowError("math range error")
    return y if column else float(y)


def exp(x):
    """e^x of a float or of every entry of a column (see _unless_overflow)."""
    return _unless_overflow(np.exp, x)


def expm1(x):
    """e^x - 1 of a float or of every entry of a column (see _unless_overflow)."""
    return _unless_overflow(np.expm1, x)


def mul(p: GroupParam, g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product, read off from the matrix product of the two representatives."""
    ea = exp(p.a * g.x4)
    e = exp(g.x4)
    return GroupElement(
        g.x1 + ea * h.x1,
        g.x2 + e * h.x2 + g.x4 * e * h.x3,
        g.x3 + e * h.x3,
        g.x4 + h.x4,
    )


def inv(p: GroupParam, g: GroupElement) -> GroupElement:
    ea = exp(-p.a * g.x4)
    e = exp(-g.x4)
    return GroupElement(
        -ea * g.x1,
        -e * g.x2 + g.x4 * e * g.x3,
        -e * g.x3,
        -g.x4,
    )


def conjugate(p: GroupParam, g: GroupElement, h: GroupElement) -> GroupElement:
    """g * h * g^-1."""
    return mul(p, mul(p, g, h), inv(p, g))


def _matrices(rows) -> np.ndarray:
    """4x4 matrices from rows of entries; entries that are columns give shape (n, 4, 4)."""
    out = np.empty(np.broadcast_shapes(*(np.shape(e) for row in rows for e in row)) + (4, 4))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def as_matrix(p: GroupParam, g: GroupElement) -> np.ndarray:
    e = exp(g.x4)
    return _matrices(
        [
            [exp(p.a * g.x4), 0.0, 0.0, g.x1],
            [0.0, e, g.x4 * e, g.x2],
            [0.0, 0.0, e, g.x3],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def algebra_matrix(p: GroupParam, v: AlgebraVector) -> np.ndarray:
    """Tangent matrix whose one-parameter exponential has velocity v at the identity."""
    return _matrices(
        [
            [p.a * v.c4, 0.0, 0.0, v.c1],
            [0.0, v.c4, v.c4, v.c2],
            [0.0, 0.0, v.c4, v.c3],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def bracket(p: GroupParam, u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
    """Lie bracket from the structure table.

    Nonzero basis brackets: [e1,e4] = a*e1, [e2,e4] = e2, [e3,e4] = e2 + e3.
    Bilinear extension; the result always lies in span(e1, e2, e3).
    """
    s = u.c1 * v.c4 - u.c4 * v.c1
    t = u.c2 * v.c4 - u.c4 * v.c2
    r = u.c3 * v.c4 - u.c4 * v.c3
    return AlgebraVector(p.a * s, t + r, r, 0.0)


def commutator_oracle(p: GroupParam, u: AlgebraVector, v: AlgebraVector) -> AlgebraVector:
    """Bracket computed independently as a matrix commutator.

    The matrix model realizes the structure table with the grading direction
    reversed, so both arguments have their fourth coefficient negated before
    the commutator AB - BA is taken.  The commutator always lands in
    span(e1, e2, e3), where the flip is the identity, so the result compares
    directly against bracket().
    """
    a, b = (algebra_matrix(p, w._replace(c4=-w.c4)) for w in (u, v))
    c = a @ b - b @ a
    return AlgebraVector(*(c[..., i, j][()] for i, j in ((0, 3), (1, 3), (2, 3), (2, 2))))


def _phi1(x: np.ndarray) -> np.ndarray:
    """(e^x - 1) / x, continued by 1 at x = 0."""
    return np.where(x != 0, expm1(x) / x, 1.0)


# _jordan(x) = x * sum_{k=1}^{20} x^(k-1) / ((k-1)! (k+1)) to double precision for |x| < 0.5;
# the coefficients, highest power first, as np.polyval takes them
_JORDAN_SERIES = [1.0 / (math.factorial(k - 1) * (k + 1)) for k in range(20, 0, -1)]


def _jordan(x: np.ndarray) -> np.ndarray:
    """x * integral_0^1 s e^{sx} ds = e^x - (e^x - 1)/x, by its series where that cancels."""
    out = np.asarray(exp(x) - expm1(x) / x)
    small = abs(x) < 0.5
    if small.any():  # the series, by Horner's rule
        out[small] = x[small] * np.polyval(_JORDAN_SERIES, x[small])
    return out


def exp_alg(p: GroupParam, v: AlgebraVector, t=1.0) -> GroupElement:
    """One-parameter subgroup through the identity with coordinate velocity v, at time t.

    Closed form of the exponential of t * algebra_matrix(p, v), with
    mu = c4 t: the diagonal rows give phi1 factors (e^x - 1)/x, and the
    Jordan block of the e2/e3 rows adds c3 t * mu * integral_0^1 s e^{s mu} ds
    to the second coordinate.  v and t may be columns, one row per sample.
    """
    mu = v.c4 * t
    x = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0/0 rows at x = 0 are replaced
        phi, phi_a, jordan = _phi1(x), _phi1(p.a * x), _jordan(x)
    coords = (v.c1 * t * phi_a, v.c2 * t * phi + v.c3 * t * jordan, v.c3 * t * phi)
    return GroupElement(*(c if np.ndim(c) else float(c) for c in coords), mu)


class AutomorphismParams:
    """Parameters of an automorphism fixing the grading direction modulo the slab.

    Columns of the matrix are the images of e1..e4:

        e1 -> k1*e1 + k2*e2,  e2 -> l*e2,  e3 -> n1*e1 + n2*e2 + l*e3,
        e4 -> f1*e1 + f2*e2 + f3*e3 + e4

    with k1*l != 0.  automorphism_matrix refuses nonzero k2 or n1 unless
    a = 1, where the weight spaces of e1 and e3 merge.  vars() of an
    instance lists the parameters in this signature's order.
    """

    def __init__(
        self,
        k1: float = 1.0,
        k2: float = 0.0,
        l: float = 1.0,
        n1: float = 0.0,
        n2: float = 0.0,
        f1: float = 0.0,
        f2: float = 0.0,
        f3: float = 0.0,
    ) -> None:
        if k1 * l == 0:
            raise ValueError("k1 and l must be nonzero (the map must be invertible)")
        self.k1, self.k2, self.l, self.n1 = k1, k2, l, n1
        self.n2, self.f1, self.f2, self.f3 = n2, f1, f2, f3


def automorphism_matrix(p: GroupParam, phi: AutomorphismParams) -> np.ndarray:
    if (phi.k2 != 0 or phi.n1 != 0) and p.a != 1:
        raise ValueError("automorphisms with nonzero k2 or n1 exist only at a = 1")
    return np.array(
        [
            [phi.k1, 0.0, phi.n1, phi.f1],
            [phi.k2, phi.l, phi.n2, phi.f2],
            [0.0, 0.0, phi.l, phi.f3],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def apply_automorphism(p: GroupParam, phi: AutomorphismParams, v: AlgebraVector) -> AlgebraVector:
    """The image of v, a vector or columns of vectors, under the automorphism.

    Each image coordinate is the sum m[i,0]*c1 + m[i,1]*c2 + m[i,2]*c3 +
    m[i,3]*c4 of the automorphism matrix's row, taken left to right, so a
    column row is its vector's image bit for bit; a matrix product's
    summation order is the BLAS kernel's.
    """
    m = automorphism_matrix(p, phi).tolist()
    return AlgebraVector(*(r[0] * v.c1 + r[1] * v.c2 + r[2] * v.c3 + r[3] * v.c4 for r in m))


def exact_rank(columns: Sequence[Sequence[float]]) -> int:
    """Rank of the matrix with these float columns, exactly.

    Every finite float is a dyadic rational, so scaling by the largest
    denominator of the entries makes them integers; elimination without
    division then keeps them integers.
    """
    ratios = [[float(x).as_integer_ratio() for x in column] for column in columns]
    scale = max((d for column in ratios for _, d in column), default=1)
    rows = [[n * (scale // d) for n, d in column] for column in ratios]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[j]), None)
        if pivot is not None:
            rest = (r for r in rows if r is not pivot)
            rows = [[x * pivot[j] - y * r[j] for x, y in zip(r, pivot)] for r in rest]
            rank += 1
    return rank


def center_dim(p: GroupParam) -> int:
    """Dimension of the centre: v is central iff [v, e_j] = 0 for every basis vector e_j."""
    return 4 - exact_rank([[c for f in BASIS for c in bracket(p, e, f)] for e in BASIS])


def normalizer_dim(p: GroupParam, h: AlgebraVector) -> int:
    """Dimension of the normalizer {v : [v, h] in span(h)} of a nonzero h.

    v = sum_k c_k e_k is in it iff (c, s) -> sum_k c_k [e_k, h] - s*h vanishes
    for some s, which h != 0 makes unique: the dimension is that map's
    kernel, 5 minus the rank of the columns [e_k, h] and -h.
    """
    return 5 - exact_rank([*(bracket(p, e, h) for e in BASIS), h.scaled(-1.0)])
