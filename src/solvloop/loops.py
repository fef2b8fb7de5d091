"""The three loop families: multiplication, divisions, axioms, consistency.

Points live on R^3; the product of the family over H1 (case A) is

    (x1,y1,z1) * (x2,y2,z2) =
        (x1 + e^{a z1} x2,  y1 + y2 e^{z1} - z2 e^{z1} f(x1,z1),  z1 + z2)

over H2 (case B), with v = h(x1,y1,z1),

    (x1 + e^{a z1}(x2 + v(1 - e^{(a-1) z2})),  y1 + e^{z1}(y2 - z2 v),  z1 + z2)

and over H3 (case C), with v = f(x1,y1,z1),

    (x1 + e^{a z1}(x2 - y2 z1 e^{(a-1) z2} + v(1 - e^{(a-1) z2})),
     y1 + e^{z1} y2,  z1 + z2).

Left division is read off the group: the w with m1 * w = b is the coset of
lift(m1)^-1 * embed(b).  Right division is closed-form in case A; in cases B
and C it is one scalar root problem per row on a line through the solution
of the function-free part of the equation (right_translation_system), whose
roots numerics.root_rows proves on windows centered on that solution, for
all rows of column points at once (loop_rdiv_batch).  sharp_transitivity_check
counts the roots of the same lines on a sampled box: right translations are
bijective where every count is 1.  coset_cross_check re-derives every product
through the group: lift the left factor with the section, multiply by a
representative of the right coset, decompose.  Agreement of the two
pipelines is the master consistency check of the whole construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import expressions
from .group import coordinate_distance, exp, expm1, inv, mul, split
from .numerics import narrow_roots, root_rows
from .report import VerificationReport
from .sampling import Stream
from .sections import FunctionSpec, SectionSpec, record_generation, section_lift, section_value
from .subgroups import LoopPoint, decompose, embed, subgroup_element


class RightDivisionError(RuntimeError):
    """Right division could not be certified on the search window."""


class NoRootInBoxError(RightDivisionError):
    pass


class MultipleRootsError(RightDivisionError):
    pass


class SolverDivergenceError(RightDivisionError):
    pass


def loop_mul(spec: SectionSpec, m1: LoopPoint, m2: LoopPoint) -> LoopPoint:
    a = spec.param.a
    v = section_value(spec, m1)
    x1, y1, z1 = m1.coords
    x2, y2, z2 = m2.coords
    ea, e = exp(a * z1), exp(z1)
    if spec.case == "A":
        return LoopPoint(x1 + ea * x2, y1 + y2 * e - z2 * e * v, z1 + z2)
    # 1 - e^{(a-1) z2} = -expm1((a-1) z2)
    em1 = expm1((a - 1.0) * z2)
    if spec.case == "B":
        return LoopPoint(x1 + ea * (x2 - v * em1), y1 + e * (y2 - z2 * v), z1 + z2)
    return LoopPoint(x1 + ea * (x2 - y2 * z1 * exp((a - 1.0) * z2) - v * em1), y1 + e * y2, z1 + z2)


def loop_ldiv(spec: SectionSpec, m1: LoopPoint, b: LoopPoint) -> LoopPoint:
    """The unique w with m1 * w = b: the coset of lift(m1)^-1 * embed(b), which holds embed(w).

    lift(m1)^-1 is h(-f(m1)) * embed(m1)^-1: inv(lift(m1)) would cancel the lift's terms z e^z f.
    """
    p, sub = spec.param, spec.subgroup
    g = mul(p, inv(p, embed(p, sub, m1)), embed(p, sub, b))
    return decompose(p, sub, mul(p, subgroup_element(sub, -section_value(spec, m1)), g)).rep


class RightTranslationLine(NamedTuple):
    """The equations q * m2 = b of cases B and C, one row each, reduced to one scalar unknown.

    Every solution of a row has q = (base + u*direction, qz) with u solving

        u = scale * f(base + u*direction, qz),

    and max|direction_k| = 1, so a window u in [lo, hi] stays inside the
    square base + [lo, hi]^2 of the (x, y) plane.  m2 with z = 0 gives
    scale = 0: then u = 0 and q = (base, qz) is the only solution.  The
    fields are float64 columns, one row per equation (case C's direction
    stays the floats (1.0, 0.0)).
    """

    fn: FunctionSpec
    qz: np.ndarray
    base: tuple[np.ndarray, np.ndarray]
    direction: tuple[np.ndarray, np.ndarray]
    scale: np.ndarray

    def point(self, u) -> LoopPoint:
        (bx, by), (dx, dy) = self.base, self.direction
        return LoopPoint(bx + u * dx, by + u * dy, self.qz)

    def window(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """The (lower, upper) columns of the u-intervals whose points lie in the squares base + [lo, hi]^2.

        A coordinate the direction does not move (case C's y) is left
        unconstrained, so case C's window is [lo, hi] on x - base_x.  The
        ends are taken as Python's min and max take them, NaN included, and
        a row whose square misses its line has not lower < upper.
        """
        lower, upper = -math.inf, math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for d in self.direction:
                a, b = np.divide(lo, d), np.divide(hi, d)
                moved = np.asarray(d) != 0.0
                # max(lower, min(a, b)) and min(upper, max(a, b))
                least, most = np.where(b < a, b, a), np.where(b > a, b, a)
                lower = np.where(moved & (least > lower), least, lower)
                upper = np.where(moved & (most < upper), most, upper)
        lower, upper, _ = np.broadcast_arrays(lower, upper, self.qz)
        return lower, upper


def _missed(lo: float, hi: float) -> ValueError:
    return ValueError(f"the box [{lo:g}, {hi:g}]^2 misses the solution line")


# a line's residual as an expression over u and the line's columns
_LINE_RESIDUAL = expressions.parse("u - scale*f", ("u", "scale", "f"))
_LINE_POINT = {
    name: expressions.parse(text, ("u", "bx", "by", "dx", "dy", "qz"))
    for name, text in (("x", "bx + u*dx"), ("y", "by + u*dy"), ("z", "qz"))
}


def line_residual_rows(line: RightTranslationLine, rows: np.ndarray) -> tuple[expressions.Node, dict]:
    """(tree, columns) for numerics.root_rows whose row i is row rows[i] of the line.

    The tree is the residual u - scale*f over u and the line's columns,
    written as the float steps of its evaluation (the point bx + u*dx,
    by + u*dy, qz, the section's tree there, then u - scale*f), so that
    expressions.enclose bounds its computed values, not only exact ones.
    """
    tree = expressions.substitute(_LINE_RESIDUAL, {"f": expressions.substitute(line.fn.tree, _LINE_POINT)})
    fields = np.broadcast_arrays(*line.base, *line.direction, line.qz, line.scale)
    return tree, {name: col[rows] for name, col in zip(("bx", "by", "dx", "dy", "qz", "scale"), fields)}


def right_translation_system(
    spec: SectionSpec, m2: LoopPoint, b: LoopPoint
) -> RightTranslationLine:
    """The line form of q * m2 = b for cases B and C, one row per row of the column points.

    Case C fixes q_y and leaves x = center + coef * f(x, q_y, q_z): direction
    (1, 0) and scale coef.  Case B puts (x, y) on the line
    (cx, cy) + h * (tx, ty) with h = h(x, y, q_z): direction t / |t|_inf and
    scale |t|_inf, the larger of |tx| and |ty| as Python's max takes it.
    Case A is closed-form and has no implicit system.  Exponentials are
    group.exp and group.expm1 (numpy's), so overflow raises OverflowError.
    """
    a = spec.param.a
    x1, y1, z1 = m2.coords
    x2, y2, z2 = b.coords
    z = z2 - z1
    if spec.case == "C":
        y = y2 - exp(z) * y1
        outer = exp(a * z2 - z1)
        center = x2 - exp(a * z) * x1 + outer * y1 * z
        coef = outer * -expm1((1.0 - a) * z1)
        return RightTranslationLine(spec.fn, z, (center, y), (1.0, 0.0), coef)
    if spec.case == "B":
        ea, e = exp(a * z), exp(z)
        base = (x2 - ea * x1, y2 - e * y1)
        t = (ea * expm1((a - 1.0) * z1), e * z1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(abs(t[1]) > abs(t[0]), abs(t[1]), abs(t[0]))
            direction = tuple(np.where(scale != 0.0, np.divide(tk, scale), d) for tk, d in zip(t, (1, 0)))
        return RightTranslationLine(spec.fn, z, base, direction, scale)
    raise ValueError("case A right translations are closed-form")


def _line_roots(line: RightTranslationLine, rows: np.ndarray, lo, hi):
    """(counts, (i, a, b), errors): root_rows on the given rows of the line; counts[i] = -1 where errors has i."""
    found, a, b, errors = root_rows(*line_residual_rows(line, rows), lo, hi)
    counts = np.bincount(found, minlength=len(rows))
    counts[list(errors)] = -1
    return counts, (found, a, b), errors


def loop_rdiv_batch(
    spec: SectionSpec, b: LoopPoint, m2: LoopPoint
) -> tuple[LoopPoint, np.ndarray, dict[int, RightDivisionError]]:
    """(q, residual, errors): for every row of the column points b and m2,
    the q with q * m2 = b.

    Case A is closed-form, and so are cases B and C in the rows where m2 has
    z = 0.  Otherwise cases B and C prove the number of *all* roots of the
    scalar line equation of right_translation_system on the window of half
    width 10 on the line around the function-free solution, doubling it up
    to 4 times for the rows where there is none; all rows are proved
    together in numerics.root_rows, and the proved box of every lone root
    is narrowed to at most 1e-12 (numerics.narrow_roots), whose midpoint is
    the root.  A row gets a MultipleRootsError when the sharp-transitivity
    hypothesis fails on the window, and a SolverDivergenceError when its
    root count is unresolved.  Every other quotient is validated in one
    multiply-back: residual holds the coordinate distance of q * m2 from b
    in those rows (inf in the rest), and a row beyond 1e-8 (a NaN quotient
    included) gets a SolverDivergenceError.  errors maps the failed rows to
    their errors; q holds every row, failed ones included.
    """
    a = spec.param.a
    errors: dict[int, RightDivisionError] = {}
    if spec.case == "A":
        qz = b.z - m2.z
        qx = b.x - exp(a * qz) * m2.x
        e = exp(qz)
        q = LoopPoint(qx, b.y - m2.y * e + m2.z * e * spec.fn(qx, qz), qz)
    else:
        line = right_translation_system(spec, m2, b)
        us = np.zeros(len(line.qz))
        pending = np.flatnonzero(line.scale != 0.0)  # NaN scales are solved for too
        single = [(pending[:0], us[:0], us[:0])]  # the rows and proved boxes of lone roots
        width = 10.0
        for _ in range(5):
            if not pending.size:
                break
            ends = np.full(len(pending), width)
            counts, (rows, lo, hi), failed = _line_roots(line, pending, -ends, ends)
            for r, cause in failed.items():
                err = SolverDivergenceError(f"{cause} (window half width {width:g})")
                err.__cause__ = cause
                errors[int(pending[r])] = err
            for r in np.flatnonzero(counts > 1).tolist():
                i = int(pending[r])
                errors[i] = MultipleRootsError(
                    f"{counts[r]} roots in window of half width {width:g} around {_base(line, i)}"
                )
            lone = counts[rows] == 1
            single.append((pending[rows[lone]], lo[lone], hi[lone]))
            pending = pending[counts == 0]
            width *= 2.0
        for i in pending.tolist():
            errors[i] = NoRootInBoxError(
                f"no root in window of half width {width / 2.0:g} around {_base(line, i)}"
            )
        rows, lo, hi = (np.concatenate(v) for v in zip(*single))
        if rows.size:
            lo, hi = narrow_roots(*line_residual_rows(line, rows), lo, hi)
            us[rows] = 0.5 * (lo + hi)
        q = line.point(us)
    residual = np.full(len(q.z), math.inf)
    solved = np.delete(np.arange(len(q.z)), list(errors))
    if solved.size:
        q_s, m2_s, b_s = (LoopPoint(*(col[solved] for col in p.coords)) for p in (q, m2, b))
        residual[solved] = coordinate_distance(loop_mul(spec, q_s, m2_s).coords, b_s.coords)
    for i in solved[~(residual[solved] <= 1e-8)].tolist():
        errors[i] = SolverDivergenceError(f"right division residual {residual[i]:.3e} exceeds 1e-8")
    return q, residual, errors


def _base(line, i: int) -> tuple[float, float]:
    """Row i's base point of a column line, as floats (a tuple of np.float64 prints their type)."""
    return (float(line.base[0][i]), float(line.base[1][i]))


def coset_cross_check(spec: SectionSpec, m1: LoopPoint, m2: LoopPoint):
    """Distance between the formula product and the group-theoretic coset product.

    A float, or for column points the distance of every row.
    """
    p = spec.param
    sub = spec.subgroup
    g = mul(p, section_lift(spec, m1), embed(p, sub, m2))
    rep = decompose(p, sub, g).rep
    return coordinate_distance(rep.coords, loop_mul(spec, m1, m2).coords)


def associativity_defect(spec: SectionSpec, m1: LoopPoint, m2: LoopPoint, m3: LoopPoint) -> float:
    left = loop_mul(spec, loop_mul(spec, m1, m2), m3)
    right = loop_mul(spec, m1, loop_mul(spec, m2, m3))
    return coordinate_distance(left.coords, right.coords)


def _sample_points(
    rng, n: int, count: int, xy_half_width: float, z_half_width: float
) -> list[LoopPoint]:
    """count column points of n rows, drawn in one block, sample by sample."""
    lo = [-xy_half_width, -xy_half_width, -z_half_width] * count
    return split(LoopPoint, rng.uniform(lo, [-bound for bound in lo], (n, 3 * count)))


def axiom_suite(
    spec: SectionSpec,
    n_samples: int = 1000,
    seed: int = 0,
    z_half_width: Optional[float] = None,
) -> VerificationReport:
    """Sampled quasigroup-with-identity checks.

    Identity laws, both division round trips, z-additivity, and (cases B/C)
    uniqueness of the right-division root on its window.  x and y are
    sampled in [-5, 5]; the default z sampling range is the full box for case A and [-0.5, 0.5] for B/C, where
    the shipped presets keep the implicit equations uniquely solvable.  The
    samples m1, m2, b are drawn row by row and every law runs once on the
    columns of all samples; the right divisions run in one loop_rdiv_batch.

    Right-division targets are products of sampled factors, so every division
    problem posed has its solution inside the sampling box.  Unconstrained
    targets can put the solution a z-gap of 2*z_half_width away from m2, and
    the e^{a*dz} terms then amplify double-precision rounding past any fixed
    tolerance even though the recovered point is correct to that conditioning.
    """
    if z_half_width is None:
        z_half_width = 5.0 if spec.case == "A" else 0.5
    rng = Stream(seed)
    report = VerificationReport(seed=seed)
    e = LoopPoint.origin()
    m1, m2, b = _sample_points(rng, n_samples, 3, 5.0, z_half_width)
    report.bound(
        "identity-laws",
        np.maximum(
            coordinate_distance(loop_mul(spec, e, m1).coords, m1.coords),
            coordinate_distance(loop_mul(spec, m1, e).coords, m1.coords),
        ),
        1e-12,
    )
    w = loop_ldiv(spec, m1, b)
    report.bound("ldiv-round-trip", coordinate_distance(loop_mul(spec, m1, w).coords, b.coords), 1e-9)
    _, residual, errors = loop_rdiv_batch(spec, loop_mul(spec, b, m2), m2)
    division_errors = [
        f"sample {i}: {type(err).__name__}: {err}" for i, err in sorted(errors.items())
    ]
    residual[list(errors)] = 0.0  # the failed rows are reported by name
    rdiv_max = float(np.max(residual, initial=0.0))
    report.record(
        "rdiv-round-trip",
        n_samples > 0 and rdiv_max <= 1e-8 and not division_errors,
        max_error=rdiv_max,
        n_samples=n_samples,
        notes="; ".join(division_errors[:5]),
    )
    report.bound("z-additivity", np.abs(loop_mul(spec, m1, m2).z - (m1.z + m2.z)), 0.0)
    if division_errors:
        report.data["division_errors"] = division_errors
    return report


def loop_suite(
    spec: SectionSpec,
    n_samples: int = 500,
    seed: int = 0,
    z_half_width: Optional[float] = None,
) -> VerificationReport:
    """axiom_suite, then the coset cross-check, then the generation verdict.

    The cross-check samples up to 300 pairs from the seed after axiom_suite's,
    with z in [-z_half_width, z_half_width] (default 5), and checks them in
    one pass.  The generation check is generation_suite's
    (sections.record_generation): it only warns for a degenerate section,
    which is legitimate input, and fails when the verdict could not be
    reached.
    """
    report = axiom_suite(spec, n_samples=n_samples, seed=seed, z_half_width=z_half_width)
    rng = Stream(seed + 1)
    z_hw = z_half_width if z_half_width is not None else 5.0
    pairs = _sample_points(rng, min(n_samples, 300), 2, 5.0, z_hw)
    report.bound("coset-cross-check", coset_cross_check(spec, *pairs), 1e-10)
    record_generation(report, spec, "generation", "generation")
    return report


def sharp_transitivity_check(
    spec: SectionSpec,
    box: tuple[float, float] = (-5.0, 5.0),
    n_samples: int = 100,
    seed: int = 0,
    z_half_width: float = 0.5,
    samples: Optional[Sequence[tuple[LoopPoint, LoopPoint]]] = None,
) -> VerificationReport:
    """Certify unique solvability of q * m2 = b over sampled (m2, b) pairs.

    The root search window is the box [lo, hi] translated to the affine base
    of the implicit equation (the exact solution when the section function
    vanishes): an interval of x in case C, the square base + [lo, hi]^2 of
    (x, y) in case B, cut down to the solution line.  The x and y of m2 and
    b are sampled in [-5, 5] and their z in [-z_half_width, z_half_width],
    so the function coefficient stays bounded on the window.  Both cases
    prove the number of roots of the scalar line equation of every sample
    in one numerics.root_rows call.  Every sample contributes its root count
    (-1 for a missed window, or for an unresolved count: a pole, a NaN value
    or a tangential root on its window), and a failure is reported, never
    dropped.
    """
    report = VerificationReport(seed=seed)
    if spec.case == "A":
        report.record(
            "unique-root",
            True,
            max_error=0.0,
            n_samples=0,
            notes="closed-form division; right translations are globally bijective",
        )
        return report
    if samples is None:
        lo = [-5.0] * 4 + [-z_half_width] * 2
        draws = Stream(seed).uniform(lo, [-bound for bound in lo], (n_samples, 6))
    else:
        draws = np.array([(*m2[:2], *b[:2], m2.z, b.z) for m2, b in samples], dtype=float)
    x1, y1, x2, y2, z1, z2 = draws.reshape(-1, 6).T
    line = right_translation_system(spec, LoopPoint(x1, y1, z1), LoopPoint(x2, y2, z2))
    lower, upper = line.window(*box)
    hit = np.flatnonzero(lower < upper)
    counts = np.full(len(z1), -1)  # -1 for a missed window or a failed row
    counts[hit], _, errors = _line_roots(line, hit, lower[hit], upper[hit])
    errors = {int(hit[r]): e for r, e in errors.items()}
    off = np.abs(counts - 1.0)
    bad = np.flatnonzero(off).tolist()
    failures = [f"sample {i}: {errors.get(i, _missed(*box))}" for i in bad if counts[i] < 0]
    notes = "all sampled right translations have exactly one preimage on the window"
    if bad:
        shown = ", ".join(f"sample {i}: {counts[i]} roots" for i in bad[:5] if counts[i] >= 0)
        notes = "; ".join(filter(None, [shown] + failures[:5]))
    report.bound("unique-root", off, 0.0, notes=notes)
    report.data["root_counts"] = counts.tolist()
    if failures:
        report.data["failures"] = failures
    return report
