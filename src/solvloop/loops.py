"""The three loop families: multiplication, divisions, axioms, consistency.

Points live on R^3; the product of the family over H1 (case A) is

    (x1,y1,z1) * (x2,y2,z2) =
        (x1 + e^{a z1} x2,  y1 + y2 e^{z1} - z2 e^{z1} f(x1,z1),  z1 + z2)

over H2 (case B), with v = h(x1,y1,z1),

    (x1 + e^{a z1}(x2 + v(1 - e^{(a-1) z2})),  y1 + e^{z1}(y2 - z2 v),  z1 + z2)

and over H3 (case C), with v = f(x1,y1,z1),

    (x1 + e^{a z1}(x2 - y2 z1 e^{(a-1) z2} + v(1 - e^{(a-1) z2})),
     y1 + e^{z1} y2,  z1 + z2).

Left division is closed-form in every case (z, then the remaining coordinates
are explicit).  Right division is closed-form in case A; in cases B and C it
is one scalar root problem on a line through the solution of the function-free
part of the equation (right_translation_system in sections), and the search
windows are centered on that solution.  Every law takes float or column
points; right division (loop_rdiv_batch) works on columns throughout: one line
of columns, one proof of the roots of all rows (numerics.root_rows: flat
arrays, so that only failed rows and rows with two or more roots are handled
one by one), the lone roots' proved boxes narrowed to 1e-12 by the same
interval Newton operator (numerics.narrow_roots), one multiply-back that
validates every quotient, case A's included.  coset_cross_check re-derives
every product through the group: lift the left factor with the section,
multiply by a representative of the right coset, decompose.  Agreement of the
two pipelines is the master consistency check of the whole construction.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .group import coordinate_distance, exp, expm1, mul, split
from .numerics import narrow_roots, root_rows
from .report import VerificationReport
from .sampling import Stream
from .sections import (
    SectionSpec,
    line_residual_rows,
    record_generation,
    right_translation_system,
    section_lift,
    section_value,
)
from .subgroups import LoopPoint, decompose, embed


class RightDivisionError(RuntimeError):
    """Right division could not be certified on the search window."""


class NoRootInBoxError(RightDivisionError):
    pass


class MultipleRootsError(RightDivisionError):
    pass


class SolverDivergenceError(RightDivisionError):
    pass


def loop_mul(spec: SectionSpec, m1: LoopPoint, m2: LoopPoint) -> LoopPoint:
    return _product(spec, m1, m2, section_value(spec, m1))


def _product(spec: SectionSpec, m1: LoopPoint, m2: LoopPoint, v) -> LoopPoint:
    """m1 * m2, given the section value v at m1."""
    a = spec.param.a
    x1, y1, z1 = m1.coords
    x2, y2, z2 = m2.coords
    ea = exp(a * z1)
    e = exp(z1)
    if spec.case == "A":
        return LoopPoint(x1 + ea * x2, y1 + y2 * e - z2 * e * v, z1 + z2)
    # 1 - e^{(a-1) z2} = -expm1((a-1) z2)
    em1 = expm1((a - 1.0) * z2)
    if spec.case == "B":
        return LoopPoint(x1 + ea * (x2 - v * em1), y1 + e * (y2 - z2 * v), z1 + z2)
    return LoopPoint(
        x1 + ea * (x2 - y2 * z1 * exp((a - 1.0) * z2) - v * em1), y1 + e * y2, z1 + z2
    )


def loop_ldiv(spec: SectionSpec, m1: LoopPoint, b: LoopPoint) -> LoopPoint:
    """The unique w with m1 * w = b; closed-form in every case."""
    a = spec.param.a
    x1, y1, z1 = m1.coords
    ea = exp(-a * z1)
    e = exp(-z1)
    wz = b.z - z1
    v = section_value(spec, m1)
    if spec.case == "A":
        return LoopPoint(ea * (b.x - x1), e * (b.y - y1) + wz * v, wz)
    em1 = expm1((a - 1.0) * wz)
    if spec.case == "B":
        return LoopPoint(ea * (b.x - x1) + v * em1, e * (b.y - y1) + wz * v, wz)
    wy = e * (b.y - y1)
    return LoopPoint(ea * (b.x - x1) + wy * z1 * exp((a - 1.0) * wz) + v * em1, wy, wz)


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
    together in numerics.root_rows, whose proofs np.bincount counts per row,
    and the proved box of every lone root is narrowed to at most 1e-12
    (numerics.narrow_roots), whose midpoint is the root.  A row gets a
    MultipleRootsError when the sharp-transitivity hypothesis fails on the
    window, and a SolverDivergenceError when its root count is unresolved.
    Every other quotient is validated in one multiply-back: residual holds
    the coordinate distance of q * m2 from b in those rows (inf in the
    rest), and a row beyond 1e-8 (a NaN quotient included) gets a
    SolverDivergenceError.  errors maps the failed rows to their errors; q
    holds every row, failed ones included.
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
            rows, lo, hi, failed = root_rows(*line_residual_rows(line, pending), -ends, ends)
            counts = np.bincount(rows, minlength=len(pending))
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
            counts[list(failed)] = -1
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
        errors[i] = SolverDivergenceError(
            f"right division residual {residual[i]:.3e} exceeds 1e-8"
        )
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
