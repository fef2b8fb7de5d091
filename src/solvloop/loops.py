"""The three loop families: multiplication, divisions, axioms, consistency.

Points live on R^3; the product of the family over H1 (case A) is

    (x1,y1,z1) * (x2,y2,z2) =
        (x1 + e^{a z1} x2,  y1 + y2 e^{z1} - z2 e^{z1} f(x1,z1),  z1 + z2)

over H2 (case B), with v = h(x1,y1,z1),

    (x1 + e^{a z1}(x2 + v(1 - e^{(a-1) z2})),  y1 + e^{z1}(y2 - z2 v),  z1 + z2)

and over H3 (case C), with v = f(x1,y1,z1),

    (x1 + e^{a z1}(x2 - y2 z1 e^{(a-1) z2} + v(1 - e^{(a-1) z2})),
     y1 + e^{z1} y2,  z1 + z2).

Left division is closed-form in every case (z, then the remaining
coordinates are explicit).  Right division is closed-form in case A; in
cases B and C it is one scalar root problem on a line through the solution
of the function-free part of the equation (right_translation_system in
sections), and the search windows are centered on that solution.
coset_cross_check re-derives every product through the group: lift the left
factor with the section, multiply by a representative of the right coset,
decompose.  Agreement of the two pipelines is the master consistency check
of the whole construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .group import GroupParam, coordinate_distance, mul
from .numerics import newton1d, root1d
from .report import VerificationReport
from .sections import (
    GenerationVerdict,
    SectionSpec,
    degeneracy_report,
    right_translation_system,
    section_lift,
)
from .subgroups import LoopPoint, decompose, embed

__all__ = [
    "LoopCase",
    "RightDivisionError",
    "NoRootInBoxError",
    "MultipleRootsError",
    "SolverDivergenceError",
    "loop_mul",
    "loop_ldiv",
    "loop_rdiv",
    "coset_cross_check",
    "associativity_defect",
    "axiom_suite",
    "loop_suite",
    "normal_subloop_check",
]


class RightDivisionError(RuntimeError):
    """Right division could not be certified on the search window."""


class NoRootInBoxError(RightDivisionError):
    pass


class MultipleRootsError(RightDivisionError):
    pass


class SolverDivergenceError(RightDivisionError):
    pass


@dataclass(frozen=True)
class LoopCase:
    """A loop family member: a section spec plus its cached generation verdict."""

    spec: SectionSpec

    @cached_property
    def degeneracy(self) -> GenerationVerdict:
        return degeneracy_report(self.spec)

    @property
    def param(self) -> GroupParam:
        return self.spec.param


def loop_mul(c: LoopCase, m1: LoopPoint, m2: LoopPoint) -> LoopPoint:
    spec = c.spec
    a = spec.param.a
    x1, y1, z1 = m1.coords
    x2, y2, z2 = m2.coords
    ea = math.exp(a * z1)
    e = math.exp(z1)
    if spec.case == "A":
        v = spec.fn(x1, z1)
        return LoopPoint(x1 + ea * x2, y1 + y2 * e - z2 * e * v, z1 + z2)
    if spec.case == "B":
        v = spec.fn(x1, y1, z1)
        # 1 - e^{(a-1) z2} = -expm1((a-1) z2)
        return LoopPoint(
            x1 + ea * (x2 - v * math.expm1((a - 1.0) * z2)),
            y1 + e * (y2 - z2 * v),
            z1 + z2,
        )
    v = spec.fn(x1, y1, z1)
    return LoopPoint(
        x1 + ea * (x2 - y2 * z1 * math.exp((a - 1.0) * z2) - v * math.expm1((a - 1.0) * z2)),
        y1 + e * y2,
        z1 + z2,
    )


def loop_ldiv(c: LoopCase, m1: LoopPoint, b: LoopPoint) -> LoopPoint:
    """The unique w with m1 * w = b; closed-form in every case."""
    spec = c.spec
    a = spec.param.a
    x1, y1, z1 = m1.coords
    ea = math.exp(-a * z1)
    e = math.exp(-z1)
    wz = b.z - z1
    if spec.case == "A":
        return LoopPoint(ea * (b.x - x1), e * (b.y - y1) + wz * spec.fn(x1, z1), wz)
    v = spec.fn(x1, y1, z1)
    if spec.case == "B":
        return LoopPoint(
            ea * (b.x - x1) + v * math.expm1((a - 1.0) * wz),
            e * (b.y - y1) + wz * v,
            wz,
        )
    wy = e * (b.y - y1)
    return LoopPoint(
        ea * (b.x - x1) + wy * z1 * math.exp((a - 1.0) * wz) + v * math.expm1((a - 1.0) * wz),
        wy,
        wz,
    )


def loop_rdiv(
    c: LoopCase,
    b: LoopPoint,
    m2: LoopPoint,
    check_unique: bool = False,
    window_half_width: float = 10.0,
    expansions: int = 4,
    resolution: int = 2048,
    tol: float = 1e-10,
) -> LoopPoint:
    """The q with q * m2 = b.

    Case A is closed-form, and so are cases B and C when m2 has z = 0.
    Otherwise cases B and C solve the scalar line equation of
    right_translation_system: by default Newton from the function-free
    solution, falling back to a scan.  The scan covers the window of the
    given half width on the line around that solution, doubling it up to
    `expansions` times while no root is found.  With check_unique=True only
    the scan runs, it counts *all* roots, and MultipleRootsError is raised
    when the sharp-transitivity hypothesis fails on the window.  The result
    is validated by multiplying back (tolerance 1e-8).
    """
    spec = c.spec
    a = spec.param.a
    x2, y2, z2 = m2.coords
    qz = b.z - z2
    if spec.case == "A":
        qx = b.x - math.exp(a * qz) * x2
        qy = b.y - y2 * math.exp(qz) + z2 * math.exp(qz) * spec.fn(qx, qz)
        return LoopPoint(qx, qy, qz)
    line = right_translation_system(spec, m2, b)
    u = 0.0
    if line.scale != 0.0:
        u = _solve_line(line, check_unique, window_half_width, expansions, resolution, tol)
    q = line.point(u)
    residual = coordinate_distance(loop_mul(c, q, m2).coords, b.coords)
    if not residual <= 1e-8:
        raise SolverDivergenceError(
            f"right division residual {residual:.3e} exceeds 1e-8"
        )
    return q


def _solve_line(line, check_unique, half_width, expansions, resolution, tol) -> float:
    if not check_unique:
        root = newton1d(line.residual, 0.0, tol=min(tol, 1e-12))
        if root is not None:
            return root
    width = half_width
    for _ in range(expansions + 1):
        try:
            roots = root1d(line.residual, (-width, width), resolution=resolution)
        except ValueError as err:
            raise SolverDivergenceError(f"{err} (window half width {width:g})") from err
        if len(roots) > 1:
            raise MultipleRootsError(
                f"{len(roots)} roots in window of half width {width:g} around {line.base}"
            )
        if len(roots) == 1:
            return roots[0]
        width *= 2.0
    raise NoRootInBoxError(
        f"no root in window of half width {width / 2.0:g} around {line.base}"
    )


def coset_cross_check(c: LoopCase, m1: LoopPoint, m2: LoopPoint) -> float:
    """Distance between the formula product and the group-theoretic coset product."""
    spec = c.spec
    p = spec.param
    sub = spec.subgroup
    g = mul(p, section_lift(spec, m1), embed(p, sub, m2))
    rep = decompose(p, sub, g).rep
    return coordinate_distance(rep.coords, loop_mul(c, m1, m2).coords)


def associativity_defect(c: LoopCase, m1: LoopPoint, m2: LoopPoint, m3: LoopPoint) -> float:
    left = loop_mul(c, loop_mul(c, m1, m2), m3)
    right = loop_mul(c, m1, loop_mul(c, m2, m3))
    return coordinate_distance(left.coords, right.coords)


def _sample_point(rng, xy_half_width: float, z_half_width: float) -> LoopPoint:
    x, y = rng.uniform(-xy_half_width, xy_half_width, 2)
    z = float(rng.uniform(-z_half_width, z_half_width))
    return LoopPoint(float(x), float(y), z)


def axiom_suite(
    c: LoopCase,
    n_samples: int = 1000,
    seed: int = 0,
    xy_half_width: float = 5.0,
    z_half_width: Optional[float] = None,
) -> VerificationReport:
    """Sampled quasigroup-with-identity checks.

    Identity laws, both division round trips, z-additivity, and (cases B/C)
    uniqueness of the right-division root on its window.  The default z
    sampling range is the full box for case A and [-0.5, 0.5] for B/C, where
    the shipped presets keep the implicit equations uniquely solvable.

    Right-division targets are products of sampled factors, so every division
    problem posed has its solution inside the sampling box.  Unconstrained
    targets can put the solution a z-gap of 2*z_half_width away from m2, and
    the e^{a*dz} terms then amplify double-precision rounding past any fixed
    tolerance even though the recovered point is correct to that conditioning.
    """
    spec = c.spec
    if z_half_width is None:
        z_half_width = 5.0 if spec.case == "A" else 0.5
    rng = np.random.Generator(np.random.PCG64(seed))
    report = VerificationReport(seed=seed)
    e = LoopPoint.origin()
    id_max = 0.0
    ldiv_max = 0.0
    rdiv_max = 0.0
    z_max = 0.0
    division_errors: list[str] = []
    for i in range(n_samples):
        m1 = _sample_point(rng, xy_half_width, z_half_width)
        m2 = _sample_point(rng, xy_half_width, z_half_width)
        b = _sample_point(rng, xy_half_width, z_half_width)
        id_max = max(
            id_max,
            coordinate_distance(loop_mul(c, e, m1).coords, m1.coords),
            coordinate_distance(loop_mul(c, m1, e).coords, m1.coords),
        )
        w = loop_ldiv(c, m1, b)
        ldiv_max = max(ldiv_max, coordinate_distance(loop_mul(c, m1, w).coords, b.coords))
        target = loop_mul(c, b, m2)
        try:
            q = loop_rdiv(c, target, m2, check_unique=spec.case != "A")
            rdiv_max = max(rdiv_max, coordinate_distance(loop_mul(c, q, m2).coords, target.coords))
        except RightDivisionError as err:
            division_errors.append(f"sample {i}: {type(err).__name__}: {err}")
        prod = loop_mul(c, m1, m2)
        z_max = max(z_max, abs(prod.z - (m1.z + m2.z)))
    report.record("identity-laws", id_max <= 1e-12, max_error=id_max, n_samples=n_samples)
    report.record("ldiv-round-trip", ldiv_max <= 1e-9, max_error=ldiv_max, n_samples=n_samples)
    report.record(
        "rdiv-round-trip",
        rdiv_max <= 1e-8 and not division_errors,
        max_error=rdiv_max,
        n_samples=n_samples,
        notes="; ".join(division_errors[:5]),
    )
    report.record("z-additivity", z_max == 0.0, max_error=z_max, n_samples=n_samples)
    if division_errors:
        report.data["division_errors"] = division_errors
    return report


def loop_suite(
    c: LoopCase,
    n_samples: int = 500,
    seed: int = 0,
    z_half_width: Optional[float] = None,
) -> VerificationReport:
    """axiom_suite, then the coset cross-check, then the generation verdict.

    The cross-check samples up to 300 pairs from the seed after axiom_suite's,
    with z in [-z_half_width, z_half_width] (default 5).  The generation
    check only warns: a degenerate section is legitimate input.
    """
    report = axiom_suite(c, n_samples=n_samples, seed=seed, z_half_width=z_half_width)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    z_hw = z_half_width if z_half_width is not None else 5.0
    worst = 0.0
    n_cross = min(n_samples, 300)
    for _ in range(n_cross):
        m1 = _sample_point(rng, 5.0, z_hw)
        m2 = _sample_point(rng, 5.0, z_hw)
        worst = max(worst, coset_cross_check(c, m1, m2))
    report.record("coset-cross-check", worst <= 1e-10, max_error=worst, n_samples=n_cross)
    verdict = c.degeneracy
    report.record(
        "generation",
        verdict.generates,
        max_error=verdict.identity_residual_max,
        n_samples=verdict.n_samples,
        notes=(
            "section image generates the group; the loop is proper"
            if verdict.generates
            else "degenerate family: left translations stay in a proper subgroup"
        ),
        warn_only=True,
    )
    report.data["generation"] = verdict.to_dict()
    return report


def normal_subloop_check(
    c: LoopCase,
    n_samples: int = 300,
    seed: int = 0,
    xy_half_width: float = 5.0,
    z_half_width: float = 5.0,
) -> VerificationReport:
    """Certify that N = {(x,y,0)} behaves as a normal subloop (case A only).

    Membership in N is the exact condition z = 0, so the set identities
    m*N = N*m, (m*N)*m' = m*(N*m') and (m*m')*N = m*(m'*N) reduce to: the
    witness produced by the closed-form divisions has z-coordinate 0 (up to
    the roundoff of adding and subtracting the same z values) and
    recomposes to the original product.  The quotient is the real line:
    coset products only see the sum of z-coordinates, exactly.
    """
    if c.spec.case != "A":
        raise ValueError("the normal subloop check is defined for case A")
    rng = np.random.Generator(np.random.PCG64(seed))
    report = VerificationReport(seed=seed)
    commute_z = 0.0
    commute_resid = 0.0
    assoc_z = 0.0
    assoc_resid = 0.0
    coset_exact = True
    for _ in range(n_samples):
        m = _sample_point(rng, xy_half_width, z_half_width)
        mp = _sample_point(rng, xy_half_width, z_half_width)
        n = LoopPoint(float(rng.uniform(-xy_half_width, xy_half_width)),
                      float(rng.uniform(-xy_half_width, xy_half_width)), 0.0)
        n2 = LoopPoint(float(rng.uniform(-xy_half_width, xy_half_width)),
                       float(rng.uniform(-xy_half_width, xy_half_width)), 0.0)
        # m*N = N*m: w = (m*n)/m must lie in N and recompose
        u = loop_mul(c, m, n)
        w = loop_rdiv(c, u, m)
        commute_z = max(commute_z, abs(w.z))
        commute_resid = max(
            commute_resid, coordinate_distance(loop_mul(c, w, m).coords, u.coords)
        )
        # reverse inclusion: w2 = m \ (n*m) must lie in N
        u2 = loop_mul(c, n, m)
        w2 = loop_ldiv(c, m, u2)
        commute_z = max(commute_z, abs(w2.z))
        # (m*N)*m' = m*(N*m'): witness w3 with (m*n)*m' = m*(w3*m')
        u3 = loop_mul(c, loop_mul(c, m, n), mp)
        w3 = loop_rdiv(c, loop_ldiv(c, m, u3), mp)
        assoc_z = max(assoc_z, abs(w3.z))
        assoc_resid = max(
            assoc_resid,
            coordinate_distance(
                loop_mul(c, m, loop_mul(c, w3, mp)).coords, u3.coords
            ),
        )
        # (m*m')*N = m*(m'*N): witness n' with m*(m'*n) = (m*m')*n'
        u4 = loop_mul(c, m, loop_mul(c, mp, n))
        w4 = loop_ldiv(c, loop_mul(c, m, mp), u4)
        assoc_z = max(assoc_z, abs(w4.z))
        assoc_resid = max(
            assoc_resid,
            coordinate_distance(
                loop_mul(c, loop_mul(c, m, mp), w4).coords, u4.coords
            ),
        )
        # coset arithmetic: (0,0,z1)N * (0,0,z2)N lands in (0,0,z1+z2)N
        za = loop_mul(c, LoopPoint(0.0, 0.0, m.z), n)
        zb = loop_mul(c, LoopPoint(0.0, 0.0, mp.z), n2)
        if loop_mul(c, za, zb).z != m.z + mp.z:
            coset_exact = False
    report.record("commute-membership", commute_z == 0.0, max_error=commute_z, n_samples=n_samples)
    report.record(
        "commute-recompose", commute_resid <= 1e-9, max_error=commute_resid, n_samples=n_samples
    )
    report.record(
        "mixed-associativity-membership",
        assoc_z <= 1e-12,
        max_error=assoc_z,
        n_samples=n_samples,
        notes="z bookkeeping: adding then removing equal z values leaves roundoff",
    )
    report.record(
        "mixed-associativity-recompose",
        assoc_resid <= 1e-9,
        max_error=assoc_resid,
        n_samples=n_samples,
    )
    report.record(
        "quotient-z-additivity",
        coset_exact,
        max_error=0.0 if coset_exact else 1.0,
        n_samples=n_samples,
        notes="coset of a product depends only on the z sum",
    )
    return report
