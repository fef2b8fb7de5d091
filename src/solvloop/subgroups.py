"""One-parameter subgroups, coset charts, and the automorphism classification.

Four distinguished one-parameter subgroups are treated:

    H1 = {g(0, 0, k, 0)}        admissible for every shape parameter
    H2 = {g(k, 0, k, 0)}        admissible only for a != 1
    H3 = {g(k, k, 0, 0)}        admissible only for a != 1
    H4 = {g(0, 0, 0, k)}        never admissible: every left translation by an
                                element outside the slab fixes a coset

Each admissible subgroup comes with a global coset chart, an exact
decomposition of an arbitrary element into chart representative times
subgroup element, and a membership residual.  classify_subalgebra reduces an
arbitrary one-dimensional subalgebra of the slab to one of the canonical
generators by an explicit automorphism, or reports it as a normal
(inadmissible) direction; classify_suite checks that automorphism.
fixed_point_suite checks the coset that a left translation off the slab
fixes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .group import (
    AlgebraVector,
    AutomorphismParams,
    GroupElement,
    GroupParam,
    apply_automorphism,
    bracket,
    coordinate_distance,
    mul,
)
from .report import VerificationReport

__all__ = [
    "SubgroupId",
    "LoopPoint",
    "DecompResult",
    "SubalgebraKind",
    "SubalgebraClass",
    "InadmissibleSubgroupError",
    "admissible_subgroups",
    "subgroup_generator",
    "subgroup_element",
    "embed",
    "decompose",
    "membership_residual",
    "in_subgroup",
    "classify_subalgebra",
    "classify_direction",
    "classify_suite",
    "canonical_span_generator",
    "fixed_point_witness",
    "fixed_point_residual",
    "fixed_point_suite",
]


class InadmissibleSubgroupError(ValueError):
    """Subgroup not available for this shape parameter."""


class SubgroupId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"

    def admissible(self, p: GroupParam) -> bool:
        """True when a sharply transitive section over this subgroup can exist."""
        if self in (SubgroupId.H2, SubgroupId.H3):
            return p.a != 1
        return self is SubgroupId.H1

    def check_defined(self, p: GroupParam) -> None:
        if self in (SubgroupId.H2, SubgroupId.H3) and p.a == 1:
            raise InadmissibleSubgroupError(f"{self.value} coincides with a weight space at a = 1")


@dataclass(frozen=True)
class LoopPoint:
    """Coordinates in a coset chart; also the points of the derived loops."""

    x: float
    y: float
    z: float

    @property
    def coords(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @classmethod
    def origin(cls) -> "LoopPoint":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DecompResult:
    rep: LoopPoint
    k: float


def admissible_subgroups(p: GroupParam) -> list[SubgroupId]:
    return [s for s in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3) if s.admissible(p)]


def subgroup_generator(sub: SubgroupId) -> AlgebraVector:
    """Tangent generator: the subgroup is the exponential of its span."""
    return {
        SubgroupId.H1: AlgebraVector(0.0, 0.0, 1.0, 0.0),
        SubgroupId.H2: AlgebraVector(1.0, 0.0, 1.0, 0.0),
        SubgroupId.H3: AlgebraVector(1.0, 1.0, 0.0, 0.0),
        SubgroupId.H4: AlgebraVector(0.0, 0.0, 0.0, 1.0),
    }[sub]


def subgroup_element(sub: SubgroupId, k: float) -> GroupElement:
    if sub is SubgroupId.H1:
        return GroupElement(0.0, 0.0, k, 0.0)
    if sub is SubgroupId.H2:
        return GroupElement(k, 0.0, k, 0.0)
    if sub is SubgroupId.H3:
        return GroupElement(k, k, 0.0, 0.0)
    return GroupElement(0.0, 0.0, 0.0, k)


def embed(p: GroupParam, sub: SubgroupId, m: LoopPoint) -> GroupElement:
    """Chart representative of the coset m.  H1/H2: g(x,y,0,z); H3: g(x,0,y,z); H4: g(x,y,w,0)."""
    sub.check_defined(p)
    if sub in (SubgroupId.H1, SubgroupId.H2):
        return GroupElement(m.x, m.y, 0.0, m.z)
    if sub is SubgroupId.H3:
        return GroupElement(m.x, 0.0, m.y, m.z)
    return GroupElement(m.x, m.y, m.z, 0.0)


def decompose(p: GroupParam, sub: SubgroupId, g: GroupElement) -> DecompResult:
    """Unique splitting g = embed(rep) * subgroup_element(k)."""
    sub.check_defined(p)
    if sub is SubgroupId.H1:
        return DecompResult(
            LoopPoint(g.x1, g.x2 - g.x4 * g.x3, g.x4), math.exp(-g.x4) * g.x3
        )
    if sub is SubgroupId.H2:
        return DecompResult(
            LoopPoint(g.x1 - math.exp((p.a - 1.0) * g.x4) * g.x3, g.x2 - g.x4 * g.x3, g.x4),
            math.exp(-g.x4) * g.x3,
        )
    if sub is SubgroupId.H3:
        return DecompResult(
            LoopPoint(g.x1 - math.exp((p.a - 1.0) * g.x4) * g.x2, g.x3, g.x4),
            math.exp(-g.x4) * g.x2,
        )
    return DecompResult(LoopPoint(g.x1, g.x2, g.x3), g.x4)


def membership_residual(sub: SubgroupId, g: GroupElement) -> float:
    """How far g is from satisfying the subgroup's defining relations (hybrid metric)."""
    if sub is SubgroupId.H1:
        return coordinate_distance((g.x1, g.x2, g.x4), (0.0, 0.0, 0.0))
    if sub is SubgroupId.H2:
        return coordinate_distance((g.x2, g.x4, g.x1), (0.0, 0.0, g.x3))
    if sub is SubgroupId.H3:
        return coordinate_distance((g.x3, g.x4, g.x1), (0.0, 0.0, g.x2))
    return coordinate_distance((g.x1, g.x2, g.x3), (0.0, 0.0, 0.0))


def in_subgroup(sub: SubgroupId, g: GroupElement, tol: float = 1e-9) -> bool:
    return membership_residual(sub, g) <= tol


class SubalgebraKind(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    NORMAL_INADMISSIBLE = "NormalInadmissible"
    NOT_IN_COMMUTATOR = "NotInCommutator"


@dataclass(frozen=True)
class SubalgebraClass:
    kind: SubalgebraKind
    automorphism: Optional[AutomorphismParams]
    scale: Optional[float] = None  # image of the generator is scale * canonical generator


def classify_subalgebra(p: GroupParam, b1: float, b2: float, b3: float) -> SubalgebraClass:
    """Classify the span of b1*e3 + b2*e1 + b3*e2 up to automorphisms.

    Conjugation-stable one-dimensional subalgebras of the slab reduce to the
    generators of H1, H2 or H3; directions that remain one-dimensional ideals
    are flagged NormalInadmissible (a normal stabilizer cannot carry a sharply
    transitive section).  For a != 1 the returned automorphism is normalized
    to l = 1.
    """
    if b1 == 0 and b2 == 0 and b3 == 0:
        raise ValueError("zero generator spans no subalgebra")
    if p.a == 1:
        if b1 == 0:
            return SubalgebraClass(SubalgebraKind.NORMAL_INADMISSIBLE, None)
        phi = AutomorphismParams(
            variant="merged", k1=1.0, k2=0.0, l=1.0, n1=-b2 / b1, n2=-b3 / b1
        )
        return SubalgebraClass(SubalgebraKind.H1, phi, scale=b1)
    if b1 != 0 and b2 == 0:
        phi = AutomorphismParams(variant="generic", k1=1.0, l=1.0, n2=-b3 / b1)
        return SubalgebraClass(SubalgebraKind.H1, phi, scale=b1)
    if b1 != 0 and b2 != 0:
        phi = AutomorphismParams(variant="generic", k1=b1 / b2, l=1.0, n2=-b3 / b1)
        return SubalgebraClass(SubalgebraKind.H2, phi, scale=b1)
    if b2 * b3 != 0:
        phi = AutomorphismParams(variant="generic", k1=b3 / b2, l=1.0)
        return SubalgebraClass(SubalgebraKind.H3, phi, scale=b3)
    return SubalgebraClass(SubalgebraKind.NORMAL_INADMISSIBLE, None)


def classify_direction(p: GroupParam, v: AlgebraVector) -> SubalgebraClass:
    """Classify an arbitrary tangent direction; c4 != 0 leaves the commutator slab."""
    if v.c4 != 0:
        return SubalgebraClass(SubalgebraKind.NOT_IN_COMMUTATOR, None)
    return classify_subalgebra(p, v.c3, v.c1, v.c2)


def canonical_span_generator(kind: SubalgebraKind) -> AlgebraVector:
    if kind not in (SubalgebraKind.H1, SubalgebraKind.H2, SubalgebraKind.H3):
        raise ValueError("no canonical generator for inadmissible classes")
    return subgroup_generator(SubgroupId(kind.value))


def classify_suite(p: GroupParam, b1: float, b2: float, b3: float) -> VerificationReport:
    """Classify the span of b1*e3 + b2*e1 + b3*e2 and check the reducing automorphism.

    The automorphism must map the generator onto a multiple of the canonical
    one and preserve brackets on 50 seeded random pairs.
    """
    result = classify_subalgebra(p, b1, b2, b3)
    report = VerificationReport(seed=None)
    data: dict = {"class": result.kind.value}
    if result.automorphism is not None:
        phi = result.automorphism
        generator = AlgebraVector(b2, b3, b1, 0.0)
        image = apply_automorphism(p, phi, generator)
        target = canonical_span_generator(result.kind).scaled(result.scale)
        residual = coordinate_distance(image.coords, target.coords)
        rng = np.random.Generator(np.random.PCG64(0))
        bracket_resid = 0.0
        for _ in range(50):
            u = AlgebraVector(*(float(s) for s in rng.uniform(-3, 3, 4)))
            v = AlgebraVector(*(float(s) for s in rng.uniform(-3, 3, 4)))
            lhs = apply_automorphism(p, phi, bracket(p, u, v))
            rhs = bracket(p, apply_automorphism(p, phi, u), apply_automorphism(p, phi, v))
            bracket_resid = max(bracket_resid, coordinate_distance(lhs.coords, rhs.coords))
        report.record(
            "canonical-collinearity", residual <= 1e-12, max_error=residual, n_samples=1
        )
        report.record(
            "automorphism-preserves-brackets",
            bracket_resid <= 1e-12,
            max_error=bracket_resid,
            n_samples=50,
        )
        data["automorphism"] = asdict(phi)
        data["scale"] = result.scale
    else:
        report.record(
            "classification",
            True,
            n_samples=1,
            notes=f"{result.kind.value}: no automorphism reduces this span to a "
            "section-admissible subgroup",
        )
    report.data.update(data)
    return report


def fixed_point_witness(p: GroupParam, g: GroupElement) -> LoopPoint:
    """Coset fixed by left translation with g on the chart of the slab cosets.

    Requires g.x4 != 0; the translation then fixes the coset of
    (x, y, w) with x = g1/(1-e^{a*g4}), w = g3/(1-e^{g4}),
    y = (g2 + g4*e^{g4}*w)/(1-e^{g4}).  Verified by the identity
    mul(g, embed(H4, m)) = mul(embed(H4, m), subgroup_element(H4, g.x4)).
    """
    if g.x4 == 0:
        raise ValueError("translations by slab elements need not fix a coset")
    # 1 - e^s = -expm1(s), accurate for small exponents
    x = -g.x1 / math.expm1(p.a * g.x4)
    w = -g.x3 / math.expm1(g.x4)
    y = -(g.x2 + g.x4 * math.exp(g.x4) * w) / math.expm1(g.x4)
    return LoopPoint(x, y, w)


def fixed_point_residual(p: GroupParam, g: GroupElement, m: LoopPoint) -> float:
    """Residual of the fixed-coset identity for a claimed witness m."""
    rep = embed(p, SubgroupId.H4, m)
    lhs = mul(p, g, rep)
    rhs = mul(p, rep, subgroup_element(SubgroupId.H4, g.x4))
    return coordinate_distance(lhs.coords, rhs.coords)


def fixed_point_suite(p: GroupParam, g: GroupElement) -> VerificationReport:
    """Witness the coset fixed by left translation with g (g.x4 != 0) and check it."""
    witness = fixed_point_witness(p, g)
    residual = fixed_point_residual(p, g, witness)
    report = VerificationReport(seed=None)
    report.record(
        "fixed-coset",
        residual <= 1e-10,
        max_error=residual,
        n_samples=1,
        notes="left translation fixes the witnessed coset",
    )
    report.data["witness"] = list(witness.coords)
    return report
