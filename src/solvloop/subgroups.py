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
from typing import NamedTuple, Optional

from .group import (
    BASIS,
    AlgebraVector,
    AutomorphismParams,
    GroupElement,
    GroupParam,
    apply_automorphism,
    bracket,
    coordinate_distance,
    exp,
    expm1,
    mul,
    stack,
)
from .report import VerificationReport


class InadmissibleSubgroupError(ValueError):
    """Subgroup not available for this shape parameter."""


class SubgroupId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"

    def defined(self, p: GroupParam) -> bool:
        """False for H2 and H3 at a = 1, where they coincide with a weight space."""
        return self not in (SubgroupId.H2, SubgroupId.H3) or p.a != 1

    def admissible(self, p: GroupParam) -> bool:
        """True when a sharply transitive section over this subgroup can exist."""
        return self is not SubgroupId.H4 and self.defined(p)

    def check_defined(self, p: GroupParam) -> None:
        if not self.defined(p):
            raise InadmissibleSubgroupError(f"{self.value} coincides with a weight space at a = 1")


class LoopPoint(NamedTuple):
    """Coordinates in a coset chart; also the points of the derived loops.

    Like GroupElement, the coordinates may be floats or equal-length
    float64 columns, one row per point.
    """

    x: float
    y: float
    z: float

    coords = property(tuple)  # (x, y, z)

    @classmethod
    def origin(cls) -> "LoopPoint":
        return cls(0.0, 0.0, 0.0)


class DecompResult(NamedTuple):
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
    """k * generator, each subgroup being a line through 0; a coordinate it does not move stays 0.0."""
    return GroupElement(*(k * c if c else 0.0 for c in subgroup_generator(sub)))


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
    if sub is SubgroupId.H4:
        return DecompResult(LoopPoint(g.x1, g.x2, g.x3), g.x4)
    e = exp(-g.x4)
    if sub is SubgroupId.H1:
        return DecompResult(LoopPoint(g.x1, g.x2 - g.x4 * g.x3, g.x4), e * g.x3)
    ea = exp((p.a - 1.0) * g.x4)
    if sub is SubgroupId.H2:
        return DecompResult(LoopPoint(g.x1 - ea * g.x3, g.x2 - g.x4 * g.x3, g.x4), e * g.x3)
    return DecompResult(LoopPoint(g.x1 - ea * g.x2, g.x3, g.x4), e * g.x2)


def membership_residual(sub: SubgroupId, g: GroupElement) -> float:
    """How far g is from satisfying the subgroup's defining relations (hybrid metric)."""
    if sub is SubgroupId.H1:
        return coordinate_distance((g.x1, g.x2, g.x4), (0.0, 0.0, 0.0))
    if sub is SubgroupId.H2:
        return coordinate_distance((g.x2, g.x4, g.x1), (0.0, 0.0, g.x3))
    if sub is SubgroupId.H3:
        return coordinate_distance((g.x3, g.x4, g.x1), (0.0, 0.0, g.x2))
    return coordinate_distance((g.x1, g.x2, g.x3), (0.0, 0.0, 0.0))


class SubalgebraClass(NamedTuple):
    kind: Optional[SubgroupId]  # None for a normal direction
    # None for a normal direction, or where the quotient k1 underflows to 0
    # (the reducing map would not be invertible)
    automorphism: Optional[AutomorphismParams]
    scale: Optional[float] = None  # image of the generator is scale * canonical generator


def classify_subalgebra(p: GroupParam, b1: float, b2: float, b3: float) -> SubalgebraClass:
    """Classify the span of b1*e3 + b2*e1 + b3*e2 up to automorphisms.

    Conjugation-stable one-dimensional subalgebras of the slab reduce to the
    generators of H1, H2 or H3; directions that remain one-dimensional ideals
    get kind None, reported as NormalInadmissible (a normal stabilizer cannot
    carry a sharply transitive section).  For a != 1 the returned automorphism is normalized
    to l = 1.
    """
    if b1 == 0 and b2 == 0 and b3 == 0:
        raise ValueError("zero generator spans no subalgebra")
    if p.a == 1:
        if b1 == 0:
            return SubalgebraClass(None, None)
        phi = AutomorphismParams(k1=1.0, k2=0.0, l=1.0, n1=-b2 / b1, n2=-b3 / b1)
        return SubalgebraClass(SubgroupId.H1, phi, scale=b1)
    if b1 != 0 and b2 == 0:
        return SubalgebraClass(SubgroupId.H1, _generic(1.0, -b3 / b1), scale=b1)
    if b1 != 0 and b2 != 0:
        return SubalgebraClass(SubgroupId.H2, _generic(b1 / b2, -b3 / b1), scale=b1)
    if b2 * b3 != 0:
        return SubalgebraClass(SubgroupId.H3, _generic(b3 / b2), scale=b3)
    return SubalgebraClass(None, None)


def _generic(k1: float, n2: float = 0.0) -> Optional[AutomorphismParams]:
    """The generic automorphism with l = 1; None where the quotient k1 underflowed to 0."""
    return AutomorphismParams(k1=k1, l=1.0, n2=n2) if k1 != 0 else None


def classify_suite(p: GroupParam, b1: float, b2: float, b3: float) -> VerificationReport:
    """Classify the span of b1*e3 + b2*e1 + b3*e2 and check the reducing automorphism.

    The automorphism must map the generator onto a multiple of the canonical
    one and preserve the brackets of the 16 basis pairs, which by
    bilinearity covers every pair; the pairs are checked in one column
    pass.  Nothing is drawn, so the report's seed is None.
    """
    result = classify_subalgebra(p, b1, b2, b3)
    report = VerificationReport(seed=None)
    report.data["class"] = "NormalInadmissible" if result.kind is None else result.kind.value
    if result.kind is None:
        report.record(
            "classification",
            True,
            n_samples=1,
            notes="NormalInadmissible: no automorphism reduces this span to a "
            "section-admissible subgroup",
        )
    elif result.automorphism is None:
        for name in ("canonical-collinearity", "automorphism-preserves-brackets"):
            report.record(name, False, notes="k1 underflows to 0: the reducing map is not invertible")
        report.data["scale"] = result.scale
    else:
        phi = result.automorphism
        generator = AlgebraVector(b2, b3, b1, 0.0)
        image = apply_automorphism(p, phi, generator)
        target = subgroup_generator(result.kind).scaled(result.scale)
        u, v = stack([e for e in BASIS for _ in BASIS]), stack(BASIS * 4)
        lhs = apply_automorphism(p, phi, bracket(p, u, v))
        rhs = bracket(p, apply_automorphism(p, phi, u), apply_automorphism(p, phi, v))
        residual = coordinate_distance(image.coords, target.coords)
        report.bound("canonical-collinearity", residual, 1e-12)
        report.bound(
            "automorphism-preserves-brackets", coordinate_distance(lhs.coords, rhs.coords), 1e-12
        )
        report.data["automorphism"] = dict(vars(phi))
        report.data["scale"] = result.scale
    return report


def fixed_point_witness(p: GroupParam, g: GroupElement) -> LoopPoint:
    """Coset fixed by left translation with g on the chart of the slab cosets.

    Requires g.x4 != 0; the translation then fixes the coset of
    (x, y, w) with x = g1/(1-e^{a*g4}), w = g3/(1-e^{g4}),
    y = (g2 + g4*e^{g4}*w)/(1-e^{g4}).  Verified by the identity
    mul(g, embed(H4, m)) = mul(embed(H4, m), subgroup_element(H4, g.x4)).
    A witness with a coordinate beyond the floats raises OverflowError.
    """
    if g.x4 == 0:
        raise ValueError("translations by slab elements need not fix a coset")
    # 1 - e^s = -expm1(s), accurate for small exponents; where a*g4 underflows
    # to 0, e^s - 1 = s = a*g4 to double precision, taken as two quotients
    d = expm1(p.a * g.x4)
    x = -g.x1 / d if d else -(g.x1 / p.a) / g.x4
    w = -g.x3 / expm1(g.x4)
    y = -(g.x2 + g.x4 * exp(g.x4) * w) / expm1(g.x4)
    if not all(map(math.isfinite, (x, y, w))):  # float division overflows silently
        raise OverflowError(f"fixed coset witness ({x:g}, {y:g}, {w:g}) is not finite")
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
    report = VerificationReport(seed=None)
    report.bound(
        "fixed-coset",
        fixed_point_residual(p, g, witness),
        1e-10,
        notes="left translation fixes the witnessed coset",
    )
    report.data["witness"] = list(witness.coords)
    return report
