"""Group-law checks, normalizer sampling and the obstruction certificate.

group_suite samples the group law against the matrix model, the Lie bracket
against matrix commutators, the exponential and the centre.  The rest of
the module certifies Theorem 2: the group cannot be the multiplication group of a connected proper loop.
The computable ingredients: the normalizer of each admissible one-parameter
subgroup is exactly the commutator slab {x4 = 0} (3-dimensional), and the
centre is trivial.  If the group were such a multiplication group with the
subgroup as inner mapping group, the normalizer of the inner mapping group
would have to equal inner mappings times centre, which is 1-dimensional.
The certificate records both sampled facts and the resulting contradiction;
theorem2_suite turns it into checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .group import (
    E1,
    E2,
    E3,
    E4,
    AlgebraVector,
    GroupElement,
    GroupParam,
    as_matrix,
    bracket,
    central_defect,
    commutator_oracle,
    conjugate,
    coordinate_distance,
    exp_alg,
    inv,
    mul,
    standard_center_probes,
)
from .report import VerificationReport
from .subgroups import (
    InadmissibleSubgroupError,
    SubgroupId,
    admissible_subgroups,
    membership_residual,
    subgroup_element,
    subgroup_generator,
)

__all__ = [
    "NormalizerRecord",
    "Theorem2Certificate",
    "normalizes",
    "min_center_defect",
    "group_suite",
    "theorem2_certificate",
    "theorem2_suite",
    "CENTER_TEST_DIRECTIONS",
]

# spans every line of the algebra once combined: each basis direction plus
# the diagonal that distinguishes e2 from e3 scaling
CENTER_TEST_DIRECTIONS: tuple[AlgebraVector, ...] = (
    E1,
    E2,
    E3,
    E4,
    AlgebraVector(0.0, 1.0, 1.0, 0.0),
)


def min_center_defect(p: GroupParam) -> float:
    """Smallest commutation defect over the centre test directions."""
    probes = standard_center_probes(p)
    return min(central_defect(p, v, probes) for v in CENTER_TEST_DIRECTIONS)


def _random_element(rng, half_width: float = 5.0) -> GroupElement:
    c = rng.uniform(-half_width, half_width, 4)
    return GroupElement(*(float(v) for v in c))


def _matrix_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
    return float(np.abs(m1 - m2).max()) / scale


def group_suite(p: GroupParam, n_samples: int = 400, seed: int = 0) -> VerificationReport:
    """Sampled group law, Lie algebra, exponential and centre invariants."""
    rng = np.random.Generator(np.random.PCG64(seed))
    report = VerificationReport(seed=seed)
    n = n_samples

    worst = 0.0
    for _ in range(n):
        g = _random_element(rng)
        h = _random_element(rng)
        worst = max(
            worst,
            _matrix_distance(as_matrix(p, mul(p, g, h)), as_matrix(p, g) @ as_matrix(p, h)),
        )
    report.record("product-matrix-oracle", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        g = _random_element(rng)
        worst = max(
            worst,
            coordinate_distance(mul(p, g, inv(p, g)).coords, (0.0, 0.0, 0.0, 0.0)),
            coordinate_distance(mul(p, inv(p, g), g).coords, (0.0, 0.0, 0.0, 0.0)),
        )
    report.record("two-sided-inverse", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        g, h, k = (_random_element(rng) for _ in range(3))
        worst = max(
            worst,
            coordinate_distance(
                mul(p, mul(p, g, h), k).coords, mul(p, g, mul(p, h, k)).coords
            ),
        )
    report.record("associativity", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        u = AlgebraVector(*(float(v) for v in rng.integers(-5, 6, 4)))
        v = AlgebraVector(*(float(w) for w in rng.integers(-5, 6, 4)))
        worst = max(
            worst,
            coordinate_distance(bracket(p, u, v).coords, commutator_oracle(p, u, v).coords),
        )
    report.record(
        "bracket-commutator-oracle",
        worst <= 1e-13,
        max_error=worst,
        n_samples=n,
        notes="exact on integer vectors when a is dyadic",
    )

    worst = 0.0
    for _ in range(n):
        u, v, w = (
            AlgebraVector(*(float(s) for s in rng.integers(-3, 4, 4))) for _ in range(3)
        )
        cyc = (
            bracket(p, u, bracket(p, v, w))
            .plus(bracket(p, v, bracket(p, w, u)))
            .plus(bracket(p, w, bracket(p, u, v)))
        )
        worst = max(worst, coordinate_distance(cyc.coords, (0.0, 0.0, 0.0, 0.0)))
    report.record("jacobi", worst <= 1e-13, max_error=worst, n_samples=n)

    worst = 0.0
    m = max(20, n // 10)
    for _ in range(m):
        v = AlgebraVector(*(float(s) for s in rng.uniform(-2, 2, 4)))
        s, t = (float(u) for u in rng.uniform(-1.5, 1.5, 2))
        lhs = mul(p, exp_alg(p, v, s), exp_alg(p, v, t))
        worst = max(worst, coordinate_distance(lhs.coords, exp_alg(p, v, s + t).coords))
    report.record("exp-one-parameter", worst <= 1e-12, max_error=worst, n_samples=m)

    worst = 0.0
    subs = [s for s in SubgroupId if s not in (SubgroupId.H2, SubgroupId.H3) or p.a != 1]
    for sub in subs:
        gen = subgroup_generator(sub)
        for t in np.linspace(-2.0, 2.0, 9):
            worst = max(worst, membership_residual(sub, exp_alg(p, gen, float(t))))
    report.record(
        "exp-lands-in-subgroup",
        worst <= 1e-9,
        max_error=worst,
        n_samples=9 * len(subs),
        notes=",".join(s.value for s in subs),
    )

    min_defect = min_center_defect(p)
    report.record(
        "center-trivial",
        min_defect > 1e-6,
        max_error=min_defect,
        n_samples=len(CENTER_TEST_DIRECTIONS),
        notes="smallest commutation defect over the test directions",
    )
    return report


def normalizes(p: GroupParam, g: GroupElement, sub: SubgroupId, tol: float = 1e-10) -> bool:
    """Does conjugation by g keep the subgroup's generator inside the subgroup?"""
    if not sub.admissible(p):
        raise InadmissibleSubgroupError(f"{sub.value} is not admissible for a = {p.a:g}")
    conj = conjugate(p, g, subgroup_element(sub, 1.0))
    return membership_residual(sub, conj) <= tol


@dataclass(frozen=True)
class NormalizerRecord:
    subgroup: str
    slab_samples: int
    slab_normalizing: int
    off_slab_samples: int
    off_slab_normalizing: int

    @property
    def normalizer_equals_commutator(self) -> bool:
        return (
            self.slab_normalizing == self.slab_samples
            and self.off_slab_normalizing == 0
        )

    @property
    def normalizer_dim_estimate(self) -> Optional[int]:
        """Sampled surrogate: 3 when exactly the slab normalizes; None when inconclusive."""
        return 3 if self.normalizer_equals_commutator else None

    def to_dict(self) -> dict:
        return {
            "subgroup": self.subgroup,
            "slab_samples": self.slab_samples,
            "slab_normalizing": self.slab_normalizing,
            "off_slab_samples": self.off_slab_samples,
            "off_slab_normalizing": self.off_slab_normalizing,
            "normalizer_equals_commutator": self.normalizer_equals_commutator,
            "normalizer_dim_estimate": self.normalizer_dim_estimate,
        }


@dataclass(frozen=True)
class Theorem2Certificate:
    a: float
    records: tuple[NormalizerRecord, ...]
    center_trivial: bool
    contradiction: bool
    min_central_defect: float
    seed: int
    notes: str

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "records": [r.to_dict() for r in self.records],
            "center_trivial": self.center_trivial,
            "contradiction": self.contradiction,
            "min_central_defect": self.min_central_defect,
            "seed": self.seed,
            "notes": self.notes,
        }


def theorem2_certificate(
    p: GroupParam,
    n_samples: int = 1000,
    seed: int = 0,
    xy_half_width: float = 5.0,
    off_slab_min: float = 1e-3,
    off_slab_max: float = 3.0,
    defect_threshold: float = 1e-6,
) -> Theorem2Certificate:
    """Sampled normalizer dichotomy plus centre triviality, combined into the obstruction.

    Half the samples lie in the slab x4 = 0 (all must normalize every
    admissible subgroup), half have |x4| in [off_slab_min, off_slab_max]
    (none may normalize).  The dimension estimate 3 is a sampled surrogate,
    not a proof; the contradiction field states the incompatibility with a
    1-dimensional normalizer that the inner-mapping-group hypothesis would
    force.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    subs = admissible_subgroups(p)
    n_slab = n_samples // 2
    n_off = n_samples - n_slab
    slab = []
    for _ in range(n_slab):
        x1, x2, x3 = rng.uniform(-xy_half_width, xy_half_width, 3)
        slab.append(GroupElement(float(x1), float(x2), float(x3), 0.0))
    off = []
    for _ in range(n_off):
        x1, x2, x3 = rng.uniform(-xy_half_width, xy_half_width, 3)
        x4 = float(rng.uniform(off_slab_min, off_slab_max)) * (
            1.0 if rng.uniform() < 0.5 else -1.0
        )
        off.append(GroupElement(float(x1), float(x2), float(x3), x4))
    records = []
    for sub in subs:
        slab_ok = sum(1 for g in slab if normalizes(p, g, sub))
        off_ok = sum(1 for g in off if normalizes(p, g, sub))
        records.append(
            NormalizerRecord(
                subgroup=sub.value,
                slab_samples=len(slab),
                slab_normalizing=slab_ok,
                off_slab_samples=len(off),
                off_slab_normalizing=off_ok,
            )
        )
    min_defect = min_center_defect(p)
    center_trivial = min_defect > defect_threshold
    contradiction = center_trivial and all(
        r.normalizer_equals_commutator for r in records
    )
    return Theorem2Certificate(
        a=p.a,
        records=tuple(records),
        center_trivial=center_trivial,
        contradiction=contradiction,
        min_central_defect=min_defect,
        seed=seed,
        notes=(
            "hypothesis: were the group a loop multiplication group with an "
            "admissible stabilizer as inner mapping group, the normalizer of "
            "the stabilizer would be stabilizer times centre (1-dimensional); "
            "sampled normalizer is the 3-dimensional commutator slab"
        ),
    )


def theorem2_suite(p: GroupParam, n_samples: int = 1000, seed: int = 0) -> VerificationReport:
    """The Theorem 2 certificate as checks: normalizers, centre, contradiction."""
    cert = theorem2_certificate(p, n_samples=n_samples, seed=seed)
    report = VerificationReport(seed=seed)
    for rec in cert.records:
        bad = (rec.slab_samples - rec.slab_normalizing) + rec.off_slab_normalizing
        report.record(
            f"normalizer-is-commutator-slab-{rec.subgroup}",
            rec.normalizer_equals_commutator,
            max_error=float(bad),
            n_samples=rec.slab_samples + rec.off_slab_samples,
            notes="sampled surrogate for the normalizer dimension",
        )
    report.record(
        "center-trivial",
        cert.center_trivial,
        max_error=cert.min_central_defect,
        n_samples=len(CENTER_TEST_DIRECTIONS),
    )
    report.record(
        "contradiction",
        cert.contradiction,
        n_samples=n_samples,
        notes=cert.notes,
    )
    report.data["certificate"] = cert.to_dict()
    return report
