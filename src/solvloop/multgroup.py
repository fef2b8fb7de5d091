"""Group-law checks and the obstruction certificate.

group_suite samples the group law against the matrix model, the Lie bracket
against matrix commutators and the exponential, and decides the centre
exactly from the bracket table.  The rest of the module certifies Theorem 2:
the group cannot be the multiplication group of a connected proper loop.
The computable ingredients: the normalizer of each admissible one-parameter
subgroup is exactly the commutator slab {x4 = 0} (3-dimensional), and the
centre is trivial.  If the group were such a multiplication group with the
subgroup as inner mapping group, the normalizer of the inner mapping group
would have to equal inner mappings times centre, which is 1-dimensional.
theorem2_suite records both facts and the resulting contradiction as
checks, exactly from the bracket table, and draws nothing.  Its report's
certificate data holds the dimensions behind them.
"""

from __future__ import annotations

import numpy as np

from .group import (
    AlgebraVector,
    GroupElement,
    GroupParam,
    as_matrix,
    bracket,
    center_dim,
    commutator_oracle,
    coordinate_distance,
    exp_alg,
    inv,
    mul,
    normalizer_dim,
    split,
)
from .report import VerificationReport
from .sampling import Stream
from .subgroups import (
    SubgroupId,
    admissible_subgroups,
    membership_residual,
    subgroup_generator,
)

def group_suite(p: GroupParam, n_samples: int = 400, seed: int = 0) -> VerificationReport:
    """Sampled group law, Lie algebra and exponential identities, and the exact centre.

    Each sampled check draws its samples row by row from one PCG64 stream
    and evaluates all rows in one pass of the column-valued laws.  The
    centre is trivial when center_dim, decided on the 16 basis brackets, is 0.
    """
    rng = Stream(seed)
    report = VerificationReport(seed=seed)
    n = n_samples
    zero = (0.0, 0.0, 0.0, 0.0)

    g, h = split(GroupElement, rng.uniform(-5.0, 5.0, (n, 8)))
    prod, factors = as_matrix(p, mul(p, g, h)), as_matrix(p, g) @ as_matrix(p, h)
    scale = np.maximum(np.abs(prod).max(axis=(1, 2)), np.abs(factors).max(axis=(1, 2)))
    with np.errstate(invalid="ignore"):
        dist = np.abs(prod - factors).max(axis=(1, 2)) / np.maximum(scale, 1.0)
    del prod, factors  # two stacks of n matrices: free them before the next draws
    report.bound("product-matrix-oracle", dist, 1e-12)

    (g,) = split(GroupElement, rng.uniform(-5.0, 5.0, (n, 4)))
    report.bound(
        "two-sided-inverse",
        np.maximum(
            coordinate_distance(mul(p, g, inv(p, g)).coords, zero),
            coordinate_distance(mul(p, inv(p, g), g).coords, zero),
        ),
        1e-12,
    )

    g, h, k = split(GroupElement, rng.uniform(-5.0, 5.0, (n, 12)))
    report.bound(
        "associativity",
        coordinate_distance(mul(p, mul(p, g, h), k).coords, mul(p, g, mul(p, h, k)).coords),
        1e-12,
    )

    u, v = split(AlgebraVector, rng.integers(-5, 6, (n, 8)).astype(float))
    report.bound(
        "bracket-commutator-oracle",
        coordinate_distance(bracket(p, u, v).coords, commutator_oracle(p, u, v).coords),
        1e-13,
        notes="exact on integer vectors when a is dyadic",
    )

    u, v, w = split(AlgebraVector, rng.integers(-3, 4, (n, 12)).astype(float))
    cyc = (
        bracket(p, u, bracket(p, v, w))
        .plus(bracket(p, v, bracket(p, w, u)))
        .plus(bracket(p, w, bracket(p, u, v)))
    )
    report.bound("jacobi", coordinate_distance(cyc.coords, zero), 1e-13)

    m = max(20, n // 10)
    draws = rng.uniform([-2.0] * 4 + [-1.5] * 2, [2.0] * 4 + [1.5] * 2, (m, 6))
    v, (s, t) = AlgebraVector(*draws[:, :4].T), draws[:, 4:].T
    lhs, rhs = mul(p, exp_alg(p, v, s), exp_alg(p, v, t)), exp_alg(p, v, s + t)
    report.bound("exp-one-parameter", coordinate_distance(lhs.coords, rhs.coords), 1e-12)

    subs = [s for s in SubgroupId if s.defined(p)]
    ts = np.linspace(-2.0, 2.0, 9)
    report.bound(
        "exp-lands-in-subgroup",
        [membership_residual(sub, exp_alg(p, subgroup_generator(sub), ts)) for sub in subs],
        1e-9,
        notes=",".join(s.value for s in subs),
    )

    dim = center_dim(p)
    report.record(
        "center-trivial",
        dim == 0,
        max_error=dim,
        n_samples=16,
        notes="dimension of the centre, exact from the bracket table",
    )
    return report


def theorem2_suite(p: GroupParam) -> VerificationReport:
    """Normalizer dimensions plus centre triviality, combined into the obstruction.

    The normalizer of each admissible subgroup must have the exact
    dimension 3 of the slab, read from the four brackets [e_k, h] of its
    generator h; the centre is trivial when center_dim is 0.  Nothing is
    drawn: conjugation by an element with fourth coordinate t acts on the
    abelian slab by a linear map that depends on t alone, so a normalizer
    of dimension 3 (h not an eigenvector of ad e4) has no element off the
    slab.  The contradiction check states the incompatibility with a
    1-dimensional normalizer that the inner-mapping-group hypothesis would
    force.  data["certificate"] holds the dimensions behind every check.
    """
    report = VerificationReport()
    records = []
    for sub in admissible_subgroups(p):
        dim = normalizer_dim(p, subgroup_generator(sub))
        report.record(
            f"normalizer-is-commutator-slab-{sub.value}",
            dim == 3,
            max_error=abs(dim - 3),
            n_samples=4,
            notes="normalizer dimension, exact from the brackets [e_k, h]",
        )
        records.append({
            "subgroup": sub.value,
            "normalizer_dim": dim,
            "normalizer_equals_commutator": dim == 3,
        })
    center = center_dim(p)
    center_trivial = center == 0
    report.record("center-trivial", center_trivial, max_error=center, n_samples=16)
    contradiction = center_trivial and all(r["normalizer_equals_commutator"] for r in records)
    notes = (
        "hypothesis: were the group a loop multiplication group with an "
        "admissible stabilizer as inner mapping group, the normalizer of "
        "the stabilizer would be stabilizer times centre (1-dimensional); "
        "the normalizer is the 3-dimensional commutator slab"
    )
    report.record("contradiction", contradiction, n_samples=len(records) + 1, notes=notes)
    report.data["certificate"] = {
        "a": p.a,
        "records": records,
        "center_dim": center,
        "center_trivial": center_trivial,
        "contradiction": contradiction,
        "notes": notes,
    }
    return report
