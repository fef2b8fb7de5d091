"""One hypothesis profile for the whole suite, a helper for root proofs and a normalizer oracle.

Property tests draw the same examples on every run (derandomize) and have
no per-example deadline, so they neither vary from run to run nor fail on
a machine whose speed changes under load.
"""

from hypothesis import settings

from solvloop.group import conjugate
from solvloop.subgroups import InadmissibleSubgroupError, membership_residual, subgroup_element

settings.register_profile("solvloop", deadline=None, derandomize=True)
settings.load_profile("solvloop")


def per_row(found, n: int) -> list:
    """numerics.root_rows' (rows, a, b, errors) for n rows as one entry per row.

    A row's entry is its ValueError, or the list of its proved boxes (a, b)
    as floats in the order root_rows gives them; a failed row must have no
    boxes.
    """
    rows, a, b, errors = found
    out: list = [[] for _ in range(n)]
    for r, box in zip(rows.tolist(), zip(a.tolist(), b.tolist())):
        out[r].append(box)
    for r, error in errors.items():
        assert out[r] == [], (r, out[r])
        out[r] = error
    return out


def normalizes(p, g, sub):
    """Does conjugation by g keep the subgroup's generator inside the subgroup, to 1e-10?

    A bool, or for column elements a bool per row: the sampled side of
    the slab dichotomy that theorem2_suite decides from the bracket table.
    """
    if not sub.admissible(p):
        raise InadmissibleSubgroupError(f"{sub.value} is not admissible for a = {p.a:g}")
    conj = conjugate(p, g, subgroup_element(sub, 1.0))
    return membership_residual(sub, conj) <= 1e-10
