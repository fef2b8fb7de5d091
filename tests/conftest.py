"""One hypothesis profile for the whole suite, and a helper for root proofs.

Property tests draw the same examples on every run (derandomize) and have
no per-example deadline, so they neither vary from run to run nor fail on
a machine whose speed changes under load.
"""

from hypothesis import settings

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
