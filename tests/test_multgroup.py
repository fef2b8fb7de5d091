"""The sampled normalizer oracle and the multiplication-group obstruction certificate."""

import numpy as np
import pytest
from conftest import normalizes

import solvloop as sl
from solvloop.subgroups import SubgroupId

A_VALUES = (-1.0, 0.5, 1.0, 2.0)


def test_slab_elements_normalize_stabilizers():
    rng = np.random.default_rng(61)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for _ in range(30):
            g = sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), 0.0)
            for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3):
                assert normalizes(p, g, sub)


def test_off_slab_elements_do_not_normalize():
    rng = np.random.default_rng(62)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for _ in range(30):
            x4 = float(rng.uniform(1e-3, 3.0)) * (1 if rng.random() < 0.5 else -1)
            g = sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), x4)
            for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3):
                assert not normalizes(p, g, sub)


def test_normalizes_rejects_inadmissible_subgroups():
    g = sl.GroupElement(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
        normalizes(sl.GroupParam(1.0), g, SubgroupId.H2)
    with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
        normalizes(sl.GroupParam(2.0), g, SubgroupId.H4)


def test_conjugation_on_the_slab_depends_on_x4_alone():
    # why theorem2_suite needs no draws: the slab is abelian, so g's slab
    # part drops out of g h g^-1 and only x4 = t acts, linearly
    rng = np.random.default_rng(63)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        h = sl.GroupElement(*(float(v) for v in rng.uniform(-2, 2, 3)), 0.0)
        first, *others = (
            sl.group.conjugate(p, sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), 0.8), h)
            for _ in range(3)
        )
        for other in others:
            assert sl.group.coordinate_distance(first.coords, other.coords) <= 1e-12


def _certificate(a):
    return sl.theorem2_suite(sl.GroupParam(a)).data["certificate"]


# the sampled dichotomy failed H3 at a = 1 + 1e-9 and overflowed at a = 700
@pytest.mark.parametrize("a", A_VALUES + (1.000000001, 700.0))
def test_certificate_contradiction(a):
    cert = _certificate(a)
    assert cert["center_trivial"] is True
    assert cert["contradiction"] is True
    assert cert["center_dim"] == 0
    expected = 1 if a == 1.0 else 3
    assert len(cert["records"]) == expected
    for rec in cert["records"]:
        assert rec["normalizer_equals_commutator"] is True
        assert rec["normalizer_dim"] == 3


def test_certificate_notes_state_hypothesis():
    cert = _certificate(2.0)
    assert "hypothesis" in cert["notes"]
    assert "normalizer" in cert["notes"]
    assert "sampled" not in cert["notes"]


def test_certificate_serialization():
    d = _certificate(-1.0)
    assert list(d) == ["a", "records", "center_dim", "center_trivial", "contradiction", "notes"]
    assert list(d["records"][0]) == ["subgroup", "normalizer_dim", "normalizer_equals_commutator"]
    assert d["records"][0]["subgroup"] == "H1"
    # the dictionary must render deterministically
    import solvloop.report as rp

    assert rp.render_json(d) == rp.render_json(_certificate(-1.0))


def test_certificate_deterministic_across_runs():
    # nothing is drawn, so equal parameters give equal certificates
    assert _certificate(0.5) == _certificate(0.5)
    assert [r["normalizer_dim"] for r in _certificate(0.5)["records"]] == [3, 3, 3]


def test_group_suite_without_samples_fails_the_checks_without_rows():
    # exp-one-parameter draws at least 20 rows, exp-lands-in-subgroup has its
    # fixed 9 per subgroup and the centre is exact, so those three still pass
    rep = sl.multgroup.group_suite(sl.GroupParam(2.0), 0)
    assert {c.name: (c.status, c.n_samples) for c in rep.checks} == {
        "product-matrix-oracle": ("fail", 0),
        "two-sided-inverse": ("fail", 0),
        "associativity": ("fail", 0),
        "bracket-commutator-oracle": ("fail", 0),
        "jacobi": ("fail", 0),
        "exp-one-parameter": ("pass", 20),
        "exp-lands-in-subgroup": ("pass", 36),
        "center-trivial": ("pass", 16),
    }
