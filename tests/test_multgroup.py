"""Normalizer sampling and the multiplication-group obstruction certificate."""

import numpy as np
import pytest

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
                assert sl.multgroup.normalizes(p, g, sub)


def test_off_slab_elements_do_not_normalize():
    rng = np.random.default_rng(62)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for _ in range(30):
            x4 = float(rng.uniform(1e-3, 3.0)) * (1 if rng.random() < 0.5 else -1)
            g = sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), x4)
            for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3):
                assert not sl.multgroup.normalizes(p, g, sub)


def test_normalizes_rejects_inadmissible_subgroups():
    g = sl.GroupElement(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
        sl.multgroup.normalizes(sl.GroupParam(1.0), g, SubgroupId.H2)
    with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
        sl.multgroup.normalizes(sl.GroupParam(2.0), g, SubgroupId.H4)


def _certificate(a, n_samples, seed):
    return sl.theorem2_suite(sl.GroupParam(a), n_samples=n_samples, seed=seed).data["certificate"]


@pytest.mark.parametrize("a", A_VALUES)
def test_certificate_contradiction(a):
    cert = _certificate(a, n_samples=200, seed=5)
    assert cert["center_trivial"] is True
    assert cert["contradiction"] is True
    assert cert["center_dim"] == 0
    assert cert["seed"] == 5
    expected = 1 if a == 1.0 else 3
    assert len(cert["records"]) == expected
    for rec in cert["records"]:
        assert rec["slab_normalizing"] == rec["slab_samples"]
        assert rec["off_slab_normalizing"] == 0
        assert rec["normalizer_equals_commutator"] is True
        assert rec["normalizer_dim"] == 3


@pytest.mark.parametrize("n_samples", (0, 1))
def test_an_empty_sample_half_is_refused(n_samples):
    # one sample left the slab half empty, and its checks passed on nothing
    with pytest.raises(ValueError, match="at least 2 samples"):
        sl.theorem2_suite(sl.GroupParam(2.0), n_samples=n_samples)


def test_certificate_notes_state_hypothesis():
    cert = _certificate(2.0, n_samples=60, seed=0)
    assert "hypothesis" in cert["notes"]
    assert "normalizer" in cert["notes"]


def test_certificate_serialization():
    d = _certificate(-1.0, n_samples=60, seed=3)
    assert list(d) == [
        "a", "records", "center_trivial", "contradiction",
        "center_dim", "seed", "notes",
    ]
    assert d["records"][0]["subgroup"] == "H1"
    # the dictionary must render deterministically
    import solvloop.report as rp

    assert rp.render_json(d) == rp.render_json(_certificate(-1.0, n_samples=60, seed=3))


def test_certificate_deterministic_across_runs():
    a = _certificate(0.5, n_samples=80, seed=11)
    b = _certificate(0.5, n_samples=80, seed=11)
    assert a == b
    c = _certificate(0.5, n_samples=80, seed=12)
    # the dimensions are exact; only normalizer sampling depends on the seed
    assert c["center_dim"] == a["center_dim"] == 0
    assert [r["normalizer_dim"] for r in c["records"]] == [r["normalizer_dim"] for r in a["records"]]


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
