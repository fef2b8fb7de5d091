"""Subgroup charts, coset decomposition, slab classification, fixed cosets."""

import math

import numpy as np
import pytest

import solvloop as sl
from solvloop.subgroups import SubgroupId

A_VALUES = (-1.0, 0.5, 1.0, 2.0)


def rand_element(rng, half=5.0):
    return sl.GroupElement(*(float(v) for v in rng.uniform(-half, half, 4)))


# ---------------------------------------------------------------- admissibility

def test_admissible_subgroups_depends_on_a():
    assert sl.subgroups.admissible_subgroups(sl.GroupParam(2.0)) == [
        SubgroupId.H1,
        SubgroupId.H2,
        SubgroupId.H3,
    ]
    assert sl.subgroups.admissible_subgroups(sl.GroupParam(1.0)) == [SubgroupId.H1]


def test_h2_h3_rejected_at_a_equal_one():
    p1 = sl.GroupParam(1.0)
    for sub in (SubgroupId.H2, SubgroupId.H3):
        with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
            sl.subgroups.embed(p1, sub, sl.LoopPoint(1.0, 0.0, 0.0))
        with pytest.raises(sl.subgroups.InadmissibleSubgroupError):
            sl.subgroups.decompose(p1, sub, sl.GroupElement(1, 0, 0, 0))


def test_subgroup_element_coordinates():
    assert sl.subgroups.subgroup_element(SubgroupId.H1, 2.0).coords == (0, 0, 2, 0)
    assert sl.subgroups.subgroup_element(SubgroupId.H2, 2.0).coords == (2, 0, 2, 0)
    assert sl.subgroups.subgroup_element(SubgroupId.H3, 2.0).coords == (2, 2, 0, 0)
    assert sl.subgroups.subgroup_element(SubgroupId.H4, 2.0).coords == (0, 0, 0, 2)


def test_subgroup_elements_form_one_parameter_subgroups():
    rng = np.random.default_rng(4)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3, SubgroupId.H4):
            for _ in range(15):
                s, t = (float(x) for x in rng.uniform(-2, 2, 2))
                prod = sl.group.mul(p, sl.subgroups.subgroup_element(sub, s), sl.subgroups.subgroup_element(sub, t))
                assert sl.subgroups.membership_residual(sub, prod) <= 1e-10


def test_generators_exponentiate_into_subgroups():
    rng = np.random.default_rng(6)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3, SubgroupId.H4):
            v = sl.subgroups.subgroup_generator(sub)
            for _ in range(10):
                t = float(rng.uniform(-2.0, 2.0))
                g = sl.group.exp_alg(p, v, t=t)
                assert sl.subgroups.membership_residual(sub, g) <= 1e-9


# ---------------------------------------------------------------- charts

def test_embed_charts():
    p = sl.GroupParam(2.0)
    m = sl.LoopPoint(1.0, 2.0, 3.0)
    assert sl.subgroups.embed(p, SubgroupId.H1, m).coords == (1, 2, 0, 3)
    assert sl.subgroups.embed(p, SubgroupId.H2, m).coords == (1, 2, 0, 3)
    assert sl.subgroups.embed(p, SubgroupId.H3, m).coords == (1, 0, 2, 3)
    assert sl.subgroups.embed(p, SubgroupId.H4, m).coords == (1, 2, 3, 0)


def test_decompose_embed_is_section():
    rng = np.random.default_rng(11)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3, SubgroupId.H4):
            for _ in range(20):
                m = sl.LoopPoint(*(float(v) for v in rng.uniform(-5, 5, 3)))
                res = sl.subgroups.decompose(p, sub, sl.subgroups.embed(p, sub, m))
                assert sl.group.coordinate_distance(res.rep.coords, m.coords) <= 1e-13
                assert abs(res.k) <= 1e-13


def test_decompose_recomposes_group_element():
    rng = np.random.default_rng(19)
    for a in (-1.0, 0.5, 2.0):
        p = sl.GroupParam(a)
        for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3, SubgroupId.H4):
            for _ in range(40):
                g = rand_element(rng)
                res = sl.subgroups.decompose(p, sub, g)
                back = sl.group.mul(p, sl.subgroups.embed(p, sub, res.rep), sl.subgroups.subgroup_element(sub, res.k))
                assert sl.group.coordinate_distance(back.coords, g.coords) <= 1e-12


def test_decompose_h1_closed_form():
    # mul(g(x,y,0,z), g(0,0,k,0)) = g(x, y + z e^z k, e^z k, z), so the
    # representative is (x1, x2 - x4 x3, x4) and k = e^{-x4} x3
    p = sl.GroupParam(2.0)
    res = sl.subgroups.decompose(
        p,
        SubgroupId.H1,
        sl.group.mul(p, sl.subgroups.embed(p, SubgroupId.H1, sl.LoopPoint(1.0, 2.0, 0.5)),
               sl.subgroups.subgroup_element(SubgroupId.H1, 0.75)),
    )
    assert sl.group.coordinate_distance(res.rep.coords, (1.0, 2.0, 0.5)) <= 1e-15
    assert abs(res.k - 0.75) <= 1e-15


def test_membership_residual_detects_off_slab():
    p = sl.GroupParam(2.0)
    rng = np.random.default_rng(14)
    for sub in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3):
        for _ in range(20):
            g = rand_element(rng)
            if abs(g.x4) < 1e-3:
                continue
            assert sl.subgroups.membership_residual(sub, g) > 1e-4


# ---------------------------------------------------------------- classification

def test_classify_frozen_table_generic():
    p = sl.GroupParam(2.0)
    c = sl.subgroups.classify_subalgebra(p, 1.5, 0.5, -2.0)
    assert c.kind is SubgroupId.H2
    assert c.scale == 1.5
    assert (c.automorphism.k1, c.automorphism.n2) == (3.0, pytest.approx(4.0 / 3.0))

    c = sl.subgroups.classify_subalgebra(p, 1.0, 0.0, 0.7)
    assert c.kind is SubgroupId.H1
    assert c.automorphism.n2 == -0.7

    c = sl.subgroups.classify_subalgebra(p, 0.0, 2.0, 3.0)
    assert c.kind is SubgroupId.H3
    assert (c.automorphism.k1, c.scale) == (1.5, 3.0)

    c = sl.subgroups.classify_subalgebra(p, 2.0, -1.0, 0.0)
    assert c.kind is SubgroupId.H2
    assert c.automorphism.k1 == -2.0

    for b in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        c = sl.subgroups.classify_subalgebra(p, *b)
        assert c.kind is None
        assert c.automorphism is None
    with pytest.raises(ValueError):
        sl.subgroups.classify_subalgebra(p, 0.0, 0.0, 0.0)


def test_classify_frozen_table_merged():
    p1 = sl.GroupParam(1.0)
    c = sl.subgroups.classify_subalgebra(p1, 1.0, 2.0, 3.0)
    assert c.kind is SubgroupId.H1
    assert list(vars(c.automorphism)) == ["k1", "k2", "l", "n1", "n2", "f1", "f2", "f3"]
    assert (c.automorphism.n1, c.automorphism.n2) == (-2.0, -3.0)
    # at a=1 any b1 != 0 collapses to the H1 class; b1 = 0 is inadmissible
    assert sl.subgroups.classify_subalgebra(p1, 0.0, 1.0, 1.0).kind is None


def test_subgroup_generator_values():
    assert sl.subgroups.subgroup_generator(SubgroupId.H1).coords == (0, 0, 1, 0)
    assert sl.subgroups.subgroup_generator(SubgroupId.H2).coords == (1, 0, 1, 0)
    assert sl.subgroups.subgroup_generator(SubgroupId.H3).coords == (1, 1, 0, 0)
    assert sl.subgroups.subgroup_generator(SubgroupId.H4).coords == (0, 0, 0, 1)


@pytest.mark.parametrize("a", (-1.0, 0.5, 1.0, 2.0))
def test_classification_automorphism_maps_to_canonical_span(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(int(10 * a) + 100)
    hits = {k: 0 for k in (SubgroupId.H1, SubgroupId.H2, SubgroupId.H3, None)}
    for _ in range(150):
        b1, b2, b3 = (float(v) for v in rng.uniform(-3, 3, 3))
        if rng.random() < 0.25:
            b1 = 0.0
        if rng.random() < 0.25:
            b2 = 0.0
        cls = sl.subgroups.classify_subalgebra(p, b1, b2, b3)
        hits[cls.kind] += 1
        if cls.automorphism is None:
            continue
        v_in = np.array([b2, b3, b1, 0.0])
        T = sl.group.automorphism_matrix(p, cls.automorphism)
        target = cls.scale * np.array(sl.subgroups.subgroup_generator(cls.kind).coords)
        assert sl.group.coordinate_distance(tuple(T @ v_in), tuple(target)) <= 1e-12
        # the recovered map is an automorphism: brackets are preserved
        for _ in range(2):
            u = sl.group.AlgebraVector(*(float(x) for x in rng.uniform(-2, 2, 4)))
            w = sl.group.AlgebraVector(*(float(x) for x in rng.uniform(-2, 2, 4)))
            Tu = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(u.coords)))
            Tw = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(w.coords)))
            lhs = sl.group.bracket(p, Tu, Tw).coords
            rhs = tuple(float(x) for x in T @ np.array(sl.group.bracket(p, u, w).coords))
            assert sl.group.coordinate_distance(lhs, rhs) <= 1e-12
    assert hits[SubgroupId.H1] > 0
    assert hits[None] > 0
    if a != 1.0:
        assert hits[SubgroupId.H2] > 0


# ---------------------------------------------------------------- fixed cosets

def test_fixed_point_witness_closed_form():
    p1 = sl.GroupParam(1.0)
    g = sl.GroupElement(1.0, 0.0, 0.0, math.log(2.0))
    m = sl.subgroups.fixed_point_witness(p1, g)
    assert m.x == -1.0  # -g1 / (e^{g4} - 1) with e^{g4} = 2
    assert m.y == 0.0 and m.z == 0.0
    assert sl.subgroups.fixed_point_residual(p1, g, m) == 0.0


@pytest.mark.parametrize("a", A_VALUES)
def test_fixed_point_witness_random(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(77)
    for _ in range(50):
        g4 = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        g = sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), g4)
        m = sl.subgroups.fixed_point_witness(p, g)
        assert sl.subgroups.fixed_point_residual(p, g, m) <= 1e-10


def test_fixed_point_witness_needs_nonzero_x4():
    p = sl.GroupParam(2.0)
    with pytest.raises(ValueError):
        sl.subgroups.fixed_point_witness(p, sl.GroupElement(1.0, 2.0, 3.0, 0.0))
