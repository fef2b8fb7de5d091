"""Group law, Lie algebra, exponential and automorphism checks.

Every nontrivial expectation here is either a closed form evaluated inline,
or a comparison against an independent oracle (4x4 matrix products,
numpy.linalg.inv, scipy.linalg.expm, mpmath at 400 digits).
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import solvloop as sl

A_VALUES = (-1.0, 0.5, 1.0, 2.0)


def rand_element(rng, half=5.0):
    return sl.GroupElement(*(float(v) for v in rng.uniform(-half, half, 4)))


def rand_vector(rng, half=3.0):
    return sl.group.AlgebraVector(*(float(v) for v in rng.uniform(-half, half, 4)))


# ---------------------------------------------------------------- group law

def test_param_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        sl.GroupParam(0.0)
    with pytest.raises(ValueError):
        sl.GroupParam(math.inf)
    with pytest.raises(ValueError):
        sl.GroupParam(math.nan)


@pytest.mark.parametrize(
    "record, name",
    [
        (sl.GroupElement(1.0, 2.0, 3.0, 4.0), "x1"),
        (sl.LoopPoint(1.0, 2.0, 3.0), "z"),
        (sl.expressions.BinOp("+", sl.expressions.Var("x"), sl.expressions.Const(1.0)), "op"),
    ],
)
def test_value_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)


def test_mul_closed_form_example():
    # a=2: (1,0,0,1)*(1,1,1,1) worked out by hand from the coordinate law
    p = sl.GroupParam(2.0)
    out = sl.group.mul(p, sl.GroupElement(1, 0, 0, 1), sl.GroupElement(1, 1, 1, 1))
    e = sl.group.exp(1.0)
    assert out.coords == (1 + sl.group.exp(2.0), 2 * e, e, 2)


def test_mul_identity_both_sides():
    rng = np.random.default_rng(0)
    for a in A_VALUES:
        p = sl.GroupParam(a)
        for _ in range(20):
            g = rand_element(rng)
            assert sl.group.mul(p, g, sl.group.IDENTITY).coords == g.coords
            assert sl.group.mul(p, sl.group.IDENTITY, g).coords == g.coords


def test_inv_closed_form_example():
    p = sl.GroupParam(2.0)
    gi = sl.group.inv(p, sl.GroupElement(1, 2, 3, 1))
    expect = (-math.exp(-2), 1 / math.e, -3 / math.e, -1.0)
    assert sl.group.coordinate_distance(gi.coords, expect) < 1e-15


@pytest.mark.parametrize("a", A_VALUES)
def test_matrix_product_oracle(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(250):
        g, h = rand_element(rng), rand_element(rng)
        lhs = sl.group.as_matrix(p, sl.group.mul(p, g, h))
        rhs = sl.group.as_matrix(p, g) @ sl.group.as_matrix(p, h)
        scale = max(1.0, float(np.abs(rhs).max()))
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    assert worst <= 1e-12


@pytest.mark.parametrize("a", A_VALUES)
def test_inverse_and_associativity(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(23)
    origin = (0.0, 0.0, 0.0, 0.0)
    for _ in range(250):
        g, h, k = rand_element(rng), rand_element(rng), rand_element(rng)
        assert sl.group.coordinate_distance(sl.group.mul(p, g, sl.group.inv(p, g)).coords, origin) <= 1e-12
        assert sl.group.coordinate_distance(sl.group.mul(p, sl.group.inv(p, g), g).coords, origin) <= 1e-12
        lhs = sl.group.mul(p, sl.group.mul(p, g, h), k)
        rhs = sl.group.mul(p, g, sl.group.mul(p, h, k))
        assert sl.group.coordinate_distance(lhs.coords, rhs.coords) <= 1e-12


def test_inverse_matches_matrix_inverse_oracle():
    p = sl.GroupParam(0.5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rand_element(rng, half=3.0)
        lhs = sl.group.as_matrix(p, sl.group.inv(p, g))
        rhs = np.linalg.inv(sl.group.as_matrix(p, g))
        assert np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()) <= 1e-10


def test_as_matrix_layout():
    p = sl.GroupParam(2.0)
    g = sl.GroupElement(1.0, 2.0, 3.0, 0.5)
    M = sl.group.as_matrix(p, g)
    e = sl.group.exp(0.5)
    expect = np.array(
        [
            [sl.group.exp(1.0), 0, 0, 1.0],
            [0, e, 0.5 * e, 2.0],
            [0, 0, e, 3.0],
            [0, 0, 0, 1.0],
        ]
    )
    assert np.abs(M - expect).max() == 0.0


def test_conjugate_is_g_h_ginv():
    p = sl.GroupParam(2.0)
    rng = np.random.default_rng(2)
    g, h = rand_element(rng), rand_element(rng)
    lhs = sl.group.conjugate(p, g, h)
    rhs = sl.group.mul(p, sl.group.mul(p, g, h), sl.group.inv(p, g))
    assert lhs.coords == rhs.coords


def test_coordinate_distance_hybrid():
    assert sl.group.coordinate_distance((0, 0, 0, 0), (1e-13, 0, 0, 0)) == 1e-13
    # large coordinates switch to a relative scale
    d = sl.group.coordinate_distance((100.0, 0, 0, 0), (100.0 + 1e-10, 0, 0, 0))
    assert abs(d - 1e-12) < 1e-14


# ---------------------------------------------------------------- algebra

def test_coordinate_distance_nan_is_infinite():
    assert sl.group.coordinate_distance((math.nan, 0.0), (1.0, 0.0)) == math.inf
    assert sl.group.coordinate_distance((0.0, 1.0), (0.0, math.nan)) == math.inf
    assert sl.group.coordinate_distance((math.inf, 0.0), (math.inf, 0.0)) == math.inf
    assert sl.group.coordinate_distance((math.inf, 0.0), (1.0, 0.0)) == math.inf


def test_bracket_structure_table():
    for a in A_VALUES:
        p = sl.GroupParam(a)
        assert sl.group.bracket(p, sl.group.E1, sl.group.E4).coords == (a, 0.0, 0.0, 0.0)
        assert sl.group.bracket(p, sl.group.E2, sl.group.E4).coords == (0.0, 1.0, 0.0, 0.0)
        assert sl.group.bracket(p, sl.group.E3, sl.group.E4).coords == (0.0, 1.0, 1.0, 0.0)
        for u, v in ((sl.group.E1, sl.group.E2), (sl.group.E1, sl.group.E3), (sl.group.E2, sl.group.E3)):
            assert sl.group.bracket(p, u, v).coords == (0.0, 0.0, 0.0, 0.0)


def test_bracket_antisymmetry_and_bilinearity_exact():
    p = sl.GroupParam(2.0)
    rng = np.random.default_rng(8)
    for _ in range(40):
        u, v = rand_vector(rng), rand_vector(rng)
        uv = sl.group.bracket(p, u, v).coords
        vu = sl.group.bracket(p, v, u).coords
        assert all(x == -y for x, y in zip(uv, vu))
    # bilinearity on integer inputs is exact in floating point
    u = sl.group.AlgebraVector(1, 2, 3, 4)
    v = sl.group.AlgebraVector(-2, 5, 0, 1)
    w = sl.group.AlgebraVector(3, -1, 2, -2)
    lhs = sl.group.bracket(p, u.plus(v.scaled(3.0)), w).coords
    rhs1 = sl.group.bracket(p, u, w).coords
    rhs2 = sl.group.bracket(p, v, w).coords
    assert lhs == tuple(x + 3.0 * y for x, y in zip(rhs1, rhs2))


@pytest.mark.parametrize("a", (-1.0, 0.5, 2.0))
def test_bracket_equals_commutator_oracle_exact(a):
    # the oracle differentiates conjugation in the matrix model; agreement
    # must be exact (not approximate) on small-integer vectors
    p = sl.GroupParam(a)
    rng = np.random.default_rng(31)
    vecs = [sl.group.E1, sl.group.E2, sl.group.E3, sl.group.E4]
    vecs += [
        sl.group.AlgebraVector(*(float(v) for v in rng.integers(-3, 4, 4)))
        for _ in range(40)
    ]
    for u in vecs[:8]:
        for v in vecs:
            assert sl.group.bracket(p, u, v).coords == sl.group.commutator_oracle(p, u, v).coords


def test_jacobi_identity_exact_on_integer_vectors():
    rng = np.random.default_rng(13)
    for a in (-1.0, 0.5, 1.0, 2.0):
        p = sl.GroupParam(a)
        for _ in range(60):
            u, v, w = (
                sl.group.AlgebraVector(*(float(x) for x in rng.integers(-4, 5, 4)))
                for _ in range(3)
            )
            total = (
                sl.group.bracket(p, u, sl.group.bracket(p, v, w))
                .plus(sl.group.bracket(p, v, sl.group.bracket(p, w, u)))
                .plus(sl.group.bracket(p, w, sl.group.bracket(p, u, v)))
            )
            assert total.coords == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- exponential

def test_exp_basis_closed_forms():
    p = sl.GroupParam(2.0)
    assert sl.group.coordinate_distance(sl.group.exp_alg(p, sl.group.E4).coords, (0, 0, 0, 1)) <= 1e-14
    assert sl.group.coordinate_distance(sl.group.exp_alg(p, sl.group.E1, t=1.5).coords, (1.5, 0, 0, 0)) <= 1e-14
    assert sl.group.coordinate_distance(sl.group.exp_alg(p, sl.group.E2, t=-2.0).coords, (0, -2, 0, 0)) <= 1e-14
    assert sl.group.coordinate_distance(sl.group.exp_alg(p, sl.group.E3, t=0.7).coords, (0, 0, 0.7, 0)) <= 1e-14
    # nilpotent directions flow linearly
    v = sl.group.AlgebraVector(1.0, 1.0, 0.0, 0.0)
    assert sl.group.coordinate_distance(sl.group.exp_alg(p, v, t=2.0).coords, (2, 2, 0, 0)) <= 1e-14


def test_exp_e4_matrix_entries():
    p = sl.GroupParam(2.0)
    M = sl.group.as_matrix(p, sl.group.exp_alg(p, sl.group.E4))
    assert abs(M[1, 1] - math.e) < 1e-13
    assert abs(M[1, 2] - math.e) < 1e-13  # x4*e^{x4} with x4=1
    assert abs(M[0, 0] - math.exp(2.0)) < 1e-13


@pytest.mark.parametrize("a", A_VALUES)
def test_exp_matches_scipy_expm(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(41)
    for _ in range(40):
        v = rand_vector(rng, half=2.0)
        t = float(rng.uniform(-1.5, 1.5))
        lhs = sl.group.as_matrix(p, sl.group.exp_alg(p, v, t=t))
        rhs = scipy.linalg.expm(t * sl.group.algebra_matrix(p, v))
        assert np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()) <= 1e-12


def test_exp_one_parameter_subgroup_property():
    p = sl.GroupParam(-1.0)
    rng = np.random.default_rng(3)
    for _ in range(30):
        v = rand_vector(rng, half=1.5)
        s, t = (float(x) for x in rng.uniform(-1.0, 1.0, 2))
        lhs = sl.group.exp_alg(p, v, t=s + t)
        rhs = sl.group.mul(p, sl.group.exp_alg(p, v, t=s), sl.group.exp_alg(p, v, t=t))
        assert sl.group.coordinate_distance(lhs.coords, rhs.coords) <= 1e-12


def _ulps(got, want):
    """|got - want| in units in the last place of want, each row."""
    return [abs(x - y) / math.ulp(y) for x, y in zip(np.asarray(got).tolist(), want)]


# e^x - (e^x - 1)/x cancels to about x/2: at |x| = 1e-300 the reference needs
# over 300 digits, and 50 digits give 0
def _jordan_reference(x):
    with mpmath.workdps(400):
        y = mpmath.mpf(x)
        return float(mpmath.exp(y) - mpmath.expm1(y) / y) if y else 0.0


def _phi1_reference(x):
    with mpmath.workdps(400):
        y = mpmath.mpf(x)
        return float(mpmath.expm1(y) / y) if y else 1.0


def _small_exponents():
    # log-uniform magnitudes down to 1e-300, uniform points up to |x| = 0.5, and edges
    rng = np.random.default_rng(19)
    magnitudes = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 300)
    xs = np.where(rng.random(300) < 0.5, -magnitudes, magnitudes)
    edges = [0.0, -0.0, 5e-324, -1e-300, 0.4999999999999999, -0.4999999999999999]
    return np.concatenate([xs, rng.uniform(-0.5, 0.5, 200), edges])


def test_jordan_series_matches_mpmath():
    # the Horner branch of _jordan, |x| < 0.5, against the closed form at 400 digits
    xs = _small_exponents()
    with np.errstate(divide="ignore", invalid="ignore"):
        got = sl.group._jordan(xs)
    assert max(_ulps(got, [_jordan_reference(x) for x in xs])) <= 2.0


@pytest.mark.parametrize("a", (*A_VALUES, 3.7))
def test_exp_alg_at_small_exponent_matches_mpmath(a):
    # v = e1 + e3 + c4*e4 at t = 1: x1 = phi1(a*c4), x2 = jordan(c4), x3 = phi1(c4)
    p = sl.GroupParam(a)
    c4 = _small_exponents()
    g = sl.group.exp_alg(p, sl.group.AlgebraVector(np.ones_like(c4), 0.0, np.ones_like(c4), c4))
    assert max(_ulps(g.x1, [_phi1_reference(a * x) for x in c4])) <= 2.0
    assert max(_ulps(g.x2, [_jordan_reference(x) for x in c4])) <= 2.0
    assert max(_ulps(g.x3, [_phi1_reference(x) for x in c4])) <= 2.0


# the floats around log of the largest float, 709.78, where exp and expm1 overflow
OVERFLOW_EDGE = [709.782712893384 + k * math.ulp(709.782712893384) for k in range(-4, 5)]


@pytest.mark.parametrize("name", ("exp", "expm1"))
def test_exponentials_raise_exactly_where_a_finite_row_overflows(name):
    law, kernel = getattr(sl.group, name), getattr(np, name)
    for x in [*OVERFLOW_EDGE, 0.0, -1.0, 709.0, 710.0, 800.0, 1e308, -800.0, -1e308]:
        with np.errstate(over="ignore"):
            overflows = math.isinf(kernel(x))
        assert overflows == (x > 709.782712893384)  # where math.exp starts raising
        for arg in (x, np.array([0.5, x, -2.0])):
            if overflows:
                with pytest.raises(OverflowError, match="^math range error$"):
                    law(arg)
            else:
                got = law(arg)
                assert type(got) is (float if arg is x else np.ndarray)
                assert np.array_equal(got, kernel(arg))


@pytest.mark.parametrize("name", ("exp", "expm1"))
def test_exponentials_of_nan_and_infinite_rows_do_not_raise(name):
    # NaN, e^inf = inf and e^-inf = 0 (expm1: -1), as math gives them
    law, reference = getattr(sl.group, name), getattr(math, name)
    xs = [math.nan, math.inf, -math.inf]
    want = np.array([reference(x) for x in xs])
    assert np.array_equal([law(x) for x in xs], want, equal_nan=True)
    assert np.array_equal(law(np.array(xs)), want, equal_nan=True)
    with pytest.raises(OverflowError):  # they do not hide an overflowing row
        law(np.array([*xs, 710.0]))


# ---------------------------------------------------------------- automorphisms

def test_automorphism_params_validation():
    with pytest.raises(ValueError):
        sl.group.AutomorphismParams(k1=0.0)
    with pytest.raises(ValueError):
        sl.group.AutomorphismParams(l=0.0)
    sl.group.AutomorphismParams(k2=1.0, n1=0.5)  # allowed; automorphism_matrix checks a


def test_merged_variant_requires_a_equal_one():
    # k2 and n1 mix the weight spaces of e1 and e3, which merge only at a = 1
    for phi in (sl.group.AutomorphismParams(n1=1.0), sl.group.AutomorphismParams(k2=1.0)):
        with pytest.raises(ValueError, match="only at a = 1"):
            sl.group.automorphism_matrix(sl.GroupParam(2.0), phi)
        sl.group.automorphism_matrix(sl.GroupParam(1.0), phi)  # fine at a=1


@pytest.mark.parametrize("a", (-1.0, 0.5, 2.0))
def test_generic_automorphism_preserves_brackets(a):
    p = sl.GroupParam(a)
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi = sl.group.AutomorphismParams(
            k1=float(rng.uniform(0.5, 2.0)),
            l=float(rng.uniform(0.5, 2.0)),
            n2=float(rng.uniform(-2, 2)),
            f1=float(rng.uniform(-2, 2)),
            f2=float(rng.uniform(-2, 2)),
            f3=float(rng.uniform(-2, 2)),
        )
        T = sl.group.automorphism_matrix(p, phi)
        for _ in range(4):
            u, v = rand_vector(rng), rand_vector(rng)
            Tu = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(u.coords)))
            Tv = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(v.coords)))
            lhs = sl.group.bracket(p, Tu, Tv).coords
            rhs = tuple(float(x) for x in T @ np.array(sl.group.bracket(p, u, v).coords))
            assert sl.group.coordinate_distance(lhs, rhs) <= 1e-12


def test_apply_automorphism_matches_matrix():
    p = sl.GroupParam(1.0)
    phi = sl.group.AutomorphismParams(k1=2.0, k2=0.5, l=1.5, n1=-1.0, n2=0.25)
    T = sl.group.automorphism_matrix(p, phi)
    v = sl.group.AlgebraVector(1.0, -2.0, 0.5, 0.0)
    out = sl.group.apply_automorphism(p, phi, v)
    assert np.abs(np.array(out.coords) - T @ np.array(v.coords)).max() <= 1e-15


# ---------------------------------------------------------------- centre and normalizers

def test_exact_rank_known_answers():
    assert sl.group.exact_rank([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) == 0
    assert sl.group.exact_rank([]) == 0
    # the third column is the sum of the first two
    assert sl.group.exact_rank([[1, 2, 3], [4, 5, 6], [5, 7, 9], [2, 4, 6]]) == 2
    assert sl.group.exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    # parallel columns at both ends of the float range; a singular-value
    # tolerance cannot tell the second pair, which is not parallel, from them
    assert sl.group.exact_rank([[2.0**-1074, 2.0**-1073], [2.0**1000, 2.0**1001]]) == 1
    assert sl.group.exact_rank([[2.0**-1074, 2.0**-1072], [2.0**1000, 2.0**1001]]) == 2
    assert sl.group.exact_rank([[2.0**1000, 2.0**1001], [1.0, 2.0 + 2.0**-51]]) == 2


@settings(max_examples=100)
@given(
    columns=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, 2.0**-60, 2.0**60]), min_size=n, max_size=n),
            min_size=1, max_size=5,
        )
    )
)
def test_exact_rank_equals_sympy_rank(columns):
    exact = sympy.Matrix([[sympy.Rational(*x.as_integer_ratio()) for x in c] for c in columns])
    assert sl.group.exact_rank(columns) == exact.rank()


# the centre and normalizer dimensions do not depend on a != 0, even where its
# structure constants underflow or sit a rounding away from a = 1
EXACT_A = (2.0, -1.0, 0.5, 1e-7, 5e-324, 1 + 2.0**-52, 1 - 2.0**-52, 700.0, -700.0, 1e300)
GENERATORS = {  # the generators of H1, H2 and H3
    "H1": sl.group.E3,
    "H2": sl.group.AlgebraVector(1.0, 0.0, 1.0, 0.0),
    "H3": sl.group.AlgebraVector(1.0, 1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("a", EXACT_A)
def test_center_and_normalizer_dims(a):
    p = sl.GroupParam(a)
    assert sl.group.center_dim(p) == 0
    for h in GENERATORS.values():
        assert sl.group.normalizer_dim(p, h) == 3  # the slab
    for h in (sl.group.E1, sl.group.E2):  # weight vectors: their span is an ideal
        assert sl.group.normalizer_dim(p, h) == 4


def test_h3_direction_is_an_ideal_at_a_equal_one():
    p = sl.GroupParam(1.0)
    assert sl.group.center_dim(p) == 0
    assert sl.group.normalizer_dim(p, GENERATORS["H3"]) == 4
    assert sl.group.normalizer_dim(p, GENERATORS["H1"]) == 3


@pytest.mark.parametrize("a", A_VALUES)
def test_exact_rank_agrees_with_numpy_matrix_rank(a):
    # the matrices of center_dim and normalizer_dim, whose ranks floats decide at these a
    p = sl.GroupParam(a)
    basis = (sl.group.E1, sl.group.E2, sl.group.E3, sl.group.E4)
    matrices = [[[c for f in basis for c in sl.group.bracket(p, e, f)] for e in basis]] + [
        [*(sl.group.bracket(p, e, h) for e in basis), h.scaled(-1.0)]
        for h in (*GENERATORS.values(), sl.group.E1, sl.group.E2)
    ]
    for columns in matrices:
        assert sl.group.exact_rank(columns) == np.linalg.matrix_rank(np.array(columns, dtype=float).T)


# The sampled centre witness that center_dim replaced, kept as an oracle:
# exp(t*v) commutes with exp_alg(p, E4), exp_alg(p, E1) and exp_alg(p, E3),
# which are these points bit for bit, for every t only when v is central.
CENTER_PROBES = (
    sl.GroupElement(0.0, 0.0, 0.0, 1.0),
    sl.GroupElement(1.0, 0.0, 0.0, 0.0),
    sl.GroupElement(0.0, 0.0, 1.0, 0.0),
)


def central_defect(p, v):
    """Largest commutation failure of exp(t*v) against CENTER_PROBES, t in (0.25, 0.5, 1)."""
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        g = sl.group.exp_alg(p, v, t)
        for q in CENTER_PROBES:
            d = sl.group.coordinate_distance(sl.group.mul(p, g, q).coords, sl.group.mul(p, q, g).coords)
            worst = max(worst, d)
    return worst


def test_central_defect_positive_for_basis_directions():
    # no nonzero direction is central, as center_dim decides exactly
    rng = np.random.default_rng(17)
    for a in (*A_VALUES, 1e-7):
        p = sl.GroupParam(a)
        assert sl.group.center_dim(p) == 0
        for v in (sl.group.E1, sl.group.E2, sl.group.E3, sl.group.E4, *(rand_vector(rng) for _ in range(5))):
            assert central_defect(p, v) > 0


def test_central_defect_zero_direction():
    p = sl.GroupParam(2.0)
    zero = sl.group.AlgebraVector(0.0, 0.0, 0.0, 0.0)
    assert central_defect(p, zero) == 0.0
