"""Column-valued laws: every row of a column call is its scalar call, bit for bit.

The coordinate records hold floats or equal-length float64 columns.  For
each law that takes columns, a column call must give, row by row, exactly
the bits of the scalar call on that row, NaN and infinite rows included, and
raise OverflowError exactly when some row's scalar call does.  The sampled
suites built on the column laws are compared with the per-sample loops they
replaced, kept here as the scalar reference.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from conftest import normalizes
from hypothesis import strategies as st

import solvloop as sl
from solvloop.group import exp, expm1, stack
from solvloop.loops import _product
from solvloop.subgroups import DecompResult, SubgroupId


def rdiv(spec, b, m2):
    """The q with q * m2 = b: loop_rdiv_batch on one row, raising its error."""
    q, _, errors = sl.loops.loop_rdiv_batch(spec, sl.group.stack([b]), sl.group.stack([m2]))
    if errors:
        raise errors[0]
    return sl.LoopPoint(*(float(col[0]) for col in q.coords))


A_VALUES = (-1.0, 0.5, 1.0, 2.0, 3.7)
# plain values, plus rows that are NaN, infinite, signed zero or overflow exp
COORD = st.floats(-6.0, 6.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 800.0, -800.0, 1e308]
)


def _rows(width):
    return st.lists(st.tuples(*[COORD] * width), min_size=1, max_size=6)


def _columns(cls, rows):
    return cls(*(np.array(col, dtype=float) for col in zip(*rows)))


def _flat(value, row=None, n=None):
    """The floats of a law's result; of row `row` of n for a column result."""
    if isinstance(value, DecompResult):
        return _flat(value.rep, row, n) + _flat(value.k, row, n)
    if hasattr(value, "coords"):
        return [x for c in value.coords for x in _flat(c, row, n)]
    a = np.asarray(value, dtype=float)
    if row is not None:
        a = np.broadcast_to(a, (n,) + a.shape[1:] if a.ndim else (n,))[row]
    return a.ravel().tolist()


def _same_bits(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1, x) == math.copysign(1, y)


def _outcome(call):
    try:
        return call()
    except OverflowError:
        return OverflowError


def _assert_rows_match(law, scalar_args, column_args):
    """law(*column_args) row i is law(*scalar_args[i]); OverflowError when any row's is."""
    with np.errstate(all="ignore"):
        expected = [_outcome(lambda: law(*args)) for args in scalar_args]
        got = _outcome(lambda: law(*column_args))
    if any(x is OverflowError for x in expected):
        assert got is OverflowError
        return
    assert got is not OverflowError
    for i, want in enumerate(expected):
        have, want = _flat(got, i, len(expected)), _flat(want)
        assert len(have) == len(want)
        assert all(_same_bits(x, y) for x, y in zip(have, want)), (i, have, want)


# ---------------------------------------------------------------- group laws

@settings(max_examples=150)
@given(a=st.sampled_from(A_VALUES), rows=_rows(8))
def test_group_laws_rows_equal_scalar_calls(a, rows):
    p = sl.GroupParam(a)
    gs = [sl.GroupElement(*r[:4]) for r in rows]
    hs = [sl.GroupElement(*r[4:]) for r in rows]
    g = _columns(sl.GroupElement, [r[:4] for r in rows])
    h = _columns(sl.GroupElement, [r[4:] for r in rows])
    pairs = list(zip(gs, hs))
    for law in (
        lambda g, h: sl.group.mul(p, g, h),
        lambda g, h: sl.group.conjugate(p, g, h),
        lambda g, h: sl.group.coordinate_distance(g.coords, h.coords),
        lambda g, h: sl.group.coordinate_distance(g.coords, (0.0, h.x2, 1.0, h.x4)),
    ):
        _assert_rows_match(law, pairs, (g, h))
    for law in (lambda g: sl.group.inv(p, g), lambda g: sl.group.as_matrix(p, g)):
        _assert_rows_match(law, [(x,) for x in gs], (g,))


@settings(max_examples=100)
@given(a=st.sampled_from(A_VALUES), rows=_rows(8))
def test_algebra_laws_rows_equal_scalar_calls(a, rows):
    p = sl.GroupParam(a)
    us = [sl.group.AlgebraVector(*r[:4]) for r in rows]
    vs = [sl.group.AlgebraVector(*r[4:]) for r in rows]
    u = _columns(sl.group.AlgebraVector, [r[:4] for r in rows])
    v = _columns(sl.group.AlgebraVector, [r[4:] for r in rows])
    pairs = list(zip(us, vs))
    _assert_rows_match(lambda u, v: sl.group.bracket(p, u, v), pairs, (u, v))
    _assert_rows_match(lambda u, v: sl.group.commutator_oracle(p, u, v), pairs, (u, v))
    _assert_rows_match(lambda u: sl.group.algebra_matrix(p, u), [(x,) for x in us], (u,))


@settings(max_examples=150)
@given(a=st.sampled_from(A_VALUES), rows=_rows(5))
def test_exponential_rows_equal_scalar_calls(a, rows):
    p = sl.GroupParam(a)
    flows = [(sl.group.AlgebraVector(*r[:4]), r[4]) for r in rows]
    v, t = _columns(sl.group.AlgebraVector, [r[:4] for r in rows]), np.array([r[4] for r in rows])
    _assert_rows_match(lambda v, t: sl.group.exp_alg(p, v, t), flows, (v, t))
    _assert_rows_match(lambda v: sl.group.exp_alg(p, v), [(x,) for x, _ in flows], (v,))
    for fixed in (sl.group.E3, sl.group.AlgebraVector(1.0, 1.0, 0.0, 0.0), sl.group.AlgebraVector(*rows[0][:4])):
        _assert_rows_match(lambda t: sl.group.exp_alg(p, fixed, t), [(x,) for _, x in flows], (t,))


_COEFF = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3)


@settings(max_examples=100)
@given(a=st.sampled_from(A_VALUES), k=st.tuples(*[_COEFF] * 8), rows=_rows(4))
def test_automorphism_rows_equal_scalar_calls(a, k, rows):
    p = sl.GroupParam(a)
    merged = dict(k2=k[1], n1=k[3]) if a == 1.0 else {}
    phi = sl.group.AutomorphismParams(k1=k[0], l=k[2], n2=k[4], f1=k[5], f2=k[6], f3=k[7], **merged)
    vs = [(sl.group.AlgebraVector(*r),) for r in rows]
    v = _columns(sl.group.AlgebraVector, rows)
    _assert_rows_match(lambda v: sl.group.apply_automorphism(p, phi, v), vs, (v,))


@settings(max_examples=150)
@given(a=st.sampled_from(A_VALUES), b=st.tuples(*[_COEFF | st.just(0.0)] * 3), rows=_rows(4))
def test_classify_automorphisms_equal_the_former_matrix_product(a, b, rows):
    # every automorphism classify_subalgebra returns has at most two nonzero
    # entries per row, so the left-to-right sum is the matrix-vector product
    # bit for bit in whatever order a BLAS kernel without fused multiply-adds
    # adds; only a zero's sign may differ, as the product starts from +0
    p = sl.GroupParam(a)
    assume(any(b))
    phi = sl.subgroups.classify_subalgebra(p, *b).automorphism
    assume(phi is not None)
    m = sl.group.automorphism_matrix(p, phi)
    with np.errstate(all="ignore"):
        got = sl.group.apply_automorphism(p, phi, _columns(sl.group.AlgebraVector, rows))
        for i, row in enumerate(rows):
            want = (m @ np.array(row, dtype=float)).tolist()
            have = _flat(got, i, len(rows))
            assert all(_same_bits(x + 0.0, y + 0.0) for x, y in zip(have, want)), (i, have, want)


@pytest.mark.parametrize("a", (2.0, -1.0, 1.0, 0.5, 1e-3, 700.0, -700.0, 1e-300))
def test_center_probes_are_the_basis_exponentials(a):
    # the probes of test_group's sampled centre oracle are exp_alg at E4, E1
    # and E3 bit for bit, signs of zero included
    p = sl.GroupParam(a)
    probes = ((0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    for probe, v in zip(probes, (sl.group.E4, sl.group.E1, sl.group.E3)):
        got = sl.group.exp_alg(p, v)
        assert all(_same_bits(x, y) for x, y in zip(got, probe)), (a, got, probe)


@settings(max_examples=100)
@given(a=st.sampled_from(A_VALUES), rows=_rows(4))
def test_subgroup_charts_rows_equal_scalar_calls(a, rows):
    p = sl.GroupParam(a)
    gs = [(sl.GroupElement(*r),) for r in rows]
    ms = [(sl.LoopPoint(*r[:3]),) for r in rows]
    g, m = _columns(sl.GroupElement, rows), _columns(sl.LoopPoint, [r[:3] for r in rows])
    for sub in SubgroupId:
        if a == 1.0 and sub in (SubgroupId.H2, SubgroupId.H3):
            continue
        _assert_rows_match(lambda m: sl.subgroups.embed(p, sub, m), ms, (m,))
        _assert_rows_match(lambda g: sl.subgroups.decompose(p, sub, g), gs, (g,))
        _assert_rows_match(lambda g: sl.subgroups.membership_residual(sub, g), gs, (g,))
        if sub.admissible(p):
            _assert_rows_match(lambda g: normalizes(p, g, sub), gs, (g,))


def test_scalar_calls_keep_python_scalars():
    p = sl.GroupParam(2.0)
    g = sl.GroupElement(1.0, -2.0, 0.5, 0.0)
    assert normalizes(p, g, SubgroupId.H1) is True
    assert type(sl.group.coordinate_distance((1.0, math.nan), (1.0, 0.0))) is float
    assert sl.group.as_matrix(p, g).shape == (4, 4)
    spec = sl.SectionSpec("A", p, sl.FunctionSpec.preset("sin-small", 2))
    assert type(sl.sections.section_value(spec, sl.LoopPoint(1.0, 0.0, 0.5))) is float


# ---------------------------------------------------------------- loop laws

def _spec(case, a, fn):
    arity = 2 if case == "A" else 3
    if fn in sl.PRESETS:
        return sl.SectionSpec(case, sl.GroupParam(a), sl.FunctionSpec.preset(fn, arity))
    return sl.SectionSpec(case, sl.GroupParam(a), sl.FunctionSpec.from_expression(fn, arity))


# rows (x1, y1, z1, x2, y2, z2) of two points in the box where the presets
# keep right division uniquely solvable
POINT_PAIRS = st.lists(
    st.tuples(*([st.floats(-3.0, 3.0)] * 2 + [st.floats(-0.5, 0.5)]) * 2), min_size=1, max_size=5
)
SECTIONS = st.sampled_from(
    ["zero", "linear-x", "bilinear", "lemma1", "sin-small", "0.1*sin(x)*z + x*z", "sqrt(x)"]
)
CASES = st.sampled_from(["A", "B", "C"])


@settings(max_examples=150)
@given(case=CASES, a=st.sampled_from((-1.0, 0.5, 2.0)), fn=SECTIONS, rows=_rows(6))
def test_loop_laws_rows_equal_scalar_calls(case, a, fn, rows):
    spec = _spec(case, a, fn)
    m1s = [sl.LoopPoint(*r[:3]) for r in rows]
    m2s = [sl.LoopPoint(*r[3:]) for r in rows]
    m1 = _columns(sl.LoopPoint, [r[:3] for r in rows])
    m2 = _columns(sl.LoopPoint, [r[3:] for r in rows])
    pairs = list(zip(m1s, m2s))
    for law in (
        lambda m1, m2: sl.loops.loop_mul(spec, m1, m2),
        lambda m1, m2: sl.loops.loop_ldiv(spec, m1, m2),
        lambda m1, m2: _product(spec, m1, m2, m2.x),
        lambda m1, m2: sl.loops.coset_cross_check(spec, m1, m2),
    ):
        _assert_rows_match(law, pairs, (m1, m2))
    for law in (lambda m: sl.sections.section_value(spec, m), lambda m: sl.sections.section_lift(spec, m)):
        _assert_rows_match(law, [(m,) for m in m1s], (m1,))


def _rdiv_case_a_reference(spec, b, m2):
    """The closed-form case-A right division, one pair at a time with group.exp."""
    a = spec.param.a
    x2, y2, z2 = m2.coords
    qz = b.z - z2
    qx = b.x - exp(a * qz) * x2
    qy = b.y - y2 * exp(qz) + z2 * exp(qz) * spec.fn(qx, qz)
    return sl.LoopPoint(qx, qy, qz)


@settings(max_examples=100)
@given(a=st.sampled_from((-1.0, 0.5, 2.0)), fn=SECTIONS, rows=_rows(6))
def test_case_a_right_division_rows_equal_scalar_formula(a, fn, rows):
    spec = _spec("A", a, fn)
    problems = [(sl.LoopPoint(*r[:3]), sl.LoopPoint(*r[3:])) for r in rows]
    b, m2 = _columns(sl.LoopPoint, [r[:3] for r in rows]), _columns(sl.LoopPoint, [r[3:] for r in rows])
    with np.errstate(all="ignore"):
        expected = [_outcome(lambda: _rdiv_case_a_reference(spec, b, m2)) for b, m2 in problems]
        got = _outcome(lambda: sl.loops.loop_rdiv_batch(spec, b, m2)[0])
    if any(x is OverflowError for x in expected):
        assert got is OverflowError
        return
    for i, want in enumerate(expected):
        assert all(_same_bits(x, y) for x, y in zip(_flat(got, i, len(rows)), _flat(want)))


def _error_text(call):
    """call(), or the type and text of the OverflowError or ValueError it raises."""
    try:
        return call()
    except (OverflowError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def _right_translation_reference(case, a, m2, b, lo, hi):
    """A line's (qz, bx, by, dx, dy, scale) and window, one pair at a time with float exponentials and Python's min/max."""
    x1, y1, z1 = m2.coords
    x2, y2, z2 = b.coords
    z = z2 - z1
    if case == "C":
        y = y2 - exp(z) * y1
        outer = exp(a * z2 - z1)
        center = x2 - exp(a * z) * x1 + outer * y1 * z
        fields = [z, center, y, 1.0, 0.0, outer * -expm1((1.0 - a) * z1)]
    else:
        base = (x2 - exp(a * z) * x1, y2 - exp(z) * y1)
        tx = exp(a * z) * expm1((a - 1.0) * z1)
        ty = exp(z) * z1
        scale = max(abs(tx), abs(ty))
        direction = (tx / scale, ty / scale) if scale else (1.0, 0.0)
        fields = [z, *base, *direction, scale]
    lower, upper = -math.inf, math.inf
    for d in fields[3:5]:
        if d != 0.0:
            ends = (lo / d, hi / d)
            lower, upper = max(lower, min(ends)), min(upper, max(ends))
    if not lower < upper:
        return fields, f"ValueError: the box [{lo:g}, {hi:g}]^2 misses the solution line"
    return fields, (lower, upper)


@settings(max_examples=200)
@given(
    case=st.sampled_from(["B", "C"]),
    a=st.sampled_from((-1.0, 0.5, 2.0, 3.7)),
    rows=_rows(6),
    box=st.sampled_from([(-5.0, 5.0), (1.0, 2.0), (-3.0, -1.0), (0.0, 2.0)]),
)
def test_right_translation_system_rows_equal_scalar_calls(case, a, rows, box):
    # every row of a column line, and of its window, is the float call on
    # that row and the former one-pair-at-a-time code, bit for bit and error
    # text for error text; m2 with z = +-0.0 (scale 0) and NaN and infinite
    # coordinates always ride along
    spec = _spec(case, a, "sin-small")
    rows = rows + [(1.5, -2.0, 0.0, 0.3, 0.7, 0.4), (1.5, -2.0, -0.0, 0.3, 0.7, -0.4),
                   (math.nan, 1.0, 0.2, 0.3, 0.7, 0.4), (0.5, 1.0, math.nan, 0.3, 0.7, 0.4),
                   (0.5, 1.0, -0.5, 0.3, -math.inf, 0.4), (0.5, 1.0, math.inf, 0.3, 0.7, 0.4)]
    n = len(rows)

    def fields(line):
        return [line.qz, *line.base, *line.direction, line.scale]

    def scalar(r):
        m2, b = sl.LoopPoint(*r[:3]), sl.LoopPoint(*r[3:])
        line = _error_text(lambda: sl.sections.right_translation_system(spec, m2, b))
        return line if isinstance(line, str) else (fields(line), _error_text(lambda: line.window(*box)))

    with np.errstate(all="ignore"):
        expected = [
            _error_text(lambda: _right_translation_reference(case, a, sl.LoopPoint(*r[:3]), sl.LoopPoint(*r[3:]), *box))
            for r in rows
        ]
        alone = [scalar(r) for r in rows]
        m2, b = _columns(sl.LoopPoint, [r[:3] for r in rows]), _columns(sl.LoopPoint, [r[3:] for r in rows])
        line = _error_text(lambda: sl.sections.right_translation_system(spec, m2, b))
    texts = [want for want in expected if isinstance(want, str)]
    assert [x for x in alone if isinstance(x, str)] == texts
    if texts:
        assert line == texts[0]
        return
    lower, upper = line.window(*box)
    for i, ((want, window), (have_alone, window_alone)) in enumerate(zip(expected, alone)):
        have = [float(np.broadcast_to(v, (n,))[i]) for v in fields(line)]
        for got in (have, have_alone):
            assert all(_same_bits(x, y) for x, y in zip(got, want)), (i, got, want)
        if isinstance(window, str):
            assert not lower[i] < upper[i] and window_alone == window
            assert f"ValueError: {sl.sections._missed(*box)}" == window
        else:
            for got in ((lower[i], upper[i]), window_alone):
                assert all(_same_bits(x, y) for x, y in zip(got, window)), (i, got, window)


@settings(max_examples=40)
@given(
    case=st.sampled_from(["B", "C"]),
    fn=st.sampled_from(["lemma1", "sin-small", "bilinear", "sqrt(x)"]),
    rows=POINT_PAIRS,
)
def test_batched_right_division_equals_one_pair_at_a_time(case, fn, rows):
    c = _spec(case, 2.0, fn)
    b, m2 = _columns(sl.LoopPoint, [r[:3] for r in rows]), _columns(sl.LoopPoint, [r[3:] for r in rows])
    with np.errstate(all="ignore"):
        q, residual, errors = sl.loops.loop_rdiv_batch(c, b, m2)
        alone = [
            sl.loops.loop_rdiv_batch(c, stack([sl.LoopPoint(*r[:3])]), stack([sl.LoopPoint(*r[3:])]))
            for r in rows
        ]
    for i, (q1, residual1, errors1) in enumerate(alone):
        assert (i in errors) == bool(errors1)
        if errors1:
            assert type(errors[i]) is type(errors1[0])
            assert str(errors[i]) == str(errors1[0])
            assert "np.float64" not in str(errors[i])
        else:
            assert [col[i] for col in q.coords] == [col[0] for col in q1.coords]
            assert residual[i] == residual1[0]


# ---------------------------------------------------------------- identities

SMALL = st.floats(-2.0, 2.0)


@settings(max_examples=100)
@given(a=st.sampled_from(A_VALUES), rows=st.lists(st.tuples(*[SMALL] * 12), min_size=1, max_size=8))
def test_mul_is_associative_with_two_sided_inverses(a, rows):
    p = sl.GroupParam(a)
    g, h, k = (_columns(sl.GroupElement, [r[i : i + 4] for r in rows]) for i in (0, 4, 8))
    zero = (0.0,) * 4
    left, right = sl.group.mul(p, sl.group.mul(p, g, h), k), sl.group.mul(p, g, sl.group.mul(p, h, k))
    assert sl.group.coordinate_distance(left.coords, right.coords).max() <= 1e-9
    assert sl.group.coordinate_distance(sl.group.mul(p, g, sl.group.inv(p, g)).coords, zero).max() <= 1e-9
    assert sl.group.coordinate_distance(sl.group.mul(p, sl.group.inv(p, g), g).coords, zero).max() <= 1e-9


@settings(max_examples=60)
@given(
    case=CASES,
    fn=st.sampled_from(["lemma1", "sin-small", "linear-x"]),
    rows=POINT_PAIRS,
)
def test_divisions_round_trip(case, fn, rows):
    c = _spec(case, 2.0, fn)
    m1 = _columns(sl.LoopPoint, [r[:3] for r in rows])
    b = _columns(sl.LoopPoint, [r[3:] for r in rows])
    w = sl.loops.loop_ldiv(c, m1, b)
    assert sl.group.coordinate_distance(sl.loops.loop_mul(c, m1, w).coords, b.coords).max() <= 1e-9
    if fn == "linear-x" and case != "A":
        return  # linear-x makes the case-B/C line equation singular where its slope is 1
    for r in rows:
        q0, m2 = sl.LoopPoint(*r[:3]), sl.LoopPoint(*r[3:])
        target = sl.loops.loop_mul(c, q0, m2)
        q = rdiv(c, target, m2)
        assert sl.group.coordinate_distance(sl.loops.loop_mul(c, q, m2).coords, target.coords) <= 1e-8
        assert sl.group.coordinate_distance(q.coords, q0.coords) <= 1e-8


# ---------------------------------------------------------------- suites

def _group_suite_reference(p, n, seed):
    """The worst errors of group_suite's sampled checks, one sample at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def element():
        return sl.GroupElement(*(float(v) for v in rng.uniform(-5.0, 5.0, 4)))

    def matrix_distance(m1, m2):
        scale = max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
        return float(np.abs(m1 - m2).max()) / scale

    def vector(bound):
        return sl.group.AlgebraVector(*(float(v) for v in rng.integers(-bound, bound + 1, 4)))

    zero = (0.0, 0.0, 0.0, 0.0)
    worst = dict.fromkeys(
        ["product-matrix-oracle", "two-sided-inverse", "associativity",
         "bracket-commutator-oracle", "jacobi", "exp-one-parameter"], 0.0
    )
    for _ in range(n):
        g, h = element(), element()
        product = sl.group.as_matrix(p, g) @ sl.group.as_matrix(p, h)
        d = matrix_distance(sl.group.as_matrix(p, sl.group.mul(p, g, h)), product)
        worst["product-matrix-oracle"] = max(worst["product-matrix-oracle"], d)
    for _ in range(n):
        g = element()
        worst["two-sided-inverse"] = max(
            worst["two-sided-inverse"],
            sl.group.coordinate_distance(sl.group.mul(p, g, sl.group.inv(p, g)).coords, zero),
            sl.group.coordinate_distance(sl.group.mul(p, sl.group.inv(p, g), g).coords, zero),
        )
    for _ in range(n):
        g, h, k = element(), element(), element()
        d = sl.group.coordinate_distance(
            sl.group.mul(p, sl.group.mul(p, g, h), k).coords, sl.group.mul(p, g, sl.group.mul(p, h, k)).coords
        )
        worst["associativity"] = max(worst["associativity"], d)
    for _ in range(n):
        u, v = vector(5), vector(5)
        d = sl.group.coordinate_distance(sl.group.bracket(p, u, v).coords, sl.group.commutator_oracle(p, u, v).coords)
        worst["bracket-commutator-oracle"] = max(worst["bracket-commutator-oracle"], d)
    for _ in range(n):
        u, v, w = vector(3), vector(3), vector(3)
        cyc = (
            sl.group.bracket(p, u, sl.group.bracket(p, v, w))
            .plus(sl.group.bracket(p, v, sl.group.bracket(p, w, u)))
            .plus(sl.group.bracket(p, w, sl.group.bracket(p, u, v)))
        )
        worst["jacobi"] = max(worst["jacobi"], sl.group.coordinate_distance(cyc.coords, zero))
    for _ in range(max(20, n // 10)):
        v = sl.group.AlgebraVector(*(float(s) for s in rng.uniform(-2, 2, 4)))
        s, t = (float(u) for u in rng.uniform(-1.5, 1.5, 2))
        lhs = sl.group.mul(p, sl.group.exp_alg(p, v, s), sl.group.exp_alg(p, v, t))
        d = sl.group.coordinate_distance(lhs.coords, sl.group.exp_alg(p, v, s + t).coords)
        worst["exp-one-parameter"] = max(worst["exp-one-parameter"], d)
    return worst


@pytest.mark.parametrize("a", (-1.0, 0.3, 1.0, 2.0))
@pytest.mark.parametrize("seed", (0, 7))
def test_group_suite_equals_per_sample_reference(a, seed):
    p = sl.GroupParam(a)
    report = sl.multgroup.group_suite(p, n_samples=120, seed=seed)
    got = {c.name: c.max_error for c in report.checks}
    for name, worst in _group_suite_reference(p, 120, seed).items():
        assert got[name] == worst, name


def _sample_point(rng, xy_half_width, z_half_width):
    """One loop point drawn as the per-sample suites drew it."""
    x, y = rng.uniform(-xy_half_width, xy_half_width, 2)
    z = float(rng.uniform(-z_half_width, z_half_width))
    return sl.LoopPoint(float(x), float(y), z)


def _axiom_suite_reference(c, n, seed):
    """The worst errors of axiom_suite, one sample at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    z_half = 5.0 if c.case == "A" else 0.5
    e = sl.LoopPoint.origin()
    id_max = ldiv_max = rdiv_max = z_max = 0.0
    for _ in range(n):
        m1, m2, b = (_sample_point(rng, 5.0, z_half) for _ in range(3))
        id_max = max(
            id_max,
            sl.group.coordinate_distance(sl.loops.loop_mul(c, e, m1).coords, m1.coords),
            sl.group.coordinate_distance(sl.loops.loop_mul(c, m1, e).coords, m1.coords),
        )
        w = sl.loops.loop_ldiv(c, m1, b)
        ldiv_max = max(ldiv_max, sl.group.coordinate_distance(sl.loops.loop_mul(c, m1, w).coords, b.coords))
        target = sl.loops.loop_mul(c, b, m2)
        q = rdiv(c, target, m2)
        d = sl.group.coordinate_distance(sl.loops.loop_mul(c, q, m2).coords, target.coords)
        rdiv_max = max(rdiv_max, d)
        z_max = max(z_max, abs(sl.loops.loop_mul(c, m1, m2).z - (m1.z + m2.z)))
    return {"identity-laws": id_max, "ldiv-round-trip": ldiv_max, "rdiv-round-trip": rdiv_max,
            "z-additivity": z_max}


@pytest.mark.parametrize(
    "case,preset", [("A", "linear-x"), ("A", "bilinear"), ("B", "lemma1"), ("C", "sin-small")]
)
def test_axiom_suite_equals_per_sample_reference(case, preset):
    c = _spec(case, 2.0, preset)
    report = sl.loops.axiom_suite(c, n_samples=40, seed=3)
    got = {c.name: c.max_error for c in report.checks}
    assert got == _axiom_suite_reference(c, 40, 3)


def _transitivity_samples_reference(n, seed, z_half_width):
    """The (m2, b) pairs sharp_transitivity_check drew one sample at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = []
    for _ in range(n):
        x1, y1, x2, y2 = rng.uniform(-5.0, 5.0, 4)
        z1, z2 = rng.uniform(-z_half_width, z_half_width, 2)
        drawn.append((sl.LoopPoint(x1, y1, z1), sl.LoopPoint(x2, y2, z2)))
    return drawn


@pytest.mark.parametrize(
    "case,preset,seed,z_half", [("B", "lemma1", 0, 0.5), ("C", "sin-small", 3, 0.5),
                                ("C", "bilinear", 11, 2.0)]
)
def test_transitivity_block_draw_equals_per_sample_reference(case, preset, seed, z_half):
    spec = _spec(case, 2.0, preset)
    kwargs = dict(n_samples=30, seed=seed, z_half_width=z_half)
    batched = sl.sharp_transitivity_check(spec, **kwargs)
    reference = sl.sharp_transitivity_check(
        spec, samples=_transitivity_samples_reference(30, seed, z_half), **kwargs
    )
    assert batched.to_dict() == reference.to_dict()


def _bracket_preservation_reference(p, phi):
    """classify_suite's bracket residual, checked one basis pair at a time."""
    basis = (sl.group.E1, sl.group.E2, sl.group.E3, sl.group.E4)
    worst = 0.0
    for u, v in itertools.product(basis, repeat=2):
        lhs = sl.group.apply_automorphism(p, phi, sl.group.bracket(p, u, v))
        rhs = sl.group.bracket(p, sl.group.apply_automorphism(p, phi, u), sl.group.apply_automorphism(p, phi, v))
        worst = max(worst, sl.group.coordinate_distance(lhs.coords, rhs.coords))
    return worst


@pytest.mark.parametrize(
    "a,b", [(2.0, (1.5, 0.5, -2.0)), (1.0, (1.0, 2.0, 3.0)), (0.5, (1.0, 0.0, 2.0)),
            (2.0, (0.0, 1.0, 3.0)), (3.7, (-0.3, 1.1, 0.7))]
)
def test_classify_block_draw_equals_per_sample_reference(a, b):
    p = sl.GroupParam(a)
    report = sl.subgroups.classify_suite(p, *b)
    check = {c.name: c for c in report.checks}["automorphism-preserves-brackets"]
    phi = sl.subgroups.classify_subalgebra(p, *b).automorphism
    assert check.max_error == _bracket_preservation_reference(p, phi)
    assert (check.n_samples, report.seed) == (16, None)  # the basis pairs: nothing is drawn


def _lemma1_fit_reference(tree, rate, z_range, n):
    """lemma1_suite's profile fit, the profile evaluated one sample at a time.

    Equal bit for bit: every FUNCTIONS entry and ^ give the same bits on a
    float as on an array.
    """
    fn = sl.expressions.as_function(tree, ("z",))
    zs = sl.sections._profile_zs(*z_range, n)
    return sl.numerics.fit_saturating_exponential(zs, [float(fn(float(z))) for z in zs], rate=rate)


@pytest.mark.parametrize(
    "text",
    [
        "2*(1 - exp(-z))", "sin(z)", "z*z*z", "0", "tanh(z) + z/2", "log(abs(z)) - sqrt(abs(z))",
        "z^3 - abs(z)^0.5",
    ],
)
@pytest.mark.parametrize(
    "rate,z_range", [(1.0, (-3.0, 3.0)), (2.0, (-50.0, 50.0)), (-0.5, (1.0, 4.0))]
)
def test_lemma1_profile_equals_per_sample_reference(text, rate, z_range):
    tree = sl.expressions.parse(text, ("z",))
    report = sl.sections.lemma1_suite(tree, rate, z_range, 50)
    fit = _lemma1_fit_reference(tree, rate, z_range, 50)
    assert report.checks[0].max_error == fit.rms_residual
    assert report.data["coefficient"] == fit.coefficient
