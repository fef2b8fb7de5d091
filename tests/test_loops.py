"""Loop multiplication, divisions, cross-checks and the solvability witness."""

import math

import numpy as np
import pytest

import solvloop as sl
from solvloop.sampling import Stream

P2 = sl.GroupParam(2.0)


def rdiv(spec, b, m2):
    """The q with q * m2 = b: loop_rdiv_batch on one row, raising its error."""
    q, _, errors = sl.loops.loop_rdiv_batch(spec, sl.group.stack([b]), sl.group.stack([m2]))
    if errors:
        raise errors[0]
    return sl.LoopPoint(*(float(col[0]) for col in q.coords))


def case_for(case, preset, a=2.0, coefficient=None):
    arity = 2 if case == "A" else 3
    fn = sl.FunctionSpec.preset(preset, arity, coefficient)
    return sl.SectionSpec(case, sl.GroupParam(a), fn)



def rand_point(rng, z_half=0.5, xy_half=5.0):
    return sl.LoopPoint(
        float(rng.uniform(-xy_half, xy_half)),
        float(rng.uniform(-xy_half, xy_half)),
        float(rng.uniform(-z_half, z_half)),
    )


# ---------------------------------------------------------------- multiplication

def test_loop_mul_case_a_inline_formula():
    c = case_for("A", "linear-x")
    f = c.fn.fn
    a = 2.0
    rng = np.random.default_rng(51)
    for _ in range(40):
        m1, m2 = rand_point(rng, z_half=5.0), rand_point(rng, z_half=5.0)
        got = sl.loops.loop_mul(c, m1, m2)
        ez = math.exp(m1.z)
        expect = (
            m1.x + math.exp(a * m1.z) * m2.x,
            m1.y + m2.y * ez - m2.z * ez * f(m1.x, m1.z),
            m1.z + m2.z,
        )
        assert sl.group.coordinate_distance(got.coords, expect) <= 1e-15


def test_loop_mul_case_b_inline_formula():
    c = case_for("B", "lemma1")
    h = c.fn.fn
    a = 2.0
    rng = np.random.default_rng(52)
    for _ in range(40):
        m1, m2 = rand_point(rng), rand_point(rng)
        got = sl.loops.loop_mul(c, m1, m2)
        v = h(m1.x, m1.y, m1.z)
        expect = (
            m1.x + math.exp(a * m1.z) * (m2.x - v * math.expm1((a - 1.0) * m2.z)),
            m1.y + math.exp(m1.z) * (m2.y - m2.z * v),
            m1.z + m2.z,
        )
        assert sl.group.coordinate_distance(got.coords, expect) <= 1e-15


def test_loop_mul_case_c_inline_formula():
    c = case_for("C", "sin-small")
    f = c.fn.fn
    a = 2.0
    rng = np.random.default_rng(53)
    for _ in range(40):
        m1, m2 = rand_point(rng), rand_point(rng)
        got = sl.loops.loop_mul(c, m1, m2)
        v = f(m1.x, m1.y, m1.z)
        expect = (
            m1.x
            + math.exp(a * m1.z)
            * (m2.x - m2.y * m1.z * math.exp((a - 1.0) * m2.z)
               - v * math.expm1((a - 1.0) * m2.z)),
            m1.y + math.exp(m1.z) * m2.y,
            m1.z + m2.z,
        )
        assert sl.group.coordinate_distance(got.coords, expect) <= 1e-15


def test_identity_laws_exact():
    e = sl.LoopPoint.origin()
    rng = np.random.default_rng(54)
    for case, preset in (("A", "linear-x"), ("B", "lemma1"), ("C", "sin-small")):
        c = case_for(case, preset)
        for _ in range(25):
            m = rand_point(rng)
            assert sl.loops.loop_mul(c, e, m).coords == m.coords
            assert sl.loops.loop_mul(c, m, e).coords == m.coords


def test_z_coordinate_additivity_exact():
    rng = np.random.default_rng(55)
    for case, preset in (("A", "bilinear"), ("B", "zero"), ("C", "sin-small")):
        c = case_for(case, preset)
        for _ in range(25):
            m1, m2 = rand_point(rng), rand_point(rng)
            assert sl.loops.loop_mul(c, m1, m2).z == m1.z + m2.z


# ---------------------------------------------------------------- divisions

def test_ldiv_round_trips():
    rng = np.random.default_rng(56)
    for case, preset in (("A", "linear-x"), ("B", "lemma1"), ("C", "sin-small")):
        c = case_for(case, preset)
        z_half = 5.0 if case == "A" else 0.5
        for _ in range(30):
            m1 = rand_point(rng, z_half=z_half)
            b = rand_point(rng, z_half=z_half)
            w = sl.loops.loop_ldiv(c, m1, b)
            assert sl.group.coordinate_distance(sl.loops.loop_mul(c, m1, w).coords, b.coords) <= 1e-9


def test_ldiv_of_identity():
    c = case_for("B", "lemma1")
    b = sl.LoopPoint(1.0, -2.0, 0.3)
    assert sl.loops.loop_ldiv(c, sl.LoopPoint.origin(), b).coords == b.coords


def test_rdiv_by_identity_is_trivial():
    for case, preset in (("A", "linear-x"), ("B", "lemma1"), ("C", "sin-small")):
        c = case_for(case, preset)
        b = sl.LoopPoint(0.7, -0.4, 0.2)
        q = rdiv(c, b, sl.LoopPoint.origin())
        assert sl.group.coordinate_distance(q.coords, b.coords) <= 1e-12


def test_rdiv_case_a_worked_example():
    # z1 = 0 makes both closed-form steps rational: x1 = 3 - 2 = 1, then
    # y1 = -1 - 3 + 5*f(1,0) = 1 for f(x,z) = x, independent of a
    for a in (-1.0, 0.5, 2.0):
        c = case_for("A", "linear-x", a=a)
        q = rdiv(c, sl.LoopPoint(3.0, -1.0, 5.0), sl.LoopPoint(2.0, 3.0, 5.0))
        assert sl.group.coordinate_distance(q.coords, (1.0, 1.0, 0.0)) <= 1e-12


def test_rdiv_case_c_zero_worked_example():
    # with f == 0 the 1-D solve degenerates to a linear equation
    c = case_for("C", "zero")
    q = rdiv(c, sl.LoopPoint(math.exp(2.0), 0.0, 1.0), sl.LoopPoint(1.0, 0.0, 0.0))
    assert sl.group.coordinate_distance(q.coords, (0.0, 0.0, 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "case,preset",
    [("A", "linear-x"), ("A", "bilinear"), ("B", "lemma1"),
     ("B", "zero"), ("C", "sin-small"), ("C", "zero")],
)
def test_rdiv_product_round_trip(case, preset):
    c = case_for(case, preset)
    rng = np.random.default_rng(57)
    z_half = 5.0 if case == "A" else 0.5
    for _ in range(20):
        m1 = rand_point(rng, z_half=z_half)
        m2 = rand_point(rng, z_half=z_half)
        b = sl.loops.loop_mul(c, m1, m2)
        q = rdiv(c, b, m2)
        assert sl.group.coordinate_distance(sl.loops.loop_mul(c, q, m2).coords, b.coords) <= 1e-8


@pytest.mark.parametrize("batched", (False, True))
@pytest.mark.parametrize("case,preset", [("B", "lemma1"), ("B", "sin-small"), ("C", "sin-small")])
def test_rdiv_line_round_trip_both_paths(case, preset, batched):
    # one right division at a time, or all of them in one loop_rdiv_batch,
    # whose proof and narrowing run on all rows together
    c = case_for(case, preset)
    rng = np.random.default_rng(60)
    pairs = [(rand_point(rng), rand_point(rng)) for _ in range(20)]
    bs = [sl.loops.loop_mul(c, m1, m2) for m1, m2 in pairs]
    m2s = [m2 for _, m2 in pairs]
    if batched:
        q, _, errors = sl.loops.loop_rdiv_batch(c, sl.group.stack(bs), sl.group.stack(m2s))
        assert errors == {}
        qs = [sl.LoopPoint(*(float(v[i]) for v in q.coords)) for i in range(len(pairs))]
    else:
        qs = [rdiv(c, b, m2) for b, m2 in zip(bs, m2s)]
    for q, (m1, m2), b in zip(qs, pairs, bs):
        assert sl.group.coordinate_distance(q.coords, m1.coords) <= 1e-8
        assert sl.group.coordinate_distance(sl.loops.loop_mul(c, q, m2).coords, b.coords) <= 1e-8


def test_rdiv_case_b_z_zero_is_exact():
    # m2 with z = 0 leaves no implicit equation: q is the affine base point
    c = case_for("B", "sin-small")
    m2 = sl.LoopPoint(1.5, -2.0, 0.0)
    b = sl.LoopPoint(0.3, 0.7, 0.4)
    q = rdiv(c, b, m2)
    assert q.coords == (0.3 - sl.group.exp(0.8) * 1.5, 0.7 + sl.group.exp(0.4) * 2.0, 0.4)


def test_rdiv_gate_rejects_nan_product(monkeypatch):
    # a NaN multiply-back must fail the 1e-8 residual gate, never pass it
    c = case_for("C", "sin-small")
    m2 = sl.LoopPoint(0.5, 0.2, 0.3)
    b = sl.loops.loop_mul(c, sl.LoopPoint(1.0, -1.0, 0.1), m2)
    monkeypatch.setattr(
        sl.loops, "loop_mul", lambda spec, q, m: sl.LoopPoint(math.nan, q.y, q.z)
    )
    with pytest.raises(sl.loops.SolverDivergenceError):
        rdiv(c, b, m2)


def test_rdiv_multiple_roots_error():
    spec = sl.SectionSpec("C", P2, sl.FunctionSpec.from_expression("2*sin(x)", 3))
    m = sl.LoopPoint(1.0, 0.0, 1.0)
    target = sl.loops.loop_mul(spec, m, m)
    with pytest.raises(sl.loops.MultipleRootsError):
        rdiv(spec, target, m)


def test_rdiv_no_root_error():
    # x^2 grows faster than the affine part: the implicit equation can lose
    # all real roots for suitable targets
    spec = sl.SectionSpec("C", P2, sl.FunctionSpec.from_expression("x^2", 3))
    with pytest.raises(sl.loops.NoRootInBoxError) as raised:
        rdiv(spec, sl.LoopPoint(5.0, 0.0, 1.0), sl.LoopPoint(0.0, 0.0, 0.5))
    # the base point prints as floats, not as np.float64(...)
    assert str(raised.value) == "no root in window of half width 160 around (5.0, 0.0)"


def test_rdiv_batch_errors_row_by_row():
    # case-C right divisions of x^2 in one batch (0*sqrt(y) is unknown on
    # every box where y < 0): two roots on the first window, an unresolved
    # count (no finite enclosure at the window's midpoint), no root on any
    # window, two roots on the third window; each row gets its own error
    # type and message
    spec = sl.SectionSpec("C", P2, sl.FunctionSpec.from_expression("x^2 + 0*sqrt(y)", 3))
    rng = np.random.default_rng(1)
    b, m2 = (sl.LoopPoint(*rng.uniform(-5, 5, (2, 12)), rng.uniform(-1, 1, 12)) for _ in "12")
    b, m2 = (sl.LoopPoint(*(col[[8, 1, 6, 0]] for col in p.coords)) for p in (b, m2))
    _, residual, errors = sl.loops.loop_rdiv_batch(spec, b, m2)
    base = sl.loops.right_translation_system(spec, m2, b).base
    around = [(float(base[0][i]), float(base[1][i])) for i in range(4)]
    assert {i: (type(e).__name__, str(e)) for i, e in errors.items()} == {
        0: ("MultipleRootsError", f"2 roots in window of half width 10 around {around[0]}"),
        1: (
            "SolverDivergenceError",
            "unresolved: no finite enclosure near u = -10 (window half width 10)",
        ),
        2: ("NoRootInBoxError", f"no root in window of half width 160 around {around[2]}"),
        3: ("MultipleRootsError", f"2 roots in window of half width 40 around {around[3]}"),
    }
    assert type(errors[1].__cause__) is ValueError
    assert np.isinf(residual).all()


def test_division_errors_share_base_class():
    assert issubclass(sl.loops.NoRootInBoxError, sl.loops.RightDivisionError)
    assert issubclass(sl.loops.MultipleRootsError, sl.loops.RightDivisionError)
    assert issubclass(sl.loops.SolverDivergenceError, sl.loops.RightDivisionError)


# ---------------------------------------------------------------- cross-check

@pytest.mark.parametrize(
    "case,preset",
    [("A", "linear-x"), ("A", "zero"), ("B", "lemma1"),
     ("B", "sin-small"), ("C", "sin-small"), ("C", "zero")],
)
def test_coset_cross_check(case, preset):
    # abstract coordinate formulas against the lift-multiply-decompose pipeline
    c = case_for(case, preset)
    rng = np.random.default_rng(58)
    worst = 0.0
    for _ in range(100):
        m1 = rand_point(rng, z_half=5.0)
        m2 = rand_point(rng, z_half=5.0)
        worst = max(worst, sl.loops.coset_cross_check(c, m1, m2))
    assert worst <= 1e-10


def test_cross_check_identity_exact():
    c = case_for("C", "sin-small")
    assert sl.loops.coset_cross_check(c, sl.LoopPoint.origin(), sl.LoopPoint(1, 2, 0.3)) <= 1e-15


# ---------------------------------------------------------------- associativity

def test_associativity_defect_zero_for_group_case():
    c = case_for("A", "zero")
    rng = np.random.default_rng(59)
    for _ in range(20):
        m1, m2, m3 = (rand_point(rng) for _ in range(3))
        assert sl.loops.associativity_defect(c, m1, m2, m3) <= 1e-12


def test_associativity_defect_case_a_witness():
    c = case_for("A", "linear-x")
    d = sl.loops.associativity_defect(
        c, sl.LoopPoint(0, 0, 1), sl.LoopPoint(1, 0, 0), sl.LoopPoint(0, 0, -1)
    )
    assert d > 1e-6


def test_associativity_defect_case_a_bilinear_witness():
    # xz satisfies the degeneracy identities yet the loop is not associative:
    # ((1,0,1)*(1,0,-1))*(0,0,1) and (1,0,1)*((1,0,-1)*(0,0,1)) differ by e-1
    # in the y slot, hybrid distance 1 - 1/e
    c = case_for("A", "bilinear")
    d = sl.loops.associativity_defect(
        c, sl.LoopPoint(1, 0, 1), sl.LoopPoint(1, 0, -1), sl.LoopPoint(0, 0, 1)
    )
    assert abs(d - (1.0 - math.exp(-1.0))) <= 1e-12


def test_associativity_defect_case_c_zero_witness():
    # the zero function generates in case C; this triple realizes defect 1 - 1/e
    c = case_for("C", "zero")
    d = sl.loops.associativity_defect(
        c, sl.LoopPoint(0, 0, 1), sl.LoopPoint(0, 1, 0), sl.LoopPoint(0, 0, -1)
    )
    assert abs(d - (1.0 - math.exp(-1.0))) <= 1e-12


# ---------------------------------------------------------------- suites

@pytest.mark.parametrize(
    "case,preset,a",
    [("A", "linear-x", 2.0), ("A", "linear-x", -1.0), ("A", "linear-x", 0.5),
     ("A", "zero", 2.0), ("B", "zero", 2.0), ("C", "zero", 2.0),
     ("B", "lemma1", 2.0), ("B", "sin-small", 2.0), ("C", "sin-small", 2.0)],
)
def test_axiom_suite_passes(case, preset, a):
    c = case_for(case, preset, a=a)
    rep = sl.loops.axiom_suite(c, n_samples=80, seed=1)
    assert rep.status == "pass", [(ch.name, ch.status, ch.max_error) for ch in rep.checks]
    names = [ch.name for ch in rep.checks]
    assert names == ["identity-laws", "ldiv-round-trip", "rdiv-round-trip", "z-additivity"]
    assert "division_errors" not in rep.data


def test_axiom_suite_exactness_of_identity_and_z():
    rep = sl.loops.axiom_suite(case_for("C", "sin-small"), n_samples=60, seed=9)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["identity-laws"].max_error == 0.0
    assert by_name["z-additivity"].max_error == 0.0


def test_axiom_suite_reports_uniqueness_failures():
    # a large sine amplitude breaks uniqueness on the sampling window
    spec = sl.SectionSpec("B", P2, sl.FunctionSpec.from_expression("4*sin(x)", 3))
    rep = sl.loops.axiom_suite(spec, n_samples=60, seed=0)
    assert rep.status == "fail"
    errs = rep.data["division_errors"]
    assert any("MultipleRootsError" in e for e in errs)


def test_loop_suite_reaches_the_generation_verdict_once(monkeypatch):
    verdicts = []
    degeneracy_report = sl.sections.degeneracy_report

    def counted(spec, n_samples):
        verdicts.append(degeneracy_report(spec, n_samples))
        return verdicts[-1]

    monkeypatch.setattr(sl.sections, "degeneracy_report", counted)
    rep = sl.loops.loop_suite(case_for("B", "lemma1"), n_samples=20)
    assert len(verdicts) == 1 and verdicts[0]["generates"] is False
    assert rep.data["generation"] == verdicts[0]


# ---------------------------------------------------------------- solvability

@pytest.mark.parametrize("case", ("B", "C"))
def test_axiom_suite_records_non_finite_scan_as_failed_rdiv(case):
    # sqrt(x) is NaN on part of every scan window: the division fails as a
    # solver failure instead of escaping as a usage error
    spec = sl.SectionSpec(case, sl.GroupParam(2.0), sl.FunctionSpec.from_expression("sqrt(x)", 3))
    with np.errstate(invalid="ignore"):
        report = sl.loops.axiom_suite(spec, n_samples=10, seed=0)
    checks = {c.name: c for c in report.checks}
    assert checks["rdiv-round-trip"].status == "fail"
    errors = report.data["division_errors"]
    assert errors and all("SolverDivergenceError" in e for e in errors)


def test_case_a_nan_quotient_fails_the_multiply_back():
    # sqrt(x) is NaN at negative x: case A's closed form then gives a NaN
    # quotient, which the multiply-back rejects like a case-B/C quotient
    spec = sl.SectionSpec("A", P2, sl.FunctionSpec.from_expression("sqrt(x)", 2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(sl.loops.SolverDivergenceError, match="residual inf exceeds 1e-8"):
            rdiv(spec, sl.LoopPoint(-1.0, 0.0, 1.0), sl.LoopPoint(0.5, 0.0, 0.5))
        report = sl.loops.axiom_suite(spec, n_samples=10, seed=0)
    check = {c.name: c for c in report.checks}["rdiv-round-trip"]
    assert check.status == "fail" and check.max_error <= 1e-8
    errors = report.data["division_errors"]
    assert errors and all("SolverDivergenceError" in e for e in errors)


def test_rdiv_sign_change_at_a_pole_is_a_solver_failure():
    # q*m2 = b in case C with f = 0.1*x/(x-1.5): the line crosses the pole,
    # where no box is excluded or decided
    spec = sl.SectionSpec("C", sl.GroupParam(2.0), sl.FunctionSpec.from_expression("0.1*x/(x-1.5)", 3))
    m2 = sl.LoopPoint(0.5, 0.2, 0.3)
    b = sl.loops.loop_mul(spec, sl.LoopPoint(-1.0, 0.5, 0.1), m2)
    with pytest.raises(sl.loops.SolverDivergenceError, match="unresolved"):
        rdiv(spec, b, m2)


def test_axiom_suite_right_divisions_batch_section_calls():
    # the 500 right divisions of a case-C axiom_suite evaluate the section
    # function in a few dozen array calls, not once per scan and bisection step
    calls = []
    spec = case_for("C", "sin-small")
    fn = spec.fn.fn

    def counted(*args):
        calls.append(1)
        return fn(*args)

    spec.fn.fn = counted
    m1, m2, b = sl.loops._sample_points(Stream(0), 500, 3, 5.0, 0.5)
    target = sl.loops.loop_mul(spec, b, m2)
    calls.clear()
    q, residual, errors = sl.loops.loop_rdiv_batch(spec, target, m2)
    assert not errors and (residual <= 1e-8).all()
    assert len(calls) < 100


def test_axiom_suite_without_samples_fails():
    # no rows measured is no evidence: every sampled law fails
    rep = sl.loops.axiom_suite(case_for("B", "lemma1"), n_samples=0)
    assert [(c.name, c.status, c.n_samples) for c in rep.checks] == [
        ("identity-laws", "fail", 0),
        ("ldiv-round-trip", "fail", 0),
        ("rdiv-round-trip", "fail", 0),
        ("z-additivity", "fail", 0),
    ]
