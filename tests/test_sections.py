"""Section specs, lifts, degeneracy verdicts and sharp-transitivity scans."""

import itertools
import math

import numpy as np
import pytest

import solvloop as sl
from solvloop.subgroups import SubgroupId

from conftest import per_row


P2 = sl.GroupParam(2.0)


def spec_for(case, preset, a=2.0, coefficient=None):
    arity = 2 if case == "A" else 3
    return sl.SectionSpec(
        case, sl.GroupParam(a), sl.FunctionSpec.preset(preset, arity, coefficient)
    )


# ---------------------------------------------------------------- FunctionSpec

def test_preset_defaults():
    assert sl.FunctionSpec.preset("zero", 2).fn(1.0, 2.0) == 0.0
    assert sl.FunctionSpec.preset("linear-x", 2).fn(3.0, -1.0) == 3.0
    assert sl.FunctionSpec.preset("bilinear", 2).fn(3.0, -1.0) == -3.0
    f = sl.FunctionSpec.preset("lemma1", 2, 2.0)
    assert abs(f.fn(9.0, 1.0) - 2.0 * (1 - math.exp(-1.0))) < 1e-15
    g = sl.FunctionSpec.preset("sin-small", 3)
    assert abs(g.fn(0.5, 7.0, 7.0) - 0.1 * math.sin(0.5)) < 1e-17


def test_preset_coefficient_override_and_label():
    f = sl.FunctionSpec.preset("linear-x", 2, -2.5)
    assert f.fn(2.0, 0.0) == -5.0
    assert "linear-x" in f.label


# The preset builders from before presets were expressions: the first
# argument is x and the last z at either arity.
_PRESET_LAMBDAS = {
    "zero": lambda coeff: lambda *args: 0.0,
    "linear-x": lambda coeff: lambda *args: coeff * args[0],
    "bilinear": lambda coeff: lambda *args: coeff * args[0] * args[-1],
    "lemma1": lambda coeff: lambda *args: coeff * -np.expm1(-args[-1]),
    "sin-small": lambda coeff: lambda *args: coeff * np.sin(args[0]),
}


@pytest.mark.parametrize("arity", (2, 3))
@pytest.mark.parametrize("name", sorted(_PRESET_LAMBDAS))
def test_presets_equal_their_former_lambdas_bit_for_bit(name, arity):
    assert set(_PRESET_LAMBDAS) == set(sl.PRESETS)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 800.0]
    rows = np.concatenate([
        np.random.default_rng(3).uniform(-40.0, 40.0, (200, arity)),
        np.array(list(itertools.product(special, repeat=arity))),
    ])
    for coeff in (None, -2.5, 1e308, -0.0, math.nan, math.inf):
        old = _PRESET_LAMBDAS[name](sl.PRESETS[name][1] if coeff is None else coeff)
        try:
            spec = sl.FunctionSpec.preset(name, arity, coeff)
        except ValueError:  # not finite at the origin, as the lambda was
            with np.errstate(all="ignore"):
                base = old(*[0.0] * arity)
            assert not (math.isfinite(base) and abs(base) <= sl.sections.BASE_POINT_TOL), (name, coeff)
            continue
        with np.errstate(all="ignore"):
            pairs = [(spec.fn(*rows.T), old(*rows.T))]
            pairs += [(spec.fn(*row), old(*row)) for row in rows.tolist()]
        for got, want in pairs:
            assert type(got) is type(want)
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            # a NaN's sign bit can change between two calls of one function
            # (CPython's specialised float multiply propagates the other
            # operand's NaN once warm), so NaNs compare by position
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (name, coeff)
            assert got[~nan].tobytes() == want[~nan].tobytes(), (name, coeff)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        sl.FunctionSpec.preset("nope", 2)


def test_base_point_constraint_enforced():
    with pytest.raises(ValueError, match="base-point constraint violated"):
        sl.FunctionSpec.from_expression("x + 1", 2)
    # a tiny offset under the tolerance is accepted
    sl.FunctionSpec.from_expression("x + 1e-13", 2)


def test_from_expression_variables_by_arity():
    f = sl.FunctionSpec.from_expression("x*z", 2)
    assert f.fn(2.0, 3.0) == 6.0
    g = sl.FunctionSpec.from_expression("x + y*z", 3)
    assert g.fn(1.0, 2.0, 3.0) == 7.0
    with pytest.raises(Exception):
        sl.FunctionSpec.from_expression("x + y", 2)  # y only exists at arity 3


def test_section_spec_validation():
    with pytest.raises(ValueError):
        sl.SectionSpec("B", sl.GroupParam(1.0), sl.FunctionSpec.preset("zero", 3))
    with pytest.raises(ValueError):
        sl.SectionSpec("A", P2, sl.FunctionSpec.preset("zero", 3))  # arity mismatch
    with pytest.raises(ValueError):
        sl.SectionSpec("D", P2, sl.FunctionSpec.preset("zero", 2))


def test_section_subgroups():
    assert spec_for("A", "zero").subgroup is SubgroupId.H1
    assert spec_for("B", "zero").subgroup is SubgroupId.H2
    assert spec_for("C", "zero").subgroup is SubgroupId.H3


# ---------------------------------------------------------------- lifts

@pytest.mark.parametrize(
    "case,preset", [("A", "linear-x"), ("B", "lemma1"), ("C", "sin-small")]
)
def test_section_lift_structure(case, preset):
    # lift(m) must decompose back to representative m with subgroup part
    # exactly the section value
    spec = spec_for(case, preset)
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = sl.LoopPoint(*(float(v) for v in rng.uniform(-3, 3, 3)))
        g = sl.sections.section_lift(spec, m)
        d = sl.subgroups.decompose(spec.param, spec.subgroup, g)
        assert sl.group.coordinate_distance(d.rep.coords, m.coords) <= 1e-12
        assert abs(d.k - sl.sections.section_value(spec, m)) <= 1e-12


def test_section_lift_at_origin_is_identity():
    for case, preset in (("A", "linear-x"), ("B", "lemma1"), ("C", "sin-small")):
        spec = spec_for(case, preset)
        assert sl.sections.section_lift(spec, sl.LoopPoint.origin()).coords == (0, 0, 0, 0)


def test_case_a_lift_closed_form():
    # embed (x,y,0,z), then right-multiply by the H1 element e^z*f(x,z):
    # third coordinate e^z f, second picks up z e^z f
    spec = spec_for("A", "linear-x")
    m = sl.LoopPoint(0.8, -1.2, 0.4)
    g = sl.sections.section_lift(spec, m)
    ez = math.exp(0.4)
    assert abs(g.x3 - ez * 0.8) < 1e-15
    assert abs(g.x2 - (-1.2 + 0.4 * ez * 0.8)) < 1e-15
    assert (g.x1, g.x4) == (0.8, 0.4)


# ---------------------------------------------------------------- degeneracy

def _verdict(spec):
    return sl.generation_suite(spec).data["verdict"]


@pytest.mark.parametrize(
    "case,preset,coeff,generates,constant",
    [
        ("A", "zero", None, False, 0.0),
        ("A", "bilinear", None, False, 0.0),
        ("A", "lemma1", 3.0, False, 3.0),
        ("A", "linear-x", None, True, None),
        ("B", "zero", None, False, 0.0),
        ("B", "lemma1", -1.5, False, -1.5),
        ("B", "sin-small", None, True, None),
        ("C", "sin-small", None, True, None),
    ],
)
def test_degeneracy_verdicts(case, preset, coeff, generates, constant):
    verdict = _verdict(spec_for(case, preset, coefficient=coeff))
    assert verdict["generates"] is generates
    if not generates:
        assert abs(verdict["fitted_constant"] - constant) <= 1e-9
        assert verdict["identity_residual_max"] <= 1e-8


def test_case_c_zero_function_generates():
    # f == 0 fails the x-profile identity f(x,y,0) = -x, so the section
    # generates even though the function is trivial
    verdict = _verdict(spec_for("C", "zero"))
    assert verdict["generates"] is True
    assert verdict["identity_residual_max"] > 1.0


def test_case_c_degenerate_expression():
    fn = sl.FunctionSpec.from_expression("-x + 2*(1 - exp(-2*z))", 3)
    verdict = _verdict(sl.SectionSpec("C", P2, fn))
    assert verdict["generates"] is False
    assert abs(verdict["fitted_constant"] - 2.0) <= 1e-9
    assert verdict["rate"] == 2.0  # saturation rate follows the group parameter


def test_degeneracy_report_minimum_samples():
    with pytest.raises(ValueError):
        sl.sections.degeneracy_report(spec_for("A", "zero"), n_samples=10)


def test_degeneracy_verdict_to_dict_keys():
    d = sl.sections.degeneracy_report(spec_for("A", "zero"))
    for key in ("generates", "fitted_constant", "identity_residual_max", "n_samples"):
        assert key in d


# ------------------------------------------------- right-translation systems

def _random_points(seed):
    """20 rows of m1 and m2 with x, y in [-2, 2] and z in [-0.5, 0.5], as column points."""
    rng = np.random.default_rng(seed)
    return [
        sl.LoopPoint(*rng.uniform(-2, 2, (2, 20)), rng.uniform(-0.5, 0.5, 20)) for _ in range(2)
    ]


def _solver_residual(line, u):
    """The residual root_rows and narrow_roots see, on every row of the column line at u."""
    tree, columns = sl.sections.line_residual_rows(line, np.arange(len(u)))
    return sl.expressions.evaluate(tree, {**columns, "u": u})


def test_right_translation_system_case_c():
    spec = spec_for("C", "sin-small")
    m1, m2 = _random_points(33)
    line = sl.sections.right_translation_system(spec, m2, sl.loops.loop_mul(spec, m1, m2))
    assert (line.qz == m1.z).all()  # z-coordinates subtract exactly
    assert line.direction == (1.0, 0.0)
    assert (abs(line.base[1] - m1.y) <= 1e-12).all()
    # the true x solves the scalar line equation
    u = m1.x - line.base[0]
    assert (abs(_solver_residual(line, u)) <= 1e-10).all()
    assert (sl.group.coordinate_distance(line.point(u).coords, m1.coords) <= 1e-12).all()


def test_right_translation_system_case_b():
    spec = spec_for("B", "lemma1")
    m1, m2 = _random_points(34)
    line = sl.sections.right_translation_system(spec, m2, sl.loops.loop_mul(spec, m1, m2))
    assert (line.qz == m1.z).all()
    assert (np.maximum(abs(line.direction[0]), abs(line.direction[1])) == 1.0).all()
    # u = scale * h at the true quotient puts it on the line
    u = line.scale * spec.fn(*m1.coords)
    assert (sl.group.coordinate_distance(line.point(u).coords, m1.coords) <= 1e-10).all()
    assert (abs(_solver_residual(line, u)) <= 1e-10).all()


def test_right_translation_system_case_b_z_zero_is_closed_form():
    spec = spec_for("B", "sin-small")
    m2 = sl.LoopPoint(1.5, -2.0, 0.0)
    b = sl.LoopPoint(0.3, 0.7, 0.4)
    assert sl.sections.right_translation_system(spec, m2, b).scale == 0.0
    rep = sl.sharp_transitivity_check(spec, samples=[(m2, b)])
    assert rep.data["root_counts"] == [1]


def test_line_window_square_and_interval():
    fn = sl.FunctionSpec.preset("zero", 3)
    line = lambda d: sl.sections.RightTranslationLine(fn, 0.0, (0.0, 0.0), d, 1.0)
    # case C moves x only: the window is the box itself
    assert line((1.0, 0.0)).window(-2.0, 3.0) == (-2.0, 3.0)
    # case B: the square [-2, 3]^2 cut down to the line
    assert line((1.0, -0.5)).window(-2.0, 3.0) == (-2.0, 3.0)
    assert line((-0.5, 1.0)).window(-2.0, 3.0) == (-2.0, 3.0)
    assert line((-1.0, 0.5)).window(-2.0, 3.0) == (-3.0, 2.0)
    assert line((1.0, 1.0)).window(1.0, 2.0) == (1.0, 2.0)
    with pytest.raises(ValueError, match="misses the solution line"):
        line((1.0, -1.0)).window(1.0, 2.0)


# ---------------------------------------------------------------- transitivity

def test_transitivity_case_a_closed_form_note():
    rep = sl.sharp_transitivity_check(spec_for("A", "linear-x"), n_samples=5)
    assert rep.status == "pass"
    assert "closed-form" in rep.checks[0].notes


def test_transitivity_without_samples_fails():
    rep = sl.sharp_transitivity_check(spec_for("C", "sin-small"), n_samples=0)
    assert [(c.name, c.status, c.n_samples) for c in rep.checks] == [("unique-root", "fail", 0)]
    assert rep.data["root_counts"] == []


def test_transitivity_window_error_counts_as_two_from_one_root():
    # a window that misses the line counts -1 roots, |(-1) - 1| = 2
    spec = spec_for("B", "sin-small", a=-1.0)
    pair = (sl.LoopPoint(0.5, 0.2, 0.3), sl.LoopPoint(1.0, 1.0, 0.1))
    c = sl.sharp_transitivity_check(spec, box=(1.0, 2.0), samples=[pair]).checks[0]
    assert (c.status, c.max_error, c.n_samples) == ("fail", 2.0, 1)
    assert c.notes == "sample 0: the box [1, 2]^2 misses the solution line"


def test_transitivity_case_c_unique_roots():
    rep = sl.sharp_transitivity_check(spec_for("C", "sin-small"), n_samples=40, seed=2)
    assert rep.status == "pass"
    assert set(rep.data["root_counts"]) == {1}


def test_transitivity_case_b_unique_roots():
    rep = sl.sharp_transitivity_check(spec_for("B", "lemma1"), n_samples=25, seed=2)
    assert rep.status == "pass"
    assert set(rep.data["root_counts"]) == {1}


def test_transitivity_detects_multiple_roots():
    # 2*sin(x) with a=2 admits three solutions for this target pair
    spec = sl.SectionSpec("C", P2, sl.FunctionSpec.from_expression("2*sin(x)", 3))
    forced = [(sl.LoopPoint(1.0, 0.0, 1.0), sl.LoopPoint(1.0, 0.0, 1.0))]
    rep = sl.sharp_transitivity_check(spec, samples=forced)
    assert rep.status == "fail"
    assert rep.data["root_counts"] == [3]


def test_transitivity_case_b_counts_every_root_on_the_line():
    # 3*sin(x)*z with a=2, seed 0, sample 56: three genuine roots on the window
    spec = sl.SectionSpec("B", P2, sl.FunctionSpec.from_expression("3*sin(x)*z", 3))
    m2 = sl.LoopPoint(2.8924754825267627, 0.5683549005399025, -0.48785347388638745)
    b = sl.LoopPoint(-2.775466040086397, 0.5774758262130639, 0.21299363093792067)
    rep = sl.sharp_transitivity_check(spec, samples=[(m2, b)])
    assert rep.status == "fail"
    assert rep.data["root_counts"] == [3]
    line = sl.sections.right_translation_system(spec, sl.group.stack([m2]), sl.group.stack([b]))
    lo, hi = line.window(-5.0, 5.0)
    tree, columns = sl.sections.line_residual_rows(line, np.arange(1))
    (boxes,) = per_row(sl.numerics.root_rows(tree, columns, lo, hi), 1)
    assert len(boxes) == 3
    lows, highs = sl.numerics.narrow_roots(tree, {k: np.repeat(v, 3) for k, v in columns.items()}, *zip(*boxes))
    assert (highs - lows <= 1e-12).all()
    for u in 0.5 * (lows + highs):
        q = sl.LoopPoint(*(float(v[0]) for v in line.point(u).coords))
        assert sl.group.coordinate_distance(sl.loops.loop_mul(spec, q, m2).coords, b.coords) <= 1e-9


def test_generation_max_error_is_the_larger_identity_residual():
    # sin(z) meets the slice identity exactly and fails only the profile fit;
    # max_error used to be the slice residual alone, 0 beside "fails"
    spec = sl.SectionSpec("A", P2, sl.FunctionSpec.from_expression("sin(z)", 2))
    report = sl.generation_suite(spec)
    check, verdict = report.checks[0], report.data["verdict"]
    assert verdict["identity_residual_max"] == 0.0
    assert verdict["fit_max_residual"] > 1.0
    assert check.max_error == verdict["fit_max_residual"]
    assert (check.status, verdict["generates"]) == ("pass", True)


def test_generation_suite_fails_non_finite_residual():
    # a NaN slice residual used to pass "generates" with max_error NaN, and
    # the verdict claimed generation
    spec = sl.SectionSpec("A", sl.GroupParam(2.0), sl.FunctionSpec.from_expression("sqrt(x)", 2))
    with np.errstate(invalid="ignore"):
        report = sl.generation_suite(spec, 200)
    check, verdict = report.checks[0], report.data["verdict"]
    assert (check.name, check.status, check.max_error) == ("generates", "fail", None)
    assert "non-finite max_error nan" in check.notes
    assert verdict["generates"] is None
    assert "no verdict" in verdict["notes"]


def test_transitivity_sign_change_at_a_pole_is_not_a_root():
    # bisection used to converge onto the pole x = 1.5 and count it as a
    # root; no box across the pole is excluded or decided, and the midpoint
    # of one next to it has no finite enclosure
    spec = sl.SectionSpec("C", P2, sl.FunctionSpec.from_expression("0.1*x/(x-1.5)", 3))
    rep = sl.sharp_transitivity_check(spec, seed=0)
    assert rep.status == "fail"
    assert rep.data["root_counts"][1] == -1
    first = rep.data["failures"][0]
    assert first.startswith("sample 1: unresolved: no finite enclosure near u = ")
    assert "sample 1: 3 roots" not in rep.checks[0].notes
