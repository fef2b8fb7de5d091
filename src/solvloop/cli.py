"""Command-line verification front end.

Every subcommand runs a deterministic check suite, writes a JSON report
(stdout by default) and exits 0 when all checks pass (warnings allowed),
1 when a check fails, 2 on usage errors.  Identical arguments produce
byte-identical reports; wall time is only recorded with --timing.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import numpy as np

from . import expressions
from .group import (
    GroupElement,
    GroupParam,
    apply_automorphism,
    as_matrix,
    bracket,
    central_defect,
    commutator_oracle,
    coordinate_distance,
    exp_alg,
    inv,
    mul,
    standard_center_probes,
    AlgebraVector,
)
from .loops import LoopCase, axiom_suite, coset_cross_check
from .multgroup import CENTER_TEST_DIRECTIONS, theorem2_certificate
from .numerics import fit_saturating_exponential, twisted_additivity_residual
from .report import RunReport, VerificationReport, emit_report
from .sections import (
    PRESETS,
    FunctionSpec,
    SectionSpec,
    degeneracy_report,
    sharp_transitivity_check,
)
from .subgroups import (
    LoopPoint,
    SubgroupId,
    canonical_span_generator,
    classify_subalgebra,
    fixed_point_residual,
    fixed_point_witness,
    membership_residual,
    subgroup_generator,
)

__all__ = ["main", "build_parser"]


def _param(a: float) -> GroupParam:
    return GroupParam(a)


def _random_element(rng, half_width: float = 5.0) -> GroupElement:
    c = rng.uniform(-half_width, half_width, 4)
    return GroupElement(*(float(v) for v in c))


def _matrix_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(m1).max()), float(np.abs(m2).max()))
    return float(np.abs(m1 - m2).max()) / scale


def _function_spec(args, arity: int) -> FunctionSpec:
    if getattr(args, "preset", None):
        return FunctionSpec.preset(args.preset, arity, getattr(args, "coeff", None))
    if getattr(args, "fn", None):
        return FunctionSpec.from_expression(args.fn, arity)
    raise ValueError("provide a section function via --fn or --preset")


def _section_spec(args) -> SectionSpec:
    p = _param(args.a)
    arity = 2 if args.case == "A" else 3
    return SectionSpec(case=args.case, param=p, fn=_function_spec(args, arity))


def _fn_config(args) -> dict:
    if getattr(args, "preset", None):
        return {"preset": args.preset, "coeff": args.coeff}
    return {"fn": args.fn}


# ---------------------------------------------------------------- verify-group


def _run_verify_group(args) -> tuple[VerificationReport, dict]:
    p = _param(args.a)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    report = VerificationReport(seed=args.seed)
    n = args.samples

    worst = 0.0
    for _ in range(n):
        g = _random_element(rng)
        h = _random_element(rng)
        worst = max(
            worst,
            _matrix_distance(as_matrix(p, mul(p, g, h)), as_matrix(p, g) @ as_matrix(p, h)),
        )
    report.record("product-matrix-oracle", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        g = _random_element(rng)
        worst = max(
            worst,
            coordinate_distance(mul(p, g, inv(p, g)).coords, (0.0, 0.0, 0.0, 0.0)),
            coordinate_distance(mul(p, inv(p, g), g).coords, (0.0, 0.0, 0.0, 0.0)),
        )
    report.record("two-sided-inverse", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        g, h, k = (_random_element(rng) for _ in range(3))
        worst = max(
            worst,
            coordinate_distance(
                mul(p, mul(p, g, h), k).coords, mul(p, g, mul(p, h, k)).coords
            ),
        )
    report.record("associativity", worst <= 1e-12, max_error=worst, n_samples=n)

    worst = 0.0
    for _ in range(n):
        u = AlgebraVector(*(float(v) for v in rng.integers(-5, 6, 4)))
        v = AlgebraVector(*(float(w) for w in rng.integers(-5, 6, 4)))
        worst = max(
            worst,
            coordinate_distance(bracket(p, u, v).coords, commutator_oracle(p, u, v).coords),
        )
    report.record(
        "bracket-commutator-oracle",
        worst <= 1e-13,
        max_error=worst,
        n_samples=n,
        notes="exact on integer vectors when a is dyadic",
    )

    worst = 0.0
    for _ in range(n):
        u, v, w = (
            AlgebraVector(*(float(s) for s in rng.integers(-3, 4, 4))) for _ in range(3)
        )
        cyc = (
            bracket(p, u, bracket(p, v, w))
            .plus(bracket(p, v, bracket(p, w, u)))
            .plus(bracket(p, w, bracket(p, u, v)))
        )
        worst = max(worst, coordinate_distance(cyc.coords, (0.0, 0.0, 0.0, 0.0)))
    report.record("jacobi", worst <= 1e-13, max_error=worst, n_samples=n)

    worst = 0.0
    m = max(20, n // 10)
    for _ in range(m):
        v = AlgebraVector(*(float(s) for s in rng.uniform(-2, 2, 4)))
        s, t = (float(u) for u in rng.uniform(-1.5, 1.5, 2))
        lhs = mul(p, exp_alg(p, v, s), exp_alg(p, v, t))
        worst = max(worst, coordinate_distance(lhs.coords, exp_alg(p, v, s + t).coords))
    report.record("exp-one-parameter", worst <= 1e-12, max_error=worst, n_samples=m)

    worst = 0.0
    subs = [s for s in SubgroupId if s not in (SubgroupId.H2, SubgroupId.H3) or p.a != 1]
    for sub in subs:
        gen = subgroup_generator(sub)
        for t in np.linspace(-2.0, 2.0, 9):
            worst = max(worst, membership_residual(sub, exp_alg(p, gen, float(t))))
    report.record(
        "exp-lands-in-subgroup",
        worst <= 1e-9,
        max_error=worst,
        n_samples=9 * len(subs),
        notes=",".join(s.value for s in subs),
    )

    probes = standard_center_probes(p)
    min_defect = min(central_defect(p, v, probes) for v in CENTER_TEST_DIRECTIONS)
    report.record(
        "center-trivial",
        min_defect > 1e-6,
        max_error=min_defect,
        n_samples=len(CENTER_TEST_DIRECTIONS),
        notes="smallest commutation defect over the test directions",
    )
    return report, {"a": args.a, "samples": args.samples, "seed": args.seed}


# ------------------------------------------------------------------- classify


def _run_classify(args) -> tuple[VerificationReport, dict]:
    p = _param(args.a)
    result = classify_subalgebra(p, args.b1, args.b2, args.b3)
    report = VerificationReport(seed=None)
    data: dict = {"class": result.kind.value}
    if result.automorphism is not None:
        phi = result.automorphism
        generator = AlgebraVector(args.b2, args.b3, args.b1, 0.0)
        image = apply_automorphism(p, phi, generator)
        target = canonical_span_generator(result.kind).scaled(result.scale)
        residual = coordinate_distance(image.coords, target.coords)
        rng = np.random.Generator(np.random.PCG64(0))
        bracket_resid = 0.0
        for _ in range(50):
            u = AlgebraVector(*(float(s) for s in rng.uniform(-3, 3, 4)))
            v = AlgebraVector(*(float(s) for s in rng.uniform(-3, 3, 4)))
            lhs = apply_automorphism(p, phi, bracket(p, u, v))
            rhs = bracket(p, apply_automorphism(p, phi, u), apply_automorphism(p, phi, v))
            bracket_resid = max(bracket_resid, coordinate_distance(lhs.coords, rhs.coords))
        report.record(
            "canonical-collinearity", residual <= 1e-12, max_error=residual, n_samples=1
        )
        report.record(
            "automorphism-preserves-brackets",
            bracket_resid <= 1e-12,
            max_error=bracket_resid,
            n_samples=50,
        )
        data["automorphism"] = {
            "variant": phi.variant,
            "k1": phi.k1,
            "k2": phi.k2,
            "l": phi.l,
            "n1": phi.n1,
            "n2": phi.n2,
            "f1": phi.f1,
            "f2": phi.f2,
            "f3": phi.f3,
        }
        data["scale"] = result.scale
    else:
        report.record(
            "classification",
            True,
            n_samples=1,
            notes=f"{result.kind.value}: no automorphism reduces this span to a "
            "section-admissible subgroup",
        )
    report.data.update(data)
    return report, {"a": args.a, "b1": args.b1, "b2": args.b2, "b3": args.b3}


# ----------------------------------------------------------------- loop-check


def _run_loop_check(args) -> tuple[VerificationReport, dict]:
    spec = _section_spec(args)
    case = LoopCase(spec)
    report = axiom_suite(
        case, n_samples=args.samples, seed=args.seed, z_half_width=args.z_box
    )
    rng = np.random.Generator(np.random.PCG64(args.seed + 1))
    z_hw = args.z_box if args.z_box is not None else 5.0
    worst = 0.0
    n_cross = min(args.samples, 300)
    for _ in range(n_cross):
        m1 = LoopPoint(*(float(v) for v in rng.uniform(-5, 5, 2)), float(rng.uniform(-z_hw, z_hw)))
        m2 = LoopPoint(*(float(v) for v in rng.uniform(-5, 5, 2)), float(rng.uniform(-z_hw, z_hw)))
        worst = max(worst, coset_cross_check(case, m1, m2))
    report.record("coset-cross-check", worst <= 1e-10, max_error=worst, n_samples=n_cross)
    verdict = case.degeneracy
    report.record(
        "generation",
        verdict.generates,
        max_error=verdict.identity_residual_max,
        n_samples=verdict.n_samples,
        notes=(
            "section image generates the group; the loop is proper"
            if verdict.generates
            else "degenerate family: left translations stay in a proper subgroup"
        ),
        warn_only=True,
    )
    report.data["generation"] = verdict.to_dict()
    config = {
        "case": args.case,
        "a": args.a,
        **_fn_config(args),
        "samples": args.samples,
        "seed": args.seed,
        "z_box": args.z_box,
    }
    return report, config


# ----------------------------------------------------------------- generation


def _run_generation(args) -> tuple[VerificationReport, dict]:
    spec = _section_spec(args)
    verdict = degeneracy_report(spec, n_samples=args.samples)
    report = VerificationReport(seed=None)
    report.record(
        "generates",
        verdict.generates,
        max_error=verdict.identity_residual_max,
        n_samples=verdict.n_samples,
        notes=verdict.notes
        + (
            "; both degeneracy identities hold: fitted constant "
            f"{verdict.fitted_constant:.6g}"
            if not verdict.generates
            else "; at least one degeneracy identity fails"
        ),
        warn_only=True,
    )
    report.data["verdict"] = verdict.to_dict()
    return report, {
        "case": args.case,
        "a": args.a,
        **_fn_config(args),
        "samples": args.samples,
    }


# --------------------------------------------------------------- transitivity


def _run_transitivity(args) -> tuple[VerificationReport, dict]:
    spec = _section_spec(args)
    lo, hi = args.box
    if not lo < hi:
        raise ValueError("--box needs LO < HI")
    report = sharp_transitivity_check(
        spec,
        box=(lo, hi),
        n_samples=args.samples,
        seed=args.seed,
        resolution=args.resolution,
        z_half_width=args.z_box,
    )
    config = {
        "case": args.case,
        "a": args.a,
        **_fn_config(args),
        "box": [lo, hi],
        "samples": args.samples,
        "seed": args.seed,
        "resolution": args.resolution,
        "z_box": args.z_box,
    }
    return report, config


# ------------------------------------------------------------------- theorem2


def _run_theorem2(args) -> tuple[VerificationReport, dict]:
    p = _param(args.a)
    cert = theorem2_certificate(p, n_samples=args.samples, seed=args.seed)
    report = VerificationReport(seed=args.seed)
    for rec in cert.records:
        bad = (rec.slab_samples - rec.slab_normalizing) + rec.off_slab_normalizing
        report.record(
            f"normalizer-is-commutator-slab-{rec.subgroup}",
            rec.normalizer_equals_commutator,
            max_error=float(bad),
            n_samples=rec.slab_samples + rec.off_slab_samples,
            notes="sampled surrogate for the normalizer dimension",
        )
    report.record(
        "center-trivial",
        cert.center_trivial,
        max_error=cert.min_central_defect,
        n_samples=len(CENTER_TEST_DIRECTIONS),
    )
    report.record(
        "contradiction",
        cert.contradiction,
        n_samples=args.samples,
        notes=cert.notes,
    )
    report.data["certificate"] = cert.to_dict()
    return report, {"a": args.a, "samples": args.samples, "seed": args.seed}


# --------------------------------------------------------------------- lemma1


def _run_lemma1(args) -> tuple[VerificationReport, dict]:
    if (args.fn is None) == (args.K is None):
        raise ValueError("provide exactly one of --fn or --K")
    rate = args.rate
    if args.K is not None:
        coeff = args.K
        fn = lambda z: coeff * -np.expm1(-rate * z)
        label = f"{coeff:g}*(1-exp(-{rate:g}*z))"
    else:
        tree = expressions.parse(args.fn, ("z",))
        fn = lambda z: float(expressions.evaluate(tree, {"z": z}))
        label = args.fn
    lo, hi = args.range
    if not lo < hi:
        raise ValueError("--range needs LO < HI")
    half = args.samples // 2
    zs = np.concatenate(
        [np.linspace(lo, -1e-3, half), np.linspace(1e-3, hi, args.samples - half)]
    )
    report = VerificationReport(seed=None)
    fit = fit_saturating_exponential([(float(z), float(fn(float(z)))) for z in zs], rate=rate)
    report.record(
        "profile-fit",
        fit.rms_residual <= 1e-9,
        max_error=fit.rms_residual,
        n_samples=fit.n_samples,
        notes=f"fitted coefficient {fit.coefficient:.12g}",
    )
    pair_resid = twisted_additivity_residual(fn, [float(z) for z in zs], rate=rate)
    report.record(
        "pair-identity",
        pair_resid <= 1e-12,
        max_error=pair_resid,
        n_samples=len(zs) ** 2,
        notes="f(z1+z2) = f(z2) + e^{-rate*z2} f(z1) on all sample pairs",
    )
    if args.K is not None:
        err = abs(fit.coefficient - args.K)
        report.record("coefficient-recovery", err <= 1e-9, max_error=err, n_samples=fit.n_samples)
    report.data["coefficient"] = fit.coefficient
    report.data["function"] = label
    config = {
        "fn": args.fn,
        "K": args.K,
        "rate": rate,
        "samples": args.samples,
        "range": [lo, hi],
    }
    return report, config


# ---------------------------------------------------------------- fixed-point


def _run_fixed_point(args) -> tuple[VerificationReport, dict]:
    p = _param(args.a)
    g = GroupElement(*args.g)
    if g.x4 == 0:
        raise ValueError("--g must have a nonzero fourth coordinate (no fixed coset is claimed on the slab)")
    witness = fixed_point_witness(p, g)
    residual = fixed_point_residual(p, g, witness)
    report = VerificationReport(seed=None)
    report.record(
        "fixed-coset",
        residual <= 1e-10,
        max_error=residual,
        n_samples=1,
        notes="left translation fixes the witnessed coset",
    )
    report.data["witness"] = list(witness.coords)
    return report, {"a": args.a, "g": list(args.g)}


# ----------------------------------------------------------------------- main


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvloop",
        description="Verification suite for a 4-dimensional solvable group and its coset loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, samples: int):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=_at_least(1), default=samples)

    def add_out(sp):
        sp.add_argument("-o", "--out", default="-", help="report path ('-' = stdout)")
        sp.add_argument(
            "--timing", action="store_true", help="record wall time (breaks byte-determinism)"
        )

    def add_fn(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--fn", help="expression for the section function")
        group.add_argument("--preset", choices=list(PRESETS))
        sp.add_argument("--coeff", type=float, default=None, help="preset coefficient override")

    sp = sub.add_parser("verify-group", help="group law, algebra and centre invariants")
    sp.add_argument("--a", type=float, required=True)
    add_common(sp, 400)
    add_out(sp)
    sp.set_defaults(handler=_run_verify_group)

    sp = sub.add_parser("classify", help="reduce a slab subalgebra to canonical form")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b1", type=float, required=True)
    sp.add_argument("--b2", type=float, required=True)
    sp.add_argument("--b3", type=float, required=True)
    add_out(sp)
    sp.set_defaults(handler=_run_classify)

    sp = sub.add_parser("loop-check", help="loop axioms, cross-check and generation verdict")
    sp.add_argument("--case", choices=["A", "B", "C"], required=True)
    sp.add_argument("--a", type=float, required=True)
    add_fn(sp)
    add_common(sp, 500)
    sp.add_argument("--z-box", type=float, default=None, help="half width of z sampling")
    add_out(sp)
    sp.set_defaults(handler=_run_loop_check)

    sp = sub.add_parser("generation", help="degeneracy identities only")
    sp.add_argument("--case", choices=["A", "B", "C"], required=True)
    sp.add_argument("--a", type=float, required=True)
    add_fn(sp)
    sp.add_argument("--samples", type=_at_least(1), default=200)
    add_out(sp)
    sp.set_defaults(handler=_run_generation)

    sp = sub.add_parser("transitivity", help="unique-root certification of right division")
    sp.add_argument("--case", choices=["A", "B", "C"], required=True)
    sp.add_argument("--a", type=float, required=True)
    add_fn(sp)
    sp.add_argument("--box", type=float, nargs=2, default=[-5.0, 5.0], metavar=("LO", "HI"))
    sp.add_argument("--resolution", type=_at_least(2), default=10000)
    sp.add_argument("--z-box", type=float, default=0.5, help="half width of z-offset sampling")
    add_common(sp, 100)
    add_out(sp)
    sp.set_defaults(handler=_run_transitivity)

    sp = sub.add_parser("theorem2", help="normalizer + centre obstruction certificate")
    sp.add_argument("--a", type=float, required=True)
    add_common(sp, 1000)
    add_out(sp)
    sp.set_defaults(handler=_run_theorem2)

    sp = sub.add_parser("lemma1", help="saturating-exponential family membership test")
    sp.add_argument("--fn", help="expression in z")
    sp.add_argument("--K", type=float, default=None, help="test the exact member K*(1-exp(-rate*z))")
    sp.add_argument("--rate", type=float, default=1.0)
    sp.add_argument("--samples", type=_at_least(1), default=50)
    sp.add_argument("--range", type=float, nargs=2, default=[-3.0, 3.0], metavar=("LO", "HI"))
    add_out(sp)
    sp.set_defaults(handler=_run_lemma1)

    sp = sub.add_parser("fixed-point", help="fixed coset of a left translation")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--g", type=float, nargs=4, required=True, metavar=("X1", "X2", "X3", "X4"))
    add_out(sp)
    sp.set_defaults(handler=_run_fixed_point)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        verification, config = args.handler(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start if args.timing else None
    run = RunReport.from_verification(args.command, config, verification, wall_time_s=wall)
    emit_report(run, args.out)
    return 0 if run.status != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
