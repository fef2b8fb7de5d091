"""End-to-end acceptance checks, one per structural claim of the package.

Each test covers one numbered criterion and prints a single verdict line
(bypassing capture) so a full run shows ten PASS/FAIL lines.  Sample counts
described as totals are split evenly across the parameter sweep a in
{-1, 0.5, 1, 2}.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import normalizes

import solvloop as sl
from solvloop.subgroups import SubgroupId
from solvloop.cli import main

A_SWEEP = (-1.0, 0.5, 1.0, 2.0)


def verdict(capfd, number, label, ok, detail=""):
    line = f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def rand_element(rng, half=5.0):
    return sl.GroupElement(*(float(v) for v in rng.uniform(-half, half, 4)))


def rand_point(rng, z_half, xy_half=5.0):
    return sl.LoopPoint(
        float(rng.uniform(-xy_half, xy_half)),
        float(rng.uniform(-xy_half, xy_half)),
        float(rng.uniform(-z_half, z_half)),
    )


def loop_case(case, preset, a=2.0, coefficient=None):
    arity = 2 if case == "A" else 3
    fn = sl.FunctionSpec.preset(preset, arity, coefficient)
    return sl.SectionSpec(case, sl.GroupParam(a), fn)


def test_criterion_01_group_oracle(capfd):
    # 10^4 random pairs total: product vs matrix product, inverse,
    # associativity, all to 1e-12
    per_a = 2500
    worst = 0.0
    origin = (0.0, 0.0, 0.0, 0.0)
    for a in A_SWEEP:
        p = sl.GroupParam(a)
        rng = np.random.default_rng(1001)
        for _ in range(per_a):
            g, h, k = rand_element(rng), rand_element(rng), rand_element(rng)
            prod = sl.group.mul(p, g, h)
            rhs = sl.group.as_matrix(p, g) @ sl.group.as_matrix(p, h)
            scale = max(1.0, float(np.abs(rhs).max()))
            worst = max(worst, float(np.abs(sl.group.as_matrix(p, prod) - rhs).max()) / scale)
            worst = max(
                worst,
                sl.group.coordinate_distance(sl.group.mul(p, g, sl.group.inv(p, g)).coords, origin),
                sl.group.coordinate_distance(sl.group.mul(p, sl.group.inv(p, g), g).coords, origin),
            )
            worst = max(
                worst,
                sl.group.coordinate_distance(
                    sl.group.mul(p, prod, k).coords, sl.group.mul(p, g, sl.group.mul(p, h, k)).coords
                ),
            )
    verdict(capfd, 1, "group-oracle", worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_02_lie_algebra(capfd):
    # bracket == matrix-commutator oracle and Jacobi, exactly, on dyadic
    # rational inputs; canonical generators exponentiate into their subgroups
    exact = True
    for a in (-1.0, 0.5, 1.0, 2.0):
        p = sl.GroupParam(a)
        rng = np.random.default_rng(1002)
        for _ in range(150):
            u, v, w = (
                sl.group.AlgebraVector(*(float(x) / 4.0 for x in rng.integers(-8, 9, 4)))
                for _ in range(3)
            )
            exact &= sl.group.bracket(p, u, v).coords == sl.group.commutator_oracle(p, u, v).coords
            jac = (
                sl.group.bracket(p, u, sl.group.bracket(p, v, w))
                .plus(sl.group.bracket(p, v, sl.group.bracket(p, w, u)))
                .plus(sl.group.bracket(p, w, sl.group.bracket(p, u, v)))
            )
            exact &= jac.coords == (0.0, 0.0, 0.0, 0.0)
    exp_worst = 0.0
    for a in A_SWEEP:
        p = sl.GroupParam(a)
        # membership is a parameter-free set condition, so all four canonical
        # generators are checked at every a, including the merged a=1 case
        for sub in SubgroupId:
            gen = sl.subgroups.subgroup_generator(sub)
            for t in np.linspace(-2.0, 2.0, 9):
                g = sl.group.exp_alg(p, gen, t=float(t))
                exp_worst = max(exp_worst, sl.subgroups.membership_residual(sub, g))
    ok = exact and exp_worst <= 1e-9
    verdict(capfd, 2, "lie-algebra", ok,
            f"tables exact={exact}, exp membership {exp_worst:.3e}")


def test_criterion_03_classification(capfd):
    # >= 10^3 classifications including the b1=0, b2=0 and a=1 boundaries;
    # recovered automorphisms map the input direction onto the canonical
    # span and preserve brackets, both to 1e-12
    n_cases = 0
    worst_span = 0.0
    worst_bracket = 0.0
    split_ok = True
    for a in A_SWEEP:
        p = sl.GroupParam(a)
        rng = np.random.default_rng(1003)
        triples = [tuple(float(v) for v in rng.uniform(-3, 3, 3)) for _ in range(180)]
        triples += [(0.0, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))) for _ in range(40)]
        triples += [(float(rng.uniform(0.5, 3)), 0.0, float(rng.uniform(-3, 3))) for _ in range(40)]
        triples += [(1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        for b1, b2, b3 in triples:
            if b1 == 0 and b2 == 0 and b3 == 0:
                continue
            cls = sl.subgroups.classify_subalgebra(p, b1, b2, b3)
            n_cases += 1
            if a == 1.0:
                expect = SubgroupId.H1 if b1 != 0 else None
            elif b1 != 0 and b2 == 0:
                expect = SubgroupId.H1
            elif b1 != 0:
                expect = SubgroupId.H2
            elif b2 != 0 and b3 != 0:
                expect = SubgroupId.H3
            else:
                expect = None
            split_ok &= cls.kind is expect
            if cls.automorphism is None:
                continue
            T = sl.group.automorphism_matrix(p, cls.automorphism)
            v_in = np.array([b2, b3, b1, 0.0])
            target = cls.scale * np.array(sl.subgroups.subgroup_generator(cls.kind).coords)
            worst_span = max(
                worst_span, sl.group.coordinate_distance(tuple(T @ v_in), tuple(target))
            )
            for _ in range(2):
                u = sl.group.AlgebraVector(*(float(x) for x in rng.uniform(-2, 2, 4)))
                w = sl.group.AlgebraVector(*(float(x) for x in rng.uniform(-2, 2, 4)))
                Tu = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(u.coords)))
                Tw = sl.group.AlgebraVector(*(float(x) for x in T @ np.array(w.coords)))
                lhs = sl.group.bracket(p, Tu, Tw).coords
                rhs = tuple(float(x) for x in T @ np.array(sl.group.bracket(p, u, w).coords))
                worst_bracket = max(worst_bracket, sl.group.coordinate_distance(lhs, rhs))
    ok = (
        n_cases >= 1000
        and split_ok
        and worst_span <= 1e-12
        and worst_bracket <= 1e-12
    )
    verdict(capfd, 3, "classification", ok,
            f"{n_cases} cases, span {worst_span:.2e}, bracket {worst_bracket:.2e}")


def test_criterion_04_loop_axioms(capfd):
    # shipped presets: identity laws and z-additivity exact, division round
    # trips <= 1e-8, coset cross-check <= 1e-10 over 10^3 pairs total
    configs = [
        ("A", "linear-x", -1.0), ("A", "linear-x", 0.5), ("A", "linear-x", 2.0),
        ("A", "zero", 2.0), ("B", "zero", 2.0), ("C", "zero", 2.0),
        ("B", "sin-small", 2.0), ("C", "sin-small", 2.0),
    ]
    suites_ok = True
    identity_exact = True
    worst_cross = 0.0
    for case, preset, a in configs:
        c = loop_case(case, preset, a=a)
        rep = sl.loops.axiom_suite(c, n_samples=120, seed=1004)
        by_name = {ch.name: ch for ch in rep.checks}
        suites_ok &= rep.status == "pass"
        identity_exact &= by_name["identity-laws"].max_error == 0.0
        identity_exact &= by_name["z-additivity"].max_error == 0.0
        rng = np.random.default_rng(1004)
        for _ in range(125):
            m1 = rand_point(rng, z_half=5.0)
            m2 = rand_point(rng, z_half=5.0)
            worst_cross = max(worst_cross, sl.loops.coset_cross_check(c, m1, m2))
    ok = suites_ok and identity_exact and worst_cross <= 1e-10
    verdict(capfd, 4, "loop-axioms", ok,
            f"suites pass={suites_ok}, identities exact={identity_exact}, "
            f"cross-check {worst_cross:.2e}")


def test_criterion_05_properness(capfd):
    # generating presets show an associativity defect above 1e-6; degenerate
    # presets are recognized with their saturation constant to 1e-9
    generating = [
        ("A", "linear-x", None),
        ("B", "sin-small", None),
        ("C", "sin-small", None),
        ("C", "zero", None),  # fails the x-profile identity, so it generates
    ]
    witnesses = {
        ("A", "linear-x"): (sl.LoopPoint(0, 0, 1), sl.LoopPoint(1, 0, 0), sl.LoopPoint(0, 0, -1)),
        ("C", "zero"): (sl.LoopPoint(0, 0, 1), sl.LoopPoint(0, 1, 0), sl.LoopPoint(0, 0, -1)),
    }
    gen_ok = True
    for case, preset, coeff in generating:
        c = loop_case(case, preset, coefficient=coeff)
        gen_ok &= sl.generation_suite(c).data["verdict"]["generates"] is True
        if (case, preset) in witnesses:
            defect = sl.loops.associativity_defect(c, *witnesses[(case, preset)])
        else:
            rng = np.random.default_rng(1005)
            defect = max(
                sl.loops.associativity_defect(
                    c,
                    rand_point(rng, z_half=0.5),
                    rand_point(rng, z_half=0.5),
                    rand_point(rng, z_half=0.5),
                )
                for _ in range(120)
            )
        gen_ok &= defect > 1e-6
    degenerate = [
        ("A", "zero", None, 0.0),
        ("A", "bilinear", None, 0.0),
        ("A", "lemma1", 3.0, 3.0),
        ("B", "zero", None, 0.0),
        ("B", "lemma1", 3.0, 3.0),
    ]
    deg_ok = True
    worst_const = 0.0
    for case, preset, coeff, expect in degenerate:
        v = sl.generation_suite(loop_case(case, preset, coefficient=coeff)).data["verdict"]
        deg_ok &= v["generates"] is False
        worst_const = max(worst_const, abs(v["fitted_constant"] - expect))
    ok = gen_ok and deg_ok and worst_const <= 1e-9
    verdict(capfd, 5, "properness", ok,
            f"generating ok={gen_ok}, degenerate ok={deg_ok}, "
            f"constant error {worst_const:.2e}")


def test_criterion_06_saturating_family(capfd):
    # coefficient recovery to 1e-9 from 50 samples; two-argument identity
    # residual <= 1e-12 for exact members on all grid pairs; perturbations
    # rejected above 1e-4
    zs = np.linspace(-3.0, 3.0, 50)
    fit_ok = True
    for K in (-3.0, 0.5, 2.0):
        fit = sl.numerics.fit_saturating_exponential(zs, [K * -math.expm1(-z) for z in zs])
        fit_ok &= abs(fit.coefficient - K) <= 1e-9
    member_res = max(
        sl.numerics.twisted_additivity_residual(
            lambda z, K=K: K * -np.expm1(-z), list(zs), K * -np.expm1(-zs)
        )
        for K in (-3.0, 0.5, 2.0)
    )
    perturbed_res = sl.numerics.twisted_additivity_residual(
        lambda z: 2.0 * -np.expm1(-z) + 0.01 * z * z, list(zs),
        2.0 * -np.expm1(-zs) + 0.01 * zs * zs,
    )
    ok = fit_ok and member_res <= 1e-12 and perturbed_res > 1e-4
    verdict(capfd, 6, "saturating-family", ok,
            f"fits ok={fit_ok}, member {member_res:.2e}, perturbed {perturbed_res:.2e}")


def test_criterion_07_sharp_transitivity(capfd):
    # case C sin-small: exactly one root per sampled pair, proved; case B
    # with the saturating preset: unique roots on every sample
    spec_c = sl.SectionSpec(
        "C", sl.GroupParam(2.0), sl.FunctionSpec.preset("sin-small", 3)
    )
    rep_c = sl.sharp_transitivity_check(spec_c, n_samples=100, seed=1007)
    counts_c = set(rep_c.data["root_counts"])
    spec_b = sl.SectionSpec(
        "B", sl.GroupParam(2.0), sl.FunctionSpec.preset("lemma1", 3)
    )
    rep_b = sl.sharp_transitivity_check(spec_b, n_samples=100, seed=1007)
    counts_b = set(rep_b.data["root_counts"])
    ok = (
        rep_c.status == "pass" and counts_c == {1}
        and rep_b.status == "pass" and counts_b == {1}
    )
    verdict(capfd, 7, "sharp-transitivity", ok,
            f"case C counts {sorted(counts_c)}, case B counts {sorted(counts_b)}")


def test_criterion_08_fixed_coset(capfd):
    # the stabilizer-direction obstruction: every off-slab g fixes a coset,
    # with witness residual <= 1e-10
    worst = 0.0
    for a in A_SWEEP:
        p = sl.GroupParam(a)
        rng = np.random.default_rng(1008)
        for _ in range(100):
            g4 = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
            g = sl.GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)), g4)
            m = sl.subgroups.fixed_point_witness(p, g)
            worst = max(worst, sl.subgroups.fixed_point_residual(p, g, m))
    verdict(capfd, 8, "fixed-coset", worst <= 1e-10, f"max residual {worst:.3e}")


def test_criterion_09_normalizer_obstruction(capfd):
    # the oracle normalizes(g, H_i) holds exactly for slab elements, 10^4
    # samples total; the exact certificate reports a trivial centre and the
    # contradiction flag for every a in the sweep
    dichotomy_ok = True
    n_checked = 0
    for a in A_SWEEP:
        p = sl.GroupParam(a)
        subs = sl.subgroups.admissible_subgroups(p)
        rng = np.random.default_rng(1009)
        for i in range(2500):
            xs = [float(v) for v in rng.uniform(-5, 5, 3)]
            if i % 2 == 0:
                g = sl.GroupElement(*xs, 0.0)
                expect = True
            else:
                x4 = float(rng.uniform(1e-3, 3.0)) * (1 if rng.random() < 0.5 else -1)
                g = sl.GroupElement(*xs, x4)
                expect = False
            n_checked += 1
            sub = subs[i % len(subs)]
            dichotomy_ok &= normalizes(p, g, sub) is expect
    certs_ok = True
    for a in A_SWEEP:
        cert = sl.theorem2_suite(sl.GroupParam(a)).data["certificate"]
        certs_ok &= cert["center_trivial"] and cert["contradiction"]
        certs_ok &= all(r["normalizer_equals_commutator"] for r in cert["records"])
    ok = dichotomy_ok and n_checked == 10000 and certs_ok
    verdict(capfd, 9, "normalizer-obstruction", ok,
            f"dichotomy ok={dichotomy_ok} on {n_checked}, certificates ok={certs_ok}")


CLI_BATTERY = [
    ["verify-group", "--a", "2", "--seed", "5", "--samples", "100"],
    ["verify-group", "--a", "-1", "--seed", "5", "--samples", "100"],
    ["classify", "--a", "2", "--b1", "1.5", "--b2", "0.5", "--b3", "-2"],
    ["classify", "--a", "1", "--b1", "1", "--b2", "2", "--b3", "3"],
    ["loop-check", "--case", "A", "--a", "2", "--preset", "linear-x",
     "--samples", "60", "--seed", "5"],
    ["loop-check", "--case", "B", "--a", "2", "--preset", "lemma1",
     "--samples", "40", "--seed", "5"],
    ["generation", "--case", "C", "--a", "2", "--preset", "sin-small"],
    ["transitivity", "--case", "C", "--a", "2", "--preset", "sin-small",
     "--samples", "30", "--seed", "5"],
    ["theorem2", "--a", "0.5", "--seed", "5"],
    ["lemma1", "--K", "2", "--samples", "50"],
    ["fixed-point", "--a", "2", "--g", "1", "-2", "0.5", "1.5"],
]


def test_criterion_10_determinism(capfd, tmp_path):
    # the full battery, run twice with identical seeds, emits byte-identical
    # reports
    identical = True
    codes_ok = True
    for idx, args in enumerate(CLI_BATTERY):
        p1 = tmp_path / f"run1_{idx}.json"
        p2 = tmp_path / f"run2_{idx}.json"
        codes_ok &= main(args + ["-o", str(p1)]) == 0
        codes_ok &= main(args + ["-o", str(p2)]) == 0
        identical &= p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # stays parseable
    ok = identical and codes_ok
    verdict(capfd, 10, "determinism", ok,
            f"{len(CLI_BATTERY)} commands, byte-identical={identical}")


def test_cli_battery_does_not_import_numpy_random():
    # numpy 2 loads numpy.random only on first use, and that import costs a
    # command more than all of its sampling (numpy 1.x loads it with numpy);
    # numpy.ma, which np.unique and others import, costs about 15 ms
    battery = CLI_BATTERY + [
        ["transitivity", "--case", "C", "--a", "2", "--fn", "0.1*sin(x)", "--samples", "30"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "with_numpy = ['numpy.random' in sys.modules, 'numpy.ma' in sys.modules]\n"
        "from solvloop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, with_numpy, ['numpy.random' in sys.modules, 'numpy.ma' in sys.modules]]))\n"
    )
    src = str(Path(sl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(battery)],
                          capture_output=True, text=True, env=env, timeout=300)
    codes, with_numpy, after_battery = json.loads(proc.stdout)
    assert codes == [0] * len(battery)
    assert after_battery == with_numpy
    assert not after_battery[1]
