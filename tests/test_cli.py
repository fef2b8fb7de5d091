"""Exit codes, report files and determinism of the command-line interface."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvloop
import solvloop.cli
from solvloop.cli import COMMANDS, _config, _plain_args, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run_to_file(tmp_path, name, args):
    path = tmp_path / name
    code = main(args + ["-o", str(path)])
    return code, path


# ---------------------------------------------------------------- exit codes

def test_verify_group_passes(tmp_path):
    code, path = run_to_file(tmp_path, "vg.json", ["verify-group", "--a", "2", "--samples", "60"])
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["status"] == "pass"
    names = [c["name"] for c in obj["checks"]]
    assert "product-matrix-oracle" in names
    assert "bracket-commutator-oracle" in names
    assert "center-trivial" in names


def test_failing_check_exits_one(tmp_path):
    # z*z is not in the saturating-exponential family
    code, path = run_to_file(tmp_path, "l1.json", ["lemma1", "--fn", "z*z"])
    assert code == 1
    assert json.loads(path.read_text())["status"] == "fail"


def test_usage_errors_exit_two(capsys):
    assert main(["fixed-point", "--a", "2", "--g", "1", "0", "0", "0"]) == 2
    assert main(["nonsense-command"]) == 2
    assert main(["loop-check", "--case", "Q", "--a", "2", "--preset", "zero"]) == 2
    assert main(["verify-group"]) == 2  # --a is required
    assert main(["lemma1", "--fn", "z", "--K", "1"]) == 2  # mutually exclusive
    capsys.readouterr()  # swallow argparse noise


def test_count_flags_rejected_at_parse_time(capsys):
    section = ["--case", "C", "--a", "2", "--preset", "zero"]
    bad = [
        (["transitivity", *section, "--samples", "0"], "--samples", "must be at least 1"),
        (["loop-check", *section, "--samples", "-3"], "--samples", "must be at least 1"),
        (["generation", *section, "--samples", "49"], "--samples", "must be at least 50"),
        (["lemma1", "--K", "1", "--samples", "1"], "--samples", "must be at least 2"),
        (["verify-group", "--a", "2", "--seed", "-1"], "--seed", "must be at least 0"),
        (["loop-check", *section, "--seed", "-1"], "--seed", "must be at least 0"),
        (["transitivity", *section, "--seed", "-2"], "--seed", "must be at least 0"),
        (["theorem2", "--a", "2", "--seed", "-1e0"], "--seed", "invalid integer value"),
    ]
    bad += [
        (["loop-check", *section, "--z-box", value], "--z-box", "must be finite and > 0")
        for value in ("-1", "0", "nan", "inf")
    ]
    bad += [(["transitivity", *section, "--z-box", "-1"], "--z-box", "must be finite and > 0")]
    bad += [
        (["lemma1", "--K", "1", "--rate", value], "--rate", "must be finite and nonzero")
        for value in ("0", "nan", "inf")
    ]
    bad += [(["lemma1", "--K", value], "--K", "must be finite") for value in ("nan", "inf")]
    classify = ["classify", "--a", "2", "--b1", "1", "--b2", "0", "--b3", "0"]
    bad += [
        (classify + [flag, value], flag, "must be finite")
        for flag in ("--b1", "--b2", "--b3") for value in ("inf", "nan")
    ]
    bad += [
        (["fixed-point", "--a", "2", "--g", *g], "--g", "must be finite")
        for g in (["inf", "0", "0", "1"], ["1", "0", "0", "nan"])
    ]
    bad += [
        (["generation", *section, "--coeff", value], "--coeff", "must be finite")
        for value in ("nan", "inf")
    ]
    bad += [
        (["lemma1", "--fn", "z", "--range", "-3", "inf"], "--range", "must be finite"),
        (["lemma1", "--K", "1", "--range", "nan", "1"], "--range", "must be finite"),
        (["transitivity", *section, "--box", "-5", "inf"], "--box", "must be finite"),
    ]
    for argv, flag, message in bad:
        assert main(argv) == 2, argv
        assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_coeff_with_fn_is_a_usage_error(capsys):
    # --coeff with --fn used to be dropped: exit 0, and no coeff in the config
    for command in ("loop-check", "generation", "transitivity"):
        argv = [command, "--case", "A", "--a", "2", "--fn", "x*z", "--coeff", "3"]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --coeff "), argv


def _key_paths(value, path="data"):
    """Every key path in value, in order; the dicts of a list, which must share one layout, are name[]."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        layouts = {tuple(_key_paths(v, path + "[]")) for v in value}
        assert len(layouts) == 1, path
        return list(layouts.pop())
    if not isinstance(value, dict):
        return []
    return [p for k, v in value.items() for p in (f"{path}.{k}", *_key_paths(v, f"{path}.{k}"))]


def _under(path, *keys):
    return [path, *(f"{path}.{k}" for k in keys)]


_VERDICT = ("generates", "fitted_constant", "identity_residual_max", "fit_rms_residual",
            "fit_max_residual", "n_samples", "rate", "notes")
_NORMALIZER = ("subgroup", "normalizer_dim", "normalizer_equals_commutator")
_CERTIFICATE = [
    *_under("data.certificate", "a", "records"),
    *(f"data.certificate.records[].{k}" for k in _NORMALIZER),
    *(f"data.certificate.{k}" for k in ("center_dim", "center_trivial", "contradiction", "notes")),
]


@pytest.mark.parametrize(
    "argv,layout",
    [
        ("theorem2 --a 2", _CERTIFICATE),
        ("theorem2 --a 1", _CERTIFICATE),
        ("generation --case C --a 2 --preset sin-small", _under("data.verdict", *_VERDICT)),
        ("generation --case A --a 2 --fn sqrt(x)",
         [*_under("data.verdict", *_VERDICT), "data.non_finite"]),
        ("loop-check --case A --a 2 --preset linear-x --samples 20",
         _under("data.generation", *_VERDICT)),
        ("loop-check --case B --a 2 --fn 4*sin(x) --samples 20",
         ["data.division_errors", *_under("data.generation", *_VERDICT)]),
        ("classify --a 2 --b1 1.5 --b2 0.5 --b3 -2",
         ["data.class",
          *_under("data.automorphism", "k1", "k2", "l", "n1", "n2", "f1", "f2", "f3"),
          "data.scale"]),
        ("classify --a 2 --b1 0 --b2 1 --b3 0", ["data.class"]),
    ],
)
def test_report_data_layout_is_pinned(capsys, argv, layout):
    # the data of the paper's verdicts: a renamed or reordered key fails here
    main(argv.split())
    assert _key_paths(json.loads(capsys.readouterr().out)["data"]) == layout


def test_negative_numbers_in_exponent_notation_are_values(tmp_path):
    # argparse's own pattern would read -1e6 as an unknown option and exit 2
    # with "expected 2 arguments"; the wide --box also needs a bisection that
    # stops where adjacent doubles are farther apart than its tolerance
    runs = [
        (["transitivity", "--case", "C", "--a", "2", "--fn", "10*x*z", "--box", "-1e6", "1e6",
          "--samples", "5"], "box", [-1e6, 1e6]),
        (["lemma1", "--K", "2", "--range", "-1.5e0", "1.5"], "range", [-1.5, 1.5]),
        (["fixed-point", "--a", "2", "--g", "1", "-2e0", "0.5", "-1.5E+0"], "g",
         [1.0, -2.0, 0.5, -1.5]),
        (["verify-group", "--a", "-1e0", "--samples", "20"], "a", -1.0),
    ]
    for i, (argv, key, value) in enumerate(runs):
        code, path = run_to_file(tmp_path, f"neg{i}.json", argv)
        assert code == 0, argv
        assert json.loads(path.read_text())["config"][key] == value


def test_fn_values_may_start_with_a_minus(capsys):
    # argparse alone reads the value -x as an unknown option
    for argv in (["generation", "--case", "C", "--a", "2"], ["lemma1", "--range", "0", "1"]):
        fn = "-x" if argv[0] == "generation" else "-(1-exp(-z))"
        code = main(argv + ["--fn", fn])
        spaced = capsys.readouterr().out
        assert code == main(argv + [f"--fn={fn}"]) != 2
        assert spaced == capsys.readouterr().out
        assert json.loads(spaced)["config"]["fn"] == fn


def test_malformed_numbers_still_usage_errors(capsys):
    bad = [
        (["verify-group", "--a", "-1e"], "argument --a: expected one argument"),
        (["verify-group", "--a", "-x"], "argument --a: expected one argument"),
        (["transitivity", "--case", "C", "--a", "2", "--preset", "zero", "--box", "1", "-1e6"],
         "--box needs LO < HI"),
        (["lemma1", "--K", "2", "--range", "-1e0"], "argument --range: expected 2 arguments"),
        (["fixed-point", "--a", "2", "--g", "1", "2", "3", "-0e0"], "--g must have a nonzero fourth"),
        (["lemma1", "--fn", "--K", "2"], "argument --fn: expected one argument"),
    ]
    for argv, message in bad:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_lemma1_nan_pair_fails_the_pair_identity(capsys):
    # (1-exp(-z))*sqrt(2.5-z)/sqrt(2.5-z) is the family member on the sampled
    # range, but NaN at the pair sums beyond 2.5
    argv = ["lemma1", "--fn", "(1-exp(-z))*sqrt(2.5-z)/sqrt(2.5-z)", "--range", "-1.5", "1.5"]
    assert main(argv) == 1
    obj = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in obj["checks"]}
    assert statuses == {"profile-fit": "pass", "pair-identity": "fail"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_errors_never_crash_or_pass(capsys):
    # NaN products, NaN degeneracy residuals and overflowing profiles: the
    # report is written in full, its checks fail, and every non-finite data
    # value is written as null and named
    cases = [
        (["loop-check", "--case", "A", "--a", "2", "--fn", "sqrt(x)", "--samples", "20"],
         {"generation": "fail", "identity-laws": "fail"},
         ["data.generation.identity_residual_max = nan"]),
        (["loop-check", "--case", "B", "--a", "2", "--fn", "sqrt(x)", "--samples", "20"],
         {"generation": "fail", "rdiv-round-trip": "fail"},
         ["data.generation.identity_residual_max = nan"]),
        (["generation", "--case", "A", "--a", "2", "--fn", "sqrt(x)"],
         {"generates": "fail"},
         ["data.verdict.identity_residual_max = nan"]),
        (["lemma1", "--fn", "exp(1000*z)"],
         {"profile-fit": "fail", "pair-identity": "fail"},
         ["data.coefficient = inf"]),
    ]
    for argv, failing, named in cases:
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "error:" not in err
        obj = json.loads(out)
        statuses = {c["name"]: c["status"] for c in obj["checks"]}
        assert {name: statuses[name] for name in failing} == failing, argv
        assert obj["data"]["non_finite"] == named
    assert main(["lemma1", "--K", "1", "--rate", "nan"]) == 2
    assert "argument --rate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_names_float_parameters(capsys):
    cases = [
        (["verify-group", "--a", "1e308"], "--a 1e+308"),
        (["verify-group", "--a", "800"], "--a 800"),
        (["loop-check", "--case", "A", "--a", "2", "--preset", "zero", "--z-box", "400"],
         "--a 2, --z-box 400"),
        (["fixed-point", "--a", "1e308", "--g", "1", "1", "1", "1"], "--a 1e+308, --g 1 1 1 1"),
    ]
    for argv, named in cases:
        assert main(argv) == 2, argv
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: math range error: overflow with {named}"


def test_an_overflowing_fixed_point_witness_is_an_overflow(capsys):
    # 1 - e^{g4} underflows to a subnormal and the witness divides by it; a
    # witness beyond the floats is an overflow, not a refuted fixed coset
    assert main(["fixed-point", "--a", "2", "--g", "1", "1", "1", "1e-320"]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (
        "error: fixed coset witness (-inf, inf, -inf) is not finite: "
        "overflow with --a 2, --g 1 1 1 9.99989e-321"
    )


def test_fixed_point_where_a_times_g4_underflows(capsys):
    # expm1(a*g4) is 0 there; e^t - 1 = t to double precision, so x = -(g1/a)/g4
    assert main(["fixed-point", "--a", "1e-300", "--g", "0", "1", "1", "1e-30"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["checks"][0]["max_error"] == 0
    assert obj["data"]["witness"] == [0, 0, pytest.approx(-1e30, rel=1e-15)]
    # here the witness's x = -1e330 is beyond the floats
    assert main(["fixed-point", "--a", "1e-300", "--g", "1", "1", "1", "1e-30"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: fixed coset witness (-inf, -0, -1e+30) is not finite: "
        "overflow with --a 1e-300, --g 1 1 1 1e-30"
    )


@pytest.mark.parametrize("argv", [
    "verify-group --a 1e-7", "verify-group --a -3e-7", "verify-group --a 5e-324 --samples 5",
    "theorem2 --a 1e-7",
])
def test_small_a_has_a_trivial_centre(capsys, argv):
    # the sampled centre witness shrank with a and failed its 1e-6 threshold,
    # or read exactly 0 at a = 5e-324; the centre is trivial for every a != 0
    assert main(argv.split()) == 0
    obj = json.loads(capsys.readouterr().out)
    check = {c["name"]: c for c in obj["checks"]}["center-trivial"]
    assert (check["status"], check["max_error"], check["n_samples"]) == ("pass", 0, 16)


def test_non_finite_values_print_no_numpy_warnings(capsys):
    # the report or the error line already names each non-finite value
    cases = [
        (["loop-check", "--case", case, "--a", "2", "--fn", "exp(1000*x)-1", "--samples", "20"], "")
        for case in "ABC"
    ]
    cases += [
        (["lemma1", "--fn", "exp(1000*z)"], ""),
        (["verify-group", "--a", "1e308"], "error: math range error: overflow with --a 1e+308\n"),
        (["loop-check", "--case", "A", "--a", "2", "--preset", "zero", "--z-box", "1e308"],
         "error: Range exceeds valid bounds: overflow with --a 2, --z-box 1e+308\n"),
        (["transitivity", "--case", "C", "--a", "2", "--preset", "sin-small", "--z-box", "1e308"],
         "error: Range exceeds valid bounds: overflow with --a 2, --box -5 5, --z-box 1e+308\n"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv, err in cases:
            assert main(argv) == (2 if err else 1), argv
            assert capsys.readouterr().err == err, argv


def test_preset_choices_follow_presets(capsys):
    from solvloop.sections import PRESETS

    for name in PRESETS:
        argv = ["generation", "--case", "A", "--a", "2", "--preset", name]
        assert main(argv + ["-o", "-"]) in (0, 1)
    assert main(["generation", "--case", "A", "--a", "2", "--preset", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", (28, 32, 79, 239, 268, 1177813520, 2147483647))
def test_verify_group_exp_one_parameter_regression_seeds(tmp_path, seed):
    # seeds on which a truncated-series exponential missed the 1e-12 tolerance
    code, path = run_to_file(tmp_path, "vg.json", ["verify-group", "--a", "2", "--seed", str(seed)])
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert checks["exp-one-parameter"]["status"] == "pass"
    assert code == 0


def test_bad_parameter_exits_two(capsys):
    assert main(["verify-group", "--a", "0"]) == 2  # a must be nonzero
    capsys.readouterr()


def test_warn_status_still_exits_zero(tmp_path):
    code, path = run_to_file(
        tmp_path, "gen.json",
        ["generation", "--case", "B", "--a", "2", "--preset", "lemma1"],
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["status"] == "warn"
    assert obj["data"]["verdict"]["generates"] is False
    assert obj["data"]["verdict"]["fitted_constant"] == 1


# ---------------------------------------------------------------- subcommands

def test_classify_reports_class_and_automorphism(tmp_path):
    code, path = run_to_file(
        tmp_path, "cls.json",
        ["classify", "--a", "2", "--b1", "1.5", "--b2", "0.5", "--b3", "-2"],
    )
    assert code == 0
    obj = json.loads(path.read_text())
    data = obj["data"]
    assert data["class"] == "H2"
    assert data["automorphism"]["k1"] == 3
    assert data["scale"] == 1.5
    assert obj["seed"] is None  # the basis pairs: nothing is drawn
    assert "variant" not in data["automorphism"]


@pytest.mark.parametrize("b, cls, named", [
    (("1e-320", "1e300", "1e300"), "H2", "k1 underflows to 0"),
    (("0", "1e300", "1e-320"), "H3", "k1 underflows to 0"),
    (("1e300", "1e-300", "1e300"), "H2", "non-finite max_error"),
])
def test_classify_extreme_span_fails_with_report(tmp_path, b, cls, named):
    # a reducing coefficient k1 that underflows to 0 or overflows to inf
    # refutes every automorphism check in a written report
    args = ["classify", "--a", "2", *(x for pair in zip(("--b1", "--b2", "--b3"), b) for x in pair)]
    code, path = run_to_file(tmp_path, "cls.json", args)
    assert code == 1
    obj = json.loads(path.read_text())
    assert obj["data"]["class"] == cls
    checks = {c["name"]: c for c in obj["checks"]}
    assert set(checks) == {"canonical-collinearity", "automorphism-preserves-brackets"}
    assert all(c["status"] == "fail" and named in c["notes"] for c in checks.values())


def test_classify_inadmissible_direction(tmp_path):
    code, path = run_to_file(
        tmp_path, "cls2.json",
        ["classify", "--a", "2", "--b1", "0", "--b2", "1", "--b3", "0"],
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["data"]["class"] == "NormalInadmissible"
    assert obj["seed"] is None  # nothing is drawn


def test_loop_check_report(tmp_path):
    code, path = run_to_file(
        tmp_path, "lc.json",
        ["loop-check", "--case", "A", "--a", "2", "--preset", "linear-x",
         "--samples", "40", "--seed", "4"],
    )
    assert code == 0
    obj = json.loads(path.read_text())
    names = [c["name"] for c in obj["checks"]]
    assert names[:4] == ["identity-laws", "ldiv-round-trip", "rdiv-round-trip", "z-additivity"]
    assert "coset-cross-check" in names
    assert obj["seed"] == 4


def test_case_c_right_divisions_round_trip_within_an_ulp(capsys):
    # each proved root box is narrowed by an interval Newton step centred on
    # the float Newton iterate, so its midpoint is the root to a few ulps
    argv = ["loop-check", "--case", "C", "--a", "2", "--preset", "sin-small", "--seed", "0"]
    assert main(argv) == 0
    (check,) = [c for c in json.loads(capsys.readouterr().out)["checks"] if c["name"] == "rdiv-round-trip"]
    assert check["status"] == "pass" and check["max_error"] <= 1e-15


def test_transitivity_report(tmp_path):
    code, path = run_to_file(
        tmp_path, "tr.json",
        ["transitivity", "--case", "C", "--a", "2", "--preset", "sin-small",
         "--samples", "20", "--seed", "2"],
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["status"] == "pass"
    assert set(obj["data"]["root_counts"]) == {1}


def test_theorem2_report(tmp_path):
    # --seed is echoed and selects nothing: the certificate draws nothing
    code, path = run_to_file(tmp_path, "t2.json", ["theorem2", "--a", "0.5", "--seed", "80"])
    assert code == 0
    obj = json.loads(path.read_text())
    assert (obj["seed"], obj["config"]) == (None, {"a": 0.5, "seed": 80})
    cert = obj["data"]["certificate"]
    assert cert["contradiction"] is True
    assert len(cert["records"]) == 3


@pytest.mark.parametrize("a", ["1.000000001", "700"])
def test_theorem2_passes_where_sampling_failed(capsys, a):
    # the sampled dichotomy failed H3 at a = 1 + 1e-9 (exit 1) and overflowed
    # at a = 700 (exit 2); the exact dimensions need no exponential
    assert main(["theorem2", "--a", a]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 5 and {c["status"] for c in checks} == {"pass"}


def test_theorem2_has_no_samples_flag(capsys):
    assert main(["theorem2", "--a", "2", "--samples", "5"]) == 2
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err


def test_fixed_point_report(tmp_path):
    code, path = run_to_file(
        tmp_path, "fp.json", ["fixed-point", "--a", "2", "--g", "1", "-2", "0.5", "1.5"]
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["checks"][0]["name"] == "fixed-coset"
    assert obj["checks"][0]["max_error"] <= 1e-10


def test_lemma1_with_exact_member(tmp_path):
    code, path = run_to_file(tmp_path, "lm.json", ["lemma1", "--K", "2"])
    assert code == 0
    names = [c["name"] for c in json.loads(path.read_text())["checks"]]
    assert names == ["profile-fit", "pair-identity", "coefficient-recovery"]


@pytest.mark.parametrize(
    "argv,checks",
    [
        ("lemma1 --K 1 --rate 1e-200", {"profile-fit": "pass", "pair-identity": "pass",
                                        "coefficient-recovery": "pass"}),
        ("generation --case C --a 1e-170 --fn=-x", {"generates": "warn"}),
        ("loop-check --case C --a 1e-300 --preset sin-small --samples 3", {"generation": "pass"}),
    ],
)
def test_a_tiny_rate_is_no_degenerate_sample_placement(capsys, argv, checks):
    # the fit's basis @ basis underflows to 0 where |rate*z| is below about
    # 1e-154; its basis is rescaled by a power of two first
    assert main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    statuses = {check["name"]: check["status"] for check in report["checks"]}
    assert statuses.items() >= checks.items()


def test_an_all_zero_fit_basis_names_rate(capsys):
    # 5e-324 * z rounds to 0 on the whole range: no rescaling can help
    assert main("lemma1 --K 1 --rate 5e-324 --range 0.001 0.002".split()) == 2
    err = capsys.readouterr().err
    assert err == "error: --rate: 1 - e^(-rate*z) is 0 at every sample (rate 4.94066e-324)\n"


def test_lemma1_pair_identity_is_relative_to_the_values(tmp_path):
    # over --range -3 3 the pair sums reach z = -6, where 3*(1 - e^{12}) is
    # about -5e5 and rounding alone exceeds an absolute 1e-12; at z1 = 50,
    # z2 = -50 the two terms of the right side, about 1.6e22, cancel, so
    # rounding is judged against the terms; non-members still fail
    for argv, code, status in (
        (["--K", "3", "--rate", "2"], 0, "pass"),
        (["--K", "3", "--range", "-50", "50"], 0, "pass"),
        (["--fn", "z*z"], 1, "fail"),
        (["--fn", "sin(z)"], 1, "fail"),
    ):
        got, path = run_to_file(tmp_path, "lm3.json", ["lemma1", *argv])
        checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert (got, checks["pair-identity"]["status"]) == (code, status), argv


def test_lemma1_range_on_one_side_of_zero_is_sampled_there(tmp_path):
    # log(z) is finite on [1, 4]; a member is recovered from [-4, -1] alone
    code, path = run_to_file(tmp_path, "log.json", ["lemma1", "--fn", "log(z)", "--range", "1", "4"])
    obj = json.loads(path.read_text())
    assert code == 1 and "non_finite" not in obj["data"]
    assert obj["checks"][0]["n_samples"] == 50
    code, path = run_to_file(tmp_path, "neg.json", ["lemma1", "--K", "2", "--range", "-4", "-1"])
    assert code == 0
    assert json.loads(path.read_text())["checks"][0]["n_samples"] == 50


def test_lemma1_range_inside_the_excluded_interval_is_a_usage_error(capsys):
    assert main(["lemma1", "--K", "2", "--range", "-1e-4", "5e-4"]) == 2
    assert capsys.readouterr().err.startswith("error: --range ")


def test_lemma1_profile_error_names_the_point(capsys):
    # the pair sums reach z = -3 + 3 = 0, where the division guard fires
    assert main(["lemma1", "--fn", "1/z"]) == 2
    assert capsys.readouterr().err == "error: --fn: division by (near-)zero denominator at z = 0.0\n"


def test_lemma1_constant_profile_is_broadcast(tmp_path):
    # the constant 0 evaluates to a scalar on array input
    code, path = run_to_file(tmp_path, "zero.json", ["lemma1", "--fn", "0"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert (checks["pair-identity"]["status"], checks["pair-identity"]["n_samples"]) == ("pass", 2500)


def test_lemma1_with_member_expression(tmp_path):
    code, path = run_to_file(
        tmp_path, "lm2.json", ["lemma1", "--fn", "2*(1 - exp(-z))"]
    )
    assert code == 0
    assert json.loads(path.read_text())["status"] == "pass"


# ---------------------------------------------------------------- determinism

def test_reports_byte_identical_for_same_seed(tmp_path):
    args = ["loop-check", "--case", "B", "--a", "2", "--preset", "lemma1",
            "--samples", "30", "--seed", "9"]
    _, p1 = run_to_file(tmp_path, "a.json", list(args))
    _, p2 = run_to_file(tmp_path, "b.json", list(args))
    assert p1.read_bytes() == p2.read_bytes()


def test_wall_time_null_without_timing_flag(tmp_path):
    _, p1 = run_to_file(tmp_path, "t0.json", ["classify", "--a", "2", "--b1", "1", "--b2", "0", "--b3", "0"])
    assert json.loads(p1.read_text())["wall_time_s"] is None
    _, p2 = run_to_file(tmp_path, "t1.json", ["classify", "--a", "2", "--b1", "1", "--b2", "0", "--b3", "0", "--timing"])
    assert isinstance(json.loads(p2.read_text())["wall_time_s"], float)


def test_stdout_default_target(capsys):
    code = main(["classify", "--a", "2", "--b1", "1", "--b2", "0", "--b3", "0"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "classify"


def test_module_entry_point(tmp_path):
    out = tmp_path / "mod.json"
    # the child imports the same package as this process, installed or not
    src = str(Path(solvloop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "solvloop", "verify-group", "--a", "2",
         "--samples", "40", "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "verify-group"


# ---------------------------------------------------------------- the table

def _parser_cases() -> list[list[str]]:
    cases = [["--help"], [], ["nonsense-command"], ["verify-group", "--a", "2", "--bogus"]]
    for name in COMMANDS:
        bad_value = ["--rate", "0"] if name == "lemma1" else ["--a", "zz"]
        cases += [[name, "--help"], [name], [name, "--bogus"], [name, *bad_value]]
    return cases


@pytest.mark.parametrize("argv", _parser_cases(), ids=" ".join)
def test_one_subparser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # argparse prints the help, usage and error lines of these, and exit
    # codes are those of the parser of every command; `lemma1` alone parses
    # and its command refuses it
    assert (_plain_args(list(argv)) is None) == (argv != ["lemma1"])
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code = main(list(argv))
        got = (code, *capsys.readouterr())
        with monkeypatch.context() as patched:
            patched.setattr(solvloop.cli, "_plain_args", lambda argv: None)
            code = main(list(argv))
        assert got == (code, *capsys.readouterr()), columns


# a command line that each command accepts, one flag with its values per group
PLAIN_GROUPS = {
    "verify-group": [["--a", "2"]],
    "classify": [["--a", "2"], ["--b1", "1.5"], ["--b2", "0.5"], ["--b3", "-2"]],
    "loop-check": [["--case", "A"], ["--a", "2"], ["--preset", "linear-x"]],
    "generation": [["--case", "B"], ["--a", "-1e0"], ["--fn", "x*z"]],
    "transitivity": [["--case", "C"], ["--a", "0.5"], ["--preset", "sin-small"], ["--box", "-1e6", "1e6"]],
    "theorem2": [["--a", "-1"]],
    "lemma1": [["--K", "2"]],
    "fixed-point": [["--a", "2"], ["--g", "1", "-2", "0.5", "1.5"]],
}
PARSER = build_parser()
SUBPARSERS = next(action for action in PARSER._actions if action.dest == "command").choices
FLAG_TOKENS = sorted(
    {flag for sub in SUBPARSERS.values() for flag in sub._option_string_actions}
    | {"--", "--samp", "--ou", "--pre", "-ox", "-o=x", "--a=2", "--a=-1e6", "--fn=-x", "--fn=",
       "--box=1", "--timing=1", "--g=1", "--case=A", "--preset=zero", "--samples=3"}
)
VALUE_TOKENS = ["2", "0", "3", "-1", "-1e6", "-1e", "-x", "- 1", "-", "nan", "1e400", "", "A", "Q",
                "x*z", "zero", "linear-x", "report.json"]


@st.composite
def command_lines(draw):
    """A command, most of a line it accepts, and up to three more flags with values."""
    name = draw(st.sampled_from(list(COMMANDS)))
    groups = [group for group in PLAIN_GROUPS[name] if draw(st.integers(0, 9))]
    options = SUBPARSERS[name]._option_string_actions
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(options)) | st.sampled_from(FLAG_TOKENS))
        nargs = options[flag].nargs if flag in options else 1
        count = draw(st.sampled_from([1 if nargs is None else nargs] * 3 + [0, 1, 2]))
        groups.append([flag, *draw(st.lists(st.sampled_from(VALUE_TOKENS), min_size=count, max_size=count))])
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=500)
@given(command_lines())
def test_plain_args_equal_what_argparse_parses(argv):
    # a Namespace from the plain path is argparse's, with the same value
    # types; every line argparse rejects or answers with help is not plain
    plain = _plain_args(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = PARSER.parse_args(list(argv))
        except SystemExit:
            parsed = None
    if parsed is None:
        assert plain is None
    elif plain is not None:
        assert _typed(plain) == _typed(parsed)


def _typed(args) -> dict:
    """vars(args) with each value as its type and repr, so 2 != 2.0 and nan == nan."""
    return {key: (type(value), repr(value)) for key, value in vars(args).items()}


def _perfbench():
    """The benchmark's perfbench/run.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _battery_lines() -> list[tuple[str, list[str]]]:
    """(template, argv) of every benchmark command at the seeds 0 and 7919."""
    return [
        (template, shlex.split(template.format(seed=seed)))
        for templates in _perfbench().WORKLOADS.values() for template in templates for seed in (0, 7919)
    ]


def test_benchmark_lines_take_the_plain_path(capsys, monkeypatch, tmp_path):
    # every benchmark command line is parsed without argparse and prints
    # what it prints when argparse parses it
    def no_argparse():
        raise AssertionError("argparse ran")

    for i, (_, argv) in enumerate(_battery_lines()):
        for out in ([], ["-o", str(tmp_path / f"plain{i}.json")]):
            with monkeypatch.context() as patched:
                patched.setattr(solvloop.cli, "build_parser", no_argparse)
                plain = (main(argv + out), capsys.readouterr().out, out and Path(out[1]).read_text())
            with monkeypatch.context() as patched:
                patched.setattr(solvloop.cli, "_plain_args", lambda argv: None)
                parsed = (main(argv + out), capsys.readouterr().out, out and Path(out[1]).read_text())
            assert plain == parsed, argv + out


def test_benchmark_lines_keep_their_recorded_verdicts(capsys):
    # the benchmark's correctness gate, run in process: every command line
    # exits, and rates each of its checks, as perfbench/expected.json records
    check_statuses = _perfbench().check_statuses
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["commands"]
    for template, argv in _battery_lines():
        code = main(argv)
        got = {"exit": code, "checks": check_statuses(capsys.readouterr().out)}
        assert got == expected[template], argv


def test_an_unwritable_report_path_names_out(capsys, tmp_path):
    for path, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main(["verify-group", "--a", "2", "--samples", "5", "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: [Errno ") and reason in err and err.count("\n") == 1, err


def test_parser_errors_name_the_command_argument(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")
    assert main(["nonsense-command"]) == 2
    assert "error: argument command: invalid choice: 'nonsense-command'" in capsys.readouterr().err


def test_import_loads_neither_dataclasses_nor_numpy_random():
    # dataclass code generation and numpy.random would each cost every
    # invocation milliseconds before its command starts
    src = str(Path(solvloop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, solvloop.cli; print('dataclasses' in sys.modules, 'numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["False", "False"], proc.stderr


PACKAGE_NAMES = [
    "group_suite", "theorem2_suite", "classify_suite", "fixed_point_suite", "generation_suite",
    "lemma1_suite", "loop_suite", "sharp_transitivity_check", "main", "GroupParam", "GroupElement",
    "LoopPoint", "FunctionSpec", "SectionSpec", "PRESETS", "VerificationReport",
]


def test_package_exports_the_suites_and_their_types():
    # `import solvloop` gives the suites, main and the types the suites take
    # or return; every README subcommand row names its suite's module
    root = Path(solvloop.__file__).resolve().parent.parent.parent
    rows = re.findall(r"^\| `[a-z0-9-]+` +\| `(\w+)\.(\w+)` +\|$", (root / "README.md").read_text(), re.M)
    assert len(rows) == len(COMMANDS)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    script = (
        "import json, sys, types, solvloop\n"
        "names = [n for n, v in vars(solvloop).items() if n[0] != '_' and not isinstance(v, types.ModuleType)]\n"
        "same = [getattr(getattr(solvloop, m), s) is getattr(solvloop, s) for m, s in json.loads(sys.argv[1])]\n"
        "print(json.dumps([sorted(names), hasattr(solvloop, '__version__'), same]))"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(rows)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, version, same = json.loads(proc.stdout)
    assert (names, version) == (sorted(PACKAGE_NAMES), True)
    assert same == [True] * len(rows), rows


def test_command_table_matches_parser(capsys):
    # the echoed config keys are exactly the subcommand's dests but out and
    # timing, in --help order (a section function as fn, or as preset and
    # coeff), and every subcommand's help renders
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices
    assert list(subparsers) == list(COMMANDS)
    for name, command in COMMANDS.items():
        dests = [
            action.dest for action in subparsers[name]._actions
            if action.dest not in ("help", "out", "timing")
        ]
        echoed = set()
        for preset in (None, "zero"):
            args = argparse.Namespace(**{**dict.fromkeys(dests), "preset": preset})
            keys = list(_config(args, command))
            assert keys == [d for d in dests if d in keys], name
            echoed.update(keys)
        assert echoed == set(dests), name
        assert main([name, "--help"]) == 0
    capsys.readouterr()


def test_library_suites_match_cli(tmp_path):
    from solvloop.group import GroupElement, GroupParam
    from solvloop.loops import loop_suite
    from solvloop.multgroup import group_suite, theorem2_suite
    from solvloop.sections import (
        FunctionSpec, SectionSpec, generation_suite, lemma1_member, lemma1_suite,
        sharp_transitivity_check,
    )
    from solvloop.subgroups import classify_suite, fixed_point_suite

    def spec(case, preset):
        fn = FunctionSpec.preset(preset, 2 if case == "A" else 3)
        return SectionSpec(case, GroupParam(2.0), fn)

    section = ["--a", "2", "--preset"]
    pairs = [
        (["verify-group", "--a", "2", "--samples", "40", "--seed", "3"],
         group_suite(GroupParam(2.0), 40, 3)),
        (["classify", "--a", "2", "--b1", "1.5", "--b2", "0.5", "--b3", "-2"],
         classify_suite(GroupParam(2.0), 1.5, 0.5, -2.0)),
        (["loop-check", "--case", "B", *section, "lemma1", "--samples", "20", "--seed", "1"],
         loop_suite(spec("B", "lemma1"), 20, 1, None)),
        (["generation", "--case", "C", *section, "sin-small"],
         generation_suite(spec("C", "sin-small"), 200)),
        (["transitivity", "--case", "C", *section, "sin-small", "--samples", "10"],
         sharp_transitivity_check(spec("C", "sin-small"), n_samples=10)),
        (["theorem2", "--a", "2", "--seed", "2"], theorem2_suite(GroupParam(2.0))),
        (["lemma1", "--K", "2"],
         lemma1_suite(lemma1_member(2.0, 1.0)[0], 1.0, (-3.0, 3.0), 50, coefficient=2.0)),
        (["fixed-point", "--a", "2", "--g", "1", "-2", "0.5", "1.5"],
         fixed_point_suite(GroupParam(2.0), GroupElement(1.0, -2.0, 0.5, 1.5))),
    ]
    assert {argv[0] for argv, _ in pairs} == set(COMMANDS)
    for argv, report in pairs:
        code, path = run_to_file(tmp_path, f"{argv[0]}.json", argv)
        cli = [(c["name"], c["status"], c["max_error"]) for c in json.loads(path.read_text())["checks"]]
        lib = [(c.name, c.status, c.max_error) for c in report.checks]
        assert cli == lib, argv[0]
        assert code == (1 if report.status == "fail" else 0)


_GROUP_ROWS = [(name, 400) for name in (
    "product-matrix-oracle", "two-sided-inverse", "associativity",
    "bracket-commutator-oracle", "jacobi",
)]
_AXIOM_ROWS = [(name, 500) for name in (
    "identity-laws", "ldiv-round-trip", "rdiv-round-trip", "z-additivity",
)]


@pytest.mark.parametrize("argv, rows", [
    # exp-one-parameter draws n // 10 rows; exp-lands-in-subgroup takes 9
    # times per defined subgroup (H1 to H4, or H1 and H4 at a = 1)
    ("verify-group --a 2", _GROUP_ROWS + [
        ("exp-one-parameter", 40), ("exp-lands-in-subgroup", 36), ("center-trivial", 16),
    ]),
    ("verify-group --a 1", _GROUP_ROWS + [
        ("exp-one-parameter", 40), ("exp-lands-in-subgroup", 18), ("center-trivial", 16),
    ]),
    ("classify --a 2 --b1 1.5 --b2 0.5 --b3 -2",
     [("canonical-collinearity", 1), ("automorphism-preserves-brackets", 16)]),
    ("classify --a 2 --b1 0 --b2 1 --b3 0", [("classification", 1)]),
    ("loop-check --case B --a 2 --preset lemma1",
     _AXIOM_ROWS + [("coset-cross-check", 300), ("generation", 400)]),
    ("loop-check --case A --a 2 --preset zero",
     _AXIOM_ROWS + [("coset-cross-check", 300), ("generation", 400)]),
    ("generation --case C --a 2 --preset sin-small", [("generates", 400)]),
    ("transitivity --case C --a 2 --preset sin-small", [("unique-root", 100)]),
    ("transitivity --case A --a 2 --preset zero", [("unique-root", 0)]),
    # four brackets [e_k, h] per normalizer; the contradiction reads the
    # other checks
    ("theorem2 --a 2", [
        ("normalizer-is-commutator-slab-H1", 4), ("normalizer-is-commutator-slab-H2", 4),
        ("normalizer-is-commutator-slab-H3", 4), ("center-trivial", 16),
        ("contradiction", 4),
    ]),
    ("lemma1 --K 2", [("profile-fit", 50), ("pair-identity", 2500), ("coefficient-recovery", 50)]),
    ("fixed-point --a 2 --g 1 2 3 0.5", [("fixed-coset", 1)]),
])
def test_n_samples_at_cli_defaults(tmp_path, argv, rows):
    # every check's row count at the default --samples, so a wrong count in
    # VerificationReport.bound fails here and not only in a report
    code, path = run_to_file(tmp_path, "report.json", argv.split())
    assert code == 0
    checks = json.loads(path.read_text())["checks"]
    assert [(c["name"], c["n_samples"]) for c in checks] == rows


def test_fn_errors_are_usage_errors_naming_fn(capsys):
    # (-8)^(1/3) is a negative base to a fractional power; a syntax error
    # and a base-point violation are the expression's fault too
    cases = [
        ["transitivity", "--case", "C", "--a", "2", "--fn", "(-8)^(1/3)*x"],
        ["transitivity", "--case", "C", "--a", "2", "--fn", "(-8)^0.5*x"],
        ["lemma1", "--fn", "(-8)^(1/3)*z"],
        ["transitivity", "--case", "C", "--a", "2", "--fn", "x+"],
        ["lemma1", "--fn", "z+"],
        ["generation", "--case", "A", "--a", "2", "--fn", "x+1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: --fn: ") and "Traceback" not in err, argv


@pytest.mark.parametrize("command", ["generation", "loop-check"])
def test_section_errors_at_a_sampled_point_name_fn_and_the_point(capsys, command):
    # the degeneracy grid reaches y = 5 exactly, where the division guard fires
    assert main([command, "--case", "C", "--a", "2", "--fn", "x/(y-5)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --fn: x/(y-5): division by (near-)zero denominator"
        " at (x, y, z) = (-5.0, 5.0, 0.0)\n"
    )


def test_box_too_wide_for_floats_is_a_usage_error(capsys):
    # HI - LO overflows: the window, not the section function, is at fault
    argv = ["transitivity", "--case", "C", "--a", "2", "--preset", "sin-small",
            "--box", "-1e308", "1e308", "--samples", "5"]
    assert main(argv) == 2
    assert "--box" in capsys.readouterr().err


# The implicit-expr benchmark battery: right division and root counting
# with parsed section functions.
IMPLICIT_EXPR = [
    "loop-check --case B --a 2 --fn 1-exp(-z)",
    "loop-check --case C --a 2 --fn 0.1*sin(x)",
    "loop-check --case C --a 0.5 --fn x*z",
    "transitivity --case B --a 2 --fn 1-exp(-z)",
    "transitivity --case B --a -1 --fn 0.1*sin(x)",
    "transitivity --case C --a 2 --fn 0.1*sin(x)",
    "transitivity --case C --a 2 --fn 6*sin(x)",
]


# Its implicit-preset twin: the same functions as presets.
IMPLICIT_PRESET = [
    "loop-check --case B --a 2 --preset lemma1",
    "loop-check --case C --a 2 --preset sin-small",
    "loop-check --case C --a 0.5 --preset bilinear",
    "transitivity --case B --a 2 --preset lemma1",
    "transitivity --case B --a -1 --preset sin-small",
    "transitivity --case C --a 2 --preset sin-small",
    "transitivity --case C --a 2 --preset sin-small --coeff 6",
]


# sha256 of what the root solver decided in the reports of IMPLICIT_EXPR +
# IMPLICIT_PRESET, in order: exit codes, check statuses and root counts, as
# the grid scans (10,000 cells a transitivity sample, 2,048 a right
# division) decided them.  No float enters, so the digests do not depend on
# the last bits of the platform's exp or sin.
GRID_SCAN_DIGESTS = {
    0: "af3d6817e00fb70acc6b718372c50cc173b59e931712ba52ea335e3ff461b8b5",
    7919: "02b13a44e1f4dbc66e339f780917bc92d2957b13ccbbff008a3416b38616743c",
}


@pytest.mark.parametrize("seed", [0, 7919])
def test_enclosure_pruning_changes_no_report(capsys, seed):
    # the interval proof of the root counts decides what the grid scans did
    outcomes = []
    for command in IMPLICIT_EXPR + IMPLICIT_PRESET:
        code = main(command.split() + ["--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        checks = [[check["name"], check["status"]] for check in report["checks"]]
        outcomes.append([code, checks, report["data"].get("root_counts")])
    assert [code for code, _, _ in outcomes] == ([0] * 6 + [1]) * 2
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == GRID_SCAN_DIGESTS[seed]


def test_enclosure_pruning_evaluates_few_section_points(capsys, monkeypatch):
    # the grid scan evaluated 100 samples of 10,001 nodes without pruning;
    # the proof only encloses: it evaluates the line residual over u at no point
    points = []
    evaluate = solvloop.expressions.evaluate

    def counted(tree, env):
        if "u" in env:
            points.append(np.size(env["u"]))
        return evaluate(tree, env)

    monkeypatch.setattr(solvloop.expressions, "evaluate", counted)
    for section in (["--fn", "0.1*sin(x)"], ["--preset", "sin-small"]):
        points.clear()
        assert main(["transitivity", "--case", "C", "--a", "2", *section]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert sum(points) == 0, section


def test_enclosure_pruning_encloses_few_boxes(capsys, monkeypatch):
    # the grid scan enclosed 15,700 chunks, or 1,600 boxes coarse to fine;
    # the proof encloses each sample's residual on one box and its midpoint
    # and its Newton operator on the box
    boxes = []
    enclose = solvloop.expressions.enclose

    def counted(tree, env):
        boxes.append(np.size(env["u"][0]))
        return enclose(tree, env)

    monkeypatch.setattr(solvloop.expressions, "enclose", counted)
    assert main(["transitivity", "--case", "C", "--a", "2", "--fn", "0.1*sin(x)"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert 0 < sum(boxes) <= 400


# sha256 of what each command decided: exit code, each check's name,
# status, sample count and notes, root counts and division errors, with no
# float in it; recorded before boxes were cut in more than two pieces and
# rows retired on a midpoint without a finite enclosure; the sqrt(y) digest
# since those rows' errors read "no finite enclosure near u = ...".
@pytest.mark.parametrize(
    "command,rounds,digest",
    [
        # 9 rounds when every box was halved
        ("transitivity --case C --a 2 --preset sin-small --coeff 6 --seed 0", 4,
         "5d181809bdeceaac4eb030423f1e25386afe4cb89f6344c073565f1d11278f63"),
        # 23 rounds when every box was halved
        ("transitivity --case C --a 2 --fn -3*exp(-1e10*(x-1)^2)", 9,
         "c573f286927483f915d57d178008676d4c627e9aef4319bc44eeb3d73f9fd3b7"),
        # 41 rounds: the 258 rows with sqrt of a negative value spent their budgets
        ("loop-check --case C --a 2 --fn 0.1*sqrt(y) --seed 0", 1,
         "2db966fb034d6467ec6224e02021c0a71e9e4fc6ba22ca9dd92cedf097782e9e"),
    ],
)
def test_root_proofs_take_few_rounds(capsys, monkeypatch, command, rounds, digest):
    # a round of the proof costs about the same on 10 boxes as on 3,000, so
    # the rounds are its work: _sort_boxes runs once a round at these sizes
    calls = []
    sort_boxes = solvloop.numerics._sort_boxes

    def counted(*args):
        calls.append(len(args[3]))
        return sort_boxes(*args)

    monkeypatch.setattr(solvloop.numerics, "_sort_boxes", counted)
    code = main(command.split())
    report = json.loads(capsys.readouterr().out)
    decided = [code, [[c["name"], c["status"], c["n_samples"], c["notes"]] for c in report["checks"]],
               report["data"].get("root_counts"), report["data"].get("division_errors")]
    assert hashlib.sha256(json.dumps(decided).encode()).hexdigest() == digest
    assert len(calls) <= rounds and max(calls) <= solvloop.numerics.BLOCK_POINTS


def test_transitivity_has_no_resolution_flag(capsys):
    # the root counts are proved, with no grid for a resolution to choose
    argv = ["transitivity", "--case", "C", "--a", "2", "--preset", "sin-small", "--resolution", "100"]
    assert main(argv) == 2
    assert "unrecognized arguments: --resolution 100" in capsys.readouterr().err


def _transitivity(capsys, *argv):
    code = main(["transitivity", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_a_narrow_bump_is_not_sharply_transitive(capsys):
    # the residual's dip is about 1e-5 wide: the default grid scan saw no
    # extra sign change and passed; the proof finds two more roots on seven
    # samples, and the steep roots of samples 2, 84 and 85, which a 10^6
    # cell scan called poles, are counted roots
    code, report = _transitivity(capsys, "--case", "C", "--a", "2", "--fn", "-3*exp(-1e10*(x-1)^2)")
    assert code == 1
    counts = report["data"]["root_counts"]
    three = [2, 9, 81, 82, 84, 85, 99]
    assert [i for i, c in enumerate(counts) if c != 1] == three
    assert {counts[i] for i in three} == {3}
    assert "failures" not in report["data"]


def test_coeff_6_refutation_keeps_its_counts(capsys):
    for section in (["--fn", "6*sin(x)"], ["--preset", "sin-small", "--coeff", "6"]):
        code, report = _transitivity(capsys, "--case", "C", "--a", "2", *section)
        assert code == 1
        counts = report["data"]["root_counts"]
        found = {c: [i for i, n in enumerate(counts) if n == c] for c in (3, 4, 5)}
        assert found == {
            3: [0, 7, 10, 14, 27, 31, 35, 45, 55, 57, 60, 66, 67], 4: [32, 56, 85], 5: [89]
        }
        assert counts.count(1) == 83


@pytest.mark.parametrize("case", ["B", "C"])
@pytest.mark.parametrize("fn", ["0.1*x/(x-1.5)", "sqrt(x)"])
def test_poles_and_nan_sections_fail_as_unresolved(capsys, case, fn):
    # no box across a pole or into the NaN half-plane is excluded or decided:
    # a row fails where a box midpoint next to the pole or in the NaN
    # half-plane has no finite enclosure, or else when it spends its budget
    code, report = _transitivity(capsys, "--case", case, "--a", "2", "--fn", fn)
    assert code == 1
    assert report["checks"][0]["status"] == "fail"
    failures = report["data"]["failures"]
    dead = r"sample \d+: unresolved: no finite enclosure near u = \S+"
    spent = r"sample \d+: unresolved: no exclusion or monotonicity proof near u = \S+ after \d+ boxes"
    assert failures and all(re.fullmatch(dead, f) or re.fullmatch(spent, f) for f in failures)
    if fn == "sqrt(x)":  # the window of every failed row starts in the NaN half-plane
        assert all(re.fullmatch(dead, f) for f in failures)
    counts = report["data"]["root_counts"]
    assert counts.count(-1) == len(failures) and set(counts) <= {-1, 1}


def test_a_fractional_power_of_a_negative_sample_names_fn_and_the_point(capsys):
    # lemma1 evaluates its profile on an array; ^ raises there as it does
    # on a float, at the first negative sample
    assert main(["lemma1", "--fn", "z^0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --fn: negative base to a fractional power at z = -3.0\n"
