"""Exit codes, report files and determinism of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solvloop
from solvloop.cli import COMMANDS, build_parser, main


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
        (["transitivity", *section, "--resolution", "1"], "--resolution", "must be at least 2"),
        (["generation", *section, "--samples", "49"], "--samples", "must be at least 50"),
        (["lemma1", "--K", "1", "--samples", "1"], "--samples", "must be at least 2"),
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
    for argv, flag, message in bad:
        assert main(argv) == 2, argv
        assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_errors_never_crash_or_pass(capsys):
    # NaN products and overflowing profiles: the checks fail, and the report,
    # whose data still holds the non-finite values, is refused with a one-line
    # error instead of a traceback
    for argv in (
        ["loop-check", "--case", "A", "--a", "2", "--fn", "sqrt(x)", "--samples", "20"],
        ["lemma1", "--fn", "exp(1000*z)"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "error: report not written: non-finite float in report"
    assert main(["lemma1", "--K", "1", "--rate", "nan"]) == 2
    assert "argument --rate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_names_float_parameters(capsys):
    cases = [
        (["verify-group", "--a", "1e308"], "--a 1e+308"),
        (["theorem2", "--a", "700"], "--a 700"),
        (["loop-check", "--case", "A", "--a", "2", "--preset", "zero", "--z-box", "400"],
         "--a 2, --z-box 400"),
        (["fixed-point", "--a", "1e308", "--g", "1", "1", "1", "1"], "--a 1e+308, --g 1 1 1 1"),
    ]
    for argv, named in cases:
        assert main(argv) == 2, argv
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: math range error: overflow with {named}"


def test_preset_choices_follow_presets(capsys):
    from solvloop.sections import PRESETS

    for name in PRESETS:
        argv = ["generation", "--case", "A", "--a", "2", "--preset", name]
        assert main(argv + ["-o", "-"]) in (0, 1)
    assert main(["generation", "--case", "A", "--a", "2", "--preset", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", (28, 32, 79, 1177813520))
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
    data = json.loads(path.read_text())["data"]
    assert data["class"] == "H2"
    assert data["automorphism"]["k1"] == 3
    assert data["scale"] == 1.5


def test_classify_inadmissible_direction(tmp_path):
    code, path = run_to_file(
        tmp_path, "cls2.json",
        ["classify", "--a", "2", "--b1", "0", "--b2", "1", "--b3", "0"],
    )
    assert code == 0
    assert json.loads(path.read_text())["data"]["class"] == "NormalInadmissible"


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
    code, path = run_to_file(
        tmp_path, "t2.json", ["theorem2", "--a", "0.5", "--samples", "80"]
    )
    assert code == 0
    cert = json.loads(path.read_text())["data"]["certificate"]
    assert cert["contradiction"] is True
    assert len(cert["records"]) == 3


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

def test_command_table_matches_parser(capsys):
    # every echoed config key is an argument of its subcommand, and every
    # subcommand's help renders
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices
    assert list(subparsers) == list(COMMANDS)
    for name, command in COMMANDS.items():
        dests = {action.dest for action in subparsers[name]._actions}
        assert set(command.config) <= dests, name
        assert main([name, "--help"]) == 0
    capsys.readouterr()


def test_library_suites_match_cli(tmp_path):
    from solvloop.group import GroupElement, GroupParam
    from solvloop.loops import LoopCase, loop_suite
    from solvloop.multgroup import group_suite, theorem2_suite
    from solvloop.sections import (
        FunctionSpec, SectionSpec, generation_suite, lemma1_suite, sharp_transitivity_check,
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
         loop_suite(LoopCase(spec("B", "lemma1")), 20, 1, None)),
        (["generation", "--case", "C", *section, "sin-small"],
         generation_suite(spec("C", "sin-small"), 200)),
        (["transitivity", "--case", "C", *section, "sin-small", "--samples", "10"],
         sharp_transitivity_check(spec("C", "sin-small"), n_samples=10)),
        (["theorem2", "--a", "2", "--samples", "60", "--seed", "2"],
         theorem2_suite(GroupParam(2.0), 60, 2)),
        (["lemma1", "--K", "2"],
         lemma1_suite(lambda z: 2.0 * -np.expm1(-z), 1.0, (-3.0, 3.0), 50, coefficient=2.0)),
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
