"""Exit codes, report files and determinism of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvloop
from solvloop.cli import main


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
    bad = [
        (["transitivity", "--case", "C", "--a", "2", "--preset", "zero", "--samples", "0"],
         "--samples"),
        (["loop-check", "--case", "A", "--a", "2", "--preset", "zero", "--samples", "-3"],
         "--samples"),
        (["transitivity", "--case", "C", "--a", "2", "--preset", "zero", "--resolution", "1"],
         "--resolution"),
    ]
    for argv, flag in bad:
        assert main(argv) == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


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
