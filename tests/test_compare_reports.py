"""tools/compare_reports.py's comparison of two runs of one command line, on fixed reports."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _run(code: int = 0, status: str = "pass", checks=(), data=None) -> dict:
    """A run {"code", "out"} whose output is a report with checks given as (name, status, max_error, notes)."""
    report = {"status": status, "checks": [
        {"name": n, "status": s, "max_error": e, "n_samples": 10, "notes": t} for n, s, e, t in checks
    ], "data": data or {}}
    return {"code": code, "out": json.dumps(report, indent=2) + "\n"}


def test_identical_runs_have_no_differences():
    run = _run(checks=[("a", "pass", 1e-15, "")])
    assert compare_reports.differences(run, dict(run)) == ([], False)


def test_digits_of_a_max_error_are_no_change_of_status():
    parent = _run(checks=[("a", "pass", 1.69e-12, ""), ("b", "pass", 0.0, "")])
    change = _run(checks=[("a", "pass", 1.6e-15, ""), ("b", "pass", 0.0, "")])
    assert compare_reports.differences(parent, change) == (["a: max_error 1.69e-12 -> 1.6e-15"], False)


def test_a_status_or_an_exit_code_that_moves_is_a_change():
    parent = _run(checks=[("a", "pass", 0.0, ""), ("b", "pass", 0.0, "x")])
    change = _run(code=1, status="fail", checks=[("a", "fail", 2.0, ""), ("b", "pass", 0.0, "y")])
    assert compare_reports.differences(parent, change) == ([
        "exit code 0 -> 1", "status pass -> fail", "a: status pass -> fail; max_error 0.0 -> 2.0", "b: notes differ",
    ], True)


def test_a_check_on_one_side_only_changes_a_status():
    parent = _run(checks=[("a", "pass", 0.0, "")])
    change = _run(checks=[("a", "pass", 0.0, ""), ("b", "warn", 0.0, "")])
    assert compare_reports.differences(parent, change) == (["b: only in the change"], True)
    assert compare_reports.differences(change, parent) == (["b: only in the parent"], True)


def test_bytes_outside_the_checks_and_output_that_is_not_json():
    parent, change = _run(data={"errors": ["after 104 boxes"]}), _run(data={"errors": ["no finite enclosure"]})
    assert compare_reports.differences(parent, change) == (["report differs outside its checks"], False)
    usage = {"code": 2, "out": ""}
    assert compare_reports.differences(usage, {"code": 2, "out": "x"}) == (["output differs"], False)
    assert compare_reports.differences(usage, {"code": 0, "out": ""}) == (["exit code 2 -> 0"], True)


def test_the_sweep_has_160_lines_at_seed_0():
    lines = compare_reports.sweep_lines()
    assert len(lines) == len(set(lines)) == 160
    assert lines[0] == "loop-check --case B --a 2 --fn='x*y' --seed 0"
    assert "transitivity --case C --a -1 --fn='-3*exp(-1e10*(x-1)^2)' --seed 0" in lines


def test_the_case_a_sweep_reads_no_y():
    lines = compare_reports.case_a_lines()
    assert len(lines) == len(set(lines)) == 56
    assert lines[0] == "loop-check --case A --a 2 --fn='x^3' --seed 0"
    assert "generation --case A --a -1 --fn='0.5*x^2' --seed 0" in lines
    assert not any("y" in line.split("--fn=")[1] for line in lines)
