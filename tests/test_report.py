"""Report assembly and the deterministic JSON renderer."""

import json
import math

import numpy as np
import pytest

import solvloop.report as rp


def small_run_report(wall=None):
    checks = [
        rp.Check(name="alpha", status="pass", max_error=0.1, n_samples=10, notes=""),
        rp.Check(name="beta", status="fail", max_error=2.0, n_samples=5, notes="x"),
    ]
    return rp.VerificationReport(
        command="unit-test",
        config={"a": 2.0, "flag": True, "n": 3, "label": "s"},
        checks=checks,
        seed=7,
        data={"values": [1.0, 0.1, -2.5]},
        wall_time_s=wall,
    )


# ---------------------------------------------------------------- statuses

def test_verification_report_status_aggregation():
    r = rp.VerificationReport(seed=0)
    r.record("one", True, max_error=0.0)
    assert r.status == "pass"
    r.record("two", False, max_error=1.0, warn_only=True)
    assert r.status == "warn"
    r.record("three", False, max_error=1.0)
    assert r.status == "fail"


def test_record_stores_fields():
    r = rp.VerificationReport(seed=3)
    r.record("name", True, max_error=1e-5, n_samples=42, notes="hello")
    c = r.checks[0]
    assert (c.name, c.status, c.max_error, c.n_samples, c.notes) == (
        "name", "pass", 1e-5, 42, "hello",
    )


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("warn_only", (False, True))
def test_record_fails_non_finite_max_error(bad, warn_only):
    # a check whose error could not be measured neither passes nor warns
    r = rp.VerificationReport(seed=0)
    c = r.record("k", True, max_error=bad, n_samples=3, notes="before", warn_only=warn_only)
    assert c.status == "fail" and r.status == "fail"
    assert c.max_error is None
    assert c.notes == f"before; non-finite max_error {bad!r}"
    rp.render_json(r.to_dict())  # the check itself stays renderable


def test_bound_fails_a_nan_row_and_names_it():
    r = rp.VerificationReport(seed=0)
    c = r.bound("k", np.array([0.0, math.nan, 1e-20]), 1e-12, notes="before")
    assert (c.status, c.max_error, c.n_samples) == ("fail", None, 3)
    assert c.notes == "before; non-finite max_error inf"


def test_bound_counts_a_float_as_one_row():
    c = rp.VerificationReport(seed=0).bound("k", 1e-13, 1e-12)
    assert (c.status, c.max_error, c.n_samples) == ("pass", 1e-13, 1)
    c = rp.VerificationReport(seed=0).bound("k", 2e-12, 1e-12)
    assert (c.status, c.max_error, c.n_samples) == ("fail", 2e-12, 1)


def test_bound_counts_every_row_of_a_list_of_columns():
    columns = [np.full(9, 1e-15), np.array([0.0] * 8 + [3e-15]), np.zeros(9)]
    c = rp.VerificationReport(seed=0).bound("k", columns, 1e-9)
    assert (c.status, c.max_error, c.n_samples) == ("pass", 3e-15, 27)


def test_bound_passes_exact_zeros_at_tolerance_zero():
    c = rp.VerificationReport(seed=0).bound("k", np.zeros(5), 0.0)
    assert (c.status, c.max_error, c.n_samples) == ("pass", 0.0, 5)
    c = rp.VerificationReport(seed=0).bound("k", np.array([0.0, 5e-324]), 0.0)
    assert c.status == "fail"


def test_bound_fails_without_rows():
    # a check that measured nothing has not met its bound
    c = rp.VerificationReport(seed=0).bound("k", np.zeros(0), 1.0)
    assert (c.status, c.max_error, c.n_samples) == ("fail", 0.0, 0)


def test_non_finite_data_written_as_null_and_named():
    r = rp.VerificationReport(seed=0)
    r.data = {"fit": {"k": math.nan, "ok": 1.5}, "values": (1.0, -math.inf), "n": 3}
    out = json.loads(rp.render_json(r.to_dict()))
    assert out["data"] == {
        "fit": {"k": None, "ok": 1.5},
        "values": [1.0, None],
        "n": 3,
        "non_finite": ["data.fit.k = nan", "data.values[1] = -inf"],
    }
    assert r.data["fit"]["k"] is not None  # the report itself is left as it was
    assert "non_finite" not in small_run_report().to_dict()["data"]


def test_records_in_data_are_not_written_as_lists():
    # GroupElement is a tuple subclass; written as a list, its field names
    # would be lost without a word
    from solvloop.group import GroupElement

    r = rp.VerificationReport(seed=0)
    r.data = {"g": GroupElement(1.0, 2.0, 3.0, 4.0)}
    with pytest.raises(TypeError, match="cannot serialize GroupElement"):
        rp.render_json(r.to_dict())


# ---------------------------------------------------------------- rendering

def test_render_is_valid_json_with_schema_keys():
    text = rp.render_json(small_run_report().to_dict())
    obj = json.loads(text)
    assert list(obj) == [
        "schema", "command", "status", "config", "seed", "rng",
        "checks", "data", "wall_time_s",
    ]
    assert obj["schema"] == rp.SCHEMA_VERSION
    assert obj["rng"] == "PCG64"
    assert obj["status"] == "fail"
    assert obj["wall_time_s"] is None


def test_render_float_has_17_significant_digits():
    # each float is written as the shortest repr that round-trips, so 0.1
    # stays 0.1 and 1.0 parses back as a float, not an int
    text = rp.render_json({"v": 0.1, "w": 1.0})
    assert text == '{\n  "v": 0.1,\n  "w": 1.0\n}\n'
    assert isinstance(json.loads(text)["w"], float)


def test_render_preserves_insertion_order():
    text = rp.render_json({"zebra": 1, "apple": 2})
    assert text.index("zebra") < text.index("apple")


def test_render_bools_not_ints():
    text = rp.render_json({"flag": True, "n": 1})
    assert '"flag": true' in text


def test_render_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        rp.render_json({"v": math.nan})
    with pytest.raises(ValueError):
        rp.render_json({"v": math.inf})


def test_render_byte_identical_across_calls():
    a = rp.render_json(small_run_report().to_dict())
    b = rp.render_json(small_run_report().to_dict())
    assert a == b


def test_round_trip_floats_exact():
    values = [1.0, -2.5, 1e-300, 3.141592653589793, 2.2250738585072014e-308]
    text = rp.render_json({"v": values})
    back = json.loads(text)["v"]
    assert back == values


# ---------------------------------------------------------------- emission

def test_emit_report_to_file(tmp_path):
    path = tmp_path / "out.json"
    rp.emit_report(small_run_report(), str(path))
    obj = json.loads(path.read_text())
    assert obj["command"] == "unit-test"


def test_emit_report_to_stdout(capsys):
    rp.emit_report(small_run_report(), "-")
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "unit-test"


def test_wall_time_recorded_when_given():
    obj = json.loads(rp.render_json(small_run_report(wall=1.25).to_dict()))
    assert obj["wall_time_s"] == 1.25
