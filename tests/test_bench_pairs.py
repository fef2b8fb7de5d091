"""tools/bench_pairs.py's summary of alternated benchmark pairs, on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(slowest: float, rss: float, correct: bool = True, failed: int = 0) -> dict:
    """A final JSON line of perfbench/run.py with two metrics."""
    return {
        "correct": correct, "attempted": 7, "failed": failed,
        "metrics": {"slowest_cmd_s": {"value": slowest, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }


def _pairs(parent: list, change: list) -> list:
    return [
        {"pair": i + 1, "first": "parent" if i % 2 == 0 else "change", "parent": p, "change": c}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_gives_inclusive_quartiles_and_the_pairs_the_change_wins():
    parent = [_run(s, 30.0) for s in (5.0, 7.0, 6.0, 8.0, 5.5)]
    change = [_run(s, r) for s, r in ((4.0, 30.0), (6.0, 29.0), (6.5, 31.0), (4.5, 30.0), (5.0, 29.5))]
    summary = bench_pairs.summarize(_pairs(parent, change))
    # sorted parent 5, 5.5, 6, 7, 8: inclusive quartiles at positions 1 and 3 of 0..4
    assert summary["slowest_cmd_s"] == {
        "parent": {"median": 6.0, "q1": 5.5, "q3": 7.0},
        "change": {"median": 5.0, "q1": 4.5, "q3": 6.0},
        "change_lower": "4/5",
    }
    # a tie is not lower
    assert summary["peak_rss_mb"]["change_lower"] == "2/5"
    assert summary["peak_rss_mb"]["parent"] == {"median": 30.0, "q1": 30.0, "q3": 30.0}
    assert summary["correct"] is True
    assert list(summary) == ["slowest_cmd_s", "peak_rss_mb", "correct"]


def test_summary_interpolates_between_samples():
    # four values 1, 2, 3, 10: inclusive q1 at position 0.75, q3 at 2.25
    parent = [_run(s, 30.0) for s in (10.0, 1.0, 3.0, 2.0)]
    summary = bench_pairs.summarize(_pairs(parent, parent))
    assert summary["slowest_cmd_s"]["parent"] == pytest.approx({"median": 2.5, "q1": 1.75, "q3": 4.75})
    assert summary["slowest_cmd_s"]["change_lower"] == "0/4"


def test_one_pair_has_its_value_as_every_quartile():
    summary = bench_pairs.summarize(_pairs([_run(5.0, 30.0)], [_run(4.0, 30.5)]))
    assert summary["slowest_cmd_s"]["change"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert summary["slowest_cmd_s"]["change_lower"] == "1/1"


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_a_failed_run_on_either_side_makes_the_summary_incorrect(bad):
    parent = [_run(5.0, 30.0), _run(5.0, 30.0)]
    change = [_run(4.0, 30.0), _run(4.0, 30.0, **bad)]
    assert bench_pairs.summarize(_pairs(parent, change))["correct"] is False
    assert bench_pairs.summarize(_pairs(change, parent))["correct"] is False
