"""Benchmark regression tracking: artifact parsing, compare, history."""

from __future__ import annotations

import json

import pytest

from repro.sweep import (
    BenchmarkTracker,
    SweepError,
    compare_rows,
    load_benchmark_rows,
)


def _artifact(path, means: dict[str, float], commit: str = "deadbee") -> str:
    document = {
        "commit_info": {"id": commit},
        "benchmarks": [
            {
                "fullname": name,
                "group": "micro",
                "stats": {"mean": mean, "min": mean * 0.9, "stddev": 0.0, "rounds": 3},
            }
            for name, mean in means.items()
        ],
    }
    path.write_text(json.dumps(document))
    return str(path)


def test_load_benchmark_rows(tmp_path):
    path = _artifact(tmp_path / "bench.json", {"t/a": 0.5, "t/b": 0.1})
    rows = load_benchmark_rows(path)
    assert rows["t/a"]["mean"] == 0.5
    assert rows["t/b"]["rounds"] == 3
    with pytest.raises(SweepError):
        load_benchmark_rows(tmp_path / "missing.json")


def test_compare_rows_flags_only_regressions_beyond_threshold():
    baseline = {"t/a": {"mean": 1.0}, "t/b": {"mean": 1.0}, "t/gone": {"mean": 1.0}}
    current = {"t/a": {"mean": 1.29}, "t/b": {"mean": 1.31}, "t/new": {"mean": 9.9}}
    comparison = compare_rows(baseline, current, max_slowdown=1.3)
    assert [r.name for r in comparison.regressions] == ["t/b"]
    assert comparison.regressions[0].ratio == pytest.approx(1.31)
    assert not comparison.ok
    assert comparison.compared == 2
    assert comparison.added == ["t/new"]
    assert comparison.removed == ["t/gone"]
    assert "REGRESSION" in comparison.summary()


def test_compare_rows_ok_when_fast_or_equal():
    baseline = {"t/a": {"mean": 1.0}}
    current = {"t/a": {"mean": 0.5}}
    assert compare_rows(baseline, current).ok


def test_tracker_records_runs_and_compares_latest(tmp_path):
    tracker = BenchmarkTracker(tmp_path / "track")
    tracker.record(
        _artifact(tmp_path / "one.json", {"t/a": 1.0, "t/b": 2.0}), commit="c1"
    )
    assert tracker.compare_latest() is None  # single run: nothing to compare

    tracker.record(
        _artifact(tmp_path / "two.json", {"t/a": 1.5, "t/b": 2.0}), commit="c2"
    )
    comparison = tracker.compare_latest(max_slowdown=1.3)
    assert [r.name for r in comparison.regressions] == ["t/a"]
    assert [run["commit"] for run in tracker.runs()] == ["c1", "c2"]

    # Re-recording the same commit replaces its entry instead of duplicating.
    tracker.record(
        _artifact(tmp_path / "two.json", {"t/a": 1.0, "t/b": 2.0}), commit="c2"
    )
    assert [run["commit"] for run in tracker.runs()] == ["c1", "c2"]
    assert tracker.compare_latest(max_slowdown=1.3).ok


def test_tracker_rejects_empty_artifact(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"benchmarks": []}))
    with pytest.raises(SweepError):
        BenchmarkTracker(tmp_path / "track").record(path, commit="c1")


def test_tracker_run_entries_are_per_commit_keys(tmp_path):
    """Concurrent recorders must not lose each other's runs: each run is
    its own storage key, not a slot in a shared read-modify-write index."""
    tracker = BenchmarkTracker(tmp_path / "track")
    # Simulate two racing recorders that both read an empty history first.
    racer_a = BenchmarkTracker(tmp_path / "track")
    racer_b = BenchmarkTracker(tmp_path / "track")
    racer_a.record(_artifact(tmp_path / "a.json", {"t/a": 1.0}), commit="race-a")
    racer_b.record(_artifact(tmp_path / "b.json", {"t/a": 1.1}), commit="race-b")
    assert [run["commit"] for run in tracker.runs()] == ["race-a", "race-b"]
    assert tracker.storage.list_keys("runs/") == [
        "runs/race-a.json",
        "runs/race-b.json",
    ]

