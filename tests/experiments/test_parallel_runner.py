"""The parallel experiment engine: ordering, determinism, error handling."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments import run_ablation, run_figure1, run_parallel, run_scaling
from repro.experiments.runner import ParallelJob, execute_jobs, job


def _slow_failing_cell(message, delay):
    time.sleep(delay)
    raise ValueError(message)


def _slow_touch_cell(directory, index, delay=0.2):
    time.sleep(delay)
    Path(directory, f"{index}.done").touch()
    return index


def _identity_cell(value):
    return value


def _square_cell(value, offset=0):
    return value * value + offset


def _failing_cell():
    raise ValueError("cell exploded")


def test_job_helper_builds_parallel_jobs():
    item = job(_square_cell, 3, offset=1)
    assert item == ParallelJob(_square_cell, (3,), {"offset": 1})
    assert item() == 10


def test_run_parallel_serial_preserves_order():
    jobs = [job(_identity_cell, i) for i in range(20)]
    assert run_parallel(jobs, workers=1) == list(range(20))


def test_run_parallel_pool_preserves_submission_order():
    jobs = [job(_square_cell, i) for i in range(25)]
    assert run_parallel(jobs, workers=4) == [i * i for i in range(25)]


def test_on_result_reports_every_job_once():
    jobs = [job(_square_cell, i) for i in range(8)]
    reported = []
    execute_jobs(
        jobs,
        workers=2,
        on_result=lambda index, result: reported.append((index, result)),
    )
    assert sorted(reported) == [(i, i * i) for i in range(8)]


def test_run_parallel_rejects_invalid_worker_count():
    with pytest.raises(ValueError):
        run_parallel([job(_identity_cell, 1)], workers=0)


def test_run_parallel_empty_jobs():
    assert run_parallel([], workers=1) == []
    assert run_parallel([], workers=4) == []


@pytest.mark.parametrize("workers", [1, 3])
def test_run_parallel_propagates_cell_exceptions(workers):
    jobs = [job(_identity_cell, 0), job(_failing_cell)]
    with pytest.raises(ValueError, match="cell exploded"):
        run_parallel(jobs, workers=workers)


def test_run_parallel_cancels_queued_jobs_on_first_failure(tmp_path):
    """A failing early cell must not leave the pool grinding through the
    rest of the sweep: queued jobs are cancelled, only the handful already
    in flight may complete."""
    jobs = [job(_failing_cell)] + [
        job(_slow_touch_cell, str(tmp_path), index) for index in range(30)
    ]
    with pytest.raises(ValueError, match="cell exploded"):
        run_parallel(jobs, workers=2)
    # Only the jobs already handed to a worker when the failure surfaced may
    # finish; the 20+ still queued must be cancelled.  (No wall-clock
    # assertion — shared CI runners make those flaky.)
    completed = len(list(tmp_path.glob("*.done")))
    assert completed < 15, f"{completed} queued jobs ran behind the failure"


def test_run_parallel_propagates_earliest_submitted_failure():
    jobs = [
        job(_failing_cell),
        job(_slow_failing_cell, "late failure", 0.3),
        job(_identity_cell, 1),
    ]
    with pytest.raises(ValueError, match="cell exploded"):
        run_parallel(jobs, workers=3)


# ----------------------------------------------------------------------
# Determinism of the migrated harnesses: a worker pool must produce
# row-for-row identical tables (timing columns aside, which are wall-clock).
# ----------------------------------------------------------------------
def _strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in ("runtime_us", "runtime_s")}
        for row in rows
    ]


def test_figure1_rows_identical_across_worker_counts():
    serial = run_figure1(workers=1)
    pooled = run_figure1(workers=4)
    assert serial.rows == pooled.rows
    assert serial.columns() == pooled.columns()


def test_ablation_rows_identical_across_worker_counts():
    serial = run_ablation(benchmarks=("autcor00",), workers=1)
    pooled = run_ablation(benchmarks=("autcor00",), workers=3)
    assert serial.rows == pooled.rows


def test_scaling_rows_identical_across_worker_counts():
    kwargs = dict(cluster_counts=(2, 4), algorithms=("ISEGEN", "Greedy"))
    serial = run_scaling(workers=1, **kwargs)
    pooled = run_scaling(workers=4, **kwargs)
    assert _strip_timing(serial.rows) == _strip_timing(pooled.rows)
