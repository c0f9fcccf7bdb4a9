"""Property: the worker count is invisible in the results.

For any job list and any worker count, :func:`execute_jobs` returns
exactly what the serial loop returns, in submission order, and reports
every job to ``on_result`` exactly once.

The engine's submission and reassembly paths are exercised for real; only
process spin-up is swapped for threads via the ``pool_factory`` seam
(process-pool integration is covered at fixed worker counts in
``tests/experiments/test_parallel_runner.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import execute_jobs, job


def _cell(value: int) -> tuple:
    return ("cell", value, value * 3)


# ----------------------------------------------------------------------
# Row identity across worker counts
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=24),
    workers=st.integers(min_value=1, max_value=4),
)
def test_rows_identical_for_any_worker_count(count, workers):
    jobs = [job(_cell, i) for i in range(count)]
    expected = [_cell(i) for i in range(count)]

    seen = []
    results = execute_jobs(
        jobs,
        workers=workers,
        on_result=lambda index, result: seen.append(index),
        pool_factory=ThreadPoolExecutor,
    )
    assert results == expected  # submission order, bit-identical
    assert sorted(seen) == list(range(len(jobs)))  # every job reported once
