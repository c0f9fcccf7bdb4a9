"""Sweep orchestration: cached execution, submit/worker/status/collect,
resume-after-kill, and distributed sharding over the file queue."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import run_figure1, run_figure6
from repro.parallel import job
from repro.sweep import (
    CachedExecutor,
    CellTask,
    FileQueueBackend,
    MissingCellsError,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    SweepDirectory,
    SweepError,
    cell_key,
    collect,
    retry,
    run_cached,
    status,
    submit,
    sweep_spec,
    worker_loop,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _double(value):
    return value * 2


def _boom(value):
    raise RuntimeError(f"boom {value}")


def _slow_boom(value):
    time.sleep(0.4)
    raise RuntimeError(f"boom {value}")


def _strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in ("runtime_us", "runtime_s")}
        for row in rows
    ]


# ----------------------------------------------------------------------
# CachedExecutor
# ----------------------------------------------------------------------
def test_cached_executor_runs_misses_then_serves_hits(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [job(_double, i) for i in range(5)]
    first = CachedExecutor(store, SerialBackend())
    assert first(jobs) == [0, 2, 4, 6, 8]
    assert (first.hits, first.misses) == (0, 5)
    second = CachedExecutor(store, SerialBackend())
    assert second(jobs) == [0, 2, 4, 6, 8]
    assert (second.hits, second.misses) == (5, 0)


def test_cached_executor_preserves_submission_order_and_duplicates(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [job(_double, 3), job(_double, 1), job(_double, 3)]
    executor = CachedExecutor(store, SerialBackend())
    assert executor(jobs) == [6, 2, 6]
    assert executor.misses == 2  # the duplicate cell is executed once


def test_cached_executor_without_backend_raises_on_misses(tmp_path):
    store = ResultStore(tmp_path / "store")
    executor = CachedExecutor(store, backend=None)
    with pytest.raises(MissingCellsError) as excinfo:
        executor([job(_double, 1)])
    assert excinfo.value.missing == [cell_key(job(_double, 1))]


def test_cached_executor_salt_segregates_results(tmp_path):
    store = ResultStore(tmp_path / "store")
    CachedExecutor(store, SerialBackend(), salt="v1")([job(_double, 1)])
    executor = CachedExecutor(store, SerialBackend(), salt="v2")
    executor([job(_double, 1)])
    assert executor.misses == 1  # different salt -> different cell


def test_process_pool_backend_keeps_finished_cells_on_failure(tmp_path):
    store = ResultStore(tmp_path / "store")
    good = [CellTask(cell_key(job(_double, i)), job(_double, i)) for i in range(3)]
    bad = CellTask(cell_key(job(_slow_boom, 9)), job(_slow_boom, 9))
    with pytest.raises(RuntimeError, match="boom 9"):
        ProcessPoolBackend(workers=2).run(good + [bad], store)
    # The instant cells complete (and are persisted as they complete) before
    # the slow cell fails, so the re-run only needs the remainder.
    assert all(store.contains(task.key) for task in good)
    assert not store.contains(bad.key)


def test_file_queue_backend_times_out_without_workers(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    backend = FileQueueBackend(
        directory.queue, wait=True, poll_interval=0.01, timeout=0.05
    )
    task = CellTask(cell_key(job(_double, 1)), job(_double, 1))
    with pytest.raises(SweepError, match="timed out"):
        backend.run([task], directory.store)
    # The cell is parked in the queue, ready for a worker.
    assert directory.queue.pending_keys() == [task.key]


# ----------------------------------------------------------------------
# submit / worker / status / collect on a real (cheap) sweep
# ----------------------------------------------------------------------
def test_full_sweep_lifecycle_matches_serial_harness(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    report = submit(directory, "figure1")
    assert report.total == 4 and report.enqueued == 4 and report.cached == 0

    before = status(directory, "figure1")
    assert (before.done, before.pending, before.complete) == (0, 4, False)
    with pytest.raises(MissingCellsError):
        collect(directory, "figure1")

    worker = worker_loop(directory, poll_interval=0.01)
    assert worker.executed == 4 and worker.failed == 0

    after = status(directory, "figure1")
    assert after.complete and after.pending == 0 and after.claimed == 0

    (table,) = collect(directory, "figure1")
    serial = run_figure1()
    assert table.rows == serial.rows
    assert table.columns() == serial.columns()

    # Re-submitting a finished sweep is a pure cache hit: nothing queued.
    again = submit(directory, "figure1")
    assert again.cached == again.total == 4
    assert again.enqueued == 0 and again.hit_rate == 1.0


def test_sweep_resumes_after_killed_worker(tmp_path):
    """A sweep killed mid-run loses nothing: re-submitting accounts the
    finished cells as cache hits, queues only the missing ones, and the next
    worker finishes the job."""
    directory = SweepDirectory(tmp_path / "sweep")
    submit(directory, "figure1")
    killed = worker_loop(directory, poll_interval=0.01, max_tasks=2)
    assert killed.executed == 2
    assert status(directory, "figure1").done == 2

    # Resume with the queue intact: the 2 unfinished cells are still queued.
    report = submit(directory, "figure1")
    assert report.cached == 2
    assert report.enqueued + report.already_queued == 2

    # Harsher variant: the queue is gone entirely (say, it lived in a dead
    # worker VM) and only the partial store survives — re-submission queues
    # exactly the missing cells.
    shutil.rmtree(directory.queue.root)
    fresh = SweepDirectory(tmp_path / "sweep")
    report = submit(fresh, "figure1")
    assert report.cached == 2 and report.enqueued == 2

    worker_loop(fresh, poll_interval=0.01)
    assert status(fresh, "figure1").complete
    (table,) = collect(fresh, "figure1")
    assert table.rows == run_figure1().rows


def test_worker_recovers_expired_lease_of_crashed_worker(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    submit(directory, "figure1")
    # Simulate a worker that claimed a cell and died without completing it.
    stuck = directory.queue.claim("crashed-worker")
    assert stuck is not None
    time.sleep(0.06)
    report = worker_loop(directory, poll_interval=0.01)
    assert report.requeued_leases >= 1
    assert report.executed == 4  # including the recovered cell
    assert status(directory, "figure1").complete


def test_worker_parks_poisoned_cells_and_queue_drains(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", max_attempts=2)
    directory.queue.enqueue(CellTask(cell_key(job(_boom, 1)), job(_boom, 1)))
    directory.queue.enqueue(CellTask(cell_key(job(_double, 2)), job(_double, 2)))
    report = worker_loop(directory, poll_interval=0.01)
    assert report.executed == 1
    assert report.failed == 2  # two attempts, then parked
    assert directory.queue.failed_keys() == [cell_key(job(_boom, 1))]
    assert directory.queue.is_idle()


def test_run_cached_in_process(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    tables, executor = run_cached(directory, "figure1", backend=SerialBackend())
    assert executor.misses == 4 and executor.hits == 0
    tables2, executor2 = run_cached(directory, "figure1", backend=SerialBackend())
    assert executor2.hits == 4 and executor2.misses == 0
    assert tables[0].rows == tables2[0].rows == run_figure1().rows


def test_unknown_sweep_and_unknown_option_rejected(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    with pytest.raises(SweepError, match="unknown sweep"):
        submit(directory, "figure99")
    with pytest.raises(SweepError, match="does not accept"):
        submit(directory, "figure1", options={"quick_genetic": False})


def test_manifest_options_round_trip_through_collect(tmp_path):
    spec = sweep_spec("figure6")
    options = spec.normalize_options({})
    assert options["quick_genetic"] is True
    assert options["io_sweep"][0] == [2, 1]


# ----------------------------------------------------------------------
# The acceptance scenario, scaled down: figure6 sharded over two
# concurrent CLI worker processes sharing one queue directory.
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_figure6_sweep_sharded_over_two_cli_workers(tmp_path):
    reduced = {"io_sweep": [[2, 1], [4, 2]], "nise_values": [1]}
    directory = SweepDirectory(tmp_path / "sweep")
    report = submit(directory, "figure6", options=reduced)
    assert report.total == 4 and report.enqueued == 4

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "sweep",
                "worker",
                "--dir",
                str(tmp_path / "sweep"),
                "--poll",
                "0.05",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for process in workers:
        stdout, _ = process.communicate(timeout=300)
        assert process.returncode == 0, stdout
        outputs.append(stdout)
    # Every cell executed exactly once across the two worker processes.
    executed = [int(re.search(r"executed (\d+) cell", out).group(1)) for out in outputs]
    assert sum(executed) == 4

    assert status(directory, "figure6").complete
    (table,) = collect(directory, "figure6")
    serial = run_figure6(
        io_sweep=[(2, 1), (4, 2)], nise_values=[1], quick_genetic=True
    )
    assert _strip_timing(table.rows) == _strip_timing(serial.rows)

    # Re-submitting reports 100% cache hits with zero cells queued.
    again = submit(directory, "figure6", options=reduced)
    assert again.cached == again.total == 4 and again.enqueued == 0


def _slow_cell(value, delay=0.35):
    time.sleep(delay)
    return value


def test_worker_heartbeat_protects_slow_cells(tmp_path):
    """A cell slower than the lease must not be stolen from its live worker:
    the worker renews the lease at half-period while the cell runs."""
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.1)
    key = cell_key(job(_slow_cell, 7))
    directory.queue.enqueue(CellTask(key, job(_slow_cell, 7)))

    stolen: list[str] = []
    running = threading.Event()

    # Poll requeue_expired from a rival thread the whole time the (0.35 s,
    # i.e. 3.5 lease periods) cell runs; the heartbeat must keep it claimed.
    def _rival():
        while not running.is_set():
            stolen.extend(directory.queue.requeue_expired())
            time.sleep(0.03)

    rival = threading.Thread(target=_rival)
    rival.start()
    try:
        report = worker_loop(directory, poll_interval=0.01)
    finally:
        running.set()
        rival.join()
    assert report.executed == 1
    assert stolen == []
    assert directory.store.get(key) == 7
    assert directory.store.record(key)["meta"]["attempt"] == 1


def test_submit_reports_parked_failures_and_retry_requeues_them(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", max_attempts=1)
    submit(directory, "figure1")
    # Park one of the sweep's cells as permanently failed.
    victim = directory.queue.claim("unlucky")
    assert not directory.queue.release_failed(victim, "OSError: transient")
    assert directory.queue.failed_keys() == [victim.key]

    report = submit(directory, "figure1")
    assert report.failed == 1
    assert "sweep retry" in report.summary()
    worker_loop(directory, poll_interval=0.01)
    assert status(directory, "figure1").done == 3  # the parked cell stays out

    cleared, resubmit = retry(directory, "figure1")
    assert cleared == 1
    assert resubmit.failed == 0 and resubmit.enqueued == 1
    worker_loop(directory, poll_interval=0.01)
    assert status(directory, "figure1").complete
    (table,) = collect(directory, "figure1")
    assert table.rows == run_figure1().rows


# ----------------------------------------------------------------------
# Store-record provenance and batched claims
# ----------------------------------------------------------------------
def test_backend_records_name_their_backend(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    run_cached(directory, "figure1", backend=SerialBackend())
    records = [directory.store.record(key) for key in directory.store.keys()]
    assert len(records) == 4
    for record in records:
        assert record["meta"]["backend"] == "serial"
        assert not {"runtime_s", "cost_key"} & set(record["meta"])


def test_sweep_rows_identical_under_batched_workers(tmp_path):
    serial = run_figure1()
    directory = SweepDirectory(tmp_path / "sweep")
    submit(directory, "figure1")
    report = worker_loop(directory, poll_interval=0.01, claim_batch=3)
    assert report.executed == 4 and report.failed == 0
    (table,) = collect(directory, "figure1")
    assert table.rows == serial.rows


def _add_scheduler_leftovers(directory: SweepDirectory, name: str) -> None:
    """Give *directory* the on-disk shape older releases wrote while the
    profile-guided scheduler existed: an ``lpt`` manifest, records whose
    meta carries ``cost_key``/``runtime_s``, and a ``costmodel/`` blob."""
    manifest = directory.load_manifest(name)
    manifest["schedule"] = "lpt"
    directory.save_manifest(name, manifest)
    store = directory.store
    for key in list(store.keys()):
        record = store.record(key)
        record["meta"]["cost_key"] = f"{record['meta']['func']}|legacy"
        record["meta"]["runtime_s"] = 0.25
        store.backend.put_atomic(
            store.storage_key(key), json.dumps(record, indent=1).encode("utf-8")
        )
    directory.storage.sub("costmodel").put_text(
        "profile.json",
        json.dumps({"version": 1, "profiles": {"x|legacy": {"count": 4, "total": 1.0}}}),
    )


def test_sweep_written_with_scheduler_leftovers_still_works(tmp_path, capsys):
    from repro.cli import main

    fresh = SweepDirectory(tmp_path / "fresh")
    submit(fresh, "figure1")
    worker_loop(fresh, poll_interval=0.01)
    (fresh_table,) = collect(fresh, "figure1")

    directory = SweepDirectory(tmp_path / "old")
    submit(directory, "figure1")
    worker_loop(directory, poll_interval=0.01, max_tasks=3)
    _add_scheduler_leftovers(directory, "figure1")

    before = status(directory, "figure1")
    assert (before.done, before.pending, before.complete) == (3, 1, False)
    cleared, resubmit = retry(directory, "figure1")
    assert cleared == 0
    assert (resubmit.cached, resubmit.already_queued) == (3, 1)
    assert "schedule" not in directory.load_manifest("figure1")
    assert worker_loop(directory, poll_interval=0.01).executed == 1
    assert status(directory, "figure1").complete

    (table,) = collect(directory, "figure1")
    assert table.rows == fresh_table.rows

    dry = ["sweep", "gc", "--dir", str(tmp_path / "old"), "--dry-run"]
    assert main(dry) == 0
    out = capsys.readouterr().out
    assert "would reclaim 0 stale record(s)" in out and "(4 record(s)" in out
    assert len(list(directory.store.keys())) == 4
    assert directory.storage.sub("costmodel").list_keys() == ["profile.json"]


def test_worker_loop_adaptive_batching_drains_deep_queue(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    keys = []
    for i in range(20):
        key = cell_key(job(_double, i))
        keys.append(key)
        directory.queue.enqueue(CellTask(key, job(_double, i)))
    report = worker_loop(directory, poll_interval=0.01)  # adaptive batching
    assert report.executed == 20 and report.failed == 0
    assert directory.queue.is_idle()
    assert directory.store.contains_many(keys) == set(keys)


def test_worker_loop_max_tasks_never_strands_claimed_cells(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    for i in range(10):
        directory.queue.enqueue(CellTask(cell_key(job(_double, i)), job(_double, i)))
    report = worker_loop(directory, poll_interval=0.01, max_tasks=3, claim_batch=8)
    assert report.executed == 3
    # The batch claim was capped at the remaining budget: nothing sits in
    # claimed/ waiting out a lease after the worker exits.
    assert directory.queue.claimed_keys() == []
    assert len(directory.queue.pending_keys()) == 7


# ----------------------------------------------------------------------
# The same lifecycle over the object-store queue (--queue-url)
# ----------------------------------------------------------------------
def test_full_sweep_lifecycle_over_object_queue(tmp_path):
    """submit / worker / status / collect run unchanged when the queue is
    an ObjectQueue — rows identical to the serial harness."""
    from repro.sweep import MemoryBackend, ObjectQueue

    directory = SweepDirectory(
        tmp_path / "sweep", queue_url=ObjectQueue(MemoryBackend())
    )
    assert directory.queue.flavor == "object"
    report = submit(directory, "figure1")
    assert report.total == 4 and report.enqueued == 4

    before = status(directory, "figure1")
    assert (before.done, before.pending, before.complete) == (0, 4, False)

    worker = worker_loop(directory, poll_interval=0.01)
    assert worker.executed == 4 and worker.failed == 0

    after = status(directory, "figure1")
    assert after.complete and after.pending == 0 and after.claimed == 0
    (table,) = collect(directory, "figure1")
    assert table.rows == run_figure1().rows

    again = submit(directory, "figure1")
    assert again.cached == again.total == 4 and again.enqueued == 0


def test_object_queue_worker_recovers_expired_lease(tmp_path):
    directory = SweepDirectory(
        tmp_path / "sweep",
        lease_seconds=0.05,
        queue_url=f"mem://orch-lease-{os.getpid()}-{id(tmp_path)}",
    )
    assert directory.queue.flavor == "object"
    assert directory.queue.lease_seconds == 0.05
    submit(directory, "figure1")
    stuck = directory.queue.claim("crashed-worker")
    assert stuck is not None
    time.sleep(0.06)
    report = worker_loop(directory, poll_interval=0.01)
    assert report.requeued_leases >= 1
    assert report.executed == 4  # including the recovered cell
    assert status(directory, "figure1").complete


def test_object_queue_worker_parks_poisoned_cells(tmp_path):
    from repro.sweep import MemoryBackend, ObjectQueue

    directory = SweepDirectory(
        tmp_path / "sweep",
        queue_url=ObjectQueue(MemoryBackend(), max_attempts=2),
    )
    directory.queue.enqueue(CellTask(cell_key(job(_boom, 1)), job(_boom, 1)))
    directory.queue.enqueue(CellTask(cell_key(job(_double, 2)), job(_double, 2)))
    report = worker_loop(directory, poll_interval=0.01)
    assert report.executed == 1
    assert report.failed == 2  # two attempts, then parked
    assert directory.queue.failed_keys() == [cell_key(job(_boom, 1))]
    assert directory.queue.is_idle()


def test_worker_telemetry_names_the_queue_flavor(tmp_path):
    from repro.sweep import MemoryBackend, ObjectQueue

    directory = SweepDirectory(
        tmp_path / "sweep", queue_url=ObjectQueue(MemoryBackend())
    )
    submit(directory, "figure1")
    worker_loop(directory, poll_interval=0.01, worker="telem-worker")
    log = directory.storage.sub("telemetry").get_text("telem-worker.jsonl")
    assert '"queue":"object"' in log

    plain = SweepDirectory(tmp_path / "sweep-file")
    submit(plain, "figure1")
    worker_loop(plain, poll_interval=0.01, worker="telem-worker")
    log = plain.storage.sub("telemetry").get_text("telem-worker.jsonl")
    assert '"queue":"file"' in log
