"""Fleet telemetry: per-worker JSONL logs, status requeue surfacing,
cross-worker aggregation, and the ``sweep status --telemetry`` view."""

from __future__ import annotations

import time

from repro.cli import main
from repro.parallel import job
from repro.sweep import (
    CellTask,
    SweepDirectory,
    cell_key,
    fleet_telemetry,
    format_fleet_lines,
    status,
    submit,
    worker_loop,
)
from repro.telemetry.report import parse_event_lines


def _double(value):
    return value * 2


def _boom(value):
    raise RuntimeError(f"boom {value}")


def _enqueue(directory, cell):
    directory.queue.enqueue(CellTask(cell_key(cell), cell))


def test_worker_writes_cell_spans_to_storage(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep")
    _enqueue(directory, job(_double, 1))
    _enqueue(directory, job(_double, 2))
    report = worker_loop(directory, poll_interval=0.01, worker="host-a")
    assert report.executed == 2

    storage = directory.storage.sub("telemetry")
    assert storage.list_keys() == ["host-a.jsonl"]
    events, skipped = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    assert skipped == 0
    spans = [e for e in events if e["type"] == "span" and e["name"] == "sweep.cell"]
    assert len(spans) == 2
    assert all(s["attrs"]["attempt"] == 1 for s in spans)
    names = [e["name"] for e in events if e["type"] == "event"]
    assert names[0] == "worker.start" and names[-1] == "worker.exit"


def test_failed_cells_flag_error_spans_and_events(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", max_attempts=1)
    _enqueue(directory, job(_boom, 1))
    report = worker_loop(directory, poll_interval=0.01, worker="host-a")
    assert report.failed == 1

    (telem,) = fleet_telemetry(directory)
    assert telem.worker == "host-a"
    assert telem.cells == 1 and telem.failed == 1
    storage = directory.storage.sub("telemetry")
    events, _ = parse_event_lines(storage.get_text("host-a.jsonl").splitlines())
    failures = [e for e in events if e["type"] == "event" and e["name"] == "cell.failed"]
    assert len(failures) == 1
    assert "boom 1" in failures[0]["attrs"]["error"]


def test_fleet_aggregates_across_two_workers(tmp_path):
    """Satellite: cross-process aggregation — two workers, two telemetry
    blobs, one merged fleet view (plus `trace summary` over the same logs)."""
    directory = SweepDirectory(tmp_path / "sweep")
    for value in range(4):
        _enqueue(directory, job(_double, value))
    first = worker_loop(directory, poll_interval=0.01, worker="host-a", max_tasks=2)
    second = worker_loop(directory, poll_interval=0.01, worker="host-b")
    assert first.executed == 2 and second.executed == 2

    fleet = fleet_telemetry(directory)
    assert [telem.worker for telem in fleet] == ["host-a", "host-b"]
    assert sum(telem.cells for telem in fleet) == 4
    assert all(telem.failed == 0 for telem in fleet)
    assert all(telem.exited for telem in fleet)
    assert all(telem.cell_seconds.count == telem.cells for telem in fleet)

    lines = format_fleet_lines(fleet)
    assert "2 worker(s), 4 cell span(s)" in lines[0]
    assert any("host-a" in line and "2 cell(s)" in line for line in lines)
    assert any("host-b" in line for line in lines)


def test_status_surfaces_expired_lease_worker(tmp_path):
    """Satellite: ``sweep status`` names the worker whose lease expired
    mid-cell and counts the requeue."""
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    submit(directory, "figure1")
    stuck = directory.queue.claim("dead-host-7")
    assert stuck is not None
    time.sleep(0.06)
    first = status(directory, "figure1")
    assert first.requeued == 1
    (detail,) = first.requeue_details
    assert detail["worker"] == "dead-host-7"
    assert detail["reason"] == "lease-expired"
    assert "dead-host-7" in first.summary()
    assert "requeued 1 expired lease(s)" in first.summary()
    # The scan already recovered the cell; a second status is clean.
    assert status(directory, "figure1").requeued == 0


def test_requeue_details_cover_orphaned_claims(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    _enqueue(directory, job(_double, 1))
    stuck = directory.queue.claim("dead-host")
    assert stuck is not None
    # The claim lost its lease object: the task is orphaned.
    (lease,) = directory.queue.storage.list_keys("leases/")
    directory.queue.storage.delete(lease)
    time.sleep(0.06)
    details: list = []
    requeued = directory.queue.requeue_expired(details=details)
    assert requeued == [stuck.key]  # return type unchanged: plain key list
    (detail,) = details
    assert detail["reason"] == "orphaned-task"
    assert detail["worker"] is None


def test_recovering_worker_logs_requeue_event(tmp_path):
    directory = SweepDirectory(tmp_path / "sweep", lease_seconds=0.05)
    _enqueue(directory, job(_double, 5))
    stuck = directory.queue.claim("dead-host-9")
    assert stuck is not None
    time.sleep(0.06)
    worker_loop(directory, poll_interval=0.01, worker="live-host")
    fleet = {telem.worker: telem for telem in fleet_telemetry(directory)}
    assert fleet["live-host"].requeues_recovered == 1
    assert fleet["live-host"].cells == 1
    # The dead worker appears in the fleet view purely as a lease loser.
    assert fleet["dead-host-9"].leases_lost == 1
    assert fleet["dead-host-9"].last_ts is None
    lines = format_fleet_lines(fleet_telemetry(directory))
    assert any("dead-host-9" in line and "presumed dead" in line for line in lines)


def test_cli_sweep_status_telemetry_flag(tmp_path, capsys):
    directory = SweepDirectory(tmp_path / "sweep")
    submit(directory, "figure1")
    worker_loop(directory, poll_interval=0.01, worker="cli-host")
    code = main(["sweep", "status", "figure1", "--dir", str(tmp_path / "sweep"), "--telemetry"])
    assert code == 0
    output = capsys.readouterr().out
    assert "complete" in output
    assert "fleet telemetry: 1 worker(s)" in output
    assert "cli-host" in output
    assert "cells/min" in output
    assert "cell p50" in output

    # Without the flag the fleet block is absent.
    code = main(["sweep", "status", "figure1", "--dir", str(tmp_path / "sweep")])
    assert code == 0
    assert "fleet telemetry" not in capsys.readouterr().out
