"""The shared-directory claim/lease work queue."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.parallel import job
from repro.sweep import Backoff, CellTask, FileQueue


def _cell(value):
    return value * 2


def _task(key_byte: str, value: int = 1) -> CellTask:
    return CellTask(key_byte * 64, job(_cell, value))


def test_enqueue_claim_complete_cycle(tmp_path):
    queue = FileQueue(tmp_path / "q")
    assert queue.enqueue(_task("a"))
    assert queue.pending_keys() == ["a" * 64]
    task = queue.claim("worker-1")
    assert task is not None and task.key == "a" * 64
    assert task.attempt == 1
    assert queue.pending_keys() == []
    assert queue.claimed_keys() == ["a" * 64]
    assert task.cell() == 2
    queue.complete(task)
    assert queue.is_idle()
    assert list((tmp_path / "q" / "leases").iterdir()) == []


def test_enqueue_deduplicates(tmp_path):
    queue = FileQueue(tmp_path / "q")
    assert queue.enqueue(_task("a"))
    assert not queue.enqueue(_task("a"))  # already pending
    task = queue.claim()
    assert not queue.enqueue(_task("a"))  # already claimed
    queue.complete(task)
    assert queue.enqueue(_task("a"))  # gone -> may be queued again


def test_claim_returns_none_when_empty(tmp_path):
    queue = FileQueue(tmp_path / "q")
    assert queue.claim() is None


def test_each_task_claimed_exactly_once(tmp_path):
    queue = FileQueue(tmp_path / "q")
    for byte in "abc":
        queue.enqueue(_task(byte))
    claimed = [queue.claim(f"w{i}") for i in range(4)]
    keys = [task.key for task in claimed if task is not None]
    assert sorted(keys) == [byte * 64 for byte in "abc"]
    assert claimed[3] is None


def test_lease_expiry_requeues_crashed_workers_task(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_seconds=0.05)
    queue.enqueue(_task("a"))
    task = queue.claim("doomed-worker")
    assert task is not None
    # The worker "crashes" here: never completes, never renews.
    assert queue.requeue_expired(now=time.time() - 1) == []  # not yet expired
    time.sleep(0.06)
    assert queue.requeue_expired() == ["a" * 64]
    assert queue.pending_keys() == ["a" * 64]
    assert queue.claimed_keys() == []
    # A surviving worker picks it up; the attempt counter survived the trip.
    retry = queue.claim("survivor")
    assert retry is not None and retry.attempt == 2


def test_renew_lease_keeps_task_claimed(tmp_path):
    queue = FileQueue(tmp_path / "q", lease_seconds=0.4)
    queue.enqueue(_task("a"))
    task = queue.claim("steady")
    time.sleep(0.25)
    # Renewed inside the lease: the claim outlives the original deadline.
    assert queue.renew_lease(task, "steady")
    time.sleep(0.25)
    assert queue.requeue_expired() == []
    assert queue.claimed_keys() == ["a" * 64]
    # Renewed after expiry: refused, so a zombie cannot take the lease back.
    time.sleep(0.4)
    assert not queue.renew_lease(task, "steady")


def test_failed_cell_retries_then_parks(tmp_path):
    queue = FileQueue(tmp_path / "q", max_attempts=2)
    queue.enqueue(_task("a"))
    first = queue.claim()
    assert queue.release_failed(first, "ValueError: boom")  # attempt 1 -> requeue
    second = queue.claim()
    assert second.attempt == 2
    assert not queue.release_failed(second, "ValueError: boom")  # parked
    assert queue.claim() is None
    assert queue.failed_keys() == ["a" * 64]
    assert "boom" in queue.failure("a" * 64)["error"]
    # A parked key cannot be re-enqueued until the failure is cleared.
    assert not queue.enqueue(_task("a"))


def test_orphaned_claim_without_lease_is_recovered(tmp_path):
    """A claimed task whose lease is lost is an orphaned task: no marker
    advertises it and no lease covers it.  After a grace of one lease
    period it must be requeued, not wedge the sweep forever."""
    queue = FileQueue(tmp_path / "q", lease_seconds=0.05)
    queue.enqueue(_task("a"))
    task = queue.claim("doomed")
    (lease,) = queue.storage.list_keys("leases/")
    assert queue.storage.delete(lease)
    assert queue.claimed_keys() == [task.key]
    assert queue.requeue_expired() == []  # within the grace period
    time.sleep(0.06)
    assert queue.requeue_expired() == ["a" * 64]
    assert queue.pending_keys() == ["a" * 64]
    assert queue.claim("survivor") is not None


def test_stale_release_failed_does_not_clobber_new_claimant(tmp_path):
    """A worker that lost its lease mid-cell must not requeue the task over
    the new claimant or roll the attempt counter back."""
    queue = FileQueue(tmp_path / "q", lease_seconds=0.05)
    queue.enqueue(_task("a"))
    stale = queue.claim("worker-a")
    time.sleep(0.06)
    assert queue.requeue_expired() == ["a" * 64]
    fresh = queue.claim("worker-b")
    assert fresh.attempt == 2
    # worker-a's cell finally raises; its ownership check fails.
    assert not queue.release_failed(stale, "ValueError: late boom", "worker-a")
    assert queue.claimed_keys() == ["a" * 64]  # worker-b still owns the cell
    assert queue.pending_keys() == []
    # worker-b's own failure report is honoured and keeps the counter.
    assert queue.release_failed(fresh, "ValueError: boom", "worker-b")
    assert queue.claim("worker-c").attempt == 3


# ----------------------------------------------------------------------
# Batch claiming + enqueue-order dispatch + backoff
# ----------------------------------------------------------------------
def test_claim_batch_takes_up_to_count(tmp_path):
    queue = FileQueue(tmp_path / "q")
    for byte in "abcde":
        queue.enqueue(_task(byte))
    batch = queue.claim_batch(3, worker="w")
    assert len(batch) == 3
    assert all(task.attempt == 1 for task in batch)
    # The rest is still pending; a short batch signals a draining queue.
    assert len(queue.pending_keys()) == 2
    assert len(queue.claim_batch(10, worker="w")) == 2
    assert queue.claim_batch(1, worker="w") == []
    # Every claimed task carries a lease.
    assert len(list((tmp_path / "q" / "leases").iterdir())) == 5


def test_claim_batch_rejects_bad_count(tmp_path):
    queue = FileQueue(tmp_path / "q")
    with pytest.raises(ValueError):
        queue.claim_batch(0)


def test_claim_order_is_enqueue_order_not_key_order(tmp_path):
    queue = FileQueue(tmp_path / "q")
    # Enqueue in deliberately anti-alphabetical order.
    for byte in "cab":
        queue.enqueue(_task(byte))
        time.sleep(0.002)
    # Claims follow the stamps in the marker names, not file mtimes:
    # backdate the newest marker's file to before the oldest one's.
    markers = queue.storage.list_keys("pending/")
    assert [name[-64] for name in markers] == list("cab")
    oldest = queue.storage.path_for(markers[0]).stat().st_mtime_ns
    os.utime(queue.storage.path_for(markers[-1]), ns=(oldest - 10**9,) * 2)
    claimed = [queue.claim("w").key[0] for _ in range(3)]
    assert claimed == list("cab")


def test_racing_workers_claim_batches_without_loss_or_duplication(tmp_path):
    """N workers hammering claim_batch concurrently: every task is won by
    exactly one worker — no double claims, no lost tasks."""
    queue = FileQueue(tmp_path / "q")
    total = 40
    hexdigits = "0123456789abcdef"
    keys = set()
    for i in range(total):
        key_byte = hexdigits[i % 16]
        key = (key_byte * 60 + f"{i:04d}")
        task = CellTask(key, job(_cell, i))
        assert queue.enqueue(task)
        keys.add(key)
    claimed_by: dict[str, list[str]] = {}
    errors: list[BaseException] = []

    def drain(worker: str):
        mine = claimed_by.setdefault(worker, [])
        try:
            while True:
                batch = queue.claim_batch(4, worker=worker)
                if not batch:
                    if not queue.pending_keys():
                        return
                    continue
                for task in batch:
                    mine.append(task.key)
                    queue.complete(task)
        except BaseException as error:  # pragma: no cover - fail loudly below
            errors.append(error)

    threads = [
        threading.Thread(target=drain, args=(f"w{i}",)) for i in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    won = [key for worker_keys in claimed_by.values() for key in worker_keys]
    assert len(won) == total  # no task lost
    assert len(set(won)) == total  # no task double-claimed
    assert set(won) == keys
    assert queue.is_idle()


def test_backoff_doubles_to_cap_and_resets():
    backoff = Backoff(0.1, 1.0)
    delays = [backoff.step() for _ in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    backoff.reset()
    assert backoff.step() == 0.1
    # The cap can never fall below the base interval.
    floor = Backoff(2.0, 0.5)
    assert floor.step() == 2.0
    assert floor.step() == 2.0
