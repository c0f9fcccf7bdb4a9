"""Fault-injection suite for the claim/lease queue.

Every test runs against :class:`MemoryBackend` (pure in-process, the
protocol in isolation) and, where marked, against a real
:class:`FakeObjectServer` over HTTP — including injected 503s mid-claim —
so both the protocol logic and its behaviour over a lossy S3-dialect wire
are covered.  The basic and lease suites run a second time over a local
directory (:class:`FileQueue`), the default queue of a sweep directory.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.parallel import ParallelJob
from repro.sweep import (
    CellTask,
    MemoryBackend,
    ObjectQueue,
    SweepError,
    queue_from_url,
)
from repro.sweep.filequeue import FileQueue
from repro.sweep.objectstore import FakeObjectServer, ObjectStoreBackend


def _double(x):
    return x * 2


def make_task(key: str = "cell-0", value: int = 21) -> CellTask:
    return CellTask(key, ParallelJob(_double, (value,)))


def _factory(make):
    """Queue instances on one shared store — one per simulated process."""

    def build(**kwargs):
        kwargs.setdefault("lease_seconds", 30.0)
        kwargs.setdefault("max_attempts", 3)
        return make(**kwargs)

    return build


@pytest.fixture()
def make_queue():
    storage = MemoryBackend()
    return _factory(lambda **kwargs: ObjectQueue(storage, **kwargs))


@pytest.fixture()
def file_queue_factory(tmp_path):
    return _factory(lambda **kwargs: FileQueue(tmp_path / "queue", **kwargs))


@pytest.fixture()
def queue(make_queue):
    return make_queue()


@pytest.fixture()
def server():
    with FakeObjectServer() as fake:
        yield fake


def http_queue(server, **kwargs) -> ObjectQueue:
    backend = ObjectStoreBackend(
        "queue-bucket", endpoint=server.endpoint, retries=4, backoff=0.01
    )
    kwargs.setdefault("lease_seconds", 30.0)
    kwargs.setdefault("max_attempts", 3)
    return ObjectQueue(backend, **kwargs)


# ----------------------------------------------------------------------
# Basic protocol round trips
# ----------------------------------------------------------------------
class TestBasics:
    def test_enqueue_claim_complete(self, queue):
        assert queue.enqueue(make_task()) is True
        assert queue.pending_keys() == ["cell-0"]
        assert not queue.is_idle()
        task = queue.claim(worker="w1")
        assert task.key == "cell-0"
        assert task.attempt == 1
        assert queue.pending_keys() == []
        assert queue.claimed_keys() == ["cell-0"]
        queue.complete(task)
        assert queue.is_idle()

    def test_enqueue_deduplicates(self, queue):
        assert queue.enqueue(make_task()) is True
        assert queue.enqueue(make_task()) is False
        task = queue.claim(worker="w1")
        # Claimed (marker gone, blob present) still dedupes.
        assert queue.enqueue(make_task()) is False
        queue.complete(task)
        assert queue.enqueue(make_task()) is True

    def test_enqueue_rejects_nested_keys(self, queue):
        with pytest.raises(SweepError):
            queue.enqueue(make_task(key="a/b"))

    def test_claim_batch_takes_up_to_count(self, queue):
        for index in range(5):
            queue.enqueue(make_task(f"cell-{index}", index))
        batch = queue.claim_batch(3, worker="w1")
        assert [task.key for task in batch] == ["cell-0", "cell-1", "cell-2"]
        assert queue.claim_batch(9, worker="w2") != []
        assert queue.claim(worker="w3") is None

    def test_claims_follow_enqueue_order(self, queue):
        for key in ("bb", "aa", "cc"):
            queue.enqueue(make_task(key))
        order = [queue.claim(worker="w1").key for _ in range(3)]
        assert order == ["bb", "aa", "cc"]

    def test_failure_parking_after_max_attempts(self, queue):
        queue.enqueue(make_task())
        for expected_attempt in (1, 2, 3):
            task = queue.claim(worker="w1")
            assert task.attempt == expected_attempt
            requeued = queue.release_failed(task, f"boom {expected_attempt}", "w1")
            assert requeued is (expected_attempt < 3)
        assert queue.claim(worker="w1") is None
        assert queue.failed_keys() == ["cell-0"]
        record = queue.failure("cell-0")
        assert record["error"] == "boom 3"
        assert record["attempt"] == 3
        assert queue.is_idle()
        # Parked keys are not re-enqueueable until cleared.
        assert queue.enqueue(make_task()) is False
        assert queue.clear_failure("cell-0") is True
        assert queue.enqueue(make_task()) is True

    def test_failure_raises_for_unknown_key(self, queue):
        with pytest.raises(SweepError):
            queue.failure("never-seen")

    def test_describe_names_the_backing_store(self, queue):
        assert queue.flavor == "object"
        assert "object queue" in queue.describe()


# ----------------------------------------------------------------------
# Racing claims: the conditional PUT is the gate
# ----------------------------------------------------------------------
class TestRacingClaims:
    def test_two_instances_racing_one_key(self):
        storage = MemoryBackend()
        q1 = ObjectQueue(storage, lease_seconds=30.0, max_attempts=3)
        q2 = ObjectQueue(storage, lease_seconds=30.0, max_attempts=3)
        q1.enqueue(make_task())
        wins = [q.claim(worker=f"w{i}") for i, q in enumerate((q1, q2))]
        winners = [task for task in wins if task is not None]
        assert len(winners) == 1

    def test_many_threads_each_key_claimed_once(self):
        storage = MemoryBackend()
        seed = ObjectQueue(storage, lease_seconds=30.0, max_attempts=3)
        for index in range(12):
            seed.enqueue(make_task(f"cell-{index}", index))
        claimed: list[str] = []
        claimed_lock = threading.Lock()

        def worker(name: str) -> None:
            q = ObjectQueue(storage, lease_seconds=30.0, max_attempts=3)
            while True:
                task = q.claim(worker=name)
                if task is None:
                    if q.is_idle():
                        return
                    continue
                with claimed_lock:
                    claimed.append(task.key)
                q.complete(task)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(claimed) == sorted(f"cell-{i}" for i in range(12))
        assert len(claimed) == len(set(claimed))

    def test_duplicate_markers_grant_one_claim(self, queue):
        queue.enqueue(make_task())
        # Forge a duplicate marker for the same attempt — the lease PUT
        # must still let only one claim through, and the loser must clean
        # the dead marker up.
        queue._publish_marker("cell-0", 1)
        first = queue.claim(worker="w1")
        assert first is not None and first.attempt == 1
        assert queue.claim(worker="w2") is None
        assert queue.storage.list_keys("pending/") == []


# ----------------------------------------------------------------------
# Lease expiry, stealing, and the heartbeat
# ----------------------------------------------------------------------
class TestLeases:
    def test_expiry_then_steal_then_stale_owner_stands_down(self, make_queue):
        q = make_queue(lease_seconds=0.05, max_attempts=5)
        q.enqueue(make_task())
        victim_task = q.claim(worker="victim")
        time.sleep(0.08)
        details: list[dict] = []
        assert q.requeue_expired(details=details) == ["cell-0"]
        assert details[0]["reason"] == "lease-expired"
        assert details[0]["worker"] == "victim"
        # Heartbeat after the steal must not resurrect the stolen lease.
        assert q.renew_lease(victim_task, "victim") is False
        assert q.storage.list_keys("leases/") == []
        thief_task = q.claim(worker="thief")
        assert thief_task.attempt == victim_task.attempt + 1
        # The victim's late failure report must not clobber the thief.
        assert q.release_failed(victim_task, "late report", "victim") is False
        assert q.claimed_keys() == ["cell-0"]
        q.complete(thief_task)
        assert q.is_idle()

    def test_renew_refuses_expired_lease(self, make_queue):
        q = make_queue(lease_seconds=0.05)
        q.enqueue(make_task())
        task = q.claim(worker="w1")
        assert q.renew_lease(task, "w1") is True
        time.sleep(0.08)
        # Expired: renewing would race the scavenger's steal.
        assert q.renew_lease(task, "w1") is False

    def test_renew_checks_worker_across_processes(self, make_queue):
        q1 = make_queue()
        q2 = make_queue()
        q1.enqueue(make_task())
        task = q1.claim(worker="w1")
        # A different process (no owner token) renewing someone else's
        # lease is refused on the worker id.
        assert q2.renew_lease(task, "w2") is False
        assert q2.renew_lease(task, "w1") is True

    def test_racing_scavengers_count_the_steal_once(self, make_queue):
        q = make_queue(lease_seconds=0.05, max_attempts=5)
        q.enqueue(make_task())
        q.claim(worker="victim")
        time.sleep(0.08)
        now = time.time()
        scavengers = [
            make_queue(lease_seconds=0.05, max_attempts=5) for _ in range(4)
        ]
        recovered = [s.requeue_expired(now) for s in scavengers]
        assert sum(len(keys) for keys in recovered) == 1
        # Exactly one marker was published; the cell is claimable again.
        assert q.pending_keys() == ["cell-0"]

    def test_repeated_expiries_park_the_cell(self, make_queue):
        q = make_queue(lease_seconds=0.02, max_attempts=2)
        q.enqueue(make_task())
        for _ in range(2):
            assert q.claim(worker="w1") is not None
            time.sleep(0.04)
            assert q.requeue_expired() == ["cell-0"]
        # Attempt 3 > max_attempts: the claim parks instead of granting.
        assert q.claim(worker="w1") is None
        assert q.failed_keys() == ["cell-0"]
        assert "exceeded 2 attempts" in q.failure("cell-0")["error"]
        assert q.is_idle()

    def test_orphaned_task_healed_after_grace(self, make_queue):
        q = make_queue(lease_seconds=0.05)
        # Simulate an enqueuer killed between the blob PUT and the marker
        # PUT: write the envelope directly, no marker.
        import pickle

        envelope = {"task": make_task(), "enqueued_at": time.time() - 1.0}
        q.storage.put_atomic("tasks/cell-0", pickle.dumps(envelope))
        assert q.pending_keys() == []
        assert not q.is_idle()  # the blob keeps the queue non-idle
        details: list[dict] = []
        assert q.requeue_expired(details=details) == ["cell-0"]
        assert details[0]["reason"] == "orphaned-task"
        task = q.claim(worker="w1")
        assert task is not None and task.attempt == 1

    def test_fresh_enqueue_not_mistaken_for_orphan(self, queue):
        queue.enqueue(make_task())
        claimed = queue.claim(worker="w1")
        # Remove the marker trace: claimed tasks have lease, no marker —
        # never orphans while the lease lives.
        assert queue.requeue_expired() == []
        queue.complete(claimed)

    def test_lease_without_task_is_garbage_collected(self, queue):
        queue.storage.put_atomic(
            "leases/ghost.0001",
            b'{"key": "ghost", "worker": "w1", "owner": "x", '
            b'"expires": 0.0, "attempt": 1}',
        )
        assert queue.requeue_expired() == []
        assert queue.storage.list_keys("leases/") == []

    def test_stale_lower_attempt_leases_cleaned(self, queue):
        queue.enqueue(make_task())
        task = queue.claim(worker="w1")
        assert task.attempt == 1
        # Leave a forged stale lease from a lower attempt behind.
        queue.storage.put_atomic(
            "leases/cell-0.0000",
            b'{"key": "cell-0", "worker": "old", "owner": "y", '
            b'"expires": 9e12, "attempt": 0}',
        )
        queue.requeue_expired()
        assert queue.storage.list_keys("leases/") == ["leases/cell-0.0001"]
        queue.complete(task)


class TestBasicsOnLocalDisk(TestBasics):
    """The basic round trips over a local directory."""

    @pytest.fixture()
    def make_queue(self, file_queue_factory):
        return file_queue_factory

    def test_describe_names_the_backing_store(self, queue, tmp_path):
        assert queue.flavor == "file"
        assert queue.describe() == f"file queue on file://{tmp_path / 'queue'}"


class TestLeasesOnLocalDisk(TestLeases):
    """Expiry, stealing and the heartbeat over a local directory."""

    @pytest.fixture()
    def make_queue(self, file_queue_factory):
        return file_queue_factory


# ----------------------------------------------------------------------
# Kill-one-worker recovery (thread-level simulation)
# ----------------------------------------------------------------------
class TestWorkerRecovery:
    def test_killed_worker_cell_completes_elsewhere(self):
        storage = MemoryBackend()
        lease = 0.08
        seed = ObjectQueue(storage, lease_seconds=lease, max_attempts=5)
        for index in range(4):
            seed.enqueue(make_task(f"cell-{index}", index))
        # The "killed" worker claims one cell and then vanishes (no
        # complete, no release, no heartbeat).
        victim = ObjectQueue(storage, lease_seconds=lease, max_attempts=5)
        stuck = victim.claim(worker="victim")
        assert stuck is not None

        done: dict[str, int] = {}
        done_lock = threading.Lock()

        def survivor(name: str) -> None:
            q = ObjectQueue(storage, lease_seconds=lease, max_attempts=5)
            deadline = time.time() + 30
            while time.time() < deadline:
                q.requeue_expired()
                task = q.claim(worker=name)
                if task is None:
                    if q.is_idle():
                        return
                    time.sleep(0.01)
                    continue
                with done_lock:
                    done[task.key] = task.attempt
                q.complete(task)

        threads = [
            threading.Thread(target=survivor, args=(f"s{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=40)
        assert sorted(done) == [f"cell-{i}" for i in range(4)]
        # The stolen cell ran as a later attempt than the victim's claim.
        assert done[stuck.key] > stuck.attempt
        assert seed.is_idle()


# ----------------------------------------------------------------------
# Over HTTP against the fake S3 server, with injected faults
# ----------------------------------------------------------------------
class TestOverFakeServer:
    def test_full_round_trip_over_http(self, server):
        q = http_queue(server)
        q.enqueue(make_task())
        task = q.claim(worker="w1")
        assert task.key == "cell-0"
        assert q.renew_lease(task, "w1") is True
        q.complete(task)
        assert q.is_idle()

    def test_racing_claims_over_http(self, server):
        q1 = http_queue(server)
        q2 = http_queue(server)
        q1.enqueue(make_task())
        wins = [q1.claim(worker="w1"), q2.claim(worker="w2")]
        assert len([task for task in wins if task is not None]) == 1

    def test_claim_survives_injected_faults(self, server):
        q = http_queue(server)
        q.enqueue(make_task())
        # Two 503s land mid-claim; the client's retry layer absorbs them
        # and the claim still happens exactly once.
        server.fail_next(2)
        task = q.claim(worker="w1")
        assert task is not None
        q.complete(task)
        assert q.is_idle()

    def test_lost_put_response_does_not_lose_the_claim(self, server):
        q = http_queue(server)
        q.enqueue(make_task())
        # The lease PUT commits but its 200 is lost; the retried
        # conditional PUT 412s against our own lease.  The read-back must
        # classify it as ours — otherwise the claim is silently dropped.
        server.fail_commit_next(1)
        task = q.claim(worker="w1")
        assert task is not None
        assert q.claimed_keys() == ["cell-0"]
        q.complete(task)
        assert q.is_idle()

    def test_expiry_steal_over_http(self, server):
        q = http_queue(server, lease_seconds=0.05, max_attempts=5)
        q.enqueue(make_task())
        victim = q.claim(worker="victim")
        time.sleep(0.08)
        assert q.requeue_expired() == ["cell-0"]
        assert q.renew_lease(victim, "victim") is False
        thief = q.claim(worker="thief")
        assert thief.attempt == victim.attempt + 1
        q.complete(thief)
        assert q.is_idle()


# ----------------------------------------------------------------------
# queue_from_url
# ----------------------------------------------------------------------
class TestQueueFromUrl:
    def test_passthrough(self, queue):
        assert queue_from_url(queue) is queue

    def test_bare_path_is_file_queue(self, tmp_path):
        q = queue_from_url(tmp_path / "queue", lease_seconds=7.0, max_attempts=2)
        assert isinstance(q, FileQueue)
        assert q.flavor == "file"
        assert q.lease_seconds == 7.0
        assert q.max_attempts == 2

    def test_file_url_is_file_queue(self, tmp_path):
        q = queue_from_url(f"file://{tmp_path}/queue")
        assert isinstance(q, FileQueue)
        assert q.root == tmp_path / "queue"

    def test_mem_url_is_object_queue(self):
        q = queue_from_url("mem://queue-url-test", lease_seconds=9.0)
        assert isinstance(q, ObjectQueue)
        assert q.flavor == "object"
        assert q.lease_seconds == 9.0

    def test_s3_url_is_object_queue(self, server):
        q = queue_from_url(f"s3://bucket/fleet?endpoint={server.endpoint}")
        assert isinstance(q, ObjectQueue)
        q.enqueue(make_task())
        assert q.pending_keys() == ["cell-0"]

    def test_shared_mem_queue_is_shared(self):
        q1 = queue_from_url("mem://queue-shared-test")
        q2 = queue_from_url("mem://queue-shared-test")
        q1.enqueue(make_task("shared-cell"))
        assert "shared-cell" in q2.pending_keys()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SweepError):
            queue_from_url("ftp://nope/queue")

    def test_protocol_conformance(self):
        # One protocol: the local-directory queue is the object queue
        # bound to a LocalFSBackend.
        assert issubclass(FileQueue, ObjectQueue)
