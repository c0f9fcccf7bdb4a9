"""The claim/lease work queue, over any storage backend.

A fleet of ``repro sweep worker`` processes — possibly on different
machines — shares work through one :class:`ObjectQueue` running on a
:class:`~repro.sweep.storage.StorageBackend`: a local or network
directory (:class:`FileQueue`, the default under a sweep directory), an
``s3://`` bucket, or an in-process ``mem://`` store.  Storage is the
coordinator; there is no queue service.  The one atomic primitive is
``put_if_absent`` — an exclusive hard link on a filesystem, an
``If-None-Match: *`` conditional PUT on an object store.

Layout (relative to the queue's storage root)::

    tasks/<key>                         pickled task envelope (written once)
    pending/<stamp>.<attempt>.<key>     claimable marker, lexically time-ordered
    leases/<key>.<attempt>              {"worker", "owner", "expires", ...}
    failed/<key>                        terminal failure record

The safety invariant: **execution rights for (key, attempt) are granted to
exactly one worker — whoever wins the conditional PUT of
``leases/<key>.<attempt>``.**  Attempt numbers only ever increase, and each
lease object is created at most once, so every re-execution is a *new*
attempt with a *new* lease; nothing is ever handed out twice.  Everything
else is advisory and self-healing:

* *pending markers* merely advertise "attempt N of this key is claimable".
  Duplicate markers for the same attempt are harmless — the lease PUT is
  the only gate; losers delete the marker they followed and move on.
* *stealing* an expired lease is publishing the marker for attempt N+1 and
  then deleting lease N.  Racing scavengers collide on a *deterministic*
  marker name derived from the expired lease, so exactly one conditional
  PUT wins and the recovery is counted once.
* a *heartbeat* re-PUTs the worker's own lease and reads it back; if the
  lease is gone (stolen) or the read-back shows another owner's token, the
  renewal reports failure and must not re-create the lease — the stale
  worker stands down instead of resurrecting a stolen claim.
* a task blob no marker advertises and no lease covers (its enqueuer died
  between the two PUTs, or its claimant lost the lease object) is an
  *orphaned task*, re-advertised by the scavenger after a full lease
  period of grace.

Owner tokens (a fresh ``uuid4`` per claim) make every one of these checks a
byte-comparison: ``put_if_absent`` reports ``True`` exactly when the key
holds *our* payload, which distinguishes "we won" / "our own retried write"
from "another worker got there first" even across lost HTTP responses.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..parallel import ParallelJob
from .hashing import SweepError
from .storage import LocalFSBackend, StorageBackend, storage_from_url

#: Default lease duration; generous relative to the slowest AES cell.
DEFAULT_LEASE_SECONDS = 300.0
DEFAULT_MAX_ATTEMPTS = 3


def worker_identity() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class Backoff:
    """Capped exponential backoff for idle polling loops.

    ``step()`` returns the delay to sleep *now* and doubles the next one up
    to *cap*; ``reset()`` snaps back to the base interval.  Queue consumers
    reset on progress (a claim, a newly finished key) so an active sweep
    polls at the base rate while an idle or long-tail sweep costs one
    directory listing per *cap* seconds instead of per base interval.
    """

    def __init__(self, base: float, cap: float, *, factor: float = 2.0):
        self.base = max(float(base), 0.0)
        self.cap = max(float(cap), self.base)
        self.factor = float(factor)
        self._current = self.base

    def reset(self) -> None:
        self._current = self.base

    def peek(self) -> float:
        return self._current

    def step(self) -> float:
        delay = self._current
        self._current = min(self._current * self.factor, self.cap) if self._current else self.cap
        return delay


@dataclass
class CellTask:
    """One queued cell: its content address plus the job to run."""

    key: str
    cell: ParallelJob
    attempt: int = 0
    meta: dict = field(default_factory=dict)


def _marker_name(stamp_ns: int, attempt: int, key: str) -> str:
    # Zero-padded so a plain lexical sort of the listing is publication
    # order; the attempt rides in the name so claimers can gate on it
    # without fetching the marker body.
    return f"pending/{max(0, int(stamp_ns)):020d}.{attempt:04d}.{key}"


def _parse_marker(name: str) -> tuple[int, int, str] | None:
    """``pending/<stamp>.<attempt>.<key>`` → ``(stamp, attempt, key)``."""
    parts = name.removeprefix("pending/").split(".", 2)
    if len(parts) != 3:
        return None
    try:
        return int(parts[0]), int(parts[1]), parts[2]
    except ValueError:
        return None


def _lease_name(key: str, attempt: int) -> str:
    return f"leases/{key}.{attempt:04d}"


def _parse_lease(name: str) -> tuple[str, int] | None:
    """``leases/<key>.<attempt>`` → ``(key, attempt)``."""
    key, _, attempt = name.removeprefix("leases/").rpartition(".")
    try:
        return (key, int(attempt)) if key else None
    except ValueError:
        return None


class ObjectQueue:
    """Claim/lease work queue over any :class:`StorageBackend`.

    :func:`~repro.sweep.orchestrator.worker_loop`, the shared heartbeat
    thread, adaptive ``claim_batch`` dispatch and the whole
    ``sweep submit/worker/status/retry`` CLI speak this one class.  The
    contract:

    * **exactly-once claims** — of any number of racing ``claim_batch``
      calls, each queued attempt is won by exactly one;
    * **leases** — a claim carries a lease of ``lease_seconds``; a lease
      that expires un-renewed makes the task stealable
      (:meth:`requeue_expired`), and a stale owner's late
      :meth:`release_failed` / :meth:`renew_lease` must not clobber the
      new claimant;
    * **failure parking** — a task that fails (or loses its lease)
      ``max_attempts`` times is parked under a terminal failure record
      instead of crash-looping the fleet.
    """

    #: Short name for telemetry (lease events name the queue flavour).
    flavor = "object"

    def __init__(
        self,
        storage: StorageBackend,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.storage = storage
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        # Owner tokens of leases claimed *by this instance*:
        # ``key -> (token, attempt)``.  Tokens never leave the process, so
        # a cross-process queue view (``sweep status`` on another machine)
        # falls back to worker-id checks.
        self._owned: dict[str, tuple[str, int]] = {}
        self._owned_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def enqueue(self, task: CellTask) -> bool:
        """Add *task* unless the key is already queued, claimed or failed."""
        if "/" in task.key:
            raise SweepError(f"queue keys must be flat, got {task.key!r}")
        if self.storage.exists(f"failed/{task.key}") or self.storage.exists(
            f"tasks/{task.key}"
        ):
            return False
        envelope = {"task": task, "enqueued_at": time.time()}
        self.storage.put_atomic(
            f"tasks/{task.key}",
            pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._publish_marker(task.key, task.attempt + 1)
        return True

    def _publish_marker(
        self, key: str, attempt: int, *, stamp_ns: int | None = None
    ) -> bool:
        """Advertise attempt *attempt* of *key* as claimable.

        With an explicit *stamp_ns* the marker name is deterministic and
        published through a conditional PUT — racing publishers (the
        scavengers stealing one expired lease) collide on the name and
        exactly one sees ``True``.  Without it the marker is stamped with
        the current time and the publish is unconditional.
        """
        nonce = uuid.uuid4().hex
        payload = json.dumps({"key": key, "attempt": attempt, "nonce": nonce})
        if stamp_ns is None:
            self.storage.put_atomic(
                _marker_name(time.time_ns(), attempt, key), payload.encode()
            )
            return True
        return self.storage.put_if_absent(
            _marker_name(stamp_ns, attempt, key), payload.encode()
        )

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim_batch(self, count: int, worker: str | None = None) -> list[CellTask]:
        """Take up to *count* tasks by winning their lease conditional PUTs.

        One listing of ``pending/`` amortizes over the whole batch; each
        individual claim is one conditional PUT, so racing workers
        interleave safely — every advertised attempt is won by exactly one.
        Markers sort by their publication stamp, so claims follow enqueue
        order, which is the sweep's submission order.  Returns fewer than
        *count* tasks (possibly none) when the queue runs dry or races are
        lost; callers treat a short batch as "queue is draining".
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        worker = worker or worker_identity()
        batch: list[CellTask] = []
        for name in sorted(self.storage.list_keys("pending/")):
            parsed = _parse_marker(name)
            if parsed is None:
                self.storage.delete(name)  # malformed garbage
                continue
            _, attempt, key = parsed
            if attempt > self.max_attempts:
                self._park(
                    key,
                    f"exceeded {self.max_attempts} attempts (lease expiries "
                    "or failures)",
                    attempt=attempt,
                )
                self.storage.delete(name)
                continue
            task = self._try_claim(name, key, attempt, worker)
            if task is not None:
                batch.append(task)
                if len(batch) >= count:
                    break
        return batch

    def claim(self, worker: str | None = None) -> CellTask | None:
        """Take one pending task, or ``None`` when empty."""
        batch = self.claim_batch(1, worker=worker)
        return batch[0] if batch else None

    def _try_claim(
        self, marker: str, key: str, attempt: int, worker: str
    ) -> CellTask | None:
        token = uuid.uuid4().hex
        now = time.time()
        lease = {
            "key": key,
            "worker": worker,
            "owner": token,
            "claimed_at": now,
            "expires": now + self.lease_seconds,
            "attempt": attempt,
        }
        if not self.storage.put_if_absent(
            _lease_name(key, attempt), json.dumps(lease).encode()
        ):
            # Attempt N is (or was) owned by someone else; the marker that
            # advertised it is dead either way.
            self.storage.delete(marker)
            return None
        try:
            blob = self.storage.get(f"tasks/{key}")
        except KeyError:
            # Stale marker for a completed/parked task: we won a lease on
            # nothing.  Drop both and move on.
            self.storage.delete(marker)
            self.storage.delete(_lease_name(key, attempt))
            return None
        try:
            envelope = pickle.loads(blob)
            task: CellTask = envelope["task"]
        except Exception as error:
            self._park(key, f"unpicklable task: {error!r}", attempt=attempt)
            self.storage.delete(marker)
            self.storage.delete(_lease_name(key, attempt))
            return None
        task.attempt = attempt
        with self._owned_lock:
            self._owned[key] = (token, attempt)
        self.storage.delete(marker)
        return task

    def complete(self, task: CellTask) -> None:
        """Mark a claimed task done: drop the task blob and its lease."""
        with self._owned_lock:
            owned = self._owned.pop(task.key, None)
        attempt = owned[1] if owned else task.attempt
        # Blob first: a crash between the two deletes leaves a lease
        # without a task, which the scavenger recognises as garbage — the
        # reverse order would leave a task the orphan heal re-advertises,
        # re-executing a completed cell.
        self.storage.delete(f"tasks/{task.key}")
        self.storage.delete(_lease_name(task.key, attempt))

    def release_failed(
        self, task: CellTask, error: str, worker: str | None = None
    ) -> bool:
        """Requeue (or park) a cell that raised; ``True`` when requeued.

        Ownership-checked: if the lease meanwhile expired and was stolen,
        the stale failure report is ignored so it cannot clobber the new
        claimant or roll the attempt counter back — otherwise a poison
        cell slower than the lease would retry forever.
        """
        lease_name = _lease_name(task.key, task.attempt)
        try:
            lease = json.loads(self.storage.get(lease_name))
        except (KeyError, ValueError):
            self._drop_owned(task.key)
            return False  # lease gone: stolen or completed elsewhere
        with self._owned_lock:
            owned = self._owned.get(task.key)
        if owned is not None and lease.get("owner") != owned[0]:
            self._drop_owned(task.key)
            return False  # re-granted to someone else at the same attempt
        if worker is not None and (
            lease.get("worker") != worker or lease.get("attempt") != task.attempt
        ):
            return False
        self._drop_owned(task.key)
        if task.attempt >= self.max_attempts:
            self._park(task.key, error, attempt=task.attempt)
            self.storage.delete(lease_name)
            return False
        # Publish the next attempt *before* dropping the lease: a crash in
        # between leaves an extra expired lease (scavenger garbage) rather
        # than an unadvertised task wedged until the orphan heal.
        self._publish_marker(task.key, task.attempt + 1)
        self.storage.delete(lease_name)
        return True

    # ------------------------------------------------------------------
    # Lease management
    # ------------------------------------------------------------------
    def renew_lease(self, task: CellTask, worker: str | None = None) -> bool:
        """Heartbeat: re-PUT our lease with a fresh expiry, then read back.

        Returns ``False`` — and must not write — when the lease is no
        longer ours to renew: deleted (stolen), expired (about to be
        stolen; renewing would race the scavenger), or carrying another
        owner's token.  The read-back after the re-PUT catches the
        remaining window where a last-writer-wins overwrite landed on top
        of ours.
        """
        worker = worker or worker_identity()
        lease_name = _lease_name(task.key, task.attempt)
        try:
            lease = json.loads(self.storage.get(lease_name))
        except (KeyError, ValueError):
            self._drop_owned(task.key)
            return False
        with self._owned_lock:
            owned = self._owned.get(task.key)
        token = owned[0] if owned is not None else None
        if token is not None:
            if lease.get("owner") != token:
                self._drop_owned(task.key)
                return False
        elif lease.get("worker") != worker or lease.get("attempt") != task.attempt:
            return False  # cross-process view: not ours
        if lease.get("expires", 0.0) <= time.time():
            # Already expired: stand down rather than resurrect a claim the
            # scavenger may be stealing right now.
            self._drop_owned(task.key)
            return False
        lease["worker"] = worker
        lease["expires"] = time.time() + self.lease_seconds
        payload = json.dumps(lease).encode()
        self.storage.put_atomic(lease_name, payload)
        try:
            readback = json.loads(self.storage.get(lease_name))
        except (KeyError, ValueError):
            self._drop_owned(task.key)
            return False
        if token is not None and readback.get("owner") != token:
            self._drop_owned(task.key)
            return False
        return True

    def requeue_expired(
        self, now: float | None = None, *, details: list | None = None
    ) -> list[str]:
        """Steal expired leases and heal orphaned tasks (crash recovery).

        Listing order matters: tasks before markers before leases, so a
        task observed without a marker has had every chance to show its
        lease — a fresh enqueue or an in-flight claim is never mistaken
        for an orphan.  Each steal publishes the next attempt's marker
        through a *deterministic* conditional PUT, so concurrent
        scavengers recover (and count) each lost cell exactly once.

        Pass a list as *details* to additionally receive one
        ``{"key", "worker", "attempt", "reason", "expired_at"}`` record per
        requeued cell — ``sweep status`` surfaces which worker lost which
        cell mid-run.
        """
        now = time.time() if now is None else now
        task_keys = {
            name.removeprefix("tasks/") for name in self.storage.list_keys("tasks/")
        }
        marker_keys: set[str] = set()
        for name in self.storage.list_keys("pending/"):
            parsed = _parse_marker(name)
            if parsed is not None:
                marker_keys.add(parsed[2])
        leases_by_key: dict[str, list[int]] = {}
        for name in self.storage.list_keys("leases/"):
            parsed = _parse_lease(name)
            if parsed is not None:
                leases_by_key.setdefault(parsed[0], []).append(parsed[1])

        requeued: list[str] = []
        for key, attempts in sorted(leases_by_key.items()):
            top = max(attempts)
            for stale in attempts:
                # A lower-numbered lease is always dead — attempt N+1 only
                # ever exists once N was released or stolen.
                if stale != top:
                    self.storage.delete(_lease_name(key, stale))
            try:
                lease = json.loads(self.storage.get(_lease_name(key, top)))
            except (KeyError, ValueError):
                continue  # completed or being stolen under us
            if key not in task_keys:
                # Lease outliving its task: leftover of a crash inside
                # complete(); harmless garbage.
                self.storage.delete(_lease_name(key, top))
                continue
            expires = float(lease.get("expires", 0.0))
            if expires > now:
                continue
            # Steal: advertise attempt top+1, then retire the dead lease.
            # The marker name is derived from the lease expiry, so every
            # scavenger racing on this steal computes the same name and
            # put_if_absent lets exactly one through.
            won = self._publish_marker(
                key, top + 1, stamp_ns=int(expires * 1_000_000_000)
            )
            self.storage.delete(_lease_name(key, top))
            if won:
                requeued.append(key)
                if details is not None:
                    details.append(
                        {
                            "key": key,
                            "worker": lease.get("worker"),
                            "attempt": lease.get("attempt"),
                            "reason": "lease-expired",
                            "expired_at": expires,
                        }
                    )

        # Orphan heal: a task blob no marker advertises and no lease
        # covers.  One full lease period of grace from the enqueue rules
        # out the in-flight enqueue (and the claim window, where marker
        # and lease overlap).
        for key in sorted(task_keys - marker_keys - leases_by_key.keys()):
            try:
                envelope = pickle.loads(self.storage.get(f"tasks/{key}"))
                enqueued_at = float(envelope["enqueued_at"])
                attempt = int(envelope["task"].attempt) + 1
            except Exception:
                continue  # completed meanwhile, or unreadable (claim parks it)
            if enqueued_at + self.lease_seconds > now:
                continue
            won = self._publish_marker(
                key, attempt, stamp_ns=int(enqueued_at * 1_000_000_000)
            )
            if won:
                requeued.append(key)
                if details is not None:
                    details.append(
                        {
                            "key": key,
                            "worker": None,  # no lease names a worker
                            "attempt": None,
                            "reason": "orphaned-task",
                            "expired_at": enqueued_at + self.lease_seconds,
                        }
                    )
        return requeued

    def _drop_owned(self, key: str) -> None:
        with self._owned_lock:
            self._owned.pop(key, None)

    def _park(self, key: str, error: str, attempt: int = 0) -> None:
        record = {
            "key": key,
            "error": error,
            "attempt": attempt,
            "failed_at": time.time(),
        }
        self.storage.put_atomic(
            f"failed/{key}", json.dumps(record, indent=1).encode()
        )
        self.storage.delete(f"tasks/{key}")
        self._drop_owned(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_keys(self) -> list[str]:
        keys = set()
        for name in self.storage.list_keys("pending/"):
            parsed = _parse_marker(name)
            if parsed is not None:
                keys.add(parsed[2])
        return sorted(keys)

    def claimed_keys(self) -> list[str]:
        tasks = {
            name.removeprefix("tasks/") for name in self.storage.list_keys("tasks/")
        }
        return sorted(tasks - set(self.pending_keys()))

    def failed_keys(self) -> list[str]:
        return sorted(
            name.removeprefix("failed/")
            for name in self.storage.list_keys("failed/")
        )

    def failure(self, key: str) -> dict:
        """The terminal failure record for *key*; :class:`SweepError` if none."""
        try:
            return json.loads(self.storage.get(f"failed/{key}"))
        except KeyError:
            raise SweepError(f"no failure record for {key}") from None

    def clear_failure(self, key: str) -> bool:
        """Drop a terminal failure record so the cell may be enqueued again
        (used by ``sweep retry`` after the underlying cause is fixed)."""
        return self.storage.delete(f"failed/{key}")

    def is_idle(self) -> bool:
        """True when no task blobs exist and nothing is advertised."""
        return not self.storage.list_keys("tasks/") and not self.storage.list_keys(
            "pending/"
        )

    def describe(self) -> str:
        return f"{self.flavor} queue on {self.storage.describe()}"


class FileQueue(ObjectQueue):
    """The queue over a local (or shared network) directory."""

    flavor = "file"

    def __init__(
        self,
        root: str | Path,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.root = Path(root)
        super().__init__(
            LocalFSBackend(self.root),
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
        )


def queue_from_url(
    url: "str | Path | ObjectQueue",
    *,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ObjectQueue:
    """Resolve a ``--queue-url`` value (or bare path) to a queue.

    The URL grammar is ``--store-url``'s (:func:`storage_from_url`): a
    bare path or ``file:///abs/path`` gives a :class:`FileQueue`,
    ``mem://name`` / ``s3://bucket[/prefix][?endpoint=…]`` an
    :class:`ObjectQueue` on that backend.
    """
    if isinstance(url, ObjectQueue):
        return url
    storage = storage_from_url(url)
    if isinstance(storage, LocalFSBackend):
        return FileQueue(
            storage.root, lease_seconds=lease_seconds, max_attempts=max_attempts
        )
    return ObjectQueue(
        storage, lease_seconds=lease_seconds, max_attempts=max_attempts
    )


__all__ = [
    "Backoff",
    "CellTask",
    "FileQueue",
    "ObjectQueue",
    "queue_from_url",
    "worker_identity",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
]
