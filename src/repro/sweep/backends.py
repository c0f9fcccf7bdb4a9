"""Pluggable executor backends for the sweep subsystem.

A backend's single job: given the *missing* cells of a sweep (content key +
:class:`~repro.parallel.ParallelJob` pairs), execute them and persist each
result into the :class:`~repro.sweep.store.ResultStore` **as it completes**
— never batched at the end — so a killed sweep keeps everything that
finished and resumes from the first truly missing cell.

* :class:`SerialBackend` — in-process, in submission order; the reference
  semantics (and the ``workers=1`` bit-identical guarantee).
* :class:`ProcessPoolBackend` — fans cells over local process pools via
  the shared :func:`~repro.parallel.execute_jobs` engine; the
  distributed-sweep equivalent of ``run_parallel(jobs, workers=N)``.
* :class:`FileQueueBackend` — enqueues cells onto the sweep's
  claim/lease work queue for ``repro sweep worker`` processes (any
  number, any machine that reaches the queue's directory or bucket) and
  optionally blocks until every cell's result appears in the store.

The local backends route their execution through ``execute_jobs`` so the
cancel-on-first-failure discipline is defined in exactly one place.

Backends only ever see cache *misses*; hit bookkeeping happens one layer up
in :class:`~repro.sweep.orchestrator.CachedExecutor`.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Sequence

from ..parallel import execute_jobs
from .filequeue import Backoff, CellTask, ObjectQueue
from .hashing import SweepError
from .store import ResultStore


def _store_writer(tasks: Sequence[CellTask], store: ResultStore, backend_name: str):
    """``on_result`` callback persisting each cell the moment it lands.

    A killed sweep keeps everything that finished, and the resume touches
    only the rest.
    """

    def on_result(index: int, result) -> None:
        task = tasks[index]
        store.put(task.key, result, meta={"backend": backend_name, **task.meta})

    return on_result


class ExecutorBackend(abc.ABC):
    """Strategy interface: execute missing cells and persist their results."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(self, tasks: Sequence[CellTask], store: ResultStore) -> None:
        """Execute every task and ``store.put`` its result under its key."""


class SerialBackend(ExecutorBackend):
    """In-process sequential execution (the reference semantics)."""

    name = "serial"

    def run(self, tasks: Sequence[CellTask], store: ResultStore) -> None:
        tasks = list(tasks)
        execute_jobs(
            [task.cell for task in tasks],
            workers=1,
            on_result=_store_writer(tasks, store, self.name),
        )


class ProcessPoolBackend(ExecutorBackend):
    """Local process-pool execution, results persisted as they complete."""

    name = "process-pool"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run(self, tasks: Sequence[CellTask], store: ResultStore) -> None:
        tasks = list(tasks)
        if not tasks:
            return
        if self.workers == 1 or len(tasks) == 1:
            SerialBackend().run(tasks, store)
            return
        execute_jobs(
            [task.cell for task in tasks],
            workers=self.workers,
            on_result=_store_writer(tasks, store, self.name),
        )


class FileQueueBackend(ExecutorBackend):
    """Distributed execution through a claim/lease work queue.

    Despite the historical name it drives any
    :class:`~repro.sweep.filequeue.ObjectQueue` — on a shared directory
    (:class:`~repro.sweep.filequeue.FileQueue`) or on a bucket alike.

    ``wait=False`` turns :meth:`run` into pure submission (used by
    ``repro sweep submit``): cells are enqueued and the call returns
    immediately.  With ``wait=True`` the call blocks, polling the store,
    until every cell has a result — the work itself is done by however many
    ``repro sweep worker`` processes share the queue.

    Cells are enqueued in submission order, and workers claim in enqueue
    order.  The wait loop polls with capped exponential backoff — one
    batched ``contains_many`` probe per wake-up, backing off while nothing
    lands and snapping back to *poll_interval* the moment a result appears.
    """

    name = "file-queue"

    def __init__(
        self,
        queue: ObjectQueue,
        *,
        wait: bool = True,
        poll_interval: float = 0.2,
        timeout: float | None = None,
    ):
        self.queue = queue
        self.wait = wait
        self.poll_interval = poll_interval
        self.timeout = timeout

    def run(self, tasks: Sequence[CellTask], store: ResultStore) -> None:
        # One batched probe instead of a stat per task (cheap on remote
        # object stores and shared/NFS filesystems alike).
        stored = store.contains_many([task.key for task in tasks])
        tasks = [task for task in tasks if task.key not in stored]
        for task in tasks:
            self.queue.enqueue(task)
        if not self.wait:
            return
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        outstanding = {task.key for task in tasks}
        # Throttle the recovery scan like worker_loop does: it stats every
        # lease and claimed task (expensive on shared/NFS queues), and leases
        # cannot expire faster than a fraction of the lease period anyway.
        scan_interval = max(self.poll_interval, self.queue.lease_seconds / 4)
        last_scan = float("-inf")
        backoff = Backoff(
            self.poll_interval,
            max(self.poll_interval, min(5.0, self.queue.lease_seconds / 8)),
        )
        while outstanding:
            now = time.monotonic()
            if now - last_scan >= scan_interval:
                self.queue.requeue_expired()
                last_scan = now
            landed = store.contains_many(list(outstanding))
            if landed:
                backoff.reset()
            outstanding -= landed
            if not outstanding:
                break
            failed = outstanding & set(self.queue.failed_keys())
            if failed:
                first = sorted(failed)[0]
                detail = self.queue.failure(first).get("error", "unknown error")
                raise SweepError(
                    f"{len(failed)} sweep cell(s) failed permanently; "
                    f"first: {first[:12]}… ({detail})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise SweepError(
                    f"timed out waiting for {len(outstanding)} queued cell(s); "
                    "are any `sweep worker` processes running?"
                )
            delay = backoff.step()
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            time.sleep(delay)


__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "FileQueueBackend",
]
