"""Sweep orchestration: submit / worker / status / collect.

A *sweep* is one named experiment harness (``figure6``, ``ablation``, ...)
whose cells are executed through the content-addressed
:class:`~repro.sweep.store.ResultStore` instead of directly.  Everything
lives under one **sweep directory** that may be shared between machines::

    <sweep_dir>/
        store/        content-addressed result records (the cache)
        queue/        the work queue (tasks/ pending/ leases/ failed/)
        manifests/    <name>.json — ordered cell keys + options per sweep
        telemetry/    <worker>.jsonl — per-worker fleet telemetry logs

The store and manifests speak the pluggable
:class:`~repro.sweep.storage.StorageBackend` protocol: by default both
live under the sweep directory itself (the layout above), but a
``store_url`` (``file://``, ``mem://``, ``s3://`` — the CLI's
``--store-url``) relocates them onto any backend, e.g. an S3-style object
store shared by workers that only have the *queue* directory in common.

The lifecycle mirrors a batch scheduler:

* :func:`submit` enumerates the sweep's cells, writes the manifest
  (submission-ordered keys — the row order of the final table), and
  enqueues every cell whose result is not already stored;
* any number of :func:`worker_loop` processes (``repro sweep worker``)
  claim cells from the queue, execute them, and write results back;
* :func:`status` reports done/pending/claimed/failed counts;
* :func:`collect` replays the harness against the store (no execution) and
  assembles the exact tables the serial harness would have produced.

The bridge into the harnesses is :class:`CachedExecutor`, a
``run_parallel``-compatible callable: every ``run_*`` function accepts an
``executor`` argument and routes its cells through it, so the same harness
code serves the serial path, the local pool, and the distributed queue.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..parallel import ParallelJob, _execute
from ..telemetry import Histogram, StorageSink, Tracer
from ..telemetry.report import parse_event_lines
from .backends import ExecutorBackend, FileQueueBackend
from .filequeue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    Backoff,
    CellTask,
    ObjectQueue,
    queue_from_url,
    worker_identity,
)
from .hashing import SweepError, cell_key, qualified_name, sweep_salt
from .registry import sweep_spec
from .storage import LocalFSBackend, StorageBackend, storage_from_url
from .store import GCReport, ResultStore, StoreScan


class MissingCellsError(SweepError):
    """Raised when results are requested for cells that were never run."""

    def __init__(self, missing: Sequence[str], total: int):
        self.missing = list(missing)
        self.total = total
        super().__init__(
            f"{len(self.missing)} of {total} sweep cell(s) have no stored "
            "result yet; run `sweep worker` (or `sweep run`) to compute them"
        )


class SweepSubmitted(Exception):
    """Internal control flow: aborts table assembly during ``submit``."""

    def __init__(self, keys: list[str], cells: list[ParallelJob]):
        self.keys = keys
        self.cells = cells
        super().__init__(f"sweep submitted with {len(keys)} cells")


class CachedExecutor:
    """``run_parallel``-compatible adapter over store + backend.

    Looks every cell up in the store first — one batched
    :meth:`~repro.sweep.store.ResultStore.lookup_many` probe per call, so a
    fully cached resubmission costs a single listing rather than a stat per
    cell — and only misses reach the backend.  Results are returned in
    submission order, so tables built through this adapter are row-for-row
    identical to the plain serial harness.
    """

    def __init__(
        self,
        store: ResultStore,
        backend: ExecutorBackend | None = None,
        *,
        salt: str | None = None,
    ):
        self.store = store
        self.backend = backend
        self.salt = salt if salt is not None else sweep_salt()
        self.hits = 0
        self.misses = 0
        self.keys: list[str] = []  # submission-ordered, across calls

    def __call__(self, jobs: Sequence[ParallelJob], workers: int = 1) -> list:
        jobs = list(jobs)
        keys = [cell_key(cell, self.salt) for cell in jobs]
        self.keys.extend(keys)
        # One batched probe over the unique keys: a single backend listing
        # plus reads of the hits, instead of a stat-and-read per cell.
        results: dict[str, object] = dict(
            self.store.lookup_many(list(dict.fromkeys(keys)))
        )
        self.hits += len(results)
        missing: list[CellTask] = []
        seen_missing: set[str] = set()
        for key, cell in zip(keys, jobs):
            if key in results or key in seen_missing:
                continue
            self.misses += 1
            seen_missing.add(key)
            missing.append(
                CellTask(
                    key,
                    cell,
                    meta={"func": qualified_name(cell.func), "salt": self.salt},
                )
            )
        if missing:
            if self.backend is None:
                raise MissingCellsError([task.key for task in missing], len(jobs))
            self.backend.run(missing, self.store)
            # One batched read-back (no cache accounting) instead of a
            # round trip per freshly computed cell.
            results.update(self.store.peek_many([task.key for task in missing]))
        return [results[key] for key in keys]


class _SubmitExecutor(CachedExecutor):
    """Captures the cell list during ``submit`` instead of executing it."""

    def __call__(self, jobs: Sequence[ParallelJob], workers: int = 1) -> list:
        jobs = list(jobs)
        raise SweepSubmitted([cell_key(cell, self.salt) for cell in jobs], jobs)


# ----------------------------------------------------------------------
# The sweep directory
# ----------------------------------------------------------------------
@dataclass
class SweepDirectory:
    """Paths + handles of one (possibly shared) sweep directory.

    By default the work queue is a
    :class:`~repro.sweep.filequeue.FileQueue` under *root* (the
    claim/lease protocol over a shared filesystem); a *queue_url*
    relocates it — ``file://`` onto another directory, ``s3://`` /
    ``mem://`` onto an :class:`~repro.sweep.filequeue.ObjectQueue` on
    that backend, so workers need no shared filesystem at all.  The
    result store and the sweep manifests likewise go through a
    :class:`~repro.sweep.storage.StorageBackend` — under *root* by
    default, or wherever *store_url* points (``file://``, ``mem://``,
    ``s3://``).  With both URLs on one bucket, a fleet coordinates through
    nothing but that bucket.
    """

    root: Path
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    store_url: "str | StorageBackend | None" = None
    queue_url: "str | ObjectQueue | None" = None
    store: ResultStore = field(init=False)
    queue: ObjectQueue = field(init=False)
    storage: StorageBackend = field(init=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.storage = (
            storage_from_url(self.store_url)
            if self.store_url is not None
            else LocalFSBackend(self.root)
        )
        self.store = ResultStore(self.storage.sub("store"))
        self._manifests = self.storage.sub("manifests")
        self.queue = queue_from_url(
            self.root / "queue" if self.queue_url is None else self.queue_url,
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
        )

    @staticmethod
    def _manifest_key(name: str) -> str:
        return f"{name}.json"

    def manifest_path(self, name: str) -> Path:
        """On-disk manifest path (local-filesystem storage only)."""
        if isinstance(self._manifests, LocalFSBackend):
            return self._manifests.path_for(self._manifest_key(name))
        raise SweepError(f"{self._manifests.describe()} has no local paths")

    def save_manifest(self, name: str, manifest: dict) -> None:
        self._manifests.put_text(
            self._manifest_key(name), json.dumps(manifest, indent=1)
        )

    def load_manifest(self, name: str) -> dict:
        try:
            return json.loads(self._manifests.get_text(self._manifest_key(name)))
        except KeyError:
            raise SweepError(
                f"no manifest for sweep {name!r} in {self._manifests.describe()}"
                " — run `sweep submit` first"
            ) from None

    def manifests(self) -> list[str]:
        return sorted(
            key[: -len(".json")]
            for key in self._manifests.list_keys()
            if key.endswith(".json") and "/" not in key
        )


@dataclass
class SubmitReport:
    """Outcome of one ``submit`` call."""

    name: str
    total: int
    cached: int
    enqueued: int
    already_queued: int
    failed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def summary(self) -> str:
        text = (
            f"sweep {self.name!r}: {self.total} cells — {self.cached} cached "
            f"({self.hit_rate:.0%} hits), {self.enqueued} enqueued, "
            f"{self.already_queued} already in queue"
        )
        if self.failed:
            text += (
                f", {self.failed} parked as permanently failed "
                "(`sweep retry` re-queues them)"
            )
        return text


def submit(
    directory: SweepDirectory,
    name: str,
    *,
    options: dict | None = None,
    salt: str | None = None,
) -> SubmitReport:
    """Enumerate the cells of sweep *name*, record its manifest, and queue
    every cell whose result is not already in the store.

    Missing cells are enqueued in submission order, which is also the
    order of the manifest's ``keys`` — the row order of the collected
    tables.
    """
    spec = sweep_spec(name)
    options = spec.normalize_options(options or {})
    executor = _SubmitExecutor(directory.store, salt=salt)
    try:
        spec.build(executor, **options)
    except SweepSubmitted as submitted:
        keys, cells = submitted.keys, submitted.cells
    else:
        raise SweepError(
            f"sweep {name!r} never routed its cells through the executor"
        )
    manifest = {
        "sweep": name,
        "salt": executor.salt,
        "options": options,
        "created_at": time.time(),
        "keys": keys,
        "funcs": sorted({qualified_name(cell.func) for cell in cells}),
    }
    directory.save_manifest(name, manifest)

    cached = enqueued = already_queued = failed = 0
    failed_keys = set(directory.queue.failed_keys())
    # One batched existence probe (a single store listing) instead of a
    # stat per cell — a resubmitted 100%-hit sweep costs one round trip.
    stored = directory.store.contains_many(list(dict.fromkeys(keys)))
    seen: set[str] = set()
    for key, cell in zip(keys, cells):
        if key in seen:
            continue
        seen.add(key)
        if key in stored:
            cached += 1
        elif key in failed_keys:
            # Terminal failures stay parked until an operator intervenes
            # (`sweep retry` clears the records and re-submits).
            failed += 1
        else:
            task = CellTask(
                key,
                cell,
                meta={"func": qualified_name(cell.func), "salt": executor.salt},
            )
            if directory.queue.enqueue(task):
                enqueued += 1
            else:
                already_queued += 1
    return SubmitReport(
        name=name,
        total=len(seen),
        cached=cached,
        enqueued=enqueued,
        already_queued=already_queued,
        failed=failed,
    )


def retry(directory: SweepDirectory, name: str) -> tuple[int, SubmitReport]:
    """Clear the sweep's terminal failure records and re-submit it.

    A cell that exhausted its attempts stays parked under ``failed/`` —
    ``submit`` will not silently re-queue it, because a poison cell would
    just fail again.  Once the underlying cause is fixed (transient OOM, a
    code bug — remember to bump the salt if results changed), ``retry``
    drops the failure records of this sweep's cells and re-submits, which
    re-enqueues exactly the cleared (and any otherwise missing) cells.
    Returns ``(cleared_count, submit_report)``.
    """
    manifest = directory.load_manifest(name)
    cleared = sum(
        1 for key in set(manifest["keys"]) if directory.queue.clear_failure(key)
    )
    return cleared, submit(directory, name, options=manifest["options"])


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
@dataclass
class WorkerReport:
    worker: str
    executed: int = 0
    failed: int = 0
    requeued_leases: int = 0

    def summary(self) -> str:
        return (
            f"worker {self.worker}: executed {self.executed} cell(s), "
            f"{self.failed} failed, recovered {self.requeued_leases} "
            "expired lease(s)"
        )


#: Upper bound on the adaptive claim-batch size: big enough to amortize the
#: pending/ listing over a deep queue, small enough that a claimed batch is
#: re-executed cheaply elsewhere if this worker dies mid-batch.
MAX_CLAIM_BATCH = 8


def worker_loop(
    directory: SweepDirectory,
    *,
    poll_interval: float = 0.2,
    max_tasks: int | None = None,
    exit_when_idle: bool = True,
    worker: str | None = None,
    on_task=None,
    claim_batch: int | None = None,
    max_poll_interval: float | None = None,
    stop: "threading.Event | None" = None,
) -> WorkerReport:
    """Claim and execute queued cells until the queue is idle.

    Multiple worker processes — on any machines sharing the sweep
    directory — run this loop concurrently; the claim protocol guarantees
    each cell executes once (unless a lease expires, in which case the cell
    is re-run by a surviving worker and the idempotent store write keeps the
    outcome unchanged).  While cells run, a background thread renews the
    leases of every still-outstanding claimed task at half-period, so cells
    slower than the lease are not stolen from a live worker.
    ``exit_when_idle=False`` keeps the worker polling for future
    submissions (a daemon worker); ``max_tasks`` bounds the number of
    executed cells (used by tests to simulate crashes).

    *stop* is an optional :class:`threading.Event` for graceful shutdown
    of embedded daemon workers (``repro serve --local-workers``): the
    event is checked **between claim batches only** — a batch already
    claimed runs to completion and every one of its leases is completed
    or released before the loop returns, so stopping never strands a
    lease for peers to recover.  Idle sleeps wait on the event, so a
    stop request interrupts the backoff immediately.

    Tasks are claimed in batches (:meth:`ObjectQueue.claim_batch` — one
    pending/ listing per batch instead of per cell).  *claim_batch* fixes
    the batch size; the default ``None`` adapts it: start at 1, double up
    to :data:`MAX_CLAIM_BATCH` while the queue keeps filling the batch,
    snap back to 1 on a short batch — a deep queue amortizes the listing,
    a draining queue is not hoarded.  Idle polls back off exponentially
    from *poll_interval* up to *max_poll_interval* (default: a fraction of
    the lease period, capped at 5s) and reset the moment a claim lands.

    Every worker also keeps a **fleet telemetry** log — one
    ``telemetry/<worker>.jsonl`` blob on the sweep's storage backend with a
    ``sweep.cell`` span per executed cell plus lease-renewal / requeue /
    failure events.  It is always on (a few tiny blob writes per cell, far
    below cell cost) and is what ``sweep status --telemetry`` reads; the
    blob's newest timestamp doubles as the worker's last-seen heartbeat.
    This channel is separate from the ``ISEGEN_TRACE`` span tracer, which
    (when enabled) still records the in-cell engine spans.
    """
    worker = worker or worker_identity()
    report = WorkerReport(worker=worker)
    queue, store = directory.queue, directory.store
    fleet = Tracer(
        StorageSink(directory.storage.sub("telemetry"), f"{worker}.jsonl"),
        flush_every=1,
    )
    fleet.event("worker.start", worker=worker, queue=queue.flavor)
    # The recovery scan stats every lease and claimed task — O(queue size)
    # filesystem metadata reads, painful on the shared/NFS deployments the
    # queue targets.  Throttle it to a fraction of the lease period (leases
    # cannot expire faster than that) instead of scanning before every claim.
    scan_interval = max(poll_interval, queue.lease_seconds / 4)
    last_scan = float("-inf")
    if max_poll_interval is None:
        max_poll_interval = max(poll_interval, min(5.0, queue.lease_seconds / 8))
    idle = Backoff(poll_interval, max_poll_interval)
    adaptive = claim_batch is None
    batch_target = 1 if adaptive else max(1, int(claim_batch))
    try:
        while True:
            if stop is not None and stop.is_set():
                return report
            now = time.monotonic()
            if now - last_scan >= scan_interval:
                requeue_details: list[dict] = []
                report.requeued_leases += len(
                    queue.requeue_expired(details=requeue_details)
                )
                for detail in requeue_details:
                    fleet.event(
                        "lease.requeued",
                        recovered_by=worker,
                        queue=queue.flavor,
                        **detail,
                    )
                last_scan = now
            want = batch_target
            if max_tasks is not None:
                # Never claim more than this worker is still allowed to
                # execute: claimed-but-abandoned tasks would sit out a full
                # lease period before another worker could recover them.
                want = min(want, max_tasks - (report.executed + report.failed))
            batch = queue.claim_batch(want, worker=worker)
            if not batch:
                if exit_when_idle and queue.is_idle():
                    return report
                if adaptive:
                    batch_target = 1
                wait = idle.step()
                if stop is not None:
                    stop.wait(wait)
                else:
                    time.sleep(wait)
                continue
            idle.reset()
            fleet.event(
                "queue.claimed",
                requested=want,
                got=len(batch),
                batch_target=batch_target,
            )
            if adaptive:
                # Full batch → the queue is deep, double down; short batch →
                # it is draining, drop back to single claims so peers get
                # their share of the tail.
                batch_target = (
                    min(batch_target * 2, MAX_CLAIM_BATCH)
                    if len(batch) >= want
                    else 1
                )
            # Renew the leases at half-period while cells run, so a cell
            # slower than the lease (full-genetic AES takes tens of minutes)
            # is not requeued — and eventually parked as failed — by peers
            # while a healthy worker is still computing it.  One thread
            # covers the whole batch; `outstanding` (under `beat_lock`)
            # names the tasks whose leases are still this worker's to renew,
            # and tasks leave it *before* their completion or release so the
            # heartbeat can never resurrect a lease the queue already
            # dropped.  The thread only does file I/O, so it gets scheduled
            # even against a CPU-bound cell.
            stop_heartbeat = threading.Event()
            outstanding: list[CellTask] = list(batch)
            beat_lock = threading.Lock()

            def _heartbeat(tasks=outstanding, lock=beat_lock, stop=stop_heartbeat):
                while not stop.wait(queue.lease_seconds / 2):
                    for beat_task in list(tasks):
                        with lock:
                            if beat_task not in tasks:
                                continue
                            renewed = queue.renew_lease(beat_task, worker)
                            if not renewed:
                                # The lease expired and was stolen (object
                                # queue; the file queue always renews):
                                # stand down — further heartbeats on this
                                # task would race the new claimant.  The
                                # cell keeps running; its store write is
                                # idempotent, so finishing it is harmless.
                                tasks.remove(beat_task)
                        fleet.event(
                            "lease.renewed" if renewed else "lease.lost",
                            key=beat_task.key,
                            attempt=beat_task.attempt,
                            queue=queue.flavor,
                        )

            heartbeat = threading.Thread(target=_heartbeat, daemon=True)
            heartbeat.start()
            try:
                for task in batch:
                    try:
                        # Route through the shared cell wrapper so the
                        # ISEGEN_TRACE channel gets the same
                        # ``experiment.cell`` span whether the cell ran
                        # serially, in a pool worker, or on the sweep fleet.
                        # The fleet span carries the queue-side identity
                        # (key, attempt) and flips to error=True when the
                        # cell raises.
                        with fleet.span(
                            "sweep.cell",
                            {
                                "key": task.key,
                                "attempt": task.attempt,
                                "func": task.meta.get("func", "?"),
                            },
                        ):
                            result = _execute(task.cell)
                    except Exception as error:  # noqa: BLE001 — worker must survive bad cells
                        with beat_lock:
                            if task in outstanding:
                                outstanding.remove(task)
                        queue.release_failed(
                            task, f"{type(error).__name__}: {error}", worker
                        )
                        report.failed += 1
                        fleet.event(
                            "cell.failed",
                            key=task.key,
                            attempt=task.attempt,
                            error=f"{type(error).__name__}: {error}",
                        )
                    else:
                        with beat_lock:
                            if task in outstanding:
                                outstanding.remove(task)
                        store.put(
                            task.key,
                            result,
                            meta={
                                "worker": worker,
                                "attempt": task.attempt,
                                **task.meta,
                            },
                        )
                        queue.complete(task)
                        report.executed += 1
                        if on_task is not None:
                            on_task(task)
            finally:
                stop_heartbeat.set()
                heartbeat.join()
            if max_tasks is not None and report.executed + report.failed >= max_tasks:
                return report
    finally:
        fleet.event(
            "worker.exit",
            executed=report.executed,
            failed=report.failed,
            requeued_leases=report.requeued_leases,
        )
        fleet.close()


# ----------------------------------------------------------------------
# Status / collect / in-process runs
# ----------------------------------------------------------------------
@dataclass
class SweepStatus:
    name: str
    total: int
    done: int
    pending: int
    claimed: int
    failed: int
    # Appended with defaults so positional construction stays valid:
    # cells recovered from expired leases during *this* status scan, with
    # the structured detail records from ObjectQueue.requeue_expired.
    requeued: int = 0
    requeue_details: list = field(default_factory=list)

    @property
    def missing(self) -> int:
        return self.total - self.done

    @property
    def complete(self) -> bool:
        return self.done == self.total

    def summary(self) -> str:
        state = "complete" if self.complete else f"{self.done}/{self.total} done"
        text = (
            f"sweep {self.name!r}: {state} — {self.pending} pending, "
            f"{self.claimed} claimed, {self.failed} failed"
        )
        if self.requeued:
            lost = sorted(
                {
                    detail.get("worker") or "worker unknown (lease never written)"
                    for detail in self.requeue_details
                }
            )
            text += (
                f"; requeued {self.requeued} expired lease(s)"
                + (f" lost mid-cell by {', '.join(lost)}" if lost else "")
            )
        return text


def status(directory: SweepDirectory, name: str) -> SweepStatus:
    manifest = directory.load_manifest(name)
    keys = set(manifest["keys"])
    requeue_details: list[dict] = []
    requeued = directory.queue.requeue_expired(details=requeue_details)
    done = len(directory.store.contains_many(list(keys)))
    return SweepStatus(
        name=name,
        total=len(keys),
        done=done,
        pending=len(keys & set(directory.queue.pending_keys())),
        claimed=len(keys & set(directory.queue.claimed_keys())),
        failed=len(keys & set(directory.queue.failed_keys())),
        requeued=len(requeued),
        requeue_details=requeue_details,
    )


# ----------------------------------------------------------------------
# Fleet telemetry (``sweep status --telemetry``)
# ----------------------------------------------------------------------
@dataclass
class WorkerTelemetry:
    """Aggregated view of one worker's ``telemetry/<worker>.jsonl`` log."""

    worker: str
    cells: int = 0
    failed: int = 0
    renewals: int = 0
    requeues_recovered: int = 0  # expired leases *this* worker returned
    leases_lost: int = 0  # cells stolen from this worker after lease expiry
    exited: bool = False
    first_ts: float | None = None
    last_ts: float | None = None
    cell_seconds: Histogram = field(
        default_factory=lambda: Histogram(name="sweep.cell.seconds")
    )

    def observe(self, ts: float | None) -> None:
        if ts is None:
            return
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts

    def last_seen_age(self, now: float) -> float | None:
        if self.last_ts is None:
            return None
        return max(0.0, now - self.last_ts)

    def throughput_per_minute(self) -> float:
        """Completed cells per minute over the worker's active window."""
        if not self.cells or self.first_ts is None or self.last_ts is None:
            return 0.0
        window = max(self.last_ts - self.first_ts, 1e-9)
        return self.cells / window * 60.0


def fleet_telemetry(
    directory: SweepDirectory, *, now: float | None = None
) -> list[WorkerTelemetry]:
    """Parse every worker's telemetry blob into per-worker aggregates.

    Workers that never wrote telemetry but show up as lease losers in
    *other* workers' requeue events still get a row (with
    ``leases_lost`` set) — a crashed worker is exactly the one whose own
    log stops, so its absence is the signal worth surfacing.
    """
    del now  # reserved for symmetry with format_fleet_lines
    storage = directory.storage.sub("telemetry")
    workers: dict[str, WorkerTelemetry] = {}

    def entry(name: str) -> WorkerTelemetry:
        telem = workers.get(name)
        if telem is None:
            telem = workers[name] = WorkerTelemetry(worker=name)
        return telem

    for key in sorted(storage.list_keys()):
        if not key.endswith(".jsonl") or "/" in key:
            continue
        name = key[: -len(".jsonl")]
        telem = entry(name)
        try:
            events, _skipped = parse_event_lines(
                storage.get_text(key).splitlines()
            )
        except KeyError:  # pragma: no cover - deleted between list and read
            continue
        for record in events:
            ts = record.get("ts")
            ts = float(ts) if isinstance(ts, (int, float)) else None
            telem.observe(ts)
            kind = record.get("type")
            if kind == "span" and record.get("name") == "sweep.cell":
                duration = float(record.get("dur", 0.0))
                telem.observe((ts or 0.0) + duration if ts is not None else None)
                telem.cells += 1
                telem.cell_seconds.observe(duration)
                if record.get("error"):
                    telem.failed += 1
            elif kind == "event":
                event_name = record.get("name")
                attrs = record.get("attrs") or {}
                if event_name == "lease.renewed":
                    telem.renewals += 1
                elif event_name == "lease.requeued":
                    telem.requeues_recovered += 1
                    loser = attrs.get("worker")
                    if loser:
                        entry(str(loser)).leases_lost += 1
                elif event_name == "cell.failed":
                    pass  # the erroring sweep.cell span already counted it
                elif event_name == "worker.exit":
                    telem.exited = True
    return sorted(workers.values(), key=lambda telem: telem.worker)


def format_fleet_lines(
    fleet: list[WorkerTelemetry], *, now: float | None = None
) -> list[str]:
    """Human-readable per-worker telemetry block for ``sweep status``."""
    now = time.time() if now is None else now
    if not fleet:
        return ["fleet telemetry: no worker telemetry recorded yet"]
    total_cells = sum(telem.cells for telem in fleet)
    lines = [
        f"fleet telemetry: {len(fleet)} worker(s), {total_cells} cell span(s)"
    ]
    for telem in fleet:
        if telem.last_ts is None:
            # Known only as a lease loser in someone else's log.
            lines.append(
                f"  {telem.worker}: no telemetry log — "
                f"lost {telem.leases_lost} lease(s) mid-cell (presumed dead)"
            )
            continue
        age = telem.last_seen_age(now)
        seen = "exited" if telem.exited else f"last seen {age:.0f}s ago"
        parts = [
            f"{telem.cells} cell(s)",
            f"{telem.failed} failed",
            f"{telem.throughput_per_minute():.2f} cells/min",
        ]
        if telem.cells:
            parts.append(
                "cell p50 {:.3f}s p90 {:.3f}s max {:.3f}s".format(
                    telem.cell_seconds.percentile(50.0),
                    telem.cell_seconds.percentile(90.0),
                    telem.cell_seconds.max,
                )
            )
        parts.append(f"{telem.renewals} lease renewal(s)")
        if telem.requeues_recovered:
            parts.append(f"recovered {telem.requeues_recovered} expired lease(s)")
        if telem.leases_lost:
            parts.append(f"lost {telem.leases_lost} lease(s) mid-cell")
        lines.append(f"  {telem.worker}: " + ", ".join(parts) + f" — {seen}")
    return lines


def gc(
    directory: SweepDirectory,
    *,
    salt: str | None = None,
    include_unsalted: bool = False,
    dry_run: bool = False,
) -> GCReport:
    """Drop result-store records whose code-version salt is stale.

    Every record written since the salt started riding in the metadata can
    be attributed to the :data:`~repro.sweep.hashing.CODE_VERSION` (plus the
    ``ISEGEN_SWEEP_SALT`` component) that produced it.  A record is only
    dead weight when *nothing* can address it anymore: neither the current
    salt nor any salt pinned by a sweep manifest (``collect`` replays
    through the manifest's salt, so a sweep submitted under a custom
    ``ISEGEN_SWEEP_SALT`` stays collectable after the env var is gone).
    Records predating the salt metadata are kept unless *include_unsalted*
    is set.
    """
    return directory.store.gc(
        _live_salts(directory, salt),
        include_unsalted=include_unsalted,
        dry_run=dry_run,
    )


def _live_salts(directory: SweepDirectory, salt: str | None) -> set[str]:
    """Salts that can still address records: the current (or overridden)
    salt plus every salt pinned by a sweep manifest."""
    live = {salt if salt is not None else sweep_salt()}
    for name in directory.manifests():
        manifest_salt = directory.load_manifest(name).get("salt")
        if manifest_salt:
            live.add(manifest_salt)
    return live


def store_report(directory: SweepDirectory, *, salt: str | None = None) -> str:
    """One-line compaction summary of the sweep's result store."""
    scan: StoreScan = directory.store.scan()
    unsalted = scan.by_salt.get(None, (0, 0))
    stale_records, stale_bytes = scan.stale_against(_live_salts(directory, salt))
    line = f"store: {scan.records} record(s), {scan.bytes / 1024:.1f} KiB"
    if stale_records:
        line += (
            f" — {stale_records} stale-salt record(s) "
            f"({stale_bytes / 1024:.1f} KiB) reclaimable via `sweep gc`"
        )
    if unsalted[0]:
        line += (
            f" — {unsalted[0]} pre-salt record(s) ({unsalted[1] / 1024:.1f} KiB;"
            " `sweep gc --include-unsalted` reclaims them)"
        )
    return line


def collect(directory: SweepDirectory, name: str):
    """Assemble the sweep's tables purely from stored results.

    Raises :class:`MissingCellsError` while cells are still outstanding.
    Because the harness itself replays over the cached rows, the output is
    row-for-row identical to a serial ``run_*`` invocation (timing columns
    carry the values measured when each cell actually ran).
    """
    manifest = directory.load_manifest(name)
    spec = sweep_spec(name)
    executor = CachedExecutor(
        directory.store, backend=None, salt=manifest["salt"]
    )
    tables = spec.build(executor, **spec.normalize_options(manifest["options"]))
    return tables


def run_cached(
    directory: SweepDirectory,
    name: str,
    *,
    backend: ExecutorBackend,
    options: dict | None = None,
    salt: str | None = None,
):
    """In-process cached sweep: compute misses via *backend*, reuse hits.

    Returns ``(tables, executor)`` — the executor carries hit/miss counts.
    """
    spec = sweep_spec(name)
    executor = CachedExecutor(directory.store, backend=backend, salt=salt)
    tables = spec.build(executor, **spec.normalize_options(options or {}))
    return tables, executor


def make_queue_backend(
    directory: SweepDirectory,
    *,
    wait: bool = True,
    poll_interval: float = 0.2,
    timeout: float | None = None,
) -> FileQueueBackend:
    return FileQueueBackend(
        directory.queue, wait=wait, poll_interval=poll_interval, timeout=timeout
    )


__all__ = [
    "CachedExecutor",
    "MissingCellsError",
    "SweepDirectory",
    "SubmitReport",
    "SweepStatus",
    "WorkerReport",
    "WorkerTelemetry",
    "fleet_telemetry",
    "format_fleet_lines",
    "submit",
    "retry",
    "worker_loop",
    "status",
    "store_report",
    "gc",
    "collect",
    "run_cached",
    "make_queue_backend",
]
