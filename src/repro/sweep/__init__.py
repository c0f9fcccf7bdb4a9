"""Distributed sweep subsystem.

Turns the in-process experiment harnesses into a durable, addressable,
resumable execution service:

* :mod:`repro.sweep.hashing` — content addresses for experiment cells;
* :mod:`repro.sweep.storage` — pluggable blob-storage backends
  (``file://`` / ``mem://`` / ``s3://``) behind one protocol;
* :mod:`repro.sweep.objectstore` — the S3-dialect REST backend and the
  in-repo offline :class:`~repro.sweep.objectstore.FakeObjectServer`;
* :mod:`repro.sweep.store` — the content-addressed JSON result store;
* :mod:`repro.sweep.filequeue` — the claim/lease work queue over any
  storage backend (a shared directory or an ``s3://`` bucket);
* :mod:`repro.sweep.sigv4` — pure-stdlib AWS SigV4 request signing;
* :mod:`repro.sweep.backends` — serial / process-pool / file-queue executors;
* :mod:`repro.sweep.orchestrator` — submit / worker / status / collect;
* :mod:`repro.sweep.registry` — the named sweeps (one per harness);
* :mod:`repro.sweep.benchtrack` — benchmark regression tracking.
"""

from .hashing import CODE_VERSION, SweepError, cell_key, sweep_salt
from .storage import (
    LocalFSBackend,
    MemoryBackend,
    StorageBackend,
    memory_store,
    storage_from_url,
)
from .store import GCReport, ResultStore, StoreScan, StoreStats
from .filequeue import (
    Backoff,
    CellTask,
    FileQueue,
    ObjectQueue,
    queue_from_url,
    worker_identity,
)
from .backends import (
    ExecutorBackend,
    FileQueueBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from .orchestrator import (
    CachedExecutor,
    MissingCellsError,
    SubmitReport,
    SweepDirectory,
    SweepStatus,
    WorkerReport,
    WorkerTelemetry,
    collect,
    fleet_telemetry,
    format_fleet_lines,
    gc,
    make_queue_backend,
    retry,
    run_cached,
    status,
    store_report,
    submit,
    worker_loop,
)
from .registry import SWEEPS, SweepSpec, available_sweeps, sweep_spec
from .benchtrack import (
    DEFAULT_MAX_SLOWDOWN,
    BenchmarkTracker,
    Comparison,
    Regression,
    compare_rows,
    load_benchmark_rows,
)

__all__ = [
    "CODE_VERSION",
    "SweepError",
    "cell_key",
    "sweep_salt",
    "StorageBackend",
    "LocalFSBackend",
    "MemoryBackend",
    "memory_store",
    "storage_from_url",
    "ResultStore",
    "StoreStats",
    "StoreScan",
    "GCReport",
    "Backoff",
    "CellTask",
    "FileQueue",
    "ObjectQueue",
    "queue_from_url",
    "worker_identity",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "FileQueueBackend",
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
    "SWEEPS",
    "SweepSpec",
    "available_sweeps",
    "sweep_spec",
    "BenchmarkTracker",
    "Comparison",
    "Regression",
    "compare_rows",
    "load_benchmark_rows",
    "DEFAULT_MAX_SLOWDOWN",
]
