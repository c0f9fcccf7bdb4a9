"""ISE-generation-as-a-service: the HTTP front door over the sweep substrate.

The package turns the batch pipeline online: clients ``POST`` a job —
a registered sweep, a registered workload + config overrides, or inline
serialized IR — and the service enqueues its cells on the existing
sweep work queue (:class:`~repro.sweep.filequeue.ObjectQueue`, on a
directory or a bucket), while any worker fleet drains them into the
content-addressed :class:`~repro.sweep.store.ResultStore`.  Results are
read straight from the store, so identical submissions — from any
client — are instant cache hits that enqueue nothing.

Layout (one concern per module):

* :mod:`~repro.service.jobspec` — payload validation, canonical job
  specs, and the picklable cell functions;
* :mod:`~repro.service.quota` — per-client token buckets + the global
  inflight gate;
* :mod:`~repro.service.jobs` — job records, submit/status/wait/result
  over the sweep directory;
* :mod:`~repro.service.server` — the stdlib ``ThreadingHTTPServer``
  front end and the :data:`~repro.service.server.ROUTES` table;
* :mod:`~repro.service.client` — the stdlib API client
  (``repro client``).

See ``docs/API.md`` for the wire-level reference and DESIGN.md §11 for
the architecture.
"""

from .client import ServiceClient, ServiceClientError
from .jobs import DEFAULT_CLIENT, JobManager, check_client
from .jobspec import (
    JobSpec,
    ServiceError,
    build_cells,
    parse_job_request,
    run_ir_cell,
    run_workload_cell,
    validate_job,
)
from .quota import ClientQuotas, InflightGate, TokenBucket
from .server import ROUTES, IseService, Route, ServiceConfig

__all__ = [
    "ROUTES",
    "DEFAULT_CLIENT",
    "ClientQuotas",
    "InflightGate",
    "IseService",
    "JobManager",
    "JobSpec",
    "Route",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "build_cells",
    "check_client",
    "parse_job_request",
    "run_ir_cell",
    "run_workload_cell",
    "validate_job",
]
