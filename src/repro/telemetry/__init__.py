"""Unified telemetry: hierarchical spans, metrics registry, trace reports.

Import surface used across the codebase::

    from repro import telemetry

    with telemetry.span("kl.pass", pass_index=i):
        ...
    telemetry.emit_metrics("kl", {...})

``span`` is free when no tracer is configured (a module-global ``None``
check returning a shared no-op context manager), so instrumentation can
stay in hot layers permanently.  See DESIGN.md §8.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_trace_block,
    format_value,
)
from .report import (
    TraceReport,
    TreeNode,
    build_report,
    iter_trace_files,
    load_report,
    parse_event_lines,
    read_events,
)
from .spans import (
    TRACE_ENV_VAR,
    FileSink,
    StorageSink,
    Tracer,
    active_tracer,
    clock,
    configure,
    record_span,
    emit_metrics,
    emit_metrics_lazy,
    event,
    flush,
    maybe_configure_from_env,
    shutdown,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_trace_block",
    "format_value",
    "TraceReport",
    "TreeNode",
    "build_report",
    "iter_trace_files",
    "load_report",
    "parse_event_lines",
    "read_events",
    "TRACE_ENV_VAR",
    "FileSink",
    "StorageSink",
    "Tracer",
    "active_tracer",
    "clock",
    "configure",
    "record_span",
    "emit_metrics",
    "emit_metrics_lazy",
    "event",
    "flush",
    "maybe_configure_from_env",
    "shutdown",
    "span",
    "tracing_enabled",
]
