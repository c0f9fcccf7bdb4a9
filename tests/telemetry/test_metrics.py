"""Metrics registry: instruments, cross-process merging, pinned equivalence.

The K-L equivalence test is the acceptance bar of the telemetry layer: the
metrics a bipartition emits are read straight out of its ``PassTrace``
dataclasses, so every value must be bit-identical to the sum of the
per-pass fields — not approximately equal.
"""

from __future__ import annotations

from repro.core import bipartition
from repro.dfg import random_dfg
from repro.hwmodel import ISEConstraints
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_trace_block,
)

_CONSTRAINTS = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)


def test_counter_gauge_histogram_basics():
    counter = Counter("hits")
    counter.add()
    counter.add(4)
    assert counter.value == 5

    gauge = Gauge("seconds")
    gauge.set(1.5)
    gauge.set(0.25)
    assert gauge.value == 0.25

    hist = Histogram("latency")
    for value in (4.0, 1.0, 3.0, 2.0):
        hist.observe(value)
    assert hist.count == 4 and hist.total == 10.0
    assert (hist.min, hist.max) == (1.0, 4.0)
    assert hist.percentile(50) == 2.0
    assert hist.percentile(100) == 4.0
    assert hist.mean == 2.5


def test_registry_matches_kl_pass_traces_bit_identically():
    dfg = random_dfg(48, seed=11, live_out_fraction=0.2)
    result = bipartition(dfg, _CONSTRAINTS)
    metrics = result.trace_metrics()
    counters = set(metrics) - {"passes", "merit"}
    assert {"toggles", "gain_evals", "shadow_cache_hits"} <= counters
    for name in counters:
        assert metrics[name] == sum(
            getattr(trace, name) for trace in result.passes
        ), name
    assert metrics["passes"] == len(result.passes)
    assert metrics["merit"] == result.merit
    assert "runtime_seconds" not in metrics  # the kl.bipartition span times it


def test_merge_snapshot_aggregates_across_processes():
    worker_a = MetricsRegistry()
    worker_a.counter("cells").add(3)
    worker_a.gauge("runtime").set(1.5)
    worker_a.histogram("latency").observe(0.1)
    worker_a.histogram("latency").observe(0.3)

    worker_b = MetricsRegistry()
    worker_b.counter("cells").add(2)
    worker_b.gauge("runtime").set(2.5)
    worker_b.histogram("latency").observe(0.2)

    merged = MetricsRegistry()
    merged.merge_snapshot(worker_a.snapshot())
    merged.merge_snapshot(worker_b.snapshot())
    assert merged.value("cells") == 5
    assert merged.value("runtime") == 2.5
    hist = merged.histogram("latency")
    assert hist.count == 3
    assert hist.min == 0.1 and hist.max == 0.3


def test_format_trace_block_preserves_pinned_strings():
    stats = {
        "states_visited": 120,
        "memo_hits": 7,
        "bound_cuts": 3,
        "runtime_seconds": 0.25,
        "converged": True,  # bools never reach the block
    }
    (line,) = format_trace_block(stats)
    assert line.startswith("Search trace: ")
    assert "memo hits 7" in line
    assert "bound cuts 3" in line
    assert "states visited 120" in line
    assert "converged" not in line
    assert format_trace_block({"name": "text-only"}) == []


def test_registry_from_stats_and_table_rendering():
    registry = MetricsRegistry()
    registry.counter("run.hits").add(3)
    registry.gauge("run.seconds").set(0.5)
    lines = registry.format_table()
    assert any("run.hits" in line and "3" in line for line in lines)
    assert any("run.seconds" in line for line in lines)
