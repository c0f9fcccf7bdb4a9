"""Metrics registry: counters, gauges and histograms.

Engines keep their own trace dataclasses (``PassTrace``, ``GeneticTrace``,
``EnumerationTrace``, ...) and emit plain numeric mappings of them through
:func:`repro.telemetry.emit_metrics_lazy`.  The trace reporter
(:mod:`repro.telemetry.report`) folds those events into a
:class:`MetricsRegistry` with :meth:`MetricsRegistry.merge_snapshot` —
ints accumulate as counters, floats last-write-win as gauges — and the
HTTP service keeps a live registry of its request counters.
:func:`format_trace_block` renders an engine's ``result.stats`` as the
one-line ``Search trace:`` summary the CLI prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass
class Counter:
    """Monotonic integer counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins numeric value (timings, sizes, ratios)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Value distribution with exact small-sample percentiles.

    Samples are kept verbatim up to ``max_samples`` (cell latencies and
    span durations number in the hundreds, not millions); beyond that
    the reservoir keeps every k-th sample while count/sum/min/max stay
    exact.
    """

    name: str
    max_samples: int = 4096
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        elif self.count % max(1, self.count // self.max_samples) == 0:
            self.samples[self.count % self.max_samples] = value

    def percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with dataclass absorption."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) -----------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    # -- snapshots / merging ----------------------------------------------

    def value(self, name: str) -> float | int | None:
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return None

    def snapshot(self) -> dict[str, Any]:
        """Flat, JSON-serialisable view of every instrument."""
        out: dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            out[name] = hist.summary()
        return out

    def merge_snapshot(self, values: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot`-shaped mapping from another process.

        Integers accumulate, floats last-write-win, histogram summaries
        accumulate count/sum and widen min/max (percentiles from merged
        summaries are not reconstructed — use raw events for those).
        """
        for name, value in values.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                self.counter(name).add(value)
            elif isinstance(value, float):
                self.gauge(name).set(value)
            elif isinstance(value, Mapping) and "count" in value:
                hist = self.histogram(name)
                count = int(value.get("count", 0))
                if count:
                    hist.count += count
                    hist.total += float(value.get("sum", 0.0))
                    hist.min = min(hist.min, float(value.get("min", hist.min)))
                    hist.max = max(hist.max, float(value.get("max", hist.max)))

    def names(self) -> list[str]:
        return sorted({*self._counters, *self._gauges, *self._histograms})

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- rendering ---------------------------------------------------------

    def format_table(self, *, indent: str = "") -> list[str]:
        """Aligned ``name  value`` lines, counters/gauges then histograms."""
        rows: list[tuple[str, str]] = []
        for name in sorted({*self._counters, *self._gauges}):
            rows.append((name, format_value(self.value(name))))
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            if not hist.count:
                continue
            rows.append(
                (
                    name,
                    (
                        f"count={hist.count} mean={format_value(hist.mean)} "
                        f"p50={format_value(hist.percentile(50))} "
                        f"p90={format_value(hist.percentile(90))} "
                        f"max={format_value(hist.max)}"
                    ),
                )
            )
        if not rows:
            return []
        width = max(len(name) for name, _ in rows)
        return [f"{indent}{name.ljust(width)}  {text}" for name, text in rows]


def format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_trace_block(stats: Mapping[str, Any], *, header: str = "Search trace:") -> list[str]:
    """Render an engine's numeric ``result.stats`` as the unified block.

    Every engine now reports through this one formatter (previously only
    the enumeration baselines printed a trace).  Keys keep their stats
    names with underscores spaced, so the long-pinned strings
    (``memo hits``, ``bound cuts``) survive unchanged.
    """
    numeric = [
        (key, value)
        for key, value in stats.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    if not numeric:
        return []
    parts = [f"{key.replace('_', ' ')} {format_value(value)}" for key, value in numeric]
    return [f"{header} " + ", ".join(parts)]
