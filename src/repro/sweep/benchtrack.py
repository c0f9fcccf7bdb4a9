"""Benchmark regression tracking on top of the result store.

``pytest-benchmark --benchmark-json=...`` artifacts are recorded per commit
into the same content-addressed :class:`~repro.sweep.store.ResultStore` the
sweeps use (key = hash of commit id + benchmark fullname), with one
``runs/<commit>.json`` entry per recorded run (ordered by timestamp; no
shared index to race on).  Both go through the pluggable
:class:`~repro.sweep.storage.StorageBackend`, so the history can live in a
local directory (the default) or any ``--store-url`` backend shared
between CI runners.  A compare step then flags any
benchmark whose mean time grew by more than a threshold (default 30%)
relative to the previous recorded run — the CI wiring lives in
``.github/workflows/ci.yml``.

CLI::

    repro bench record  results.json --dir .benchtrack [--commit SHA]
    repro bench compare --dir .benchtrack [--max-slowdown 1.3]
    repro bench compare baseline.json current.json   # store-less mode
    repro bench record  results.json --store-url s3://ci-bench
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.config import fingerprint
from .hashing import SweepError
from .storage import StorageBackend, storage_from_url
from .store import ResultStore

#: Flag regressions beyond this current/baseline mean-time ratio.
DEFAULT_MAX_SLOWDOWN = 1.3


def load_benchmark_rows(path: str | Path) -> dict[str, dict]:
    """``fullname -> {"mean": s, "min": s, ...}`` from a pytest-benchmark JSON."""
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SweepError(f"no benchmark JSON at {path}") from None
    rows: dict[str, dict] = {}
    for bench in document.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats", {})
        if not name or "mean" not in stats:
            continue
        rows[name] = {
            "mean": stats["mean"],
            "min": stats.get("min"),
            "stddev": stats.get("stddev"),
            "rounds": stats.get("rounds"),
            "group": bench.get("group"),
        }
    return rows


@dataclass
class Regression:
    """One benchmark that got slower than the threshold allows."""

    name: str
    baseline_mean: float
    current_mean: float

    @property
    def ratio(self) -> float:
        return self.current_mean / self.baseline_mean

    def describe(self) -> str:
        return (
            f"{self.name}: {self.baseline_mean * 1e3:.2f} ms -> "
            f"{self.current_mean * 1e3:.2f} ms ({self.ratio:.2f}x)"
        )


@dataclass
class Comparison:
    """Outcome of comparing two benchmark runs."""

    regressions: list[Regression]
    compared: int
    added: list[str]
    removed: list[str]
    max_slowdown: float

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"compared {self.compared} benchmark(s) at threshold "
            f"{self.max_slowdown:.2f}x: "
            + ("no regressions" if self.ok else f"{len(self.regressions)} REGRESSION(S)")
        ]
        lines.extend("  " + item.describe() for item in self.regressions)
        if self.added:
            lines.append(f"  new (no baseline): {', '.join(sorted(self.added))}")
        if self.removed:
            lines.append(f"  missing from current: {', '.join(sorted(self.removed))}")
        return "\n".join(lines)


def compare_rows(
    baseline: dict[str, dict],
    current: dict[str, dict],
    *,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> Comparison:
    regressions = [
        Regression(name, baseline[name]["mean"], row["mean"])
        for name, row in sorted(current.items())
        if name in baseline
        and baseline[name]["mean"] > 0
        and row["mean"] / baseline[name]["mean"] > max_slowdown
    ]
    return Comparison(
        regressions=regressions,
        compared=len(set(baseline) & set(current)),
        added=sorted(set(current) - set(baseline)),
        removed=sorted(set(baseline) - set(current)),
        max_slowdown=max_slowdown,
    )


class BenchmarkTracker:
    """Commit-addressed benchmark history in a sweep-style result store.

    *location* is a directory path (the default deployment) or any
    ``--store-url`` value / :class:`~repro.sweep.storage.StorageBackend`;
    timed rows land in a :class:`~repro.sweep.store.ResultStore` under
    ``store/`` and each recorded run under its own ``runs/<commit>.json``
    entry — one key per run, so concurrent recorders (two CI runners
    sharing one tracker) can never lose each other's entry the way a
    read-modify-write shared index would.  Runs are ordered by their
    ``recorded_at`` timestamp.
    """

    _RUNS_PREFIX = "runs/"

    def __init__(self, location: "str | Path | StorageBackend"):
        self.storage = storage_from_url(location)
        self.store = ResultStore(self.storage.sub("store"))

    @classmethod
    def _run_key(cls, commit: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", commit) or "_"
        return f"{cls._RUNS_PREFIX}{safe}.json"

    def runs(self) -> list[dict]:
        """All recorded runs, oldest first (by ``recorded_at``)."""
        payloads = self.storage.get_many(self.storage.list_keys(self._RUNS_PREFIX))
        return sorted(
            (json.loads(payload) for payload in payloads.values()),
            key=lambda entry: (entry.get("recorded_at", 0.0), entry["commit"]),
        )

    def _row_key(self, commit: str, name: str) -> str:
        return fingerprint(commit, name, salt="benchtrack-v1")

    def record(self, json_path: str | Path, commit: str | None = None) -> dict:
        """Store one benchmark artifact; returns the recorded run entry."""
        rows = load_benchmark_rows(json_path)
        if not rows:
            raise SweepError(f"benchmark JSON {json_path} contains no timed rows")
        commit = commit or os.environ.get("GITHUB_SHA") or f"local-{int(time.time())}"
        for name, row in rows.items():
            self.store.put(
                self._row_key(commit, name),
                row,
                meta={"commit": commit, "benchmark": name},
            )
        entry = {
            "commit": commit,
            "recorded_at": time.time(),
            "benchmarks": sorted(rows),
        }
        # One key per run: re-recording a commit overwrites its own entry,
        # and concurrent recorders of different commits never collide.
        self.storage.put_text(self._run_key(commit), json.dumps(entry, indent=1))
        return entry

    def rows_for(self, run: dict) -> dict[str, dict]:
        keys = {name: self._row_key(run["commit"], name) for name in run["benchmarks"]}
        stored = self.store.contains_many(list(keys.values()))
        return {
            name: self.store.peek(key)
            for name, key in keys.items()
            if key in stored
        }

    def compare_latest(
        self, *, max_slowdown: float = DEFAULT_MAX_SLOWDOWN
    ) -> Comparison | None:
        """Compare the two most recent runs; ``None`` with <2 runs recorded."""
        runs = self.runs()
        if len(runs) < 2:
            return None
        return compare_rows(
            self.rows_for(runs[-2]),
            self.rows_for(runs[-1]),
            max_slowdown=max_slowdown,
        )


__all__ = [
    "DEFAULT_MAX_SLOWDOWN",
    "Regression",
    "Comparison",
    "BenchmarkTracker",
    "compare_rows",
    "load_benchmark_rows",
]
