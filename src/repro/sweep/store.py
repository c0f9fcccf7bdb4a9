"""Content-addressed result store.

One JSON record per computed experiment cell, addressed by the cell's
content hash (:func:`repro.sweep.hashing.cell_key`) and persisted through
a pluggable :class:`~repro.sweep.storage.StorageBackend` — a sharded local
directory by default (``store/ab/<key>.json``; two-hex-digit shards keep
directory listings fast even for large sweeps), an in-memory backend for
tests, or an S3-style object store for shared deployments.  Every backend
publishes atomically, so readers — and concurrent writers on a shared
store — never observe a half-written record.  Writing the same key twice
is idempotent: cell results are pure functions of the key, so
last-writer-wins is safe.

The store doubles as the cache that makes sweeps resumable: before running
a cell, the executors ask :meth:`ResultStore.lookup_many` (one batched
probe — a single listing — rather than per-key stat calls); hits skip
execution entirely.  Hit/miss counters live on the store instance so
orchestration code can report cache effectiveness (``re-submitting a
finished sweep reports 100% hits``).
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .hashing import SweepError, decode_result, encode_result
from .storage import LocalFSBackend, StorageBackend, storage_from_url

_RECORD_SUFFIX = ".json"
#: Matches the salt inside a record's ``meta`` block (head-read fast path).
_SALT_PATTERN = re.compile(r'"salt"\s*:\s*"([^"]*)"')


@dataclass
class StoreStats:
    """Cache accounting of one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultStore:
    """Durable ``key -> result row(s)`` mapping over a storage backend."""

    def __init__(self, location: "str | Path | StorageBackend"):
        self.backend = storage_from_url(location)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def storage_key(key: str) -> str:
        """The backend key of a record: sharded by the first hash byte."""
        if len(key) < 3:
            raise SweepError(f"malformed result key {key!r}")
        return f"{key[:2]}/{key}{_RECORD_SUFFIX}"

    @property
    def root(self) -> Path:
        """The store directory (local-filesystem backends only)."""
        if isinstance(self.backend, LocalFSBackend):
            return self.backend.root
        raise SweepError(f"{self.backend.describe()} has no local root")

    def path_for(self, key: str) -> Path:
        """On-disk path of a record (local-filesystem backends only)."""
        return self.root / self.storage_key(key)

    def describe(self) -> str:
        return self.backend.describe()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return self.backend.exists(self.storage_key(key))

    __contains__ = contains

    def contains_many(self, keys: Sequence[str]) -> set[str]:
        """The subset of *keys* with stored results, via one listing."""
        by_storage = {self.storage_key(key): key for key in keys}
        return {
            by_storage[skey] for skey in self.backend.exists_many(list(by_storage))
        }

    def lookup(self, key: str):
        """Cache-accounted fetch: ``(True, result)`` or ``(False, None)``."""
        try:
            record = json.loads(self.backend.get_text(self.storage_key(key)))
        except KeyError:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, decode_result(record["result"])

    def lookup_many(self, keys: Sequence[str]) -> dict:
        """Batched cache-accounted fetch: ``key -> result`` for the hits.

        One backend ``get_many`` (a single listing plus the hit reads)
        instead of a stat-and-read per key — the probe that makes a
        resubmitted 100%-hit sweep cheap on remote stores.
        """
        by_storage = {self.storage_key(key): key for key in keys}
        payloads = self.backend.get_many(list(by_storage))
        found = {
            by_storage[skey]: decode_result(json.loads(payload)["result"])
            for skey, payload in payloads.items()
        }
        self.stats.hits += len(found)
        self.stats.misses += len(by_storage) - len(found)
        return found

    def get(self, key: str):
        found, result = self.lookup(key)
        if not found:
            raise KeyError(key)
        return result

    def peek(self, key: str):
        """Like :meth:`get` but without touching the hit/miss counters
        (used internally after a backend has just produced the value)."""
        return decode_result(self.record(key)["result"])

    def peek_many(self, keys: Sequence[str]) -> dict:
        """Batched :meth:`peek`: one ``get_many``, no cache accounting;
        raises :class:`KeyError` on the first absent key."""
        by_storage = {self.storage_key(key): key for key in keys}
        payloads = self.backend.get_many(list(by_storage))
        for skey, key in by_storage.items():
            if skey not in payloads:
                raise KeyError(key)
        return {
            by_storage[skey]: decode_result(json.loads(payload)["result"])
            for skey, payload in payloads.items()
        }

    def record(self, key: str) -> dict:
        """The full stored record (result plus provenance metadata)."""
        try:
            return json.loads(self.backend.get_text(self.storage_key(key)))
        except KeyError:
            raise KeyError(key) from None

    def keys(self) -> Iterator[str]:
        for storage_key in self.backend.list_keys():
            shard, _, name = storage_key.partition("/")
            if not name.endswith(_RECORD_SUFFIX) or "/" in name:
                continue
            stem = name[: -len(_RECORD_SUFFIX)]
            if stem[:2] == shard:  # skip foreign files in the tree
                yield stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, result, *, meta: dict | None = None) -> str:
        """Atomically persist *result* under *key* (idempotent); returns
        the record's backend storage key."""
        storage_key = self.storage_key(key)
        record = {
            "key": key,
            "stored_at": time.time(),
            "meta": meta or {},
            "result": encode_result(result),
        }
        self.backend.put_atomic(
            storage_key, json.dumps(record, indent=1).encode("utf-8")
        )
        self.stats.writes += 1
        return storage_key

    def discard(self, key: str) -> bool:
        """Remove one record; returns whether it existed."""
        return self.backend.delete(self.storage_key(key))

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def scan(self) -> "StoreScan":
        """Walk every record once: counts, bytes, and the per-salt split.

        Records written since the salt started riding in the metadata carry
        it under ``meta.salt``; older records group under ``None``.  This is
        the *informational* walk behind ``sweep status``, so it stays cheap:
        on a local filesystem, sizes come from ``stat`` and the salt from a
        bounded head read (``put`` writes ``meta`` before the — potentially
        large — ``result`` field), falling back to a full parse only when
        the head is inconclusive; on remote backends the records are fetched
        in one batched ``get_many``.  The destructive path (:meth:`gc`)
        always parses records exactly.
        """
        scan = StoreScan()
        if isinstance(self.backend, LocalFSBackend):
            for key in self.keys():
                path = self.path_for(key)
                try:
                    size = path.stat().st_size
                    salt = self._read_salt(path)
                except FileNotFoundError:  # pragma: no cover - concurrent gc
                    continue
                scan.add(salt, size)
            return scan
        payloads = self.backend.get_many(
            [self.storage_key(key) for key in self.keys()]
        )
        for payload in payloads.values():
            scan.add(self._parse_salt(payload.decode("utf-8")), len(payload))
        return scan

    @staticmethod
    def _parse_salt(text: str) -> str | None:
        try:
            meta = json.loads(text).get("meta", {})
        except (json.JSONDecodeError, AttributeError):
            return None
        return meta.get("salt") if isinstance(meta, dict) else None

    def _read_salt(self, path: Path, head_bytes: int = 4096) -> str | None:
        """The record's ``meta.salt`` from a bounded head read.

        Only text *before* the ``"result"`` key is trusted (a result row
        could itself contain a ``"salt"`` string); when the head contains
        neither a salt nor the start of ``result``, the full record is
        parsed instead.
        """
        with path.open("r", encoding="utf-8") as handle:
            head = handle.read(head_bytes)
            result_at = head.find('"result"')
            prefix = head if result_at < 0 else head[:result_at]
            match = _SALT_PATTERN.search(prefix)
            if match is not None:
                return match.group(1)
            if result_at >= 0:
                # meta fully visible and salt-less: a pre-salt record.
                return None
            return self._parse_salt(head + handle.read())

    def gc(
        self,
        live_salts: "str | Collection[str]",
        *,
        include_unsalted: bool = False,
        dry_run: bool = False,
    ) -> "GCReport":
        """Drop records whose recorded code-version salt is stale.

        A record is *stale* when its ``meta.salt`` is in none of the
        *live_salts* (typically the current salt plus every salt still
        pinned by a sweep manifest — ``collect`` addresses records through
        the manifest's salt, not the current one); records without a
        recorded salt (written before the salt was persisted) are kept
        unless *include_unsalted* is set.  Emptied storage containers
        (shard directories on a filesystem) are compacted afterwards.
        With *dry_run* nothing is deleted — the report shows what would be
        reclaimed.
        """
        if isinstance(live_salts, str):
            live_salts = {live_salts}
        else:
            live_salts = set(live_salts)
        report = GCReport(dry_run=dry_run)
        # One batched fetch (single listing + reads) instead of a round
        # trip per record; keys deleted by a concurrent gc are omitted.
        payloads = self.backend.get_many(
            [self.storage_key(key) for key in self.keys()]
        )
        for storage_key, payload in payloads.items():
            size = len(payload)
            salt = self._parse_salt(payload.decode("utf-8"))
            stale = (salt is None and include_unsalted) or (
                salt is not None and salt not in live_salts
            )
            if stale:
                report.removed += 1
                report.reclaimed_bytes += size
                if not dry_run:
                    self.backend.delete(storage_key)
            else:
                report.kept += 1
                report.kept_bytes += size
        if not dry_run:
            report.pruned_shards = self.backend.compact()
        return report


@dataclass
class StoreScan:
    """Aggregate compaction statistics of one store walk."""

    records: int = 0
    bytes: int = 0
    #: ``salt (or None for pre-salt records) -> (record count, bytes)``.
    by_salt: dict = field(default_factory=dict)

    def add(self, salt: str | None, size: int) -> None:
        self.records += 1
        self.bytes += size
        count, total = self.by_salt.get(salt, (0, 0))
        self.by_salt[salt] = (count + 1, total + size)

    def stale_against(self, live_salts: "str | Collection[str]") -> tuple[int, int]:
        """``(records, bytes)`` carrying a salt outside *live_salts*."""
        if isinstance(live_salts, str):
            live_salts = {live_salts}
        else:
            live_salts = set(live_salts)
        records = 0
        total = 0
        for salt, (count, size) in self.by_salt.items():
            if salt is not None and salt not in live_salts:
                records += count
                total += size
        return records, total


@dataclass
class GCReport:
    """Outcome of one :meth:`ResultStore.gc` run."""

    dry_run: bool = False
    removed: int = 0
    reclaimed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    pruned_shards: int = 0

    def summary(self) -> str:
        verb = "would reclaim" if self.dry_run else "reclaimed"
        text = (
            f"{verb} {self.removed} stale record(s), "
            f"{self.reclaimed_bytes / 1024:.1f} KiB "
            f"({self.kept} record(s), {self.kept_bytes / 1024:.1f} KiB kept)"
        )
        if self.pruned_shards:
            text += f"; pruned {self.pruned_shards} empty shard dir(s)"
        return text


__all__ = ["GCReport", "ResultStore", "StoreScan", "StoreStats"]
