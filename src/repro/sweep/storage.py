"""Pluggable blob-storage backends for the sweep substrate.

Everything durable the sweep subsystem writes — result records, sweep
manifests, benchmark history — is a small immutable blob addressed by a
slash-separated string key.  :class:`StorageBackend` is the minimal
protocol those writers speak; where the blobs actually live is an
implementation detail chosen per deployment:

* :class:`LocalFSBackend` — one file per key under a root directory, with
  the same-directory temp-file + :func:`os.replace` discipline of
  :mod:`repro.sweep.atomic` (today's behaviour, extracted unchanged);
* :class:`MemoryBackend` — an in-process dict, for tests and ephemeral
  workers (``mem://`` URLs share named instances within the process);
* :class:`~repro.sweep.objectstore.ObjectStoreBackend` — a minimal
  S3-dialect REST client (MinIO/localstack-compatible endpoint), kept in
  its own module so the stdlib HTTP machinery is only imported when used.

The protocol is deliberately tiny — ``get`` / ``put_atomic`` /
``list_keys`` / ``delete`` / ``exists`` plus the batched ``get_many`` /
``put_many`` / ``exists_many`` — because that is all the sweep layer
needs: writes are idempotent (records are pure functions of their key) so
*atomic* only means readers never observe a torn blob, and the batched
calls exist so a cache probe over N keys costs one listing instead of N
round trips.

:func:`storage_from_url` maps ``file://``, ``mem://`` and ``s3://`` URLs
(or a bare filesystem path) onto a backend; the sweep/bench CLIs expose
it as ``--store-url``.
"""

from __future__ import annotations

import abc
import os
import threading
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from .atomic import atomic_write_bytes
from .hashing import SweepError


def check_key(key: str) -> str:
    """Validate a storage key: relative, slash-separated, no tricks."""
    if (
        not key
        or key.startswith("/")
        or key.endswith("/")
        or "\\" in key
        or ".." in key.split("/")
        or "" in key.split("/")
    ):
        raise SweepError(f"malformed storage key {key!r}")
    return key


class StorageBackend(abc.ABC):
    """Durable ``key -> bytes`` blob storage with atomic publication."""

    scheme: str = "abstract"

    # ------------------------------------------------------------------
    # Required primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get(self, key: str) -> bytes:
        """The blob stored under *key*; raises :class:`KeyError` if absent."""

    @abc.abstractmethod
    def put_atomic(self, key: str, payload: bytes) -> None:
        """Publish *payload* under *key*.

        Last-writer-wins and idempotent; concurrent readers (and racing
        writers) must never observe a torn blob — only the old value, the
        new value, or absence.
        """

    @abc.abstractmethod
    def put_if_absent(self, key: str, payload: bytes) -> bool:
        """Publish *payload* under *key* only if the key is absent.

        Returns ``True`` iff the key now holds **this** payload — either
        the call created it, or an identical payload was already there
        (our own earlier write whose acknowledgement was lost in transit).
        ``False`` means the key holds *different* bytes: another writer
        won.  Callers building mutual exclusion on this primitive (the
        :class:`~repro.sweep.filequeue.ObjectQueue` lease protocol)
        embed a unique owner token in the payload, which is what makes
        the equality read-back an ownership test rather than a guess.
        """

    @abc.abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """All stored keys starting with *prefix*, sorted."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove one blob; returns whether it existed."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Whether *key* currently holds a blob."""

    # ------------------------------------------------------------------
    # Batched operations (semantically equivalent to loops over the
    # primitives; overridden where the transport can do better)
    # ------------------------------------------------------------------
    def exists_many(self, keys: Sequence[str]) -> set[str]:
        """The subset of *keys* that exist, via **one** listing."""
        wanted = set(keys)
        if not wanted:
            return set()
        return wanted & set(self.list_keys(_common_prefix(wanted)))

    def get_many(self, keys: Sequence[str]) -> dict[str, bytes]:
        """Fetch many blobs at once; absent keys are simply omitted.

        One listing decides existence, then only the hits are fetched —
        a 100%-miss probe costs a single round trip.  A key deleted
        between the listing and its fetch (e.g. by a concurrent
        ``sweep gc``) counts as absent, like everywhere else.
        """
        found: dict[str, bytes] = {}
        for key in sorted(self.exists_many(keys)):
            try:
                found[key] = self.get(key)
            except KeyError:
                continue
        return found

    def put_many(self, items: Mapping[str, bytes] | Iterable[tuple[str, bytes]]) -> None:
        pairs = items.items() if isinstance(items, Mapping) else items
        for key, payload in pairs:
            self.put_atomic(key, payload)

    # ------------------------------------------------------------------
    # Conveniences shared by every implementation
    # ------------------------------------------------------------------
    def get_text(self, key: str) -> str:
        return self.get(key).decode("utf-8")

    def put_text(self, key: str, payload: str) -> None:
        self.put_atomic(key, payload.encode("utf-8"))

    def sub(self, prefix: str) -> "StorageBackend":
        """A namespaced view of this backend under ``prefix/``."""
        return _PrefixedBackend(self, check_key(prefix))

    def compact(self) -> int:
        """Reclaim empty storage containers (shard directories on a
        filesystem); returns how many were pruned.  No-op by default —
        flat keyspaces have nothing to compact."""
        return 0

    def describe(self) -> str:
        return f"{self.scheme} backend"


def _common_prefix(keys: Iterable[str]) -> str:
    """The longest shared key prefix — narrows a batched listing."""
    iterator = iter(keys)
    prefix = next(iterator, "")
    for key in iterator:
        while not key.startswith(prefix):
            prefix = prefix[:-1]
        if not prefix:
            break
    return prefix


# ----------------------------------------------------------------------
# Local filesystem
# ----------------------------------------------------------------------
class LocalFSBackend(StorageBackend):
    """One file per key under *root*, published via ``os.replace``."""

    scheme = "file"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / check_key(key)

    def get(self, key: str) -> bytes:
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def put_atomic(self, key: str, payload: bytes) -> None:
        path = self.path_for(key)
        # A concurrent compaction (`sweep gc`) may rmdir an emptied shard
        # between our mkdir and the temp-file write; one re-mkdir retry
        # closes the race.
        for attempt in (0, 1):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                atomic_write_bytes(path, payload)
                return
            except FileNotFoundError:
                if attempt:
                    raise

    def put_if_absent(self, key: str, payload: bytes) -> bool:
        path = self.path_for(key)
        # ``os.link`` of a fully written temp sibling is both atomic and
        # exclusive: it fails with EEXIST when the target exists, and a
        # reader can never observe a torn blob (the link either is the
        # complete file or is not there).  open("xb") would give
        # exclusivity but not torn-read safety.
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.x.tmp"
        )
        for attempt in (0, 1, 2):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                tmp.write_bytes(payload)
                os.link(tmp, path)
                return True
            except FileExistsError:
                try:
                    return path.read_bytes() == payload
                except FileNotFoundError:
                    # Deleted between the failed link and the read-back —
                    # contend again for the now-absent key.
                    continue
            except FileNotFoundError:
                # A concurrent `sweep gc` compaction rmdir'd the freshly
                # emptied parent between mkdir and the write; retry.
                if attempt == 2:
                    raise
            finally:
                tmp.unlink(missing_ok=True)
        raise SweepError(f"put_if_absent could not settle key {key!r}")

    def list_keys(self, prefix: str = "") -> list[str]:
        # Walk only the directory the prefix names (``pending/ab`` walks
        # ``pending/``), not the whole root, and skip subdirectories the
        # prefix rules out.  A malformed directory part cannot prefix any
        # valid key.
        directory = prefix.rpartition("/")[0]
        try:
            base = self.path_for(directory) if directory else self.root
        except SweepError:
            return []
        keys: list[str] = []
        stack = [(base, f"{directory}/" if directory else "")]
        while stack:
            path, head = stack.pop()
            try:
                entries = os.scandir(path)
            except (FileNotFoundError, NotADirectoryError):
                continue
            with entries:
                for entry in entries:
                    key = head + entry.name
                    if entry.is_dir():
                        if f"{key}/".startswith(prefix):
                            stack.append((entry.path, f"{key}/"))
                    # Dot-prefixed names are in-flight temp files (see
                    # atomic.py).
                    elif (
                        key.startswith(prefix)
                        and not entry.name.startswith(".")
                        and entry.is_file()
                    ):
                        keys.append(key)
        return sorted(keys)

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def exists(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def exists_many(self, keys: Sequence[str]) -> set[str]:
        # Per-key stat beats the inherited listing here: sharded keys
        # share no prefix, so one "listing" would be a full recursive
        # walk of the tree — far worse than N stats on a large store.
        return {key for key in keys if self.exists(key)}

    def get_many(self, keys: Sequence[str]) -> dict[str, bytes]:
        # Reading is the existence check on a filesystem; a pre-listing
        # would only add a directory walk on top of the opens.
        found: dict[str, bytes] = {}
        for key in keys:
            try:
                found[key] = self.get(key)
            except KeyError:
                continue
        return found

    def sub(self, prefix: str) -> "LocalFSBackend":
        return LocalFSBackend(self.root / check_key(prefix))

    def compact(self) -> int:
        pruned = 0
        if not self.root.is_dir():
            return pruned
        # Bottom-up so emptied parents become prunable in the same pass.
        for path in sorted(self.root.rglob("*"), reverse=True):
            if path.is_dir():
                try:
                    path.rmdir()  # only succeeds when empty
                    pruned += 1
                except OSError:
                    pass
        return pruned

    def describe(self) -> str:
        return f"file://{self.root}"


# ----------------------------------------------------------------------
# In-memory (tests, ephemeral workers)
# ----------------------------------------------------------------------
class MemoryBackend(StorageBackend):
    """Process-local dict storage; assignment makes publication atomic."""

    scheme = "mem"

    def __init__(self, name: str = ""):
        self.name = name
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> bytes:
        with self._lock:
            return self._blobs[check_key(key)]

    def put_atomic(self, key: str, payload: bytes) -> None:
        with self._lock:
            self._blobs[check_key(key)] = bytes(payload)

    def put_if_absent(self, key: str, payload: bytes) -> bool:
        with self._lock:
            current = self._blobs.setdefault(check_key(key), bytes(payload))
            return current == payload

    def list_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(key for key in self._blobs if key.startswith(prefix))

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._blobs.pop(check_key(key), None) is not None

    def exists(self, key: str) -> bool:
        with self._lock:
            return check_key(key) in self._blobs

    def get_many(self, keys: Sequence[str]) -> dict[str, bytes]:
        with self._lock:
            return {key: self._blobs[key] for key in keys if key in self._blobs}

    def describe(self) -> str:
        return f"mem://{self.name}" if self.name else "mem:// (anonymous)"


#: Named ``mem://<name>`` instances shared within the process, so a CLI
#: invocation's submit and collect phases (or a test's executor pair) can
#: address the same ephemeral store.
_MEMORY_STORES: dict[str, MemoryBackend] = {}
_MEMORY_STORES_LOCK = threading.Lock()


def memory_store(name: str) -> MemoryBackend:
    with _MEMORY_STORES_LOCK:
        try:
            return _MEMORY_STORES[name]
        except KeyError:
            backend = _MEMORY_STORES[name] = MemoryBackend(name)
            return backend


# ----------------------------------------------------------------------
# Key-prefix view (namespacing on a shared backend)
# ----------------------------------------------------------------------
class _PrefixedBackend(StorageBackend):
    """All keys rewritten under ``prefix/`` of a base backend."""

    def __init__(self, base: StorageBackend, prefix: str):
        self.base = base
        self.prefix = prefix.rstrip("/")
        self.scheme = base.scheme

    def _qualify(self, key: str) -> str:
        return f"{self.prefix}/{check_key(key)}"

    def _strip(self, key: str) -> str:
        return key[len(self.prefix) + 1 :]

    def get(self, key: str) -> bytes:
        try:
            return self.base.get(self._qualify(key))
        except KeyError:
            raise KeyError(key) from None

    def put_atomic(self, key: str, payload: bytes) -> None:
        self.base.put_atomic(self._qualify(key), payload)

    def put_if_absent(self, key: str, payload: bytes) -> bool:
        return self.base.put_if_absent(self._qualify(key), payload)

    def list_keys(self, prefix: str = "") -> list[str]:
        return [
            self._strip(key)
            for key in self.base.list_keys(f"{self.prefix}/{prefix}")
        ]

    def delete(self, key: str) -> bool:
        return self.base.delete(self._qualify(key))

    def exists(self, key: str) -> bool:
        return self.base.exists(self._qualify(key))

    def exists_many(self, keys: Sequence[str]) -> set[str]:
        found = self.base.exists_many([self._qualify(key) for key in keys])
        return {self._strip(key) for key in found}

    def get_many(self, keys: Sequence[str]) -> dict[str, bytes]:
        found = self.base.get_many([self._qualify(key) for key in keys])
        return {self._strip(key): payload for key, payload in found.items()}

    def put_many(self, items) -> None:
        pairs = items.items() if isinstance(items, Mapping) else items
        self.base.put_many(
            [(self._qualify(key), payload) for key, payload in pairs]
        )

    def compact(self) -> int:
        return self.base.compact()

    def describe(self) -> str:
        return f"{self.base.describe()}/{self.prefix}"


# ----------------------------------------------------------------------
# URL resolution
# ----------------------------------------------------------------------
def storage_from_url(url: "str | Path | StorageBackend") -> StorageBackend:
    """Resolve a ``--store-url`` value (or bare path) to a backend.

    * ``file:///abs/path`` (or any URL-less string / :class:`~pathlib.Path`)
      — :class:`LocalFSBackend`;
    * ``mem://name`` — the process-shared named :class:`MemoryBackend`
      (``mem://`` alone yields a fresh anonymous one);
    * ``s3://bucket[/prefix][?endpoint=http://host:port][&region=eu-west-1]``
      — :class:`~repro.sweep.objectstore.ObjectStoreBackend`; the endpoint
      may also come from ``$ISEGEN_S3_ENDPOINT`` or ``$AWS_ENDPOINT_URL``,
      the region from ``$AWS_REGION`` / ``$AWS_DEFAULT_REGION``.  SigV4
      signing engages automatically when ``$AWS_ACCESS_KEY_ID`` /
      ``$AWS_SECRET_ACCESS_KEY`` are present.
    """
    if isinstance(url, StorageBackend):
        return url
    if isinstance(url, Path):
        return LocalFSBackend(url)
    if "://" not in url:
        return LocalFSBackend(Path(url))
    parts = urlsplit(url)
    if parts.scheme == "file":
        if parts.netloc not in ("", "localhost"):
            raise SweepError(f"file:// URL must be local, got {url!r}")
        return LocalFSBackend(Path(unquote(parts.path)))
    if parts.scheme == "mem":
        name = (parts.netloc + parts.path).strip("/")
        return memory_store(name) if name else MemoryBackend()
    if parts.scheme == "s3":
        from .objectstore import ObjectStoreBackend

        query = parse_qs(parts.query)
        endpoint = (
            (query.get("endpoint") or [None])[0]
            or os.environ.get("ISEGEN_S3_ENDPOINT")
            or os.environ.get("AWS_ENDPOINT_URL")
        )
        if not endpoint:
            raise SweepError(
                f"no endpoint for {url!r}: append ?endpoint=http://host:port "
                "or set ISEGEN_S3_ENDPOINT / AWS_ENDPOINT_URL"
            )
        if not parts.netloc:
            raise SweepError(f"s3:// URL needs a bucket, got {url!r}")
        return ObjectStoreBackend(
            parts.netloc,
            prefix=unquote(parts.path).strip("/"),
            endpoint=endpoint,
            region=(query.get("region") or [None])[0],
        )
    raise SweepError(
        f"unsupported store URL scheme {parts.scheme!r} in {url!r} "
        "(expected file://, mem:// or s3://)"
    )


__all__ = [
    "LocalFSBackend",
    "MemoryBackend",
    "StorageBackend",
    "check_key",
    "memory_store",
    "storage_from_url",
]
