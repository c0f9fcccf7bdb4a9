"""Backend conformance: one suite, every StorageBackend implementation.

Each test below runs against LocalFSBackend, MemoryBackend, and
ObjectStoreBackend (over the in-repo FakeObjectServer), so a new backend
only has to join the fixture to inherit the whole contract: atomic
last-writer-wins puts, idempotent double-puts, list-after-delete
consistency, and batched get/put equivalence with the primitive loops.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.sweep import SweepError
from repro.sweep.objectstore import FakeObjectServer, ObjectStoreBackend
from repro.sweep.storage import (
    LocalFSBackend,
    MemoryBackend,
    memory_store,
    storage_from_url,
)

BACKENDS = ("local", "memory", "object")


@pytest.fixture(scope="module")
def object_server():
    with FakeObjectServer() as server:
        yield server


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    if request.param == "local":
        yield LocalFSBackend(tmp_path / "blobs")
    elif request.param == "memory":
        yield MemoryBackend()
    else:
        server = request.getfixturevalue("object_server")
        # A bucket per test keeps the shared module-scoped server clean.
        bucket = f"bucket-{request.node.name.replace('[', '-').rstrip(']')}"
        yield ObjectStoreBackend(bucket, endpoint=server.endpoint, backoff=0.01)


# ----------------------------------------------------------------------
# Core contract
# ----------------------------------------------------------------------
def test_round_trip_and_exists(backend):
    assert not backend.exists("a/b.json")
    backend.put_atomic("a/b.json", b'{"v": 1}')
    assert backend.exists("a/b.json")
    assert backend.get("a/b.json") == b'{"v": 1}'
    assert backend.get_text("a/b.json") == '{"v": 1}'


def test_get_missing_raises_keyerror(backend):
    with pytest.raises(KeyError):
        backend.get("no/such/key")


def test_put_overwrites_last_writer_wins(backend):
    backend.put_atomic("k", b"old")
    backend.put_atomic("k", b"new")
    assert backend.get("k") == b"new"


def test_idempotent_double_put(backend):
    backend.put_atomic("dup/key.json", b"payload")
    backend.put_atomic("dup/key.json", b"payload")
    assert backend.list_keys("dup/") == ["dup/key.json"]
    assert backend.get("dup/key.json") == b"payload"


def test_list_keys_sorted_and_prefix_filtered(backend):
    for key in ("z/1", "a/1", "a/2", "b/1"):
        backend.put_atomic(key, b"x")
    assert backend.list_keys() == ["a/1", "a/2", "b/1", "z/1"]
    assert backend.list_keys("a/") == ["a/1", "a/2"]
    assert backend.list_keys("nope/") == []


def test_list_keys_prefix_edge_cases(backend):
    keys = ("pending/ab1", "pending/ab/2", "pending/b", "pendant/c", "tasks/ab")
    for key in keys:
        backend.put_atomic(key, b"x")
    # A prefix ending mid-segment matches across sibling directories.
    assert backend.list_keys("pend") == [
        "pendant/c",
        "pending/ab/2",
        "pending/ab1",
        "pending/b",
    ]
    # A nested prefix matches both a deeper directory and a file name.
    assert backend.list_keys("pending/ab") == ["pending/ab/2", "pending/ab1"]
    assert backend.list_keys("pending/ab/") == ["pending/ab/2"]
    assert backend.list_keys("") == sorted(keys)
    # A prefix naming a missing directory (or a file) is simply empty.
    assert backend.list_keys("missing/") == []
    assert backend.list_keys("missing/deeper/x") == []
    assert backend.list_keys("pending/b/") == []


def test_list_after_delete(backend):
    backend.put_atomic("d/1", b"x")
    backend.put_atomic("d/2", b"y")
    assert backend.delete("d/1") is True
    assert backend.delete("d/1") is False  # already gone
    assert backend.list_keys("d/") == ["d/2"]
    assert not backend.exists("d/1")
    with pytest.raises(KeyError):
        backend.get("d/1")


def test_malformed_keys_rejected(backend):
    for bad in ("", "/abs", "trailing/", "a//b", "a/../b", "back\\slash"):
        with pytest.raises(SweepError):
            backend.put_atomic(bad, b"x")


# ----------------------------------------------------------------------
# Batched operations ≡ loops over the primitives
# ----------------------------------------------------------------------
def test_get_many_matches_loop(backend):
    payloads = {f"m/{i:02d}": json.dumps({"i": i}).encode() for i in range(8)}
    backend.put_many(payloads)
    keys = list(payloads) + ["m/99", "other/absent"]
    batched = backend.get_many(keys)
    looped = {}
    for key in keys:
        try:
            looped[key] = backend.get(key)
        except KeyError:
            pass
    assert batched == looped == payloads


def test_put_many_matches_loop(backend, tmp_path):
    items = [(f"p/{i}", f"v{i}".encode()) for i in range(5)]
    backend.put_many(items)
    reference = MemoryBackend()
    for key, payload in items:
        reference.put_atomic(key, payload)
    assert {k: backend.get(k) for k in backend.list_keys("p/")} == {
        k: reference.get(k) for k in reference.list_keys("p/")
    }


def test_exists_many(backend):
    backend.put_atomic("e/1", b"x")
    backend.put_atomic("e/2", b"y")
    assert backend.exists_many(["e/1", "e/2", "e/3"]) == {"e/1", "e/2"}
    assert backend.exists_many([]) == set()


# ----------------------------------------------------------------------
# Atomicity under a racing writer
# ----------------------------------------------------------------------
def test_put_atomic_under_racing_writers(backend):
    """Readers racing two writers must only ever observe a complete blob."""
    payload_a = (b"A" * 4096) + b"<end-a>"
    payload_b = (b"B" * 4096) + b"<end-b>"
    stop = threading.Event()
    torn: list[bytes] = []

    def writer(payload):
        while not stop.is_set():
            backend.put_atomic("race/key", payload)

    def reader():
        while not stop.is_set():
            try:
                seen = backend.get("race/key")
            except KeyError:
                continue
            if seen not in (payload_a, payload_b):
                torn.append(seen)
                return

    threads = [
        threading.Thread(target=writer, args=(payload_a,)),
        threading.Thread(target=writer, args=(payload_b,)),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    for thread in threads:
        thread.start()
    try:
        import time

        time.sleep(0.4)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert torn == []
    assert backend.get("race/key") in (payload_a, payload_b)


# ----------------------------------------------------------------------
# Conditional puts (the lease-protocol primitive)
# ----------------------------------------------------------------------
def test_put_if_absent_contract(backend):
    """True iff the key now holds *this* payload (creator or own retry)."""
    assert backend.put_if_absent("cond/key", b"first") is True
    assert backend.put_if_absent("cond/key", b"other") is False
    # Identical payload → True: indistinguishable from our own retried
    # write whose first response was lost, and callers embed unique owner
    # tokens, so "holds our bytes" == "ours".
    assert backend.put_if_absent("cond/key", b"first") is True
    assert backend.get("cond/key") == b"first"
    backend.delete("cond/key")
    assert backend.put_if_absent("cond/key", b"second") is True
    assert backend.get("cond/key") == b"second"


def test_put_if_absent_racers_exactly_one_winner(backend):
    winners: list[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def racer(index: int) -> None:
        barrier.wait()
        if backend.put_if_absent("race/cond", f"worker-{index}".encode()):
            with lock:
                winners.append(index)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(winners) == 1
    assert backend.get("race/cond") == f"worker-{winners[0]}".encode()


def test_put_if_absent_through_sub_view(backend):
    view = backend.sub("condns")
    assert view.put_if_absent("lease", b"tok") is True
    assert view.put_if_absent("lease", b"other") is False
    assert backend.get("condns/lease") == b"tok"


# ----------------------------------------------------------------------
# Namespaced sub-views
# ----------------------------------------------------------------------
def test_sub_view_namespacing(backend):
    view = backend.sub("ns")
    view.put_atomic("inner/key", b"payload")
    assert view.get("inner/key") == b"payload"
    assert view.list_keys() == ["inner/key"]
    assert backend.get("ns/inner/key") == b"payload"
    assert "ns/inner/key" in backend.list_keys("ns/")
    assert view.exists_many(["inner/key", "absent"]) == {"inner/key"}
    assert view.get_many(["inner/key"]) == {"inner/key": b"payload"}
    assert view.delete("inner/key") is True
    assert backend.list_keys("ns/") == []


# ----------------------------------------------------------------------
# Object-store specifics: retry/backoff, pagination, conditional PUT
# ----------------------------------------------------------------------
def test_object_store_retries_transient_5xx():
    with FakeObjectServer() as server:
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        server.fail_next(2)
        backend.put_atomic("k", b"survived")
        assert backend.get("k") == b"survived"
        puts = [entry for entry in server.request_log() if entry[0] == "PUT"]
        assert len(puts) == 3  # two injected 503s, then success


def test_object_store_gives_up_after_retry_budget():
    with FakeObjectServer() as server:
        backend = ObjectStoreBackend(
            "bucket", endpoint=server.endpoint, retries=1, backoff=0.001
        )
        server.fail_next(10)
        with pytest.raises(SweepError, match="after 2 attempts"):
            backend.get("k")


def test_object_store_listing_paginates():
    with FakeObjectServer() as server:
        server.state.max_keys = 2
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        keys = [f"page/{i}" for i in range(5)]
        backend.put_many([(key, b"x") for key in keys])
        assert backend.list_keys("page/") == sorted(keys)
        assert len(server.listing_requests()) == 3  # ceil(5/2) pages


def test_object_store_put_if_absent_key_versioning():
    with FakeObjectServer() as server:
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        assert backend.put_if_absent("once", b"first") is True
        assert backend.put_if_absent("once", b"second") is False
        assert backend.get("once") == b"first"


def test_object_store_put_if_absent_own_lost_response_reads_back_true():
    """A retried conditional PUT colliding with its own committed first
    attempt must report success — misreporting it as "taken" would drop a
    claimed cell under the lease protocol."""
    with FakeObjectServer() as server:
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        server.fail_commit_next(1)  # PUT commits, 200 lost, client retries
        assert backend.put_if_absent("lease", b"owner-token-A") is True
        assert backend.get("lease") == b"owner-token-A"
        # A genuinely different claimant still loses.
        assert backend.put_if_absent("lease", b"owner-token-B") is False


def test_object_store_truncated_listing_without_token_raises():
    """IsTruncated=true with no NextContinuationToken must error out, not
    re-request page one forever."""
    with FakeObjectServer() as server:
        server.state.max_keys = 2
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        backend.put_many([(f"page/{i}", b"x") for i in range(5)])
        server.truncate_without_token()
        with pytest.raises(SweepError, match="NextContinuationToken"):
            backend.list_keys("page/")
        server.truncate_without_token(False)
        assert len(backend.list_keys("page/")) == 5


def test_object_store_5xx_response_closed_before_backoff(monkeypatch):
    """The retained HTTPError of a retried 5xx must be closed before the
    backoff sleep — it holds the socket (one leaked fd per retry)."""
    import io
    import urllib.error

    closed: list[int] = []

    class TrackedHTTPError(urllib.error.HTTPError):
        def close(self):
            closed.append(self.code)
            super().close()

    attempts: list[str] = []

    def fake_urlopen(request, timeout=None):
        attempts.append(request.full_url)
        if len(attempts) <= 2:
            raise TrackedHTTPError(
                request.full_url, 503, "injected", {}, io.BytesIO(b"")
            )

        class Reply:
            status = 200

            def read(self):
                return b"ok"

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

        return Reply()

    sleeps: list[int] = []  # how many errors were closed at each sleep
    monkeypatch.setattr(
        "repro.sweep.objectstore.urllib.request.urlopen", fake_urlopen
    )
    monkeypatch.setattr(
        "repro.sweep.objectstore.time.sleep",
        lambda seconds: sleeps.append(len(closed)),
    )
    backend = ObjectStoreBackend("bucket", endpoint="http://fake", backoff=0.001)
    backend.credentials = None
    status, payload = backend._request("GET", backend._object_url("k"))
    assert (status, payload) == (200, b"ok")
    # Two retries slept; by each sleep, every error so far was closed.
    assert sleeps == [1, 2]


def test_object_store_404_is_not_retried():
    with FakeObjectServer() as server:
        backend = ObjectStoreBackend("bucket", endpoint=server.endpoint, backoff=0.001)
        assert not backend.exists("missing")
        gets = [entry for entry in server.request_log() if entry[0] == "HEAD"]
        assert len(gets) == 1


# ----------------------------------------------------------------------
# URL resolution
# ----------------------------------------------------------------------
def test_storage_from_url_file_and_bare_path(tmp_path):
    backend = storage_from_url(f"file://{tmp_path}/blobs")
    assert isinstance(backend, LocalFSBackend)
    assert backend.root == tmp_path / "blobs"
    bare = storage_from_url(str(tmp_path / "other"))
    assert isinstance(bare, LocalFSBackend)


def test_storage_from_url_memory_registry_shared():
    first = storage_from_url("mem://shared-unit-test")
    second = storage_from_url("mem://shared-unit-test")
    assert first is second is memory_store("shared-unit-test")
    first.put_atomic("k", b"v")
    assert second.get("k") == b"v"
    assert storage_from_url("mem://") is not storage_from_url("mem://")


def test_storage_from_url_s3(monkeypatch):
    backend = storage_from_url("s3://bucket/pre/fix?endpoint=http://127.0.0.1:1")
    assert isinstance(backend, ObjectStoreBackend)
    assert (backend.bucket, backend.prefix) == ("bucket", "pre/fix")
    assert backend.endpoint == "http://127.0.0.1:1"
    monkeypatch.setenv("ISEGEN_S3_ENDPOINT", "http://10.0.0.1:9000")
    from_env = storage_from_url("s3://bucket")
    assert from_env.endpoint == "http://10.0.0.1:9000"


def test_storage_from_url_rejects_unknown_and_incomplete(monkeypatch):
    monkeypatch.delenv("ISEGEN_S3_ENDPOINT", raising=False)
    monkeypatch.delenv("AWS_ENDPOINT_URL", raising=False)
    with pytest.raises(SweepError, match="unsupported store URL scheme"):
        storage_from_url("ftp://nope")
    with pytest.raises(SweepError, match="no endpoint"):
        storage_from_url("s3://bucket")
