"""End-to-end sweep smoke: two workers, file:// and s3:// stores.

CI runs this (job ``sweep-e2e``) to exercise the multi-worker distributed
path no unit test covers end to end: a reduced figure6 sweep (two I/O
constraints x one N_ISE x two algorithms = 4 cells) is submitted, executed
by **two concurrent ``repro sweep worker`` CLI processes** sharing one
queue directory, and collected — once against the default ``file://``
store and once against the in-repo FakeObjectServer ``s3://`` backend.

Asserted invariants:

* every cell executes exactly once across the two workers;
* the collected figure6 table is row-identical between the file:// run,
  the s3:// run, the fully remote ``--queue-url s3://`` run, and the
  serial in-process harness;
* resubmitting each finished sweep reports 100% cache hits with nothing
  enqueued, and (s3://) the cache probe is one batched listing — no
  per-cell HEAD requests;
* the remote-queue shard shares **no filesystem at all** between workers
  (store and queue both on the bucket), and still completes — with
  row-identical output — after one worker is SIGKILLed mid-sweep: its
  expired lease is stolen and the cell re-executed (``attempt >= 2`` on
  the store record);
* the same kill-one-worker shard runs again with store and queue on
  ``file://`` directories, so crash recovery across processes sharing a
  local directory is proven by the same lease protocol.

Usage::

    PYTHONPATH=src python scripts/sweep_e2e.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.experiments import run_figure6  # noqa: E402
from repro.sweep import SweepDirectory, collect, status, submit  # noqa: E402
from repro.sweep.objectstore import FakeObjectServer  # noqa: E402

#: The reduced figure6 grid: 2 I/O pairs x 1 N_ISE x 2 algorithms = 4 cells.
REDUCED = {"io_sweep": [[2, 1], [4, 2]], "nise_values": [1]}
WORKERS = 2


def strip_timing(rows):
    return [
        {k: v for k, v in row.items() if k not in ("runtime_us", "runtime_s")}
        for row in rows
    ]


def run_sweep(label: str, sweep_dir: Path, store_url: str | None, env: dict):
    """Submit, execute via two CLI workers, collect; return stripped rows."""
    directory = SweepDirectory(sweep_dir, store_url=store_url)
    report = submit(directory, "figure6", options=REDUCED)
    assert report.total == 4 and report.enqueued == 4, report.summary()
    print(f"[{label}] {report.summary()}", flush=True)

    command = [sys.executable, "-m", "repro.cli", "sweep", "worker",
               "--dir", str(sweep_dir), "--poll", "0.05"]
    if store_url:
        command += ["--store-url", store_url]
    processes = [
        subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(WORKERS)
    ]
    executed = 0
    for process in processes:
        stdout, _ = process.communicate(timeout=600)
        assert process.returncode == 0, f"[{label}] worker failed:\n{stdout}"
        print(f"[{label}] {stdout.strip()}", flush=True)
        executed += int(re.search(r"executed (\d+) cell", stdout).group(1))
    assert executed == 4, f"[{label}] expected 4 executions total, saw {executed}"

    sweep_status = status(directory, "figure6")
    assert sweep_status.complete, f"[{label}] {sweep_status.summary()}"
    (table,) = collect(directory, "figure6")

    resubmit = submit(directory, "figure6", options=REDUCED)
    assert resubmit.cached == resubmit.total == 4 and resubmit.enqueued == 0, (
        f"[{label}] resubmission was not a pure cache hit: {resubmit.summary()}"
    )
    assert resubmit.hit_rate == 1.0
    print(f"[{label}] resubmit: {resubmit.summary()}", flush=True)
    return strip_timing(table.rows)


def run_remote_queue_sweep(
    label: str,
    workdir: Path,
    env: dict,
    store_url: str,
    queue_url: str,
    flavor: str,
):
    """A fleet sharing only store and queue URLs, one worker killed.

    Every worker gets a private ``--dir`` — the only thing they share is
    the two URLs.  One worker is SIGKILLed mid-sweep; the sweep must
    still complete via lease expiry → steal → re-execution.  Returns the
    stripped collected rows.
    """
    lease = 4.0
    directory = SweepDirectory(
        workdir / "submit",
        store_url=store_url,
        queue_url=queue_url,
        lease_seconds=lease,
    )
    assert directory.queue.flavor == flavor, directory.queue.describe()
    report = submit(directory, "figure6", options=REDUCED)
    assert report.total == 4 and report.enqueued == 4, report.summary()
    print(f"[{label}] {report.summary()}", flush=True)

    # A phantom worker claims one cell and "dies" instantly (no complete,
    # no heartbeat): the deterministic mid-cell loss.  Its lease must be
    # stolen and the cell re-executed at attempt >= 2.
    stuck = directory.queue.claim("phantom-worker")
    assert stuck is not None

    def worker_command(name: str) -> list[str]:
        return [
            sys.executable, "-m", "repro.cli", "sweep", "worker",
            "--dir", str(workdir / name), "--poll", "0.05",
            "--lease", str(lease),
            "--store-url", store_url, "--queue-url", queue_url,
        ]

    # The victim claims real work and is then SIGKILLed mid-sweep.
    victim = subprocess.Popen(
        worker_command("victim"), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 120
    while time.time() < deadline:
        if len(directory.queue.claimed_keys()) >= 2:  # phantom + victim
            break
        time.sleep(0.02)
    else:
        victim.kill()
        raise AssertionError(f"[{label}] victim never claimed a cell")
    victim.kill()
    victim.wait(timeout=60)
    print(f"[{label}] victim SIGKILLed after claiming", flush=True)

    survivors = [
        subprocess.Popen(
            worker_command(f"survivor-{index}"), env=env,
            stdout=subprocess.PIPE, text=True,
        )
        for index in range(WORKERS)
    ]
    executed = 0
    for process in survivors:
        stdout, _ = process.communicate(timeout=600)
        assert process.returncode == 0, f"[{label}] survivor failed:\n{stdout}"
        print(f"[{label}] {stdout.strip()}", flush=True)
        executed += int(re.search(r"executed (\d+) cell", stdout).group(1))
    assert executed >= 2, f"[{label}] survivors executed only {executed} cells"

    sweep_status = status(directory, "figure6")
    assert sweep_status.complete, f"[{label}] {sweep_status.summary()}"
    assert directory.queue.is_idle(), f"[{label}] queue not drained"
    attempts = [
        directory.store.record(key)["meta"]["attempt"]
        for key in directory.load_manifest("figure6")["keys"]
    ]
    assert any(attempt >= 2 for attempt in attempts), (
        f"[{label}] no cell was re-executed after the kill: {attempts}"
    )
    print(f"[{label}] store attempts per cell: {attempts}", flush=True)
    (table,) = collect(directory, "figure6")
    return strip_timing(table.rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="scratch dir (default: mkdtemp)")
    args = parser.parse_args()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="sweep-e2e-"))
    workdir.mkdir(parents=True, exist_ok=True)
    base_env = {**os.environ, "PYTHONPATH": str(SRC)}

    file_rows = run_sweep("file", workdir / "file-sweep", None, base_env)

    with FakeObjectServer() as server:
        # Both this process (submit/collect) and the worker subprocesses
        # resolve the s3:// endpoint from the environment.
        os.environ["ISEGEN_S3_ENDPOINT"] = server.endpoint
        env = {**base_env, "ISEGEN_S3_ENDPOINT": server.endpoint}
        print(f"[s3] FakeObjectServer at {server.endpoint}", flush=True)
        server.clear_request_log()
        s3_rows = run_sweep("s3", workdir / "s3-sweep", "s3://sweep-e2e", env)
        # The resubmission probe (the last burst of requests) must have
        # been one batched listing, never a HEAD per cell.
        heads = [entry for entry in server.request_log() if entry[0] == "HEAD"]
        assert not heads, f"[s3] unbatched per-cell probes: {heads}"

    with FakeObjectServer() as server:
        os.environ["ISEGEN_S3_ENDPOINT"] = server.endpoint
        env = {**base_env, "ISEGEN_S3_ENDPOINT": server.endpoint}
        print(f"[remote-queue] FakeObjectServer at {server.endpoint}", flush=True)
        remote_rows = run_remote_queue_sweep(
            "remote-queue",
            workdir / "remote-queue",
            env,
            store_url="s3://sweep-e2e-remote",
            queue_url="s3://sweep-e2e-remote/fleet-queue",
            flavor="object",
        )

    # The same SIGKILL recovery with store and queue on local directories.
    fleet = workdir / "file-queue" / "shared"
    file_queue_rows = run_remote_queue_sweep(
        "file-queue",
        workdir / "file-queue",
        base_env,
        store_url=f"file://{fleet / 'store'}",
        queue_url=f"file://{fleet / 'queue'}",
        flavor="file",
    )

    serial_rows = strip_timing(
        run_figure6(io_sweep=[(2, 1), (4, 2)], nise_values=[1], quick_genetic=True).rows
    )
    assert file_rows == serial_rows, "file:// rows differ from the serial harness"
    assert s3_rows == serial_rows, "s3:// rows differ from the serial harness"
    assert remote_rows == serial_rows, (
        "remote-queue rows differ from the serial harness"
    )
    assert file_queue_rows == serial_rows, (
        "file-queue rows differ from the serial harness"
    )
    assert file_rows == s3_rows
    print(
        f"sweep-e2e OK: {len(file_rows)} figure6 rows identical across "
        "serial, file://, s3:// store, and the s3:// and "
        "file:// queues with a SIGKILLed worker (2 workers each), "
        "100% cache hits on resubmit, batched probes",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
