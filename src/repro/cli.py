"""Command-line interface.

``isegen`` (installed as a console script, also reachable via
``python -m repro.cli``) exposes the library's main entry points:

* ``isegen workloads`` — list the available benchmark workloads;
* ``isegen inspect <workload>`` — structural statistics of a workload;
* ``isegen run <workload>`` — run one ISE-generation algorithm and print the
  generated cuts;
* ``isegen figure1|figure4|figure6|figure7|ablation|scaling`` — regenerate
  the corresponding experiment and optionally save the row tables;
* ``isegen sweep submit|worker|status|gc|collect|run`` — the distributed
  sweep subsystem: content-addressed result store + shared-directory work
  queue, so figure sweeps shard over multiple worker processes/machines and
  resume across runs, with ``gc`` reclaiming records stranded by
  code-version salt bumps (see :mod:`repro.sweep`);
* ``isegen bench record|compare`` — benchmark regression tracking over
  ``pytest-benchmark --benchmark-json`` artifacts;
* ``isegen trace summary|tree|export`` — render span trees and metric
  tables from telemetry JSONL files written via ``--trace``/``ISEGEN_TRACE``
  (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import telemetry
from .analysis import program_stats
from .baselines import (
    ALGORITHMS,
    DEFAULT_NODE_LIMIT_EXACT,
    DEFAULT_NODE_LIMIT_ITERATIVE,
    NODE_LIMITED_ALGORITHMS,
    run_algorithm,
)
from .codegen import result_report
from .errors import ReproError
from .experiments import (
    run_ablation,
    run_codesize_energy,
    run_figure1,
    run_figure4,
    run_figure6,
    run_figure7,
    run_scaling,
    save_tables,
)
from .hwmodel import ISEConstraints
from .reuse import reuse_aware_speedup
from .workloads import available_workloads, load_workload, workload_spec


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_constraint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-inputs", type=int, default=4, help="register-file read ports (default 4)"
    )
    parser.add_argument(
        "--max-outputs", type=int, default=2, help="register-file write ports (default 2)"
    )
    parser.add_argument(
        "--max-ises", type=int, default=4, help="maximum number of AFUs (default 4)"
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append span/metric telemetry as JSONL: a file (shared by all "
        "processes) or a directory (one trace-<host>-<pid>.jsonl per "
        "process).  Exported as ISEGEN_TRACE so experiment-pool and sweep "
        "workers inherit it; render with `isegen trace summary|tree PATH`. "
        "Tracing never changes results",
    )


def _apply_trace_choice(args: argparse.Namespace) -> None:
    """Export ``--trace`` and configure the global tracer before dispatch
    (forked/spawned children pick the sink up from the environment)."""
    trace = getattr(args, "trace", None)
    if trace:
        os.environ[telemetry.TRACE_ENV_VAR] = trace
        telemetry.configure(trace)
    else:
        telemetry.maybe_configure_from_env()


def _constraints_from(args: argparse.Namespace) -> ISEConstraints:
    return ISEConstraints(
        max_inputs=args.max_inputs,
        max_outputs=args.max_outputs,
        max_ises=args.max_ises,
    )


def _cmd_workloads(_args: argparse.Namespace) -> int:
    for name in available_workloads():
        spec = workload_spec(name)
        print(
            f"{name:15s} {spec.suite:15s} critical block {spec.critical_block_size:4d} "
            f"nodes  - {spec.description}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    program = load_workload(args.workload)
    print(program_stats(program).summary())
    return 0


def _print_search_trace(result) -> None:
    """Unified per-engine trace block via the metrics-registry formatter.

    Every engine populates numeric ``result.stats`` counters (K-L pass
    aggregates for ISEGEN, GA/evaluator totals for Genetic, enumeration
    trace for Exact/Iterative, seed counts for Greedy), so every run — not
    just the enumeration baselines — reports a ``Search trace:`` block.
    """
    lines = telemetry.format_trace_block(result.stats)
    if lines:
        print()
        for line in lines:
            print(line)


def _cmd_run(args: argparse.Namespace) -> int:
    program = load_workload(args.workload)
    constraints = _constraints_from(args)
    kwargs = {}
    if args.block_workers > 1:
        if args.algorithm != "ISEGEN":
            print(
                f"note: --block-workers applies to ISEGEN only; running "
                f"{args.algorithm} serially",
                file=sys.stderr,
            )
        else:
            kwargs["block_workers"] = args.block_workers
    if args.node_limit is not None:
        if args.algorithm in NODE_LIMITED_ALGORITHMS:
            kwargs["node_limit"] = args.node_limit
        else:
            print(
                f"note: --node-limit applies to the exhaustive baselines "
                f"({', '.join(sorted(NODE_LIMITED_ALGORITHMS))}) only; "
                f"{args.algorithm} ignores it",
                file=sys.stderr,
            )
    result = run_algorithm(args.algorithm, program, constraints, **kwargs)
    if telemetry.tracing_enabled():
        from .dfg import bitset
        from .dfg.kernels import dispatch_counts

        telemetry.emit_metrics(
            "kernel",
            {f"dispatch_{name}": count for name, count in dispatch_counts.items()},
        )
        telemetry.emit_metrics("dfg", {"table_builds": bitset.table_builds})
    print(result_report(result))
    _print_search_trace(result)
    if args.reuse:
        reuse = reuse_aware_speedup(program, result)
        print(f"\nReuse-aware speedup: {reuse.reuse_speedup:.3f}x "
              f"(single-use {reuse.single_use_speedup:.3f}x)")
        print(f"Instances per cut  : {reuse.instance_counts}")
    return 0


def _save_and_print(tables, args: argparse.Namespace) -> int:
    for table in tables:
        print(table.to_text())
        print()
    if args.output:
        written = save_tables(tables, args.output)
        print("Saved:", ", ".join(str(path) for path in written))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    return _save_and_print([run_figure1(workers=args.workers)], args)


def _cmd_figure4(args: argparse.Namespace) -> int:
    speedup, runtime = run_figure4(workers=args.workers, node_limit=args.node_limit)
    return _save_and_print([speedup, runtime], args)


def _cmd_figure6(args: argparse.Namespace) -> int:
    table = run_figure6(quick_genetic=not args.full_genetic, workers=args.workers)
    return _save_and_print([table], args)


def _cmd_figure7(args: argparse.Namespace) -> int:
    return _save_and_print([run_figure7(workers=args.workers)], args)


def _cmd_ablation(args: argparse.Namespace) -> int:
    return _save_and_print([run_ablation(workers=args.workers)], args)


def _cmd_scaling(args: argparse.Namespace) -> int:
    return _save_and_print([run_scaling(workers=args.workers)], args)


def _cmd_codesize_energy(args: argparse.Namespace) -> int:
    return _save_and_print([run_codesize_energy(workers=args.workers)], args)


# ----------------------------------------------------------------------
# Distributed sweeps
# ----------------------------------------------------------------------
def _sweep_directory(args: argparse.Namespace):
    from .sweep import SweepDirectory
    from .sweep.filequeue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS

    lease = getattr(args, "lease", None)
    max_attempts = getattr(args, "max_attempts", None)
    return SweepDirectory(
        args.dir,
        lease_seconds=DEFAULT_LEASE_SECONDS if lease is None else lease,
        max_attempts=DEFAULT_MAX_ATTEMPTS if max_attempts is None else max_attempts,
        store_url=getattr(args, "store_url", None),
        queue_url=getattr(args, "queue_url", None),
    )


def _sweep_options(args: argparse.Namespace) -> dict:
    options: dict = {}
    if getattr(args, "full_genetic", False):
        options["quick_genetic"] = False
    return options


def _cmd_sweep_submit(args: argparse.Namespace) -> int:
    from .sweep import submit

    report = submit(
        _sweep_directory(args),
        args.sweep,
        options=_sweep_options(args),
    )
    print(report.summary())
    if report.enqueued or report.already_queued:
        hint = f"isegen sweep worker --dir {args.dir}"
        if getattr(args, "store_url", None):
            hint += f" --store-url {args.store_url}"
        if getattr(args, "queue_url", None):
            hint += f" --queue-url {args.queue_url}"
        print(
            f"run `{hint}` (any number of processes/machines sharing the "
            "directory) to execute the cells"
        )
    return 0


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from .sweep import worker_loop

    directory = _sweep_directory(args)
    parked_before = set(directory.queue.failed_keys())
    report = worker_loop(
        directory,
        poll_interval=args.poll,
        max_tasks=args.max_tasks,
        exit_when_idle=not args.keep_alive,
    )
    print(report.summary())
    # Exit code reflects terminal state, not transient attempts: a cell that
    # failed once but succeeded on retry is a success; only cells newly
    # parked as permanently failed during this run report failure (records
    # left by earlier runs don't re-fail every subsequent worker).
    parked = set(directory.queue.failed_keys()) - parked_before
    if parked:
        print(
            f"{len(parked)} cell(s) parked as permanently failed "
            f"(see the failed/ records of the {directory.queue.describe()})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep_retry(args: argparse.Namespace) -> int:
    from .sweep import retry

    cleared, report = retry(_sweep_directory(args), args.sweep)
    print(f"cleared {cleared} failure record(s)")
    print(report.summary())
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from .sweep import fleet_telemetry, format_fleet_lines, status, store_report

    directory = _sweep_directory(args)
    names = [args.sweep] if args.sweep else directory.manifests()
    if not names:
        print(f"no sweeps submitted under {args.dir}")
    else:
        for name in names:
            print(status(directory, name).summary())
    print(store_report(directory))
    if getattr(args, "telemetry", False):
        for line in format_fleet_lines(fleet_telemetry(directory)):
            print(line)
    return 0


def _cmd_sweep_gc(args: argparse.Namespace) -> int:
    from .sweep import gc

    report = gc(
        _sweep_directory(args),
        salt=args.salt,
        include_unsalted=args.include_unsalted,
        dry_run=args.dry_run,
    )
    print(report.summary())
    return 0


def _cmd_sweep_collect(args: argparse.Namespace) -> int:
    from .sweep import MissingCellsError, collect

    directory = _sweep_directory(args)
    try:
        tables = collect(directory, args.sweep)
    except MissingCellsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return _save_and_print(tables, args)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from .sweep import ProcessPoolBackend, SerialBackend, run_cached

    directory = _sweep_directory(args)
    backend = ProcessPoolBackend(args.workers) if args.workers > 1 else SerialBackend()
    tables, executor = run_cached(
        directory, args.sweep, backend=backend, options=_sweep_options(args)
    )
    code = _save_and_print(tables, args)
    total = executor.hits + executor.misses
    rate = executor.hits / total if total else 0.0
    print(
        f"cells: {total} — {executor.hits} cached ({rate:.0%} hits), "
        f"{executor.misses} executed via {backend.name}"
    )
    return code


# ----------------------------------------------------------------------
# Service: `isegen serve` / `isegen client`
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import IseService, ServiceConfig

    directory = _sweep_directory(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        max_inflight=args.max_inflight,
        longpoll_cap=args.longpoll_cap,
        local_workers=args.local_workers,
        worker_poll=args.poll,
    )
    service = IseService(directory, config)

    def _terminate(signum, frame):  # SIGTERM drains like ctrl-C
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    endpoint = service.start()
    print(f"serving ISE generation on {endpoint}")
    print(f"  store: {directory.storage.describe()}")
    print(f"  queue: {directory.queue.describe()}")
    if config.local_workers:
        print(f"  local workers: {config.local_workers}")
    else:
        hint = f"isegen sweep worker --dir {args.dir} --keep-alive"
        if getattr(args, "store_url", None):
            hint += f" --store-url {args.store_url}"
        if getattr(args, "queue_url", None):
            hint += f" --queue-url {args.queue_url}"
        print(f"  attach workers with `{hint}`")
    print("ctrl-C (or SIGTERM) drains the embedded workers and stops")
    service.serve_forever()
    print("service stopped")
    return 0


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(
        args.url, client_id=args.client, timeout=args.timeout
    )


def _client_job_spec(args: argparse.Namespace) -> dict:
    import json

    chosen = [
        name
        for name, value in (
            ("--spec", args.spec),
            ("--sweep", args.sweep),
            ("--workload", args.workload),
            ("--ir", args.ir),
        )
        if value
    ]
    if len(chosen) != 1:
        raise ReproError(
            "pass exactly one of --spec FILE, --sweep NAME, --workload NAME, "
            "--ir FILE"
        )
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            return json.load(handle)
    if args.sweep:
        spec: dict = {"sweep": args.sweep}
        if args.options:
            spec["options"] = json.loads(args.options)
        return spec
    spec = {
        "algorithm": args.algorithm,
        "constraints": {
            "max_inputs": args.max_inputs,
            "max_outputs": args.max_outputs,
            "max_ises": args.max_ises,
        },
    }
    if args.config:
        spec["config"] = json.loads(args.config)
    if args.node_limit is not None:
        spec["node_limit"] = args.node_limit
    if args.workload:
        spec["workload"] = args.workload
    else:
        with open(args.ir, encoding="utf-8") as handle:
            spec["ir"] = json.load(handle)
    return spec


def _cmd_client_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    summary = client.submit(_client_job_spec(args))
    if not args.wait:
        _print_json(summary)
        return 0
    status = client.wait(summary["job_id"], timeout=args.timeout_job)
    if status["state"] != "done":
        _print_json(status)
        return 1
    _print_json(client.result(summary["job_id"]))
    return 0


def _cmd_client_status(args: argparse.Namespace) -> int:
    _print_json(_service_client(args).status(args.job_id))
    return 0


def _cmd_client_wait(args: argparse.Namespace) -> int:
    status = _service_client(args).wait(args.job_id, timeout=args.wait_timeout)
    _print_json(status)
    return 0 if status["state"] == "done" else 1


def _cmd_client_fetch(args: argparse.Namespace) -> int:
    import json

    result = _service_client(args).result(args.job_id)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    else:
        _print_json(result)
    return 0


def _cmd_client_workloads(args: argparse.Namespace) -> int:
    _print_json(_service_client(args).workloads())
    return 0


def _bench_location(args: argparse.Namespace) -> str:
    return getattr(args, "store_url", None) or args.dir


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from .sweep import BenchmarkTracker

    entry = BenchmarkTracker(_bench_location(args)).record(args.json, commit=args.commit)
    print(
        f"recorded {len(entry['benchmarks'])} benchmark(s) for commit "
        f"{entry['commit']}"
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .sweep import BenchmarkTracker, compare_rows, load_benchmark_rows

    if args.baseline and args.current:
        comparison = compare_rows(
            load_benchmark_rows(args.baseline),
            load_benchmark_rows(args.current),
            max_slowdown=args.max_slowdown,
        )
    elif args.baseline or args.current:
        print("error: pass two JSON files, or neither (store mode)", file=sys.stderr)
        return 2
    else:
        comparison = BenchmarkTracker(_bench_location(args)).compare_latest(
            max_slowdown=args.max_slowdown
        )
        if comparison is None:
            print("fewer than two recorded runs; nothing to compare")
            return 0
    print(comparison.summary())
    return 0 if comparison.ok else 1


# ----------------------------------------------------------------------
# Telemetry reporting
# ----------------------------------------------------------------------
def _load_trace_report(args: argparse.Namespace):
    if not list(telemetry.iter_trace_files(args.paths)):
        raise ReproError(
            f"no trace files found under: {', '.join(args.paths)} "
            "(expected JSONL written via --trace / ISEGEN_TRACE)"
        )
    report = telemetry.load_report(args.paths)
    if not report.events:
        print(
            f"no telemetry events found under: {', '.join(args.paths)}",
            file=sys.stderr,
        )
    return report


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    report = _load_trace_report(args)
    print("\n".join(report.summary_lines()))
    return 0


def _cmd_trace_tree(args: argparse.Namespace) -> int:
    report = _load_trace_report(args)
    print("\n".join(report.tree_lines()))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    report = _load_trace_report(args)
    lines = [
        json.dumps(event, separators=(",", ":")) for event in report.export_events()
    ]
    if args.output:
        from pathlib import Path

        target = Path(args.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        print(f"exported {len(lines)} event(s) to {target}")
    else:
        for line in lines:
            print(line)
    return 0


def _add_trace_parsers(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace",
        help="render telemetry JSONL files (written via --trace / ISEGEN_TRACE)",
    )
    commands = trace.add_subparsers(dest="trace_command", required=True)

    def add_paths(sub) -> None:
        sub.add_argument(
            "paths",
            nargs="+",
            help="trace JSONL files and/or directories (directories are "
            "searched recursively for *.jsonl — a sweep directory works)",
        )

    sub = commands.add_parser(
        "summary", help="flat span table (calls, total/self time) + metrics"
    )
    add_paths(sub)
    sub.set_defaults(handler=_cmd_trace_summary)

    sub = commands.add_parser("tree", help="hierarchical span tree")
    add_paths(sub)
    sub.set_defaults(handler=_cmd_trace_tree)

    sub = commands.add_parser(
        "export", help="merge and time-sort events into one JSONL stream"
    )
    add_paths(sub)
    sub.add_argument("--output", help="write to this file instead of stdout")
    sub.set_defaults(handler=_cmd_trace_export)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isegen",
        description="ISEGEN (DATE 2005) reproduction: instruction-set extension "
        "generation by Kernighan-Lin iterative improvement.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("workloads", help="list available workloads")
    sub.set_defaults(handler=_cmd_workloads)

    sub = subparsers.add_parser("inspect", help="show workload statistics")
    sub.add_argument("workload")
    sub.set_defaults(handler=_cmd_inspect)

    sub = subparsers.add_parser("run", help="run one ISE-generation algorithm")
    sub.add_argument("workload")
    sub.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="ISEGEN",
        help="algorithm to run (default ISEGEN)",
    )
    sub.add_argument(
        "--reuse", action="store_true", help="also report reuse-aware speedup"
    )
    sub.add_argument(
        "--block-workers",
        type=_positive_int,
        default=1,
        help="fan the per-basic-block cut searches of the multi-ISE driver "
        "out over this many processes (ISEGEN only; identical ISEs either "
        "way; default 1)",
    )
    sub.add_argument(
        "--node-limit",
        type=_positive_int,
        default=None,
        help="override the exhaustive baselines' enumeration limit "
        f"(Exact default {DEFAULT_NODE_LIMIT_EXACT}, Iterative default "
        f"{DEFAULT_NODE_LIMIT_ITERATIVE}); blocks above it fail with a "
        "clean infeasibility error",
    )
    _add_constraint_arguments(sub)
    _add_trace_argument(sub)
    sub.set_defaults(handler=_cmd_run)

    experiment_commands = {
        "figure1": (_cmd_figure1, "motivational reuse example (Figure 1)"),
        "figure4": (_cmd_figure4, "benchmark speedup and runtime comparison (Figure 4)"),
        "figure6": (_cmd_figure6, "AES speedup sweep (Figure 6)"),
        "figure7": (_cmd_figure7, "AES cut reusability (Figure 7)"),
        "ablation": (_cmd_ablation, "gain-component ablation study"),
        "scaling": (_cmd_scaling, "runtime scaling with block size"),
        "codesize-energy": (
            _cmd_codesize_energy,
            "code-size and energy impact of the generated ISEs (future work study)",
        ),
    }
    for name, (handler, help_text) in experiment_commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--output", help="directory to save the result tables (JSON + CSV)"
        )
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="processes to fan the experiment cells out over "
            "(1 = serial, identical rows either way; default 1)",
        )
        if name == "figure4":
            sub.add_argument(
                "--node-limit",
                type=_positive_int,
                default=None,
                help="override the exhaustive baselines' enumeration limits; "
                "blocks above it become infeasible cells (missing bars), "
                "never crashes",
            )
        if name == "figure6":
            sub.add_argument(
                "--full-genetic",
                action="store_true",
                help="use the full genetic configuration instead of the quick one",
            )
        _add_trace_argument(sub)
        sub.set_defaults(handler=handler)

    _add_sweep_parsers(subparsers)
    _add_service_parsers(subparsers)
    _add_bench_parsers(subparsers)
    _add_trace_parsers(subparsers)
    return parser


def _add_sweep_parsers(subparsers) -> None:
    from .sweep import available_sweeps
    from .sweep.filequeue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS

    sweep = subparsers.add_parser(
        "sweep",
        help="distributed, resumable experiment sweeps (store + work queue)",
    )
    commands = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_dir(sub) -> None:
        sub.add_argument(
            "--dir",
            required=True,
            help="sweep directory (store + queue + manifests); share it "
            "between machines to shard the sweep",
        )
        sub.add_argument(
            "--store-url",
            default=None,
            help="relocate the result store + manifests onto a storage "
            "backend: file:///path, mem://name (in-process only), or "
            "s3://bucket[/prefix] (S3 endpoint via ?endpoint=... or "
            "$ISEGEN_S3_ENDPOINT; the queue stays under --dir).  Pass the "
            "same URL to every sweep subcommand touching the sweep",
        )
        sub.add_argument(
            "--queue-url",
            default=None,
            help="relocate the work queue itself: file:///path onto another "
            "shared directory, s3://bucket/prefix or mem://name onto that "
            "backend — workers then coordinate through the bucket alone, "
            "no shared filesystem.  Pass the same URL to every sweep "
            "subcommand touching the sweep (default: <--dir>/queue)",
        )

    sub = commands.add_parser(
        "submit", help="enumerate a sweep's cells and queue the missing ones"
    )
    sub.add_argument("sweep", choices=available_sweeps())
    add_dir(sub)
    sub.add_argument(
        "--full-genetic",
        action="store_true",
        help="figure6 only: full genetic configuration instead of the quick one",
    )
    sub.set_defaults(handler=_cmd_sweep_submit)

    sub = commands.add_parser(
        "worker", help="claim and execute queued cells until the queue drains"
    )
    add_dir(sub)
    _add_trace_argument(sub)
    sub.add_argument(
        "--poll", type=float, default=0.2, help="queue poll interval in seconds"
    )
    sub.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help="claim lease in seconds; expired leases are requeued so cells "
        f"owned by crashed workers get re-executed (default {DEFAULT_LEASE_SECONDS:g})",
    )
    sub.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="attempts before a failing cell is parked as failed "
        f"(default {DEFAULT_MAX_ATTEMPTS})",
    )
    sub.add_argument(
        "--max-tasks",
        type=_positive_int,
        default=None,
        help="exit after executing this many cells (default: until idle)",
    )
    sub.add_argument(
        "--keep-alive",
        action="store_true",
        help="keep polling for new submissions instead of exiting when idle",
    )
    sub.set_defaults(handler=_cmd_sweep_worker)

    sub = commands.add_parser(
        "retry",
        help="clear a sweep's permanently-failed cells and re-queue them",
    )
    sub.add_argument("sweep", choices=available_sweeps())
    add_dir(sub)
    sub.set_defaults(handler=_cmd_sweep_retry)

    sub = commands.add_parser("status", help="progress of submitted sweeps")
    sub.add_argument("sweep", nargs="?", help="sweep name (default: all)")
    add_dir(sub)
    sub.add_argument(
        "--telemetry",
        action="store_true",
        help="also show the per-worker fleet view: cells/sec throughput, "
        "cell latency percentiles, lease renewals, last-seen heartbeat age, "
        "and lease-expiry requeues",
    )
    sub.set_defaults(handler=_cmd_sweep_status)

    sub = commands.add_parser(
        "gc",
        help="drop result-store records whose code-version salt is stale",
    )
    add_dir(sub)
    sub.add_argument(
        "--salt",
        help="treat this salt as current instead of the built-in "
        "CODE_VERSION (+ ISEGEN_SWEEP_SALT)",
    )
    sub.add_argument(
        "--include-unsalted",
        action="store_true",
        help="also drop records written before the salt was recorded in "
        "their metadata",
    )
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be reclaimed without deleting anything",
    )
    sub.set_defaults(handler=_cmd_sweep_gc)

    sub = commands.add_parser(
        "collect",
        help="assemble the result tables from the store (no execution)",
    )
    sub.add_argument("sweep", choices=available_sweeps())
    add_dir(sub)
    sub.add_argument(
        "--output", help="directory to save the result tables (JSON + CSV)"
    )
    sub.set_defaults(handler=_cmd_sweep_collect)

    sub = commands.add_parser(
        "run",
        help="run a sweep in-process through the store (cache-aware "
        "serial/process-pool execution)",
    )
    sub.add_argument("sweep", choices=available_sweeps())
    add_dir(sub)
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="processes for cache misses (1 = serial; default 1)",
    )
    sub.add_argument(
        "--full-genetic",
        action="store_true",
        help="figure6 only: full genetic configuration instead of the quick one",
    )
    sub.add_argument(
        "--output", help="directory to save the result tables (JSON + CSV)"
    )
    _add_trace_argument(sub)
    sub.set_defaults(handler=_cmd_sweep_run)


def _add_service_parsers(subparsers) -> None:
    from .sweep import available_sweeps
    from .sweep.filequeue import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS

    serve = subparsers.add_parser(
        "serve",
        help="HTTP front door: submit jobs over JSON, results from the "
        "content-addressed store (see docs/API.md)",
    )
    serve.add_argument(
        "--dir",
        required=True,
        help="sweep directory backing the service (store + queue + job records)",
    )
    serve.add_argument(
        "--store-url",
        default=None,
        help="relocate the result store + job records onto a storage backend "
        "(file:///path, mem://name, s3://bucket[/prefix])",
    )
    serve.add_argument(
        "--queue-url",
        default=None,
        help="relocate the work queue (file:///path, mem://name, "
        "s3://bucket/prefix) so a remote fleet needs no shared filesystem",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="bind port (default 8321)"
    )
    serve.add_argument(
        "--local-workers",
        type=int,
        default=0,
        help="embed this many worker threads (default 0: attach external "
        "`isegen sweep worker --keep-alive` processes instead)",
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="embedded workers' queue poll interval in seconds (default 0.1)",
    )
    serve.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help=f"queue claim lease in seconds (default {DEFAULT_LEASE_SECONDS:g})",
    )
    serve.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="attempts before a failing cell is parked as failed "
        f"(default {DEFAULT_MAX_ATTEMPTS})",
    )
    serve.add_argument(
        "--quota-rps",
        type=float,
        default=20.0,
        help="per-client request quota: token refill rate per second "
        "(default 20)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=40.0,
        help="per-client request quota: bucket capacity (default 40)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=32,
        help="concurrent requests served before shedding load with 503 "
        "(default 32)",
    )
    serve.add_argument(
        "--longpoll-cap",
        type=float,
        default=30.0,
        help="ceiling on a single /wait long-poll in seconds (default 30)",
    )
    _add_trace_argument(serve)
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser(
        "client", help="talk to a running `isegen serve` over HTTP"
    )
    client_commands = client.add_subparsers(dest="client_command", required=True)

    def add_connection(sub) -> None:
        sub.add_argument(
            "--url",
            default="http://127.0.0.1:8321",
            help="service base URL (default http://127.0.0.1:8321)",
        )
        sub.add_argument(
            "--client",
            default="public",
            help="client namespace id sent as X-Client (default 'public')",
        )
        sub.add_argument(
            "--timeout",
            type=float,
            default=60.0,
            help="per-request HTTP timeout in seconds (default 60)",
        )

    sub = client_commands.add_parser(
        "submit", help="submit a job (sweep, workload, or inline IR)"
    )
    add_connection(sub)
    sub.add_argument(
        "--spec", default=None, help="JSON file with a raw job spec (see docs/API.md)"
    )
    sub.add_argument(
        "--sweep",
        choices=available_sweeps(),
        default=None,
        help="submit a registered sweep harness",
    )
    sub.add_argument(
        "--options",
        default=None,
        help="JSON object of sweep options (with --sweep)",
    )
    sub.add_argument(
        "--workload", default=None, help="submit one registered workload"
    )
    sub.add_argument(
        "--ir", default=None, help="JSON file with inline serialized IR"
    )
    sub.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="ISEGEN",
        help="algorithm for --workload / --ir jobs (default ISEGEN)",
    )
    sub.add_argument(
        "--config",
        default=None,
        help="JSON object of algorithm config overrides "
        "(ISEGEN: ISEGenConfig fields; Genetic: {\"quick\": bool})",
    )
    sub.add_argument(
        "--node-limit",
        type=_positive_int,
        default=None,
        help="enumeration limit override for the exhaustive baselines",
    )
    _add_constraint_arguments(sub)
    sub.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its result",
    )
    sub.add_argument(
        "--job-timeout",
        dest="timeout_job",
        type=float,
        default=600.0,
        help="ceiling on --wait in seconds (default 600)",
    )
    sub.set_defaults(handler=_cmd_client_submit)

    sub = client_commands.add_parser("status", help="one job's progress")
    add_connection(sub)
    sub.add_argument("job_id")
    sub.set_defaults(handler=_cmd_client_status)

    sub = client_commands.add_parser(
        "wait", help="block until a job reaches a terminal state"
    )
    add_connection(sub)
    sub.add_argument("job_id")
    sub.add_argument(
        "--job-timeout",
        dest="wait_timeout",
        type=float,
        default=600.0,
        help="give up after this many seconds (default 600)",
    )
    sub.set_defaults(handler=_cmd_client_wait)

    sub = client_commands.add_parser(
        "fetch", help="fetch a finished job's rows/tables"
    )
    add_connection(sub)
    sub.add_argument("job_id")
    sub.add_argument("--output", default=None, help="write the JSON here")
    sub.set_defaults(handler=_cmd_client_fetch)

    sub = client_commands.add_parser(
        "workloads", help="the service's workload catalog"
    )
    add_connection(sub)
    sub.set_defaults(handler=_cmd_client_workloads)


def _add_bench_parsers(subparsers) -> None:
    bench = subparsers.add_parser(
        "bench", help="benchmark regression tracking (pytest-benchmark JSON)"
    )
    commands = bench.add_subparsers(dest="bench_command", required=True)

    def add_store_url(sub) -> None:
        sub.add_argument(
            "--store-url",
            default=None,
            help="keep the tracker on a storage backend instead of --dir: "
            "file:///path, mem://name (in-process only), or "
            "s3://bucket[/prefix]",
        )

    sub = commands.add_parser(
        "record", help="record a --benchmark-json artifact for one commit"
    )
    sub.add_argument("json", help="pytest-benchmark JSON artifact")
    sub.add_argument(
        "--dir", default=".benchtrack", help="tracker directory (default .benchtrack)"
    )
    add_store_url(sub)
    sub.add_argument(
        "--commit", help="commit id (default: $GITHUB_SHA or a local timestamp)"
    )
    _add_trace_argument(sub)
    sub.set_defaults(handler=_cmd_bench_record)

    sub = commands.add_parser(
        "compare",
        help="flag slowdowns beyond the threshold (two JSON files, or the "
        "two most recent recorded runs)",
    )
    sub.add_argument("baseline", nargs="?", help="baseline benchmark JSON")
    sub.add_argument("current", nargs="?", help="current benchmark JSON")
    sub.add_argument(
        "--dir", default=".benchtrack", help="tracker directory (default .benchtrack)"
    )
    add_store_url(sub)
    sub.add_argument(
        "--max-slowdown",
        type=float,
        default=1.3,
        help="mean-time ratio above which a benchmark counts as regressed "
        "(default 1.3 = +30%%)",
    )
    _add_trace_argument(sub)
    sub.set_defaults(handler=_cmd_bench_compare)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_trace_choice(args)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `trace summary | head`).
        # Point stdout at devnull so interpreter-exit flushing cannot raise
        # a second time, and exit cleanly like standard Unix filters do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        # Flush (not shutdown): an env-configured tracer stays live for
        # callers driving main() repeatedly in one process (tests, REPLs).
        telemetry.flush()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
