"""Process-level parallel execution primitives.

This module is the lowest layer of the execution stack: a picklable job
description (:class:`ParallelJob`), a submission-ordered pool engine
(:func:`execute_jobs`) shared by every fan-out consumer, and the
:func:`run_parallel` front the experiment harnesses call.  It deliberately
depends on nothing but the standard library (plus the equally stdlib-only
:mod:`repro.telemetry` layer) so that both the experiment harnesses
(:mod:`repro.experiments.runner` re-exports these names) and the core
multi-ISE driver (:mod:`repro.core.application`) can fan work out without
import cycles.  The distributed sweep subsystem (:mod:`repro.sweep`) builds
its serial and process-pool backends on the same engine.

Jobs are submitted in submission order to one shared pool and their
results reassembled in submission order, so the worker count can change
wall-clock but never a row: tables are bit-identical across worker counts
(pinned by tests).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from . import telemetry


@dataclass(frozen=True)
class ParallelJob:
    """One independent unit of work: a picklable callable plus arguments.

    The callable must be a module-level function (process pools pickle it by
    qualified name) and should build its own inputs — workloads, DFGs — from
    the arguments rather than closing over live objects.
    """

    func: Callable
    args: tuple = ()
    kwargs: Mapping = field(default_factory=dict)

    def __call__(self):
        return self.func(*self.args, **self.kwargs)


def job(func: Callable, *args, **kwargs) -> ParallelJob:
    """Convenience constructor: ``job(f, a, b, k=v)`` == ``ParallelJob(f, (a, b), {"k": v})``."""
    return ParallelJob(func, args, kwargs)


def _execute(item: ParallelJob):
    # Pool children on spawn-based platforms arrive without the parent's
    # tracer; re-derive it from ISEGEN_TRACE (no-op when unset, and on
    # Linux/fork the inherited tracer wins).  The per-cell span is what the
    # trace tree's wall-time attribution hangs off: every experiment or
    # sweep cell shows up as one ``experiment.cell`` with the cell function
    # name, whether it ran serially, in a pool worker, or both.
    telemetry.maybe_configure_from_env()
    try:
        with telemetry.span("experiment.cell", cell=getattr(item.func, "__name__", "?")):
            return item()
    finally:
        # Forked pool children exit via os._exit(), which skips atexit —
        # flush per task so the cell's tail of span records (including this
        # experiment.cell span itself) survives the worker being reaped.
        telemetry.flush()


def execute_jobs(
    jobs: Sequence[ParallelJob],
    workers: int = 1,
    *,
    on_result: Callable[[int, object], None] | None = None,
    pool_factory: Callable = ProcessPoolExecutor,
) -> list:
    """Execute *jobs*, returning results in submission order.

    This is the one pool engine behind :func:`run_parallel` and the sweep
    executor backends, so the failure discipline cannot drift between
    them: as soon as any job fails, jobs that have not started yet are
    cancelled rather than run to completion behind it, and the
    earliest-submitted failed job's exception propagates.

    *on_result* is invoked in the parent process as ``(index, result)`` for
    each job **as it completes** (completion order, not submission order)
    — executor backends use it to persist results incrementally.  It is
    not called for jobs that fail or are cancelled.

    *pool_factory* exists for tests: injecting a thread pool exercises the
    full submission/reassembly path without process spin-up.
    """
    jobs = list(jobs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        results = []
        for index, item in enumerate(jobs):
            result = _execute(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    pool = pool_factory(max_workers=min(workers, len(jobs)))
    try:
        ordered = [pool.submit(_execute, item) for item in jobs]
        index_of = {future: index for index, future in enumerate(ordered)}
        results = [None] * len(jobs)
        failure_seen = False
        for future in as_completed(index_of):
            if future.exception() is not None:
                failure_seen = True
                break
            index = index_of[future]
            results[index] = future.result()
            if on_result is not None:
                on_result(index, results[index])
        if failure_seen:
            for future in ordered:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)
            for future in ordered:
                if future.done() and not future.cancelled():
                    error = future.exception()
                    if error is not None:
                        raise error
            raise RuntimeError("a parallel job failed but no exception survived")
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_parallel(jobs: Sequence[ParallelJob], workers: int = 1) -> list:
    """Execute *jobs* and return their results in submission order.

    ``workers == 1`` runs every job in-process, sequentially, in order —
    bit-identical to the historical serial harness loops.  ``workers > 1``
    fans the jobs out over a process pool and reassembles the results in
    submission order, so the output is independent of scheduling: the
    worker count can only change wall-clock, never a row.

    Failure semantics match the serial loop in both modes: as soon as a
    failure surfaces, jobs that have not started yet are cancelled rather
    than run to completion behind it, and the earliest-submitted failed
    job's exception propagates to the caller.  Jobs already executing in a
    worker at that moment cannot be interrupted — they finish but their
    results are discarded.
    """
    return execute_jobs(jobs, workers)
