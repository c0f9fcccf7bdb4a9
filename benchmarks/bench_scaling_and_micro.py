"""Runtime-scaling study and micro-benchmarks of the algorithmic core.

* ``test_scaling_*`` measures how each generator's runtime grows with basic-
  block size on the regular synthetic kernel (the data behind the orders-of-
  magnitude gaps of Figure 4's runtime panel).
* ``test_micro_*`` benchmarks the hot primitives of the partitioning engine:
  incremental I/O toggles, convexity checks, gain evaluation sweeps and the
  exhaustive enumeration — the pieces the paper's O(n^2) complexity claim
  rests on.
* ``test_micro_kernel_*`` races the pure big-int mask kernel against the
  numpy uint64-lane kernel on the table primitives (64/696/2048 bits) and
  on a full K-L pass over the paper's 696-node AES block.
* ``test_micro_telemetry_*`` benchmarks the span tracer: the disabled
  no-op floor (the budget every instrumented hot path pays when tracing is
  off), live span enter/exit against a JSONL sink, and raw event-sink
  throughput.
* ``test_micro_scheduler_claim_batch`` measures file-queue drain
  throughput with batched claims.
* ``test_parallel_*`` measures the process-pool experiment engine
  (``run_parallel``) against its serial path and asserts the result rows are
  identical; the wall-clock speedup assertion is gated on the machine
  actually having multiple cores.
* ``test_gain_cache_*`` measures the cached K-L inner loop against the
  uncached oracle loop (``tests/oracles/kl.py``) on the same block and
  asserts the cuts are identical.

The ``reference`` / ``cache_off`` variants run the oracles of
``tests/oracles``, the executable specifications the production engines
are pinned bit-identical to.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

import pytest

from repro.baselines import (
    EnumerationTrace,
    best_single_cut,
    enumerate_feasible_cuts,
    run_greedy,
    run_isegen,
    run_iterative,
)
from repro.baselines.genetic import GeneticConfig, GeneticSearch
from repro.core import (
    BitsetCutEvaluator,
    GainEvaluator,
    IOState,
    ISEGenConfig,
    PartitionState,
    bipartition,
)
from repro.dfg import (
    count_io,
    is_convex_mask,
    mask_of,
    numpy_available,
    random_dfg,
)
from repro.experiments import run_ablation
from repro.hwmodel import ISEConstraints
from repro.workloads import load_workload, regular_program
from tests.oracles.cut_evaluator import ReferenceCutEvaluator
from tests.oracles.enumeration import (
    reference_best_single_cut,
    reference_enumerate_feasible_cuts,
)
from tests.oracles.kernels import forced_kernel, kernel_named
from tests.oracles.kl import reference_bipartition

from .conftest import run_once

_SCALING_RUNNERS = {
    "ISEGEN": run_isegen,
    "Iterative": run_iterative,
    "Greedy": run_greedy,
}
_SCALING_SIZES = (4, 8, 16)  # clusters of five operations each
_SCALING_PROGRAMS = {
    clusters: regular_program(clusters, cross_link=True, name=f"regular{clusters}")
    for clusters in _SCALING_SIZES
}


@pytest.mark.parametrize("clusters", _SCALING_SIZES)
@pytest.mark.parametrize("algorithm", list(_SCALING_RUNNERS))
def test_scaling_generation_runtime(benchmark, algorithm, clusters):
    program = _SCALING_PROGRAMS[clusters]
    constraints = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=2)
    benchmark.group = f"scaling {program.critical_block_size()} nodes"
    result = run_once(benchmark, _SCALING_RUNNERS[algorithm], program, constraints)
    benchmark.extra_info["block_size"] = program.critical_block_size()
    benchmark.extra_info["speedup"] = round(result.speedup, 4)


# ----------------------------------------------------------------------
# Micro benchmarks of the partitioning primitives
# ----------------------------------------------------------------------
_MICRO_DFG = random_dfg(120, seed=13, live_out_fraction=0.2)
_MICRO_CONSTRAINTS = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=4)


def test_micro_iostate_toggle_sweep(benchmark):
    benchmark.group = "micro primitives"

    def toggle_every_node():
        state = IOState(_MICRO_DFG)
        for index in range(_MICRO_DFG.num_nodes):
            state.toggle(index)
        return state.io()

    benchmark(toggle_every_node)


def test_micro_convexity_checks(benchmark):
    benchmark.group = "micro primitives"
    masks = [
        mask_of(range(start, start + 12)) for start in range(0, 100, 10)
    ]

    def check_all():
        return [is_convex_mask(_MICRO_DFG, mask) for mask in masks]

    benchmark(check_all)


def test_micro_gain_evaluation_sweep(benchmark):
    benchmark.group = "micro primitives"

    def evaluate_all_gains():
        state = PartitionState(_MICRO_DFG, _MICRO_CONSTRAINTS)
        evaluator = GainEvaluator(state)
        candidates = [
            index
            for index in range(_MICRO_DFG.num_nodes)
            if state.is_allowed(index)
        ]
        return evaluator.best_candidate(candidates)

    benchmark(evaluate_all_gains)


def test_micro_single_bipartition(benchmark):
    benchmark.group = "micro primitives"
    dfg = random_dfg(60, seed=5, live_out_fraction=0.2)
    result = run_once(benchmark, bipartition, dfg, _MICRO_CONSTRAINTS)
    benchmark.extra_info["merit"] = result.merit


def test_micro_exhaustive_best_cut(benchmark):
    benchmark.group = "micro primitives"
    dfg = random_dfg(22, seed=21, live_out_fraction=0.3)
    cut = run_once(benchmark, best_single_cut, dfg, _MICRO_CONSTRAINTS)
    benchmark.extra_info["merit"] = 0 if cut is None else cut.merit


# ----------------------------------------------------------------------
# The frontier-stack enumeration engine vs the recursive reference
# ----------------------------------------------------------------------
_ENUMERATION_SIZES = (16, 24, 32)
_ENUMERATION_DFGS = {
    size: random_dfg(size, seed=21, live_out_fraction=0.3)
    for size in _ENUMERATION_SIZES
}
_ENUMERATION_ENGINES = {
    "stack": (enumerate_feasible_cuts, best_single_cut),
    "reference": (
        reference_enumerate_feasible_cuts,
        reference_best_single_cut,
    ),
}


@pytest.mark.parametrize("engine", list(_ENUMERATION_ENGINES), ids=str)
@pytest.mark.parametrize("size", _ENUMERATION_SIZES, ids=str)
def test_micro_enumeration_all_cuts(benchmark, size, engine):
    """Full feasible-cut enumeration, frontier-stack vs recursive reference
    (the Exact baseline's first stage at 16/24/32 nodes)."""
    benchmark.group = f"micro enumeration all-cuts {size} nodes"
    dfg = _ENUMERATION_DFGS[size]
    enumerate_cuts, _ = _ENUMERATION_ENGINES[engine]

    def run_enumeration():
        trace = EnumerationTrace()
        count = sum(
            1
            for _ in enumerate_cuts(
                dfg, _MICRO_CONSTRAINTS, node_limit=64, stats=trace
            )
        )
        return count, trace

    count, trace = benchmark(run_enumeration)
    benchmark.extra_info["feasible_cuts"] = count
    benchmark.extra_info["states_visited"] = trace.states_visited
    if engine == "stack":
        benchmark.extra_info["memo_hits"] = trace.memo_hits
        benchmark.extra_info["memo_entries"] = trace.memo_entries


@pytest.mark.parametrize("engine", list(_ENUMERATION_ENGINES), ids=str)
@pytest.mark.parametrize("size", _ENUMERATION_SIZES, ids=str)
def test_micro_enumeration_best_cut(benchmark, size, engine):
    """Single-best-cut search (the Iterative baseline's inner step),
    frontier-stack (memo + strengthened bound) vs recursive reference."""
    benchmark.group = f"micro enumeration best-cut {size} nodes"
    dfg = _ENUMERATION_DFGS[size]
    _, best_cut_search = _ENUMERATION_ENGINES[engine]

    def run_search():
        trace = EnumerationTrace()
        cut = best_cut_search(dfg, _MICRO_CONSTRAINTS, node_limit=64, stats=trace)
        return cut, trace

    cut, trace = benchmark(run_search)
    benchmark.extra_info["merit"] = 0 if cut is None else cut.merit
    benchmark.extra_info["states_visited"] = trace.states_visited
    benchmark.extra_info["bound_cuts"] = trace.states_pruned_bound
    if engine == "stack":
        benchmark.extra_info["memo_hits"] = trace.memo_hits
        benchmark.extra_info["memo_hit_rate"] = round(
            trace.memo_hits / max(1, trace.memo_hits + trace.nodes_expanded), 4
        )


# ----------------------------------------------------------------------
# The bitset cut-evaluation layer vs the frozenset reference
# ----------------------------------------------------------------------
_BITSET_CUTS = [
    frozenset(range(start, start + 14)) for start in range(0, 100, 10)
]


def test_micro_bitset_index_io_counts(benchmark):
    """Mask-table I/O counting of 10 medium cuts (vs the count_io walk)."""
    benchmark.group = "micro bitset layer"
    index = _MICRO_DFG.bitset_index()
    masks = [mask_of(cut) for cut in _BITSET_CUTS]

    def count_all():
        return [index.io_counts(mask) for mask in masks]

    result = benchmark(count_all)
    assert result == [count_io(_MICRO_DFG, cut) for cut in _BITSET_CUTS]


def test_micro_bitset_index_build(benchmark):
    """One-time mask-table precompute cost for a 120-node block."""
    benchmark.group = "micro bitset layer"
    from repro.dfg import BitsetIndex

    benchmark(lambda: BitsetIndex(_MICRO_DFG))


@pytest.mark.parametrize(
    "implementation", ["bitset", "reference"], ids=["bitset", "reference"]
)
def test_micro_cut_evaluator_full_records(benchmark, implementation):
    """Full merit+convexity+I/O records for 10 cuts, both implementations
    (the bitset evaluator is queried on a fresh instance per round, so the
    numbers measure computation, not its memo)."""
    benchmark.group = "micro cut evaluator"
    cls = BitsetCutEvaluator if implementation == "bitset" else ReferenceCutEvaluator

    def evaluate_all():
        evaluator = cls(_MICRO_DFG, _MICRO_CONSTRAINTS)
        return [
            (evaluator.merit(cut), evaluator.io_counts(cut), evaluator.is_convex(cut))
            for cut in _BITSET_CUTS
        ]

    first = benchmark(evaluate_all)
    other = (
        ReferenceCutEvaluator if implementation == "bitset" else BitsetCutEvaluator
    )(_MICRO_DFG, _MICRO_CONSTRAINTS)
    assert first == [
        (other.merit(cut), other.io_counts(cut), other.is_convex(cut))
        for cut in _BITSET_CUTS
    ]


def test_micro_genetic_fitness_memoized(benchmark):
    """One quick GA block search on a 120-node graph — the Figure-6 hot
    path: memoized bitset fitness, deduped population."""
    benchmark.group = "micro genetic fitness"
    config = GeneticConfig(
        population_size=20, generations=10, stagnation_limit=0, seed=7
    )

    def run_search():
        search = GeneticSearch(_MICRO_DFG, _MICRO_CONSTRAINTS, config=config)
        search.run()
        return search.trace

    trace = benchmark(run_search)
    benchmark.extra_info["evaluations"] = trace.evaluations
    benchmark.extra_info["memo_hits"] = trace.memo_hits
    benchmark.extra_info["duplicates_skipped"] = trace.duplicates_skipped


# ----------------------------------------------------------------------
# Mask kernels: pure big-int reference vs numpy uint64 lanes
# ----------------------------------------------------------------------
_KERNEL_SIZES = (64, 696, 2048)  # small block / paper's AES block / beyond
_KERNEL_PARAMS = [
    "pure",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy >= 2.0 not available"
        ),
    ),
]


def _kernel_table(kernel, num_bits):
    """A square num_bits x num_bits random mask table (the shape of the
    BitsetIndex closure/neighbour tables the K-L inner loop sweeps)."""
    rng = random.Random(num_bits)
    masks = [rng.getrandbits(num_bits) for _ in range(num_bits)]
    return masks, kernel.make_table(masks, num_bits)


@pytest.mark.parametrize("kernel_name", _KERNEL_PARAMS)
@pytest.mark.parametrize("num_bits", _KERNEL_SIZES)
def test_micro_kernel_popcount_many(benchmark, num_bits, kernel_name):
    """Whole-table popcount — the candidate-sweep primitive behind
    neighbour counts and I/O tallies."""
    benchmark.group = f"micro mask kernels ({num_bits} bits)"
    kernel = kernel_named(kernel_name)
    masks, table = _kernel_table(kernel, num_bits)
    result = benchmark(lambda: kernel.popcount_many(table))
    assert list(result) == [mask.bit_count() for mask in masks]


@pytest.mark.parametrize("kernel_name", _KERNEL_PARAMS)
@pytest.mark.parametrize("num_bits", _KERNEL_SIZES)
def test_micro_kernel_and_popcount_many(benchmark, num_bits, kernel_name):
    """Whole-table AND-then-popcount against one probe mask — the
    io_counts / closure-overlap primitive."""
    benchmark.group = f"micro mask kernels ({num_bits} bits)"
    kernel = kernel_named(kernel_name)
    masks, table = _kernel_table(kernel, num_bits)
    probe = random.Random(num_bits + 1).getrandbits(num_bits)
    result = benchmark(lambda: kernel.and_popcount_many(table, probe))
    assert list(result) == [(mask & probe).bit_count() for mask in masks]


@pytest.mark.parametrize("kernel_name", _KERNEL_PARAMS)
def test_micro_kernel_aes_bipartition(benchmark, kernel_name):
    """End-to-end payoff: a single K-L pass over the paper's 696-node AES
    block under each kernel.  The numpy lane kernel swaps the scalar gain
    cache for the vectorized evaluator; the cut must not change."""
    benchmark.group = "micro mask kernels (AES 696-node K-L pass)"
    program = load_workload("aes")
    aes = max((block.dfg for block in program), key=lambda dfg: dfg.num_nodes)
    constraints = ISEConstraints(max_inputs=4, max_outputs=2, max_ises=1)
    config = ISEGenConfig(max_passes=1)
    with forced_kernel(kernel_name, aes):
        result = run_once(benchmark, bipartition, aes, constraints, config)
    benchmark.extra_info["merit"] = result.merit
    benchmark.extra_info["toggles"] = sum(t.toggles for t in result.passes)


# ----------------------------------------------------------------------
# Telemetry layer: disabled no-op floor, live span cost, sink throughput
# ----------------------------------------------------------------------
_TELEMETRY_SPANS_PER_ROUND = 1000


@pytest.fixture()
def _quiet_tracer():
    """Force the disabled state (the bench session itself may run under
    ISEGEN_TRACE) and restore whatever tracer was live afterwards."""
    from repro.telemetry import spans as span_module

    saved = span_module._tracer
    span_module._tracer = None
    yield
    if span_module._tracer is not None and span_module._tracer is not saved:
        span_module._tracer.close()
    span_module._tracer = saved


def test_micro_telemetry_disabled_noop(benchmark, _quiet_tracer):
    """1000 disabled span(...) calls — the overhead every instrumented hot
    path pays when tracing is off.  This is the <2% budget's denominator:
    the call must stay a None check returning a shared singleton."""
    from repro import telemetry

    benchmark.group = "micro telemetry"

    def spans_disabled():
        for _ in range(_TELEMETRY_SPANS_PER_ROUND):
            with telemetry.span("noop.bench"):
                pass

    benchmark(spans_disabled)
    benchmark.extra_info["spans_per_round"] = _TELEMETRY_SPANS_PER_ROUND


def test_micro_telemetry_span_enter_exit(benchmark, _quiet_tracer, tmp_path):
    """1000 live span enter/exit pairs against a real JSONL file sink."""
    from repro import telemetry

    benchmark.group = "micro telemetry"
    telemetry.configure(tmp_path / "bench-trace.jsonl")

    def spans_enabled():
        for index in range(_TELEMETRY_SPANS_PER_ROUND):
            with telemetry.span("live.bench", index=index):
                pass
        telemetry.flush()

    benchmark(spans_enabled)
    benchmark.extra_info["spans_per_round"] = _TELEMETRY_SPANS_PER_ROUND


def test_micro_telemetry_jsonl_sink_throughput(benchmark, _quiet_tracer, tmp_path):
    """1000 metric events serialized and appended through the O_APPEND sink."""
    from repro import telemetry

    benchmark.group = "micro telemetry"
    telemetry.configure(tmp_path / "bench-events.jsonl")

    def emit_events():
        for index in range(_TELEMETRY_SPANS_PER_ROUND):
            telemetry.emit_metrics("bench", {"index": index, "value": 0.5})
        telemetry.flush()

    benchmark(emit_events)
    benchmark.extra_info["events_per_round"] = _TELEMETRY_SPANS_PER_ROUND


# ----------------------------------------------------------------------
# The cached K-L inner loop vs the uncached one
# ----------------------------------------------------------------------
_CACHE_DFG = random_dfg(150, seed=29, live_out_fraction=0.2)


@pytest.mark.parametrize("cached", [True, False], ids=["cache_on", "cache_off"])
def test_gain_cache_bipartition(benchmark, cached):
    benchmark.group = "gain cache (150-node block)"
    run, other = bipartition, reference_bipartition
    if not cached:
        run, other = other, run
    result = run_once(benchmark, run, _CACHE_DFG, _MICRO_CONSTRAINTS)
    benchmark.extra_info["merit"] = result.merit
    benchmark.extra_info["gain_evals"] = sum(t.gain_evals for t in result.passes)
    benchmark.extra_info["gain_cache_hits"] = sum(
        t.gain_cache_hits for t in result.passes
    )
    reference = other(_CACHE_DFG, _MICRO_CONSTRAINTS)
    assert result.members == reference.members
    assert result.merit == reference.merit


# ----------------------------------------------------------------------
# The parallel experiment engine vs the serial path
# ----------------------------------------------------------------------
_PARALLEL_WORKERS = 4
#: One benchmark x 8 ablation variants: eight balanced, independent cells,
#: each heavy enough (~200ms) that process-pool startup is noise.
_PARALLEL_KWARGS = dict(benchmarks=("fft00",))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_parallel_engine_speedup(benchmark):
    """``run_parallel`` with 4 workers vs the serial path on the ablation
    harness: identical rows always; >= 2x wall-clock when the hardware has
    the cores to show it (the pool cannot beat serial on a 1-core box).
    Set ``ISEGEN_RELAX_PARALLEL_ASSERT`` to keep the measurement but drop
    the assertion on noisy shared machines (CI runners)."""
    benchmark.group = "parallel engine"
    started = time.perf_counter()
    serial = run_ablation(workers=1, **_PARALLEL_KWARGS)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    pooled = run_once(benchmark, run_ablation, workers=_PARALLEL_WORKERS, **_PARALLEL_KWARGS)
    pooled_seconds = time.perf_counter() - started

    assert pooled.rows == serial.rows, "worker pool changed the result rows"
    speedup = serial_seconds / pooled_seconds if pooled_seconds else float("inf")
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["parallel_speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = _usable_cpus()
    if _usable_cpus() >= _PARALLEL_WORKERS and not os.environ.get(
        "ISEGEN_RELAX_PARALLEL_ASSERT"
    ):
        # Spawn platforms (macOS/Windows) pay per-worker interpreter startup
        # and package re-import that fork gets for free; hold them to a
        # softer floor so a healthy checkout doesn't fail on timing noise.
        floor = 2.0 if multiprocessing.get_start_method() == "fork" else 1.5
        assert speedup >= floor, (
            f"expected >= {floor}x from {_PARALLEL_WORKERS} workers, "
            f"got {speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# Work-queue batch throughput
# ----------------------------------------------------------------------
def _sleep_cell(seconds, index):
    time.sleep(seconds)
    return index


def test_micro_scheduler_claim_batch(benchmark):
    """Draining a 64-task local-directory queue (``FileQueue``) with
    ``claim_batch(8)`` vs one claim per ``pending/`` listing: the batched
    path amortizes the listing, which dominates claim latency."""
    from repro.parallel import job as make_job
    from repro.sweep import CellTask, FileQueue

    benchmark.group = "scheduler queue throughput (64 tasks)"
    total = 64
    hexdigits = "0123456789abcdef"

    def fill(queue):
        for i in range(total):
            key = hexdigits[i % 16] * 60 + f"{i:04d}"
            queue.enqueue(CellTask(key, make_job(_sleep_cell, 0.0, i)))

    import tempfile

    with tempfile.TemporaryDirectory() as root:
        single = FileQueue(os.path.join(root, "single"))
        fill(single)
        started = time.perf_counter()
        while True:
            task = single.claim("w")
            if task is None:
                break
            single.complete(task)
        single_seconds = time.perf_counter() - started

        batched = FileQueue(os.path.join(root, "batched"))
        fill(batched)

        def drain_batched():
            drained = 0
            while True:
                batch = batched.claim_batch(8, worker="w")
                if not batch:
                    return drained
                for task in batch:
                    batched.complete(task)
                    drained += 1

        drained = run_once(benchmark, drain_batched)

    assert drained == total
    assert single.is_idle()
    benchmark.extra_info["tasks"] = total
    benchmark.extra_info["single_claim_seconds"] = round(single_seconds, 3)
    benchmark.extra_info["claims_per_second_single"] = round(
        total / single_seconds if single_seconds else float("inf"), 1
    )
