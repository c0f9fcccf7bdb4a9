"""ISEGEN — the paper's instruction-set-extension generator.

This module wires the modified Kernighan-Lin bi-partitioner
(:mod:`repro.core.kernighan_lin`) into the application-level driver
(:mod:`repro.core.application`), exposing the two entry points most users
need:

* :class:`ISEGen` — the full Problem-2 generator over a profiled
  :class:`~repro.program.Program`;
* :func:`generate_block_cuts` — successive bi-partitions of a single DFG
  (up to ``N_ISE`` cuts from one basic block), which is what the AES
  experiments of Figures 6 and 7 exercise.
"""

from __future__ import annotations

from collections.abc import Collection

from ..dfg import DataFlowGraph
from ..hwmodel import ISEConstraints, LatencyModel
from ..program import Program
from .application import ApplicationISEDriver, BlockCutFinder
from .config import ISEGenConfig
from .kernighan_lin import BipartitionResult, bipartition
from .result import ISEGenerationResult


class KernighanLinCutFinder(BlockCutFinder):
    """Block-level strategy: one ISEGEN bi-partition restricted to the
    not-yet-claimed nodes of the block."""

    name = "ISEGEN"

    #: Summed across every bi-partition this finder runs (straight sums of
    #: the legacy :class:`~repro.core.kernighan_lin.PassTrace` fields, so
    #: the unified trace block reports the K-L loop bit-identically).
    TRACE_FIELDS = (
        "passes",
        "toggles",
        "shadow_updates",
        "gain_evals",
        "gain_cache_hits",
        "shadow_cache_hits",
    )

    def __init__(self, config: ISEGenConfig | None = None):
        self.config = config or ISEGenConfig()
        self.trace_totals: dict[str, int] = {}

    def best_cut(
        self,
        dfg: DataFlowGraph,
        allowed: Collection[int],
        constraints: ISEConstraints,
        latency_model: LatencyModel,
    ) -> frozenset[int] | None:
        result = bipartition(
            dfg,
            constraints,
            self.config,
            latency_model=latency_model,
            allowed=allowed,
        )
        # Accumulated in *this* process only: prefetched block searches run
        # in pool workers and only ship back cut members, so with
        # ``block_workers > 1`` the totals cover the sequential recomputes.
        metrics = result.trace_metrics()
        totals = self.trace_totals
        totals["bipartitions"] = totals.get("bipartitions", 0) + 1
        for field in self.TRACE_FIELDS:
            totals[field] = totals.get(field, 0) + int(metrics[field])
        if result.is_empty or result.merit < self.config.min_merit:
            return None
        return result.members


class ISEGen:
    """The ISEGEN generator (iterative-improvement ISE identification)."""

    def __init__(
        self,
        constraints: ISEConstraints | None = None,
        config: ISEGenConfig | None = None,
        latency_model: LatencyModel | None = None,
        block_workers: int = 1,
    ):
        self.constraints = constraints or ISEConstraints.paper_default()
        self.config = config or ISEGenConfig()
        self.latency_model = latency_model or LatencyModel()
        self._finder = KernighanLinCutFinder(self.config)
        self._driver = ApplicationISEDriver(
            self._finder,
            self.constraints,
            self.latency_model,
            block_workers=block_workers,
        )

    def generate(self, program: Program) -> ISEGenerationResult:
        """Generate up to ``N_ISE`` ISEs for the whole application."""
        result = self._driver.generate(program)
        result.stats["max_passes"] = self.config.max_passes
        result.stats.update(self._finder.trace_totals)
        return result

    def generate_for_dfg(
        self, dfg: DataFlowGraph, frequency: float = 1.0
    ) -> ISEGenerationResult:
        """Generate ISEs for a single basic block."""
        result = self._driver.generate_for_dfg(dfg, frequency)
        result.stats["max_passes"] = self.config.max_passes
        result.stats.update(self._finder.trace_totals)
        return result


def generate_block_cuts(
    dfg: DataFlowGraph,
    constraints: ISEConstraints | None = None,
    config: ISEGenConfig | None = None,
    *,
    latency_model: LatencyModel | None = None,
    max_cuts: int | None = None,
) -> list[BipartitionResult]:
    """Successive ISEGEN bi-partitions of one DFG.

    After each accepted cut its nodes are removed from the pool and the next
    bi-partition runs on the remaining nodes, exactly as the paper describes
    ("after an ISE is found in a basic block, the speedup potential of the
    block is updated considering the remaining nodes").  Generation stops
    when ``max_cuts`` (default ``constraints.max_ises``) cuts were found or
    no remaining cut reaches the minimum merit / size.
    """
    constraints = constraints or ISEConstraints.paper_default()
    config = config or ISEGenConfig()
    model = latency_model or LatencyModel()
    dfg.prepare()
    limit = constraints.max_ises if max_cuts is None else max_cuts
    remaining = {
        index
        for index in range(dfg.num_nodes)
        if constraints.allow_memory or not dfg.node_by_index(index).forbidden
    }
    cuts: list[BipartitionResult] = []
    while len(cuts) < limit and remaining:
        result = bipartition(
            dfg,
            constraints,
            config,
            latency_model=model,
            allowed=frozenset(remaining),
        )
        if (
            result.is_empty
            or result.merit < config.min_merit
            or len(result.members) < constraints.min_cut_size
        ):
            break
        cuts.append(result)
        remaining -= set(result.members)
    return cuts
