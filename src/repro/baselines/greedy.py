"""Greedy connected-cluster baseline.

This baseline represents the class of earlier approaches the paper's Section
3 contrasts ISEGEN against: algorithms that only identify *connected*
subgraphs, grown greedily around a seed operation.  It is used

* in the ablation benchmarks, to quantify how much of ISEGEN's advantage
  comes from allowing disconnected ("independent") cuts and from the K-L
  hill-climbing, and
* as a very fast sanity baseline in the tests (its result is always legal, so
  any algorithm claiming optimality must be at least as good).

Algorithm: for every non-forbidden seed node, grow a cluster by repeatedly
adding the neighbouring node that yields the highest merit while keeping the
cluster convex and within the I/O budget; keep the best cluster over all
seeds.
"""

from __future__ import annotations

from collections.abc import Collection

from .. import telemetry
from ..core import (
    ApplicationISEDriver,
    BitsetCutEvaluator,
    BlockCutFinder,
    CutEvaluator,
    ISEGenerationResult,
)
from ..dfg import DataFlowGraph, indices_of_mask, mask_of
from ..hwmodel import ISEConstraints, LatencyModel
from ..program import Program


def grow_cluster(
    dfg: DataFlowGraph,
    seed: int,
    allowed: Collection[int],
    constraints: ISEConstraints,
    latency_model: LatencyModel,
    *,
    evaluator: CutEvaluator | None = None,
) -> tuple[frozenset[int], int]:
    """Grow a connected, feasible cluster from *seed*; return (members, merit).

    All merit / feasibility questions go through a :class:`CutEvaluator`
    (the memoizing bitset one unless injected), so trial cuts revisited
    while growing from different seeds are scored once.
    """
    evaluator = evaluator or BitsetCutEvaluator(dfg, constraints, latency_model)
    index = dfg.bitset_index()
    allowed_mask = mask_of(allowed)
    members_mask = 1 << seed
    if not evaluator.is_legal(members_mask):
        return frozenset(), 0

    best_merit = evaluator.merit(members_mask)
    while True:
        frontier_mask = 0
        remaining = members_mask
        while remaining:
            low = remaining & -remaining
            frontier_mask |= index.neighbor_mask[low.bit_length() - 1]
            remaining ^= low
        frontier_mask &= allowed_mask & ~members_mask
        best_addition: int | None = None
        best_addition_merit = best_merit
        # Ascending bit order == the sorted(frontier) order of the original
        # set-walking implementation, so tie-breaks are unchanged.
        for candidate in indices_of_mask(frontier_mask):
            trial = members_mask | 1 << candidate
            if not evaluator.is_legal(trial):
                continue
            trial_merit = evaluator.merit(trial)
            if trial_merit > best_addition_merit or (
                trial_merit == best_addition_merit and best_addition is None
            ):
                best_addition = candidate
                best_addition_merit = trial_merit
        if best_addition is None:
            break
        members_mask |= 1 << best_addition
        best_merit = best_addition_merit
    return frozenset(indices_of_mask(members_mask)), best_merit


def best_connected_cluster(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    evaluator: CutEvaluator | None = None,
) -> tuple[frozenset[int], int]:
    """Best greedy cluster over all seeds; returns (members, merit)."""
    dfg.prepare()
    model = latency_model or LatencyModel()
    if allowed is None:
        allowed = [
            i for i in range(dfg.num_nodes) if not dfg.node_by_index(i).forbidden
        ]
    # One evaluator for the whole sweep: clusters grown from different seeds
    # revisit the same trial cuts, which now hit the per-mask memo.
    evaluator = evaluator or BitsetCutEvaluator(dfg, constraints, model)
    best_members: frozenset[int] = frozenset()
    best_merit = 0
    for seed in sorted(allowed):
        members, merit = grow_cluster(
            dfg, seed, allowed, constraints, model, evaluator=evaluator
        )
        if merit > best_merit or (
            merit == best_merit and len(members) < len(best_members)
        ):
            best_members = members
            best_merit = merit
    return best_members, best_merit


class GreedyCutFinder(BlockCutFinder):
    """Block-level strategy returning the best greedy connected cluster."""

    name = "Greedy"

    def __init__(self) -> None:
        # Modest counters so the greedy baseline reports a trace block like
        # every other engine (it previously had none).
        self.seeds_tried = 0
        self.clusters_grown = 0

    def best_cut(
        self,
        dfg: DataFlowGraph,
        allowed: Collection[int],
        constraints: ISEConstraints,
        latency_model: LatencyModel,
    ) -> frozenset[int] | None:
        with telemetry.span("greedy.search", nodes=dfg.num_nodes):
            members, merit = best_connected_cluster(
                dfg,
                constraints,
                latency_model=latency_model,
                allowed=allowed,
            )
        self.seeds_tried += len(allowed)
        if members:
            self.clusters_grown += 1
        if not members or merit <= 0 or len(members) < constraints.min_cut_size:
            return None
        return members


class GreedyGenerator:
    """Application-level wrapper of the greedy baseline."""

    name = "Greedy"

    def __init__(
        self,
        constraints: ISEConstraints | None = None,
        latency_model: LatencyModel | None = None,
    ):
        self.constraints = constraints or ISEConstraints.paper_default()
        self.latency_model = latency_model or LatencyModel()
        self.finder = GreedyCutFinder()
        self._driver = ApplicationISEDriver(
            self.finder, self.constraints, self.latency_model
        )

    def generate(self, program: Program) -> ISEGenerationResult:
        result = self._driver.generate(program)
        result.stats["seeds_tried"] = self.finder.seeds_tried
        result.stats["clusters_grown"] = self.finder.clusters_grown
        return result

    def generate_for_dfg(self, dfg: DataFlowGraph, frequency: float = 1.0) -> ISEGenerationResult:
        result = self._driver.generate_for_dfg(dfg, frequency)
        result.stats["seeds_tried"] = self.finder.seeds_tried
        result.stats["clusters_grown"] = self.finder.clusters_grown
        return result


def run_greedy(
    program: Program,
    constraints: ISEConstraints | None = None,
    *,
    latency_model: LatencyModel | None = None,
) -> ISEGenerationResult:
    """Functional entry point used by the experiment harnesses."""
    return GreedyGenerator(constraints, latency_model).generate(program)


__all__ = [
    "grow_cluster",
    "best_connected_cluster",
    "GreedyCutFinder",
    "GreedyGenerator",
    "run_greedy",
]
