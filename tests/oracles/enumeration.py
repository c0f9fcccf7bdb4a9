"""The recursive enumeration engine: the executable specification.

This is the DAC'03 search as first written — plain Python recursion with
the three exact pruning rules and the weaker "everything else joins at one
hardware cycle" merit bound.  It plugs into the production drivers
(``_drive_enumeration`` / ``_drive_best_cut`` take the search function as a
parameter), so context construction, node-limit guards and stats
bookkeeping are shared, and the frontier-stack engine must reproduce its
cut sequence, merits and tie-break winners bit for bit.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

from repro.baselines.enumeration import (
    DEFAULT_NODE_LIMIT_EXACT,
    DEFAULT_NODE_LIMIT_ITERATIVE,
    EnumeratedCut,
    SearchStats,
    _better,
    _drive_best_cut,
    _drive_enumeration,
    _SearchContext,
)
from repro.dfg import DataFlowGraph
from repro.hwmodel import ISEConstraints, LatencyModel


def reference_enumerate_feasible_cuts(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    min_size: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT_EXACT,
    stats: SearchStats | None = None,
) -> Iterator[EnumeratedCut]:
    """Recursive-reference flavour of
    :func:`~repro.baselines.enumerate_feasible_cuts`."""
    return _drive_enumeration(
        recursive_search, dfg, constraints, latency_model, allowed,
        min_size, node_limit, stats,
    )


def reference_best_single_cut(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    min_size: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT_ITERATIVE,
    stats: SearchStats | None = None,
) -> EnumeratedCut | None:
    """Recursive-reference flavour of :func:`~repro.baselines.best_single_cut`."""
    return _drive_best_cut(
        recursive_search, dfg, constraints, latency_model, allowed,
        min_size, node_limit, stats,
    )


def recursive_search(
    context: _SearchContext,
    min_size: int,
    stats: SearchStats | None,
    *,
    best_only: bool,
    best_box: list[EnumeratedCut | None] | None,
) -> Iterator[EnumeratedCut]:
    dfg = context.dfg
    index_tables = context.index
    constraints = context.constraints
    order = context.order
    num_positions = len(order)
    counted_externals: set[str] = set()
    counted_outside_producers: set[int] = set()

    def recurse(
        position: int,
        included_mask: int,
        included_count: int,
        fixed_inputs: int,
        fixed_outputs: int,
        desc_union: int,
        anc_union: int,
        sw_sum: int,
        decided_excluded_mask: int,
    ) -> Iterator[EnumeratedCut]:
        if stats is not None:
            stats.states_visited += 1
        # Permanent convexity violation: a decided-excluded node on a path
        # between two included nodes can never be repaired.
        if desc_union & anc_union & decided_excluded_mask:
            if stats is not None:
                stats.states_pruned_convexity += 1
            return
        if fixed_inputs > constraints.max_inputs or fixed_outputs > constraints.max_outputs:
            if stats is not None:
                stats.states_pruned_io += 1
            return
        if position == num_positions:
            if included_count >= min_size and included_count > 0:
                members = frozenset(
                    i for i in order if included_mask >> i & 1
                )
                merit = context.merit_of(members)
                cut = EnumeratedCut(
                    members=members,
                    merit=merit,
                    num_inputs=fixed_inputs,
                    num_outputs=fixed_outputs,
                )
                if stats is not None:
                    stats.feasible_cuts += 1
                if best_only:
                    assert best_box is not None
                    if _better(cut, best_box[0]):
                        best_box[0] = cut
                else:
                    yield cut
            return
        # Admissible merit bound for the best-cut search: every undecided
        # node joins the cut at zero cost and hardware takes the minimum
        # single cycle.  Strict comparison so equal-merit subtrees are still
        # explored and the tie-break winner is canonical (bit-identical to
        # the frontier-stack engine under its stronger bound).
        if best_only and best_box is not None and best_box[0] is not None:
            optimistic = sw_sum + context.suffix_sw[position] - 1
            if optimistic < best_box[0].merit:
                if stats is not None:
                    stats.states_pruned_bound += 1
                return

        node_index = order[position]
        bit = 1 << node_index

        # ---- branch 1: include the node --------------------------------
        new_outputs = fixed_outputs
        if index_tables.live_out_mask & bit or (
            index_tables.succ_mask[node_index] & ~included_mask
        ):
            new_outputs += 1
        new_inputs = fixed_inputs
        newly: list[str] = []
        newly_outside: list[int] = []
        for external in dfg.external_operands(node_index):
            if external not in counted_externals:
                counted_externals.add(external)
                newly.append(external)
                new_inputs += 1
        outside_preds = context.outside_pred[node_index]
        while outside_preds:
            low = outside_preds & -outside_preds
            pred = low.bit_length() - 1
            outside_preds ^= low
            if pred not in counted_outside_producers:
                counted_outside_producers.add(pred)
                newly_outside.append(pred)
                new_inputs += 1
        yield from recurse(
            position + 1,
            included_mask | bit,
            included_count + 1,
            new_inputs,
            new_outputs,
            desc_union | index_tables.desc[node_index],
            anc_union | index_tables.anc[node_index],
            sw_sum + context.sw[node_index],
            decided_excluded_mask,
        )
        for external in newly:
            counted_externals.discard(external)
        for pred in newly_outside:
            counted_outside_producers.discard(pred)

        # ---- branch 2: exclude the node ---------------------------------
        new_inputs = fixed_inputs
        # The excluded node's value becomes a cut input if any of its (already
        # decided) consumers is included.
        if index_tables.succ_mask[node_index] & included_mask:
            new_inputs += 1
        yield from recurse(
            position + 1,
            included_mask,
            included_count,
            new_inputs,
            fixed_outputs,
            desc_union,
            anc_union,
            sw_sum,
            decided_excluded_mask | bit,
        )

    yield from recurse(0, 0, 0, 0, 0, 0, 0, 0, context.never_included_mask)
