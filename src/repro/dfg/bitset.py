"""Bitset node-set layer: per-DFG mask tables and word-op cut queries.

Every cut-evaluation question the partitioning engines ask — convexity,
input/output port counts, neighbourhood membership — reduces to AND/OR/
popcount operations over Python-int bitsets once the right per-node masks
are precomputed.  :class:`BitsetIndex` gathers those tables in one place,
built once per :class:`~repro.dfg.graph.DataFlowGraph` (and cached on it via
:meth:`DataFlowGraph.bitset_index`), so that

* the reference set-walking implementations in :mod:`repro.dfg.io_count` and
  :mod:`repro.dfg.convexity` keep serving as the executable specification,
* while every hot loop — the K-L inner loop, the genetic fitness function,
  the greedy cluster growth, the exhaustive enumerations — runs on masks.

Tables (all indexed by node index, externals by a dense external-value id):

``anc`` / ``desc``
    Strict ancestor / descendant closures (shared with the graph's own
    cache; re-exposed here so consumers touch one object).
``pred_mask`` / ``succ_mask`` / ``neighbor_mask``
    Direct producers / consumers / both, deduplicated.
``live_out_mask``
    Nodes whose value must be written to a register whenever they are in
    hardware (:meth:`DataFlowGraph.is_effectively_live_out`).
``ext_ops_mask`` / ``ext_consumer_mask``
    Which external input values a node consumes (bits in the external-id
    space) and, per external value, the mask of its consumer nodes.
``io_affected``
    ``io_affected[u]`` = nodes whose I/O addendum a toggle of ``u`` can
    change: ``u`` itself, parents, children, and siblings through a shared
    producer value or external input.  This is the invalidation
    neighbourhood of the paper's Figure 3 addendum rules, used by the
    incremental gain and shadow-cut caches.
``dist_up`` / ``dist_down``
    Edge distances to the nearest upward / downward barrier (the static
    inputs of the gain function's directional-growth component).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .. import telemetry
from . import kernels
from .graph import DataFlowGraph, mask_of, popcount

#: From-scratch :class:`BitsetIndex` constructions in this process (clones
#: handed out by :func:`shared_index` do not count).  Tests use this to pin
#: that sweep workers build each block's tables at most once per process.
table_builds = 0


@dataclass(frozen=True)
class SuffixFrontiers:
    """Suffix unions of the per-node mask tables over one search order.

    For a search that decides the nodes of ``order`` one position at a time,
    entry ``p`` of each table is the union over the still-undecided suffix
    ``order[p:]`` (entry ``len(order)`` is the empty union).  These are the
    static tables behind the frontier-stack enumeration engine: they bound
    which already-decided state can still influence the subtree below
    position ``p``, which is what makes its infeasible-subtree memo
    signatures sound (see DESIGN.md).
    """

    #: ``union(desc[u] for u in order[p:])`` — every node a future inclusion
    #: can pull into the descendant closure.
    reach_desc: list[int]
    #: ``union(succ_mask[u] for u in order[p:])`` — the decided consumers
    #: that determine future output / exclusion-input increments.
    succ_union: list[int]
    #: ``union(ext_ops_mask[u] for u in order[p:])`` (external-id space) —
    #: the external values future inclusions can newly consume.
    ext_union: list[int]
    #: ``union(pred_mask[u] & ~allowed for u in order[p:])`` — the outside
    #: producers future inclusions can newly count as inputs.
    outside_pred_union: list[int]


class _LaneTables:
    """The index's mask tables packed for the numpy kernel (built lazily).

    The big-int tables on :class:`BitsetIndex` stay the canonical storage
    (hashable, picklable, width-agnostic); this is a derived row-parallel
    view the batched kernel ops run on.  Node-space tables live in
    ``num_nodes`` bits, the external tables in the external-id space.
    """

    __slots__ = (
        "pred",
        "succ",
        "anc",
        "desc",
        "neighbor",
        "ext_ops",
        "ext_consumer",
        "live_bits",
    )

    def __init__(self, index: "BitsetIndex"):
        n = index.num_nodes
        n_ext = len(index.ext_consumer_mask)
        kernel = kernels.numpy_kernel()
        self.pred = kernel.make_table(index.pred_mask, n)
        self.succ = kernel.make_table(index.succ_mask, n)
        self.anc = kernel.make_table(index.anc, n)
        self.desc = kernel.make_table(index.desc, n)
        self.neighbor = kernel.make_table(index.neighbor_mask, n)
        self.ext_ops = kernel.make_table(index.ext_ops_mask, n_ext)
        self.ext_consumer = kernel.make_table(index.ext_consumer_mask, n)
        self.live_bits = kernel.bits_of(index.live_out_mask, n)


class BitsetIndex:
    """Precomputed mask tables + word-op cut queries for one prepared DFG."""

    __slots__ = (
        "dfg",
        "num_nodes",
        "full_mask",
        "forbidden_mask",
        "live_out_mask",
        "anc",
        "desc",
        "pred_mask",
        "succ_mask",
        "neighbor_mask",
        "ext_ops_mask",
        "ext_consumer_mask",
        "io_affected",
        "dist_up",
        "dist_down",
        "kernel",
        "_lane_tables",
    )

    def __init__(self, dfg: DataFlowGraph):
        global table_builds
        table_builds += 1
        build_started = telemetry.clock()
        dfg.prepare()
        self.dfg = dfg
        self._lane_tables = None
        n = dfg.num_nodes
        self.num_nodes = n
        #: The mask kernel every consumer of this block runs on.
        self.kernel = kernels.kernel_for(n)
        self.full_mask = dfg.full_mask()
        self.forbidden_mask = dfg.forbidden_mask
        self.anc = [dfg.ancestors_mask(i) for i in range(n)]
        self.desc = [dfg.descendants_mask(i) for i in range(n)]
        self.pred_mask = [mask_of(dfg.preds(i)) for i in range(n)]
        self.succ_mask = [mask_of(dfg.succs(i)) for i in range(n)]
        self.neighbor_mask = [
            p | s for p, s in zip(self.pred_mask, self.succ_mask)
        ]
        live = 0
        for i in range(n):
            if dfg.is_effectively_live_out(i):
                live |= 1 << i
        self.live_out_mask = live
        externals = dfg.external_inputs
        external_id = {name: eid for eid, name in enumerate(externals)}
        self.ext_consumer_mask = [
            mask_of(dfg.consumers_of_external(name)) for name in externals
        ]
        ext_ops = []
        for i in range(n):
            mask = 0
            for name in dfg.external_operands(i):
                mask |= 1 << external_id[name]
            ext_ops.append(mask)
        self.ext_ops_mask = ext_ops
        affected = []
        for u in range(n):
            mask = 1 << u | self.pred_mask[u] | self.succ_mask[u]
            preds = self.pred_mask[u]
            while preds:
                low = preds & -preds
                mask |= self.succ_mask[low.bit_length() - 1]
                preds ^= low
            ext = ext_ops[u]
            while ext:
                low = ext & -ext
                mask |= self.ext_consumer_mask[low.bit_length() - 1]
                ext ^= low
            affected.append(mask)
        self.io_affected = affected
        # Imported here: topology imports graph, graph lazily imports us.
        from .topology import downward_barrier_distances, upward_barrier_distances

        self.dist_up = upward_barrier_distances(dfg)
        self.dist_down = downward_barrier_distances(dfg)
        telemetry.record_span(
            "dfg.index.build", build_started, nodes=n, builds=table_builds
        )

    # ------------------------------------------------------------------
    # Kernel views
    # ------------------------------------------------------------------
    def lane_tables(self) -> _LaneTables:
        """The packed-lane view of the tables (numpy kernel only, cached)."""
        tables = self._lane_tables
        if tables is None:
            tables = _LaneTables(self)
            self._lane_tables = tables
        return tables

    def clone_for(self, dfg: DataFlowGraph) -> "BitsetIndex":
        """A copy of this index bound to *dfg* — a structurally identical
        graph (same nodes, operands, externals, flags in the same order).

        All tables are shared by reference (they are never mutated), so the
        clone costs O(1); this is what lets the per-process memo below hand
        freshly unpickled DFGs a prebuilt index."""
        clone = object.__new__(BitsetIndex)
        for slot in BitsetIndex.__slots__:
            object.__setattr__(clone, slot, getattr(self, slot))
        clone.dfg = dfg
        return clone

    # ------------------------------------------------------------------
    # I/O counting
    # ------------------------------------------------------------------
    def io_counts(self, cut_mask: int) -> tuple[int, int]:
        """``(num_inputs, num_outputs)`` of the cut, by mask arithmetic.

        Inputs are the distinct producers outside the cut feeding some cut
        node (``union(pred_mask) & ~cut``) plus the distinct external values
        consumed by the cut; outputs are the cut nodes that are effectively
        live-out or have a consumer outside the cut.  Agrees exactly with
        :func:`repro.dfg.io_count.count_io`.  Both kernels return identical
        counts — the numpy path replaces the set-bit walk with row-parallel
        table ops.
        """
        kernel = self.kernel
        if kernel.name == "numpy" and self.num_nodes:
            producers = kernel.union_selected(self.lane_tables().pred, cut_mask)
            ext = kernel.union_selected(self.lane_tables().ext_ops, cut_mask)
            inputs = popcount(producers & ~cut_mask) + popcount(ext)
            escaping = kernel.nonzero_rows_and(
                self.lane_tables().succ, ~cut_mask & self.full_mask
            )
            outputs = popcount((escaping | self.live_out_mask) & cut_mask)
            return inputs, outputs
        producers = 0
        ext = 0
        outputs = 0
        inverse = ~cut_mask
        pred_mask = self.pred_mask
        succ_mask = self.succ_mask
        ext_ops = self.ext_ops_mask
        live = self.live_out_mask
        mask = cut_mask
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            mask ^= low
            producers |= pred_mask[index]
            ext |= ext_ops[index]
            if live & low or succ_mask[index] & inverse:
                outputs += 1
        return popcount(producers & inverse) + popcount(ext), outputs

    # ------------------------------------------------------------------
    # Incremental I/O addendum
    # ------------------------------------------------------------------
    def toggle_addendum(self, cut_mask: int, index: int) -> tuple[int, int]:
        """The paper's ``(dI, dO)`` of toggling *index* against *cut_mask*,
        derived purely from the per-node pred/succ/external-consumer masks —
        no :class:`~repro.core.iostate.IOState` counters involved.

        A removal from ``S`` is exactly minus the addition to ``S \\ {u}``
        (toggling twice is the identity), so both directions share one
        formula over ``base`` (the smaller of the two cuts):

        * ``dI`` — producers of the node's operands that were not yet cut
          inputs (no consumer in ``base``), plus external operands likewise,
          minus one when the node's own value was a cut input;
        * ``dO`` — one when the node's value escapes the grown cut (live-out
          or an outside consumer), minus the in-cut parents whose value
          stops escaping once the node joins.

        Bit-identical to ``IOState.addendum`` (pinned by the differential
        property suite); this is the O(degree) formula that lets the
        shadow-cut cache answer first-time ``BC`` probes without touching
        an evaluator's counter state.
        """
        bit = 1 << index
        succ = self.succ_mask
        live = self.live_out_mask
        if cut_mask & bit:
            base = cut_mask & ~bit
            sign = -1
        else:
            base = cut_mask
            sign = 1
        outside = ~(base | bit)
        d_inputs = 0
        d_outputs = 1 if (live & bit or succ[index] & outside) else 0
        preds = self.pred_mask[index]
        while preds:
            low = preds & -preds
            producer = low.bit_length() - 1
            preds ^= low
            if base & low:
                if not (live & low) and not (succ[producer] & outside):
                    d_outputs -= 1
            elif not (succ[producer] & base):
                d_inputs += 1
        if succ[index] & base:
            d_inputs -= 1
        ext = self.ext_ops_mask[index]
        while ext:
            low = ext & -ext
            if not (self.ext_consumer_mask[low.bit_length() - 1] & base):
                d_inputs += 1
            ext ^= low
        return sign * d_inputs, sign * d_outputs

    # ------------------------------------------------------------------
    # Convexity
    # ------------------------------------------------------------------
    def closure_masks(self, cut_mask: int) -> tuple[int, int]:
        """``(descendants_union, ancestors_union)`` over the cut's members."""
        kernel = self.kernel
        if kernel.name == "numpy" and self.num_nodes:
            tables = self.lane_tables()
            return (
                kernel.union_selected(tables.desc, cut_mask),
                kernel.union_selected(tables.anc, cut_mask),
            )
        desc_union = 0
        anc_union = 0
        mask = cut_mask
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            mask ^= low
            desc_union |= self.desc[index]
            anc_union |= self.anc[index]
        return desc_union, anc_union

    def violating_mask(self, cut_mask: int) -> int:
        desc_union, anc_union = self.closure_masks(cut_mask)
        return desc_union & anc_union & ~cut_mask

    def is_convex(self, cut_mask: int) -> bool:
        return self.violating_mask(cut_mask) == 0

    def convex_closure_mask(self, cut_mask: int) -> int:
        """Smallest convex superset of the cut (as a mask).

        Incremental fixpoint: the closure unions only ever grow, so each
        round absorbs just the newly added witnesses' closures instead of
        recomputing the unions over the whole cut.
        """
        desc_union, anc_union = self.closure_masks(cut_mask)
        current = cut_mask
        while True:
            extra = desc_union & anc_union & ~current
            if not extra:
                return current
            current |= extra
            while extra:
                low = extra & -extra
                index = low.bit_length() - 1
                extra ^= low
                desc_union |= self.desc[index]
                anc_union |= self.anc[index]

    # ------------------------------------------------------------------
    # Suffix tables for ordered decision searches
    # ------------------------------------------------------------------
    def suffix_frontiers(
        self, order: list[int], allowed_mask: int
    ) -> SuffixFrontiers:
        """Suffix unions of the mask tables over *order* (one extra empty
        entry at ``len(order)``), restricted to producers outside
        *allowed_mask* for the outside-predecessor table.

        Deliberately built on the big-int view under every kernel: the
        frontier-stack engine consumes these as hashable memo-signature
        scalars, and a one-shot suffix scan is cheaper than the int↔lane
        round trips a packed build would need."""
        n = len(order)
        reach_desc = [0] * (n + 1)
        succ_union = [0] * (n + 1)
        ext_union = [0] * (n + 1)
        outside_pred_union = [0] * (n + 1)
        outside = ~allowed_mask
        for position in range(n - 1, -1, -1):
            u = order[position]
            reach_desc[position] = reach_desc[position + 1] | self.desc[u]
            succ_union[position] = succ_union[position + 1] | self.succ_mask[u]
            ext_union[position] = ext_union[position + 1] | self.ext_ops_mask[u]
            outside_pred_union[position] = outside_pred_union[position + 1] | (
                self.pred_mask[u] & outside
            )
        return SuffixFrontiers(
            reach_desc=reach_desc,
            succ_union=succ_union,
            ext_union=ext_union,
            outside_pred_union=outside_pred_union,
        )

    # ------------------------------------------------------------------
    # Convexity-preserving toggle orders
    # ------------------------------------------------------------------
    def convex_reset_order(self, current: int, target: int) -> list[int] | None:
        """A toggle order turning *current* into *target* with every
        intermediate cut convex, or ``None`` when either endpoint is not
        convex.  First peels ``current \\ target`` down to the (convex)
        intersection, always removing a node with no remaining ancestor or
        no remaining descendant in the cut; then grows to *target*, always
        adding a node that introduces no convexity witness.  Both picks
        always exist between convex endpoints, which is what lets the
        shadow-cut cache survive pass restarts without a flush."""
        order: list[int] = []
        cut = current
        shrink_target = current & target
        while cut != shrink_target:
            removable = cut & ~shrink_target
            pick = -1
            mask = removable
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                mask ^= low
                rest = cut & ~low
                if not (self.anc[index] & rest) or not (self.desc[index] & rest):
                    pick = index
                    break
            if pick < 0:
                return None
            cut &= ~(1 << pick)
            order.append(pick)
        desc_union, anc_union = self.closure_masks(cut)
        while cut != target:
            addable = target & ~cut
            pick = -1
            mask = addable
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                mask ^= low
                new_desc = desc_union | self.desc[index]
                new_anc = anc_union | self.anc[index]
                if not (new_desc & new_anc & ~(cut | low)):
                    pick = index
                    desc_union = new_desc
                    anc_union = new_anc
                    break
            if pick < 0:
                return None
            cut |= 1 << pick
            order.append(pick)
        return order


# ----------------------------------------------------------------------
# Per-process index memo
# ----------------------------------------------------------------------
# The sweep process pool ships DFGs to workers by pickling, and the bitset
# index is deliberately dropped from pickles (pure derived data, PR 3) — so
# every unpickled copy of the *same* block used to rebuild its tables from
# scratch, once per experiment cell.  The memo below keys prebuilt indexes
# by the graph's structural identity, and hands structurally identical DFG
# objects an O(1) clone (tables shared by reference; they are immutable).

_INDEX_MEMO: OrderedDict[tuple, BitsetIndex] = OrderedDict()
_INDEX_MEMO_LIMIT = 16


def _structural_key(dfg: DataFlowGraph) -> tuple:
    """A hashable key equal exactly for graphs with identical structure.

    Covers everything the index tables are derived from: externals (order
    matters — it defines the external-id space), and per node the name,
    opcode, operands, live-out flag, forbidden flag, and the latency fields
    consumed by downstream evaluators sharing the index.
    """
    return (
        dfg.external_inputs,
        tuple(
            (
                node.name,
                node.opcode,
                node.operands,
                node.live_out,
                node.forbidden,
                node.sw_latency,
                node.hw_delay,
            )
            for node in dfg.nodes
        ),
    )


def shared_index(dfg: DataFlowGraph) -> BitsetIndex:
    """The memoized :class:`BitsetIndex` for *dfg* (per-process LRU).

    Structurally identical graphs — typically the same workload block
    unpickled repeatedly by sweep workers — share one set of tables; only
    the first build pays the O(V·E/w) construction cost."""
    dfg.prepare()
    key = _structural_key(dfg)
    cached = _INDEX_MEMO.get(key)
    if cached is not None:
        _INDEX_MEMO.move_to_end(key)
        if cached.dfg is dfg:
            return cached
        return cached.clone_for(dfg)
    index = BitsetIndex(dfg)
    _INDEX_MEMO[key] = index
    while len(_INDEX_MEMO) > _INDEX_MEMO_LIMIT:
        _INDEX_MEMO.popitem(last=False)
    return index


__all__ = ["BitsetIndex", "SuffixFrontiers", "shared_index", "table_builds"]
