"""Exhaustive enumeration of feasible cuts (the DAC'03 search core).

The paper compares ISEGEN against two optimal algorithms from Atasu, Pozzi
and Ienne (DAC 2003): *Exact multiple-cut identification* and *Iterative
exact single-cut identification*.  Both rely on the same engine — an
exhaustive binary search over the nodes of the DFG with aggressive pruning —
which this module implements.

The search processes nodes in **reverse topological order** and decides, for
each node, whether it joins the cut.  Because a node is decided only after
all of its consumers, three strong pruning rules become available:

* **Fixed outputs** — when a node is included, all of its consumers have
  already been decided, so whether the node is a cut output is known
  immediately; once the number of fixed outputs exceeds ``max_outputs`` the
  whole subtree is infeasible.
* **Fixed inputs** — a value becomes a known cut input as soon as (a) an
  excluded producer has at least one included consumer, or (b) an external
  input gains its first included consumer; once the fixed inputs exceed
  ``max_inputs`` the subtree is infeasible.
* **Permanent convexity violation** — a violating node that has already been
  decided (excluded) can never be repaired by later decisions, so the subtree
  is infeasible.

These rules are exact (they never prune a feasible completion), which is what
makes the baseline *optimal* on the block sizes it can handle.

The production engine is an explicit **frontier-stack** iterator: decision
state is packed into int masks (no Python recursion), and two further exact
pruning layers come on top of the three rules above —

* a **memo of infeasible-subtree signatures**: when a fully explored subtree
  produced no feasible cut (and was not cut short by the merit bound), its
  entry state is summarized by the fixed-I/O counters plus the decided state
  restricted to the undecided frontier (suffix unions from
  :meth:`~repro.dfg.BitsetIndex.suffix_frontiers`); any later state with the
  same signature is provably infeasible too and is skipped;
* an **admissible merit bound** for the single-best-cut search: every
  undecided node is credited with its full software saving at zero
  hardware cost, while the hardware latency stays floored at the slowest
  already-included node
  (:meth:`~repro.core.BitsetCutEvaluator.hardware_cycle_floor`).  The bound
  prunes only subtrees that cannot *strictly* beat the incumbent, so the
  returned winner is the canonical optimum under the (merit, size,
  lexicographic) order regardless of pruning strength.

The pre-rewrite recursive engine is kept as the executable specification in
``tests/oracles/enumeration.py``; it plugs into the same drivers
(:func:`_drive_enumeration` / :func:`_drive_best_cut` take the search
function as a parameter), and the differential property suite in
``tests/properties/test_property_enumeration.py`` pins the frontier-stack
engine bit-identical to it.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field

from .. import telemetry
from ..core import BitsetCutEvaluator
from ..dfg import DataFlowGraph
from ..errors import BaselineInfeasibleError
from ..hwmodel import ISEConstraints, LatencyModel

#: Above this many candidate nodes the exhaustive searches refuse to run.
#: The paper reports Exact coping with blocks of up to ~25 nodes and
#: Iterative with up to ~96 on mid-2000s hardware; the frontier-stack engine
#: (subtree memo + admissible merit bound) lifts the practical limits well
#: past that, but the searches stay exponential in the worst case, so the
#: guards remain — the 104-node fft00 block is still out of reach for Exact,
#: exactly as in Figure 4.
DEFAULT_NODE_LIMIT_EXACT = 48
DEFAULT_NODE_LIMIT_ITERATIVE = 128


@dataclass(frozen=True)
class EnumeratedCut:
    """One feasible cut produced by the exhaustive search."""

    members: frozenset[int]
    merit: int
    num_inputs: int
    num_outputs: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class SearchStats:
    """Instrumentation of one exhaustive search (reported by the benches)."""

    nodes_considered: int = 0
    states_visited: int = 0
    states_pruned_io: int = 0
    states_pruned_convexity: int = 0
    states_pruned_bound: int = 0
    feasible_cuts: int = 0
    runtime_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def absorb(self, other: "SearchStats") -> None:
        """Accumulate another search's counters into this one."""
        self.nodes_considered += other.nodes_considered
        self.states_visited += other.states_visited
        self.states_pruned_io += other.states_pruned_io
        self.states_pruned_convexity += other.states_pruned_convexity
        self.states_pruned_bound += other.states_pruned_bound
        self.feasible_cuts += other.feasible_cuts
        self.runtime_seconds += other.runtime_seconds


@dataclass
class EnumerationTrace(SearchStats):
    """Frontier-stack engine instrumentation (a superset of SearchStats).

    ``states_visited`` counts every state entered (the root plus every child
    that survived its parent's exact pruning checks); the extra counters
    cover the two new pruning layers.  The trajectory regression tests pin
    these on fixed workloads, so any change to search order or pruning
    behaviour shows up as a counter diff.
    """

    #: States whose children were actually generated (inner nodes of the
    #: explored decision tree).
    nodes_expanded: int = 0
    #: Subtrees skipped because their entry signature was known infeasible.
    memo_hits: int = 0
    #: Infeasible-subtree signatures recorded into the memo.
    memo_entries: int = 0
    #: Subtrees cut by the admissible merit bound (best-cut search only;
    #: mirrored into ``states_pruned_bound`` for SearchStats consumers).
    bound_cuts: int = 0

    def absorb(self, other: SearchStats) -> None:
        super().absorb(other)
        if isinstance(other, EnumerationTrace):
            self.nodes_expanded += other.nodes_expanded
            self.memo_hits += other.memo_hits
            self.memo_entries += other.memo_entries
            self.bound_cuts += other.bound_cuts


class _SearchContext:
    """Shared immutable data of one enumeration run.

    The search state itself (decision masks, memo signatures, frontier
    unions) deliberately stays on the big-int view under every mask kernel:
    the masks feed hashed memo signatures and single-mask AND/popcount steps,
    where converting to uint64 lanes would cost more than the op it batches.
    The block's kernel still runs the leaf merit evaluations, through
    :class:`~repro.core.BitsetCutEvaluator`.
    """

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel,
        allowed: Collection[int] | None,
    ):
        dfg.prepare()
        self.dfg = dfg
        self.index = dfg.bitset_index()
        self.constraints = constraints
        self.model = latency_model
        #: The bitset evaluator specifically (not any CutEvaluator): the
        #: search reads its static latency tables, its un-memoized
        #: ``merit_once`` and its ``hardware_cycle_floor`` bound hook, which
        #: the protocol does not define.
        self.evaluator = BitsetCutEvaluator(dfg, constraints, latency_model)
        if allowed is None:
            allowed_set = {
                i for i in range(dfg.num_nodes) if not dfg.node_by_index(i).forbidden
            }
        else:
            allowed_set = {
                i for i in allowed if not dfg.node_by_index(i).forbidden
            }
        #: Candidate nodes in reverse topological order (consumers first).
        self.order: list[int] = sorted(allowed_set, reverse=True)
        self.allowed_mask = 0
        for index in allowed_set:
            self.allowed_mask |= 1 << index
        #: Nodes that can never be included — permanently excluded from the
        #: start, so convexity violations through them are caught correctly.
        self.never_included_mask = dfg.full_mask() & ~self.allowed_mask
        self.sw = self.evaluator.software_cycles
        self.hw = self.evaluator.hardware_delays
        #: Producers outside the candidate set (forbidden nodes, nodes
        #: claimed by earlier ISEs) behave like external inputs: they can
        #: never join the cut, so their value is a fixed input as soon as
        #: one consumer is included.
        self.outside_pred = [
            self.index.pred_mask[i] & ~self.allowed_mask
            for i in range(dfg.num_nodes)
        ]
        #: Suffix sums of software latency over the search order — the
        #: admissible "everything else joins for free" merit bound.
        self.suffix_sw = [0] * (len(self.order) + 1)
        for position in range(len(self.order) - 1, -1, -1):
            self.suffix_sw[position] = (
                self.suffix_sw[position + 1] + self.sw[self.order[position]]
            )
        #: Suffix unions of the mask tables over the order — the static
        #: inputs of the frontier-stack engine's memo signatures.
        self.frontiers = self.index.suffix_frontiers(self.order, self.allowed_mask)
        #: Per-node admissible hardware-cycle floors: any cut containing
        #: node ``i`` costs at least ``hw_floor[i]`` hardware cycles
        #: (ceil is monotone, so the floor of a cut is the max over its
        #: members' floors — maintained incrementally by the stack engine).
        self.hw_floor = [
            self.evaluator.hardware_cycle_floor(delay) for delay in self.hw
        ]
        self.empty_hw_floor = self.evaluator.hardware_cycle_floor(0.0)

    def merit_of(self, cut: int | Collection[int]) -> int:
        # merit_once: the search visits each feasible cut exactly once, so
        # memoizing records here would only grow an unread dict.
        return self.evaluator.merit_once(cut)


def _check_node_limit(context: _SearchContext, node_limit: int, algorithm: str) -> None:
    if len(context.order) > node_limit:
        raise BaselineInfeasibleError(
            f"{algorithm}: block {context.dfg.name!r} has {len(context.order)} "
            f"candidate nodes, above the enumeration limit of {node_limit} "
            "(the paper reports the same practical limitation of the exact "
            "algorithms on large basic blocks)"
        )


def _drive_enumeration(
    engine,
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    latency_model: LatencyModel | None,
    allowed: Collection[int] | None,
    min_size: int,
    node_limit: int,
    stats: SearchStats | None,
) -> Iterator[EnumeratedCut]:
    """Full-enumeration wrapper around a search function *engine*
    (context construction, node-limit guard, stats bookkeeping).  The
    engine is a parameter so the recursive oracle of the test suite runs
    through the very same wrapper as :func:`_stack_search`."""
    model = latency_model or LatencyModel()
    context = _SearchContext(dfg, constraints, model, allowed)
    _check_node_limit(context, node_limit, "exact enumeration")
    if stats is not None:
        stats.nodes_considered = len(context.order)
    span_started = telemetry.clock()
    started = time.perf_counter()
    yield from engine(context, min_size, stats, best_only=False, best_box=None)
    if stats is not None:
        stats.runtime_seconds = time.perf_counter() - started
    # record_span (not a with-block): the generator is consumed lazily, so a
    # held-open span would interleave with the caller's own span stack.
    telemetry.record_span(
        "enum.search", span_started, mode="all", nodes=len(context.order)
    )
    _emit_search_metrics(stats)


def _drive_best_cut(
    engine,
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    latency_model: LatencyModel | None,
    allowed: Collection[int] | None,
    min_size: int,
    node_limit: int,
    stats: SearchStats | None,
) -> EnumeratedCut | None:
    """Single-best-cut wrapper around a search function *engine* (see
    :func:`_drive_enumeration`)."""
    model = latency_model or LatencyModel()
    context = _SearchContext(dfg, constraints, model, allowed)
    _check_node_limit(context, node_limit, "iterative exact search")
    if stats is not None:
        stats.nodes_considered = len(context.order)
    started = time.perf_counter()
    best_box: list[EnumeratedCut | None] = [None]
    with telemetry.span("enum.search", mode="best", nodes=len(context.order)):
        for _cut in engine(context, min_size, stats, best_only=True, best_box=best_box):
            pass  # the engine updates best_box in place when best_only is set.
    if stats is not None:
        stats.runtime_seconds = time.perf_counter() - started
    _emit_search_metrics(stats)
    return best_box[0]


def _emit_search_metrics(stats: SearchStats | None) -> None:
    """Mirror a finished search's legacy stats dataclass into the trace."""
    if stats is None:
        return
    telemetry.emit_metrics_lazy(
        "enum",
        lambda: {
            f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), (int, float))
        },
    )


def enumerate_feasible_cuts(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    min_size: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT_EXACT,
    stats: SearchStats | None = None,
) -> Iterator[EnumeratedCut]:
    """Yield every non-empty feasible (convex, I/O-legal) cut of *dfg*.

    The iteration order is the depth-first order of the pruned binary search
    tree; callers that need the best cut(s) should collect and rank them.
    """
    return _drive_enumeration(
        _stack_search, dfg, constraints, latency_model, allowed,
        min_size, node_limit, stats,
    )


def best_single_cut(
    dfg: DataFlowGraph,
    constraints: ISEConstraints,
    *,
    latency_model: LatencyModel | None = None,
    allowed: Collection[int] | None = None,
    min_size: int = 1,
    node_limit: int = DEFAULT_NODE_LIMIT_ITERATIVE,
    stats: SearchStats | None = None,
) -> EnumeratedCut | None:
    """Return the feasible cut with the highest merit (ties: fewer nodes,
    then lexicographically smallest member set, for determinism)."""
    return _drive_best_cut(
        _stack_search, dfg, constraints, latency_model, allowed,
        min_size, node_limit, stats,
    )


#: Alias matching the name the roadmap and the experiment notes use for the
#: single-best-cut entry point.
find_best_cut = best_single_cut


def _better(candidate: EnumeratedCut, incumbent: EnumeratedCut | None) -> bool:
    if incumbent is None:
        return True
    if candidate.merit != incumbent.merit:
        return candidate.merit > incumbent.merit
    if candidate.size != incumbent.size:
        return candidate.size < incumbent.size
    return sorted(candidate.members) < sorted(incumbent.members)


# ----------------------------------------------------------------------
# The frontier-stack engine (production path)
# ----------------------------------------------------------------------
#: Subtree flags propagated towards the root while unwinding the stack.
_SAW_FEASIBLE = 1
_SAW_BOUND_CUT = 2

#: States with fewer undecided nodes than this are not memoized: their
#: subtrees are cheaper to re-explore than a signature probe costs, and the
#: vast majority of states live at these deep positions.  Shallow states
#: (large subtrees) still create frames; deep states inherit the nearest
#: memoizable ancestor's frame so subtree flags keep propagating.
_MEMO_TAIL = 8


def _stack_search(
    context: _SearchContext,
    min_size: int,
    stats: SearchStats | None,
    *,
    best_only: bool,
    best_box: list[EnumeratedCut | None] | None,
) -> Iterator[EnumeratedCut]:
    """Depth-first enumeration over an explicit stack of packed int states.

    State tuples carry ``(position, included_mask, included_count,
    fixed_inputs, fixed_outputs, anc_union, excluded_mask, counted_ext,
    counted_outside, sw_sum, hw_floor, parent_frame)``.  Children are checked
    with the exact pruning rules *before* being pushed; the include child is
    pushed last so it is explored first, reproducing the recursive
    reference's depth-first order (and therefore its cut sequence and
    tie-break winners) exactly.

    Two invariants keep the incremental checks and the memo sound (the
    soundness argument is spelled out in DESIGN.md):

    * node indices are topologically sorted and the order is descending, so
      every bit of the included nodes' descendant closure lies above every
      undecided index — including a node ``u`` can only create a convexity
      violation through ``desc[u] & anc_union' & excluded``, and excluding a
      node never creates one;
    * the subtree below a state depends on the decided state only through
      the counters and the masks restricted to the suffix frontiers, which
      is exactly what the memo signature captures.
    """
    index_tables = context.index
    constraints = context.constraints
    order = context.order
    num_positions = len(order)
    max_inputs = constraints.max_inputs
    max_outputs = constraints.max_outputs
    required_size = max(min_size, 1)
    live_out_mask = index_tables.live_out_mask
    succ_mask = index_tables.succ_mask
    anc = index_tables.anc
    desc = index_tables.desc
    ext_ops = index_tables.ext_ops_mask
    outside_pred = context.outside_pred
    sw = context.sw
    hw_floor_of = context.hw_floor
    suffix_sw = context.suffix_sw
    frontiers = context.frontiers
    succ_frontier = frontiers.succ_union
    ext_frontier = frontiers.ext_union
    outside_frontier = frontiers.outside_pred_union
    reach_desc = frontiers.reach_desc
    merit_of = context.merit_of

    memo: set[tuple] = set()
    memo_floor = num_positions - _MEMO_TAIL
    #: Open frames of the explored decision tree, LIFO: ``[signature,
    #: parent_frame, subtree_flags]``.  A frame's exit marker is processed
    #: after all of its descendants', so ``frames`` pops in lock-step with
    #: the stack and never outgrows the current search depth.
    frames: list[list] = []
    stack: list = [
        (0, 0, 0, 0, 0, 0, context.never_included_mask, 0, 0, 0,
         context.empty_hw_floor, -1)
    ]

    states_visited = 0
    pruned_io = 0
    pruned_convexity = 0
    feasible_cuts = 0
    nodes_expanded = 0
    memo_hits = 0
    memo_entries = 0
    bound_cuts = 0

    try:
        while stack:
            item = stack.pop()
            if type(item) is int:
                # Exit marker: finalize the (necessarily topmost) frame.
                signature, parent, flags = frames.pop()
                if flags == 0:
                    # Fully explored, no feasible leaf, no bound cut: the
                    # subtree is infeasible for *every* state with this
                    # signature, independent of incumbent or merit prefix.
                    memo.add(signature)
                    memo_entries += 1
                elif parent >= 0:
                    frames[parent][2] |= flags
                continue
            (
                position,
                included_mask,
                included_count,
                fixed_inputs,
                fixed_outputs,
                anc_union,
                excluded_mask,
                counted_ext,
                counted_outside,
                sw_sum,
                hw_floor,
                parent,
            ) = item
            states_visited += 1
            if position == num_positions:
                if included_count >= required_size:
                    cut = EnumeratedCut(
                        members=frozenset(
                            i for i in order if included_mask >> i & 1
                        ),
                        merit=merit_of(included_mask),
                        num_inputs=fixed_inputs,
                        num_outputs=fixed_outputs,
                    )
                    feasible_cuts += 1
                    if parent >= 0:
                        frames[parent][2] |= _SAW_FEASIBLE
                    if best_only:
                        assert best_box is not None
                        if _better(cut, best_box[0]):
                            best_box[0] = cut
                    else:
                        yield cut
                continue
            if best_only:
                incumbent = best_box[0]  # type: ignore[index]
                if incumbent is not None:
                    optimistic = sw_sum + suffix_sw[position] - hw_floor
                    # Strict comparison: a subtree that can still *tie* the
                    # incumbent is explored so the (size, lexicographic)
                    # tie-break stays canonical under any admissible bound.
                    if optimistic < incumbent.merit:
                        bound_cuts += 1
                        if parent >= 0:
                            frames[parent][2] |= _SAW_BOUND_CUT
                        continue
            if position <= memo_floor:
                signature = (
                    position,
                    fixed_inputs,
                    fixed_outputs,
                    included_count if included_count < required_size else required_size,
                    included_mask & succ_frontier[position],
                    counted_ext & ext_frontier[position],
                    counted_outside & outside_frontier[position],
                    anc_union & reach_desc[position],
                    excluded_mask & reach_desc[position],
                )
                if signature in memo:
                    memo_hits += 1
                    continue
                frame_id = len(frames)
                frames.append([signature, parent, 0])
                stack.append(frame_id)  # exit marker, processed after children
            else:
                frame_id = parent
            nodes_expanded += 1

            node_index = order[position]
            bit = 1 << node_index
            next_position = position + 1

            # ---- exclude child (pushed first, explored second) ----------
            # The excluded node's value becomes a cut input if any of its
            # (already decided) consumers is included; exclusion can never
            # create a convexity violation because every included node has a
            # higher topological index.
            excl_inputs = fixed_inputs + (
                1 if succ_mask[node_index] & included_mask else 0
            )
            if excl_inputs > max_inputs:
                pruned_io += 1
            else:
                stack.append(
                    (
                        next_position,
                        included_mask,
                        included_count,
                        excl_inputs,
                        fixed_outputs,
                        anc_union,
                        excluded_mask | bit,
                        counted_ext,
                        counted_outside,
                        sw_sum,
                        hw_floor,
                        frame_id,
                    )
                )

            # ---- include child (pushed last, explored first) ------------
            child_anc = anc_union | anc[node_index]
            if desc[node_index] & child_anc & excluded_mask:
                # Permanent convexity violation: a decided-excluded node on
                # a path between two included nodes can never be repaired.
                pruned_convexity += 1
                continue
            new_outputs = fixed_outputs
            if live_out_mask & bit or succ_mask[node_index] & ~included_mask:
                new_outputs += 1
            if new_outputs > max_outputs:
                pruned_io += 1
                continue
            new_ext = counted_ext | ext_ops[node_index]
            new_outside = counted_outside | outside_pred[node_index]
            new_inputs = (
                fixed_inputs
                + (new_ext & ~counted_ext).bit_count()
                + (new_outside & ~counted_outside).bit_count()
            )
            if new_inputs > max_inputs:
                pruned_io += 1
                continue
            node_floor = hw_floor_of[node_index]
            stack.append(
                (
                    next_position,
                    included_mask | bit,
                    included_count + 1,
                    new_inputs,
                    new_outputs,
                    child_anc,
                    excluded_mask,
                    new_ext,
                    new_outside,
                    sw_sum + sw[node_index],
                    node_floor if node_floor > hw_floor else hw_floor,
                    frame_id,
                )
            )
    finally:
        if stats is not None:
            stats.states_visited += states_visited
            stats.states_pruned_io += pruned_io
            stats.states_pruned_convexity += pruned_convexity
            stats.states_pruned_bound += bound_cuts
            stats.feasible_cuts += feasible_cuts
            if isinstance(stats, EnumerationTrace):
                stats.nodes_expanded += nodes_expanded
                stats.memo_hits += memo_hits
                stats.memo_entries += memo_entries
                stats.bound_cuts += bound_cuts
