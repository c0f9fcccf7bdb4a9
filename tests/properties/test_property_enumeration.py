"""Differential properties of the frontier-stack enumeration engine.

The production engine (explicit stack, subtree memo, strengthened admissible
merit bound) must be *bit-identical* to the recursive oracle engine
(``tests/oracles/enumeration.py``) on any DFG and any constraint configuration:

* :func:`~repro.baselines.enumerate_feasible_cuts` yields the same cuts —
  same member sets, merits and I/O counts — in the same depth-first order;
* :func:`~repro.baselines.best_single_cut` returns the same winner,
  including the (merit, size, lexicographic) tie-break;
* neither pruning layer ever drops a feasible completion: on small graphs
  the enumerated cut set equals the brute-force power-set sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import best_single_cut, enumerate_feasible_cuts
from repro.dfg import count_io, is_convex
from repro.hwmodel import ISEConstraints
from tests.oracles.enumeration import (
    reference_best_single_cut,
    reference_enumerate_feasible_cuts,
)

from .strategies import dataflow_graphs


@st.composite
def ise_constraints(draw):
    """Random I/O budgets and minimum cut sizes around the paper's sweep."""
    return ISEConstraints(
        max_inputs=draw(st.integers(min_value=1, max_value=6)),
        max_outputs=draw(st.integers(min_value=1, max_value=4)),
        max_ises=draw(st.integers(min_value=1, max_value=4)),
        min_cut_size=draw(st.integers(min_value=1, max_value=3)),
    )


def _as_rows(cuts):
    return [(c.members, c.merit, c.num_inputs, c.num_outputs) for c in cuts]


@settings(max_examples=120, deadline=None)
@given(dataflow_graphs(max_nodes=16), ise_constraints())
def test_stack_enumeration_identical_to_reference(dfg, constraints):
    stack_cuts = _as_rows(
        enumerate_feasible_cuts(
            dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
        )
    )
    reference_cuts = _as_rows(
        reference_enumerate_feasible_cuts(
            dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
        )
    )
    assert stack_cuts == reference_cuts  # same cuts, same depth-first order


@settings(max_examples=120, deadline=None)
@given(dataflow_graphs(max_nodes=16), ise_constraints())
def test_stack_best_cut_identical_to_reference(dfg, constraints):
    stack_best = best_single_cut(
        dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
    )
    reference_best = reference_best_single_cut(
        dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
    )
    if reference_best is None:
        assert stack_best is None
    else:
        assert stack_best is not None
        # The full tuple, not just the merit: the tie-break winner
        # (fewer nodes, then lexicographically smallest member set) must
        # survive any admissible pruning strength.
        assert stack_best.members == reference_best.members
        assert stack_best.merit == reference_best.merit
        assert stack_best.num_inputs == reference_best.num_inputs
        assert stack_best.num_outputs == reference_best.num_outputs


@settings(max_examples=60, deadline=None)
@given(dataflow_graphs(max_nodes=12), ise_constraints())
def test_pruning_never_drops_a_feasible_completion(dfg, constraints):
    """Brute force over the whole power set of candidate nodes: the pruned
    search must find exactly the feasible (convex, I/O-legal, min-size)
    cuts — the memo and the I/O/convexity rules are exact, never lossy."""
    candidates = [
        index
        for index in range(dfg.num_nodes)
        if not dfg.node_by_index(index).forbidden
    ]
    brute_force = set()
    for bits in range(1, 1 << len(candidates)):
        members = frozenset(
            candidates[i] for i in range(len(candidates)) if bits >> i & 1
        )
        if len(members) < constraints.min_cut_size:
            continue
        num_in, num_out = count_io(dfg, members)
        if num_in > constraints.max_inputs or num_out > constraints.max_outputs:
            continue
        if not is_convex(dfg, members):
            continue
        brute_force.add(members)
    enumerated = {
        cut.members
        for cut in enumerate_feasible_cuts(
            dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
        )
    }
    assert enumerated == brute_force


@settings(max_examples=60, deadline=None)
@given(dataflow_graphs(max_nodes=14), ise_constraints())
def test_best_cut_is_the_canonical_optimum(dfg, constraints):
    """The best-cut search returns the maximum of the full enumeration under
    the (merit desc, size asc, members asc) total order — i.e. the strict
    bound prune loses neither merit nor tie-break winners."""
    cuts = list(
        enumerate_feasible_cuts(
            dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
        )
    )
    best = best_single_cut(
        dfg, constraints, min_size=constraints.min_cut_size, node_limit=64
    )
    if not cuts:
        assert best is None
    else:
        expected = min(
            cuts, key=lambda c: (-c.merit, c.size, sorted(c.members))
        )
        assert best is not None
        assert best.members == expected.members
        assert best.merit == expected.merit
