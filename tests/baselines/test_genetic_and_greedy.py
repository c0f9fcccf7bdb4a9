"""Tests for the Genetic and Greedy baselines."""

import pytest

from repro.baselines import (
    GeneticConfig,
    GeneticCutFinder,
    GeneticSearch,
    GreedyCutFinder,
    best_connected_cluster,
    grow_cluster,
    run_genetic,
    run_greedy,
)
from repro.dfg import count_io, is_convex
from repro.errors import ISEGenError
from repro.hwmodel import ISEConstraints, LatencyModel


QUICK = GeneticConfig(population_size=20, generations=25, stagnation_limit=10, seed=1)


def test_genetic_config_validation():
    with pytest.raises(ISEGenError):
        GeneticConfig(population_size=2)
    with pytest.raises(ISEGenError):
        GeneticConfig(generations=0)
    with pytest.raises(ISEGenError):
        GeneticConfig(mutation_rate=1.5)
    quick = GeneticConfig.quick(seed=7)
    assert quick.population_size < GeneticConfig().population_size
    assert quick.seed == 7


def test_genetic_search_returns_feasible_cut(mac_chain_dfg, paper_constraints):
    search = GeneticSearch(mac_chain_dfg, paper_constraints, config=QUICK)
    members = search.run()
    assert members is not None
    assert is_convex(mac_chain_dfg, members)
    num_in, num_out = count_io(mac_chain_dfg, members)
    assert num_in <= paper_constraints.max_inputs
    assert num_out <= paper_constraints.max_outputs
    assert search.trace.generations_run > 0
    assert search.trace.evaluations > 0
    assert search.merit(members) > 0


def test_genetic_is_deterministic_for_a_seed(mac_chain_dfg, paper_constraints):
    first = GeneticSearch(mac_chain_dfg, paper_constraints, config=QUICK).run()
    second = GeneticSearch(mac_chain_dfg, paper_constraints, config=QUICK).run()
    assert first == second


def test_genetic_seeds_can_differ(medium_random_dfg, paper_constraints):
    """Different seeds explore differently — the stochastic behaviour the
    paper contrasts ISEGEN against.  (They may still find the same cut.)"""
    config_a = GeneticConfig(population_size=20, generations=10, seed=1)
    config_b = GeneticConfig(population_size=20, generations=10, seed=2)
    search_a = GeneticSearch(medium_random_dfg, paper_constraints, config=config_a)
    search_b = GeneticSearch(medium_random_dfg, paper_constraints, config=config_b)
    search_a.run()
    search_b.run()
    assert search_a.trace.evaluations > 0 and search_b.trace.evaluations > 0


def test_genetic_fitness_penalizes_violations(diamond_dfg):
    tight = ISEConstraints(max_inputs=1, max_outputs=1, max_ises=1)
    search = GeneticSearch(diamond_dfg, tight, config=QUICK)
    full = frozenset(node.index for node in diamond_dfg.nodes)
    # The full diamond needs 2 inputs -> one excess port -> penalized fitness.
    assert search.fitness(full) < search.merit(full)
    n0_n3 = frozenset(
        {diamond_dfg.node("n0").index, diamond_dfg.node("n3").index}
    )
    assert not search.is_feasible(n0_n3)  # not convex
    assert search.fitness(frozenset()) == 0.0


def test_genetic_finder_returns_none_when_nothing_profitable(paper_constraints):
    from repro.dfg import DataFlowGraph
    from repro.isa import Opcode

    dfg = DataFlowGraph("just_loads")
    dfg.add_external_input("p")
    dfg.add_node("ld", Opcode.LOAD, ["p"], live_out=True)
    dfg.prepare()
    finder = GeneticCutFinder(QUICK)
    assert (
        finder.best_cut(dfg, frozenset(), paper_constraints, LatencyModel()) is None
    )


def test_genetic_dedupes_duplicate_chromosomes(medium_random_dfg, paper_constraints):
    """A converging population re-submits identical chromosomes; they must
    be skipped before scoring and the memo must absorb cross-generation
    repeats, so `evaluations` counts only unique fitness computations."""
    search = GeneticSearch(medium_random_dfg, paper_constraints, config=QUICK)
    search.run()
    trace = search.trace
    assert trace.evaluations > 0
    # Elitism alone guarantees repeats: the elite chromosomes re-enter every
    # generation, so either the population dedupe or the memo must fire.
    assert trace.duplicates_skipped + trace.memo_hits > 0
    scored_slots = (
        trace.evaluations + trace.memo_hits + trace.duplicates_skipped
    )
    population_slots = QUICK.population_size * trace.generations_run
    # Every population slot is either freshly evaluated, memo-served, or
    # skipped as an in-generation duplicate (empty chromosomes score free).
    assert scored_slots <= population_slots


def test_genetic_results_identical_for_reference_and_bitset_evaluator(
    medium_random_dfg, paper_constraints
):
    from tests.oracles.cut_evaluator import ReferenceCutEvaluator

    bitset = GeneticSearch(medium_random_dfg, paper_constraints, config=QUICK)
    reference = GeneticSearch(
        medium_random_dfg,
        paper_constraints,
        config=QUICK,
        evaluator=ReferenceCutEvaluator(medium_random_dfg, paper_constraints),
    )
    assert bitset.run() == reference.run()
    assert bitset.trace.evaluations == reference.trace.evaluations


def test_genetic_fitness_memo_counts_hits(diamond_dfg, paper_constraints):
    search = GeneticSearch(diamond_dfg, paper_constraints, config=QUICK)
    full = frozenset(node.index for node in diamond_dfg.nodes)
    first = search.fitness(full)
    evaluations = search.trace.evaluations
    assert search.fitness(full) == first
    assert search.trace.evaluations == evaluations
    assert search.trace.memo_hits == 1


def test_run_genetic_full_result(single_block, paper_constraints):
    result = run_genetic(single_block, paper_constraints, config=QUICK)
    assert result.algorithm == "Genetic"
    assert result.speedup >= 1.0
    assert result.stats["fitness_evaluations"] > 0


def test_grow_cluster_stays_connected_and_legal(mac_chain_dfg, paper_constraints):
    seed = mac_chain_dfg.node("p0").index
    allowed = range(mac_chain_dfg.num_nodes)
    members, merit = grow_cluster(
        mac_chain_dfg, seed, allowed, paper_constraints, LatencyModel()
    )
    assert seed in members
    assert merit > 0
    assert is_convex(mac_chain_dfg, members)
    from repro.dfg import connected_components

    assert len(connected_components(mac_chain_dfg, members)) == 1


def test_best_connected_cluster_and_finder(mac_chain_dfg, paper_constraints):
    members, merit = best_connected_cluster(mac_chain_dfg, paper_constraints)
    assert merit > 0
    finder = GreedyCutFinder()
    cut = finder.best_cut(
        mac_chain_dfg,
        frozenset(range(mac_chain_dfg.num_nodes)),
        paper_constraints,
        LatencyModel(),
    )
    assert cut == members


def test_run_greedy(single_block, paper_constraints):
    result = run_greedy(single_block, paper_constraints)
    assert result.algorithm == "Greedy"
    assert result.speedup >= 1.0
