"""Genetic-algorithm baseline (the paper's "Genetic" comparator).

The paper compares ISEGEN against the genetic formulation of Biswas et al.
(DAC 2004).  That algorithm encodes a candidate cut of a basic block as a
bit-vector chromosome (one bit per DFG node), evolves a population with
tournament selection, uniform crossover and bit-flip mutation, and uses a
penalty-based fitness so that infeasible chromosomes (I/O or convexity
violations) are tolerated during the search but never win.

This re-implementation keeps the published structure:

* **chromosome** — a bit mask over the allowed nodes of the block;
* **fitness** — the cut's merit minus heavy penalties for excess I/O ports
  and for convexity-violating nodes (the same "large factor" idea the ISEGEN
  gain function uses);
* **repair** — with a configurable probability, an infeasible chromosome is
  replaced by its convex closure, which the DAC'04 paper reports to speed up
  convergence considerably;
* **selection / variation** — elitism, tournament selection, uniform
  crossover and per-bit mutation;
* the algorithm is *stochastic*: different seeds may return different cuts,
  which is exactly the non-determinism the paper contrasts ISEGEN against.

Like the Iterative baseline it plugs into the shared application-level driver
through the :class:`~repro.core.BlockCutFinder` interface (one cut per call;
the driver handles the ``N_ISE`` budget and block selection).
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections.abc import Collection
from dataclasses import dataclass

from .. import telemetry

from ..core import (
    ApplicationISEDriver,
    BitsetCutEvaluator,
    BlockCutFinder,
    CutEvaluator,
    ISEGenerationResult,
)
from ..dfg import DataFlowGraph, indices_of_mask, mask_of, popcount
from ..errors import ISEGenError
from ..hwmodel import ISEConstraints, LatencyModel
from ..program import Program


@dataclass(frozen=True)
class GeneticConfig:
    """Hyper-parameters of the genetic search (DAC'04-style defaults)."""

    population_size: int = 100
    generations: int = 300
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elite_count: int = 2
    #: Probability that an infeasible offspring is repaired by taking its
    #: convex closure.
    repair_rate: float = 0.25
    #: Penalty per excess register-file port.
    io_penalty: float = 50.0
    #: Penalty per convexity-violating node.
    convexity_penalty: float = 50.0
    #: Stop early after this many generations without improvement of the best
    #: feasible fitness (0 disables early stopping).
    stagnation_limit: int = 60
    seed: int = 2005

    @classmethod
    def quick(cls, seed: int = 2005) -> "GeneticConfig":
        """A reduced configuration for very large blocks (e.g. AES) and for
        fast test runs: same operators, smaller population and budget."""
        return cls(
            population_size=40,
            generations=60,
            stagnation_limit=20,
            seed=seed,
        )

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ISEGenError("population_size must be at least 4")
        if self.generations < 1:
            raise ISEGenError("generations must be at least 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ISEGenError("mutation_rate must be within [0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ISEGenError("crossover_rate must be within [0, 1]")


@dataclass
class GeneticTrace:
    """Diagnostics of one GA run (consumed by tests and benches)."""

    generations_run: int = 0
    #: Fitness values computed from scratch — unique chromosomes only, since
    #: duplicates are deduplicated before scoring and repeats across
    #: generations are served from the per-mask memo.
    evaluations: int = 0
    #: Fitness lookups answered from the per-chromosome memo.
    memo_hits: int = 0
    #: Chromosomes skipped by the per-generation population dedupe.
    duplicates_skipped: int = 0
    best_fitness: float = float("-inf")
    best_feasible_merit: int = 0
    runtime_seconds: float = 0.0


class GeneticSearch:
    """Evolves cut chromosomes for one basic block."""

    def __init__(
        self,
        dfg: DataFlowGraph,
        constraints: ISEConstraints,
        latency_model: LatencyModel | None = None,
        config: GeneticConfig | None = None,
        *,
        allowed: Collection[int] | None = None,
        evaluator: CutEvaluator | None = None,
    ):
        dfg.prepare()
        self.dfg = dfg
        self.constraints = constraints
        self.model = latency_model or LatencyModel()
        self.config = config or GeneticConfig()
        if allowed is None:
            candidates = [
                i for i in range(dfg.num_nodes) if not dfg.node_by_index(i).forbidden
            ]
        else:
            candidates = [
                i for i in allowed if not dfg.node_by_index(i).forbidden
            ]
        self.candidates = sorted(candidates)
        self._candidate_mask = mask_of(self.candidates)
        self.rng = random.Random(self.config.seed)
        self.trace = GeneticTrace()
        #: Merit / convexity / I/O answers — the memoizing bitset evaluator
        #: unless another :class:`CutEvaluator` is injected (the equivalence
        #: tests inject the frozenset reference; answers are bit-identical).
        self.evaluator = evaluator or BitsetCutEvaluator(
            dfg, constraints, self.model
        )
        self._fitness_memo: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Fitness
    # ------------------------------------------------------------------
    def merit(self, members: int | Collection[int]) -> int:
        return self.evaluator.merit(members)

    def fitness(self, members: int | Collection[int]) -> float:
        """Penalty fitness: merit minus weighted constraint violations.

        Memoized per chromosome mask, so re-scoring a chromosome already
        seen — in this or any earlier generation — costs one dictionary
        probe and counts as a :attr:`GeneticTrace.memo_hits` instead of an
        evaluation.
        """
        mask = members if isinstance(members, int) else mask_of(members)
        if not mask:
            return 0.0
        cached = self._fitness_memo.get(mask)
        if cached is not None:
            self.trace.memo_hits += 1
            return cached
        self.trace.evaluations += 1
        evaluator = self.evaluator
        merit = evaluator.merit(mask)
        excess = evaluator.io_violation(mask)
        violation_count = evaluator.convexity_violation_count(mask)
        value = (
            float(merit)
            - self.config.io_penalty * excess
            - self.config.convexity_penalty * violation_count
        )
        self._fitness_memo[mask] = value
        return value

    def is_feasible(self, members: int | Collection[int]) -> bool:
        mask = members if isinstance(members, int) else mask_of(members)
        if not mask:
            return False
        if popcount(mask) < self.constraints.min_cut_size:
            return False
        return self.evaluator.is_legal(mask)

    # ------------------------------------------------------------------
    # Population machinery (chromosomes are int bitset masks internally;
    # every operator draws from the RNG exactly as the frozenset
    # implementation did, so seeded runs are bit-identical)
    # ------------------------------------------------------------------
    def _random_chromosome(self) -> int:
        density = self.rng.uniform(0.05, 0.5)
        mask = 0
        for i in self.candidates:
            if self.rng.random() < density:
                mask |= 1 << i
        return mask

    def _seeded_chromosome(self) -> int:
        """A connected seed grown from a random node — mirrors the DAC'04
        practice of seeding the population with plausible clusters."""
        if not self.candidates:
            return 0
        start = self.rng.choice(self.candidates)
        members = {start}
        frontier = [start]
        target = self.rng.randint(2, max(2, min(10, len(self.candidates))))
        allowed = set(self.candidates)
        while frontier and len(members) < target:
            current = frontier.pop()
            neighbors = [
                n for n in self.dfg.neighbors(current) if n in allowed and n not in members
            ]
            self.rng.shuffle(neighbors)
            for neighbor in neighbors[:2]:
                members.add(neighbor)
                frontier.append(neighbor)
        return mask_of(members)

    def _tournament(self, scored: list[tuple[float, int]]) -> int:
        best: tuple[float, int] | None = None
        for _ in range(self.config.tournament_size):
            contender = self.rng.choice(scored)
            if best is None or contender[0] > best[0]:
                best = contender
        assert best is not None
        return best[1]

    def _crossover(self, left: int, right: int) -> int:
        if self.rng.random() > self.config.crossover_rate:
            return left
        child = 0
        for index in self.candidates:
            source = left if self.rng.random() < 0.5 else right
            if source >> index & 1:
                child |= 1 << index
        return child

    def _mutate(self, chromosome: int) -> int:
        for index in self.candidates:
            if self.rng.random() < self.config.mutation_rate:
                chromosome ^= 1 << index
        return chromosome

    def _maybe_repair(self, chromosome: int) -> int:
        if not chromosome:
            return chromosome
        if self.is_feasible(chromosome):
            return chromosome
        if self.rng.random() >= self.config.repair_rate:
            return chromosome
        repaired = mask_of(self.evaluator.convex_closure(chromosome))
        # The closure may absorb forbidden or not-allowed nodes; drop them.
        return repaired & self._candidate_mask

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> frozenset[int] | None:
        """Evolve and return the best feasible cut found (or ``None``)."""
        with telemetry.span("genetic.search", nodes=len(self.candidates)):
            result = self._run_impl()
        telemetry.emit_metrics_lazy(
            "genetic",
            lambda: {
                f.name: getattr(self.trace, f.name)
                for f in dataclasses.fields(GeneticTrace)
            },
        )
        evaluator = self.evaluator
        if hasattr(evaluator, "memo_entries"):
            telemetry.emit_metrics_lazy(
                "cut_evaluator",
                lambda: {
                    "evaluations": evaluator.evaluations,
                    "memo_hits": evaluator.memo_hits,
                    "memo_entries": evaluator.memo_entries,
                },
            )
        return result

    def _run_impl(self) -> frozenset[int] | None:
        started = time.perf_counter()
        if not self.candidates:
            return None
        population: list[int] = []
        for position in range(self.config.population_size):
            if position % 2 == 0:
                population.append(self._seeded_chromosome())
            else:
                population.append(self._random_chromosome())
        best_feasible: int | None = None
        best_feasible_merit = 0
        stagnant = 0
        for generation in range(self.config.generations):
            # Dedupe before scoring: a converging population re-submits the
            # same chromosomes many times per generation; each unique one is
            # evaluated once and the copies reuse its score.  The scored
            # list still carries every population slot (selection pressure
            # is unchanged), and the stable sort keeps the original
            # population order among equal-fitness entries — results are
            # bit-identical to scoring every slot.
            unique_scores: dict[int, float] = {}
            for individual in population:
                if individual not in unique_scores:
                    unique_scores[individual] = self.fitness(individual)
                else:
                    self.trace.duplicates_skipped += 1
            scored = [
                (unique_scores[individual], individual) for individual in population
            ]
            scored.sort(key=lambda item: -item[0])
            self.trace.best_fitness = max(self.trace.best_fitness, scored[0][0])
            improved = False
            for _fitness, individual in scored:
                if self.is_feasible(individual):
                    merit = self.merit(individual)
                    if merit > best_feasible_merit:
                        best_feasible_merit = merit
                        best_feasible = individual
                        improved = True
                    break
            stagnant = 0 if improved else stagnant + 1
            self.trace.generations_run = generation + 1
            if (
                self.config.stagnation_limit
                and stagnant >= self.config.stagnation_limit
            ):
                break
            next_population: list[int] = [
                individual for _score, individual in scored[: self.config.elite_count]
            ]
            while len(next_population) < self.config.population_size:
                parent_a = self._tournament(scored)
                parent_b = self._tournament(scored)
                child = self._crossover(parent_a, parent_b)
                child = self._mutate(child)
                child = self._maybe_repair(child)
                next_population.append(child)
            population = next_population
        self.trace.best_feasible_merit = best_feasible_merit
        self.trace.runtime_seconds = time.perf_counter() - started
        if best_feasible is None:
            return None
        return frozenset(indices_of_mask(best_feasible))


class GeneticCutFinder(BlockCutFinder):
    """Block-level strategy wrapping :class:`GeneticSearch`."""

    name = "Genetic"

    def __init__(self, config: GeneticConfig | None = None):
        self.config = config or GeneticConfig()
        self.last_trace: GeneticTrace | None = None
        self.total_evaluations = 0
        self.total_memo_hits = 0
        self.total_duplicates_skipped = 0

    def best_cut(
        self,
        dfg: DataFlowGraph,
        allowed: Collection[int],
        constraints: ISEConstraints,
        latency_model: LatencyModel,
    ) -> frozenset[int] | None:
        search = GeneticSearch(
            dfg, constraints, latency_model, self.config, allowed=allowed
        )
        members = search.run()
        self.last_trace = search.trace
        self.total_evaluations += search.trace.evaluations
        self.total_memo_hits += search.trace.memo_hits
        self.total_duplicates_skipped += search.trace.duplicates_skipped
        if members is None or search.merit(members) <= 0:
            return None
        return members


class GeneticGenerator:
    """Application-level wrapper of the Genetic baseline."""

    name = "Genetic"

    def __init__(
        self,
        constraints: ISEConstraints | None = None,
        config: GeneticConfig | None = None,
        latency_model: LatencyModel | None = None,
    ):
        self.constraints = constraints or ISEConstraints.paper_default()
        self.config = config or GeneticConfig()
        self.latency_model = latency_model or LatencyModel()
        self.finder = GeneticCutFinder(self.config)
        self._driver = ApplicationISEDriver(
            self.finder, self.constraints, self.latency_model
        )

    def generate(self, program: Program) -> ISEGenerationResult:
        result = self._driver.generate(program)
        result.stats["fitness_evaluations"] = self.finder.total_evaluations
        result.stats["generations"] = self.config.generations
        result.stats["population_size"] = self.config.population_size
        result.stats["memo_hits"] = self.finder.total_memo_hits
        result.stats["duplicates_skipped"] = self.finder.total_duplicates_skipped
        return result

    def generate_for_dfg(self, dfg: DataFlowGraph, frequency: float = 1.0) -> ISEGenerationResult:
        result = self._driver.generate_for_dfg(dfg, frequency)
        result.stats["fitness_evaluations"] = self.finder.total_evaluations
        result.stats["memo_hits"] = self.finder.total_memo_hits
        result.stats["duplicates_skipped"] = self.finder.total_duplicates_skipped
        return result


def run_genetic(
    program: Program,
    constraints: ISEConstraints | None = None,
    *,
    config: GeneticConfig | None = None,
    latency_model: LatencyModel | None = None,
    seed: int | None = None,
) -> ISEGenerationResult:
    """Functional entry point used by the experiment harnesses."""
    if seed is not None:
        base = config or GeneticConfig()
        config = GeneticConfig(
            population_size=base.population_size,
            generations=base.generations,
            tournament_size=base.tournament_size,
            crossover_rate=base.crossover_rate,
            mutation_rate=base.mutation_rate,
            elite_count=base.elite_count,
            repair_rate=base.repair_rate,
            io_penalty=base.io_penalty,
            convexity_penalty=base.convexity_penalty,
            stagnation_limit=base.stagnation_limit,
            seed=seed,
        )
    generator = GeneticGenerator(constraints, config, latency_model)
    return generator.generate(program)


__all__ = [
    "GeneticConfig",
    "GeneticTrace",
    "GeneticSearch",
    "GeneticCutFinder",
    "GeneticGenerator",
    "run_genetic",
]
