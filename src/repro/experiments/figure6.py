"""Figure 6: AES speedup of ISEGEN vs the Genetic baseline over an I/O sweep.

The paper studies the 696-node AES block (too large for the exhaustive
algorithms) under I/O constraints (2,1), (3,1), (4,1), (4,2), (6,3), (8,4)
with ``N_ISE`` = 1 and ``N_ISE`` = 4, and reports the application speedup of
ISEGEN and the genetic formulation.  The paper's two qualitative findings:

* ISEGEN out-performs the genetic solution by exploiting the regular
  structure (on average ~1.2x more speedup in the paper);
* for ``N_ISE`` = 1 the speedup does *not* scale monotonically with the I/O
  budget, because tighter constraints produce smaller cuts with many more
  instances (Figure 7) that cover the DFG better.

Speedup accounting: the reuse-aware estimate (every disjoint instance of a
selected cut is replaced) for both algorithms — the same accounting the
paper's AES numbers imply (one AFU serves all instances of its cut).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..baselines import GeneticConfig, GeneticGenerator
from ..core import ISEGen, ISEGenConfig
from ..hwmodel import ISEConstraints, PAPER_IO_SWEEP
from ..reuse import reuse_aware_speedup
from ..workloads import load_workload
from .runner import ExperimentTable, job, run_parallel

#: N_ISE values of the two panels of Figure 6.
FIGURE6_NISE = (1, 4)


def _figure6_cell(
    workload: str,
    nise: int,
    max_inputs: int,
    max_outputs: int,
    algorithm: str,
    isegen_config: ISEGenConfig,
    genetic_config: GeneticConfig,
) -> dict:
    """One (N_ISE, I/O, algorithm) sweep point of Figure 6 (one row)."""
    program = load_workload(workload)
    constraints = ISEConstraints(
        max_inputs=max_inputs, max_outputs=max_outputs, max_ises=nise
    )
    if algorithm == "ISEGEN":
        result = ISEGen(constraints=constraints, config=isegen_config).generate(
            program
        )
    else:
        result = GeneticGenerator(
            constraints=constraints, config=genetic_config
        ).generate(program)
    reuse = reuse_aware_speedup(program, result)
    return {
        "nise": nise,
        "io": f"({max_inputs},{max_outputs})",
        "algorithm": algorithm,
        "speedup": round(reuse.reuse_speedup, 4),
        "single_use_speedup": round(reuse.single_use_speedup, 4),
        "num_ises": result.num_ises,
        "largest_cut": max((len(i.cut) for i in result.ises), default=0),
        "runtime_s": round(result.runtime_seconds, 2),
    }


def run_figure6(
    *,
    io_sweep: Sequence[tuple[int, int]] = PAPER_IO_SWEEP,
    nise_values: Sequence[int] = FIGURE6_NISE,
    genetic_config: GeneticConfig | None = None,
    isegen_config: ISEGenConfig | None = None,
    quick_genetic: bool = True,
    workload: str = "aes",
    workers: int = 1,
    executor=None,
) -> ExperimentTable:
    """Regenerate Figure 6 (both panels) as one row table.

    ``quick_genetic`` uses the reduced genetic configuration on the 696-node
    block (the full configuration takes tens of minutes in pure Python while
    changing the outcome only marginally); pass ``False`` for the full run.
    """
    if genetic_config is None:
        genetic_config = GeneticConfig.quick() if quick_genetic else GeneticConfig()
    isegen_config = isegen_config or ISEGenConfig()
    table = ExperimentTable(
        name="figure6_aes_speedup",
        description=(
            "AES speedup (reuse-aware) of ISEGEN vs Genetic over the I/O sweep, "
            "for N_ISE = 1 and 4 (Figure 6)"
        ),
        meta={"workload": workload, "quick_genetic": quick_genetic},
    )
    jobs = [
        job(
            _figure6_cell,
            workload,
            nise,
            max_inputs,
            max_outputs,
            algorithm,
            isegen_config,
            genetic_config,
        )
        for nise in nise_values
        for max_inputs, max_outputs in io_sweep
        for algorithm in ("ISEGEN", "Genetic")
    ]
    execute = executor if executor is not None else run_parallel
    for row in execute(jobs, workers=workers):
        table.add_row(**row)
    return table


def average_isegen_advantage(table: ExperimentTable) -> float:
    """Average ratio of ISEGEN speedup to Genetic speedup over all points —
    the paper's 'on average 1.2x more speedup than the genetic solution'."""
    by_point: dict[tuple, dict[str, float]] = {}
    for row in table.rows:
        key = (row["nise"], row["io"])
        by_point.setdefault(key, {})[row["algorithm"]] = row["speedup"]
    ratios = [
        values["ISEGEN"] / values["Genetic"]
        for values in by_point.values()
        if values.get("Genetic") and values.get("ISEGEN")
    ]
    if not ratios:
        return 1.0
    return sum(ratios) / len(ratios)


def main() -> None:  # pragma: no cover - exercised via the CLI
    table = run_figure6()
    print(table.to_text())
    print(
        f"\nAverage ISEGEN / Genetic speedup ratio: "
        f"{average_isegen_advantage(table):.2f}x"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
