"""Shared infrastructure for the experiment harnesses.

Every harness in this package produces a list of flat row dictionaries
(one per plotted point of the corresponding paper figure), which can be

* printed as a text table (the library has no plotting dependency),
* serialized to JSON/CSV for external plotting, and
* compared against the paper's reported trends in ``EXPERIMENTS.md``.

Each harness decomposes its figure into independent *cells* — one
(program, configuration) point each — and executes them through
:func:`run_parallel`, which fans the cells out over a process pool when
``workers > 1`` and degenerates to the plain serial loop when
``workers == 1``.  Cell results are always assembled in submission order, so
the produced tables are row-for-row identical regardless of the worker
count (timing columns aside, which are nondeterministic by nature).
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..codegen import format_table
from ..core import ISEGenerationResult
from ..errors import BaselineInfeasibleError
from ..hwmodel import ISEConstraints
from ..parallel import ParallelJob, execute_jobs, job, run_parallel
from ..program import Program

__all__ = [
    "ExperimentTable",
    "ParallelJob",
    "execute_jobs",
    "job",
    "run_parallel",
    "timed_run",
    "save_tables",
    "print_tables",
    "meta_from_constraints",
]


@dataclass
class ExperimentTable:
    """A named table of result rows (one experiment / figure panel)."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_row(self, **values) -> dict:
        self.rows.append(values)
        return values

    # ------------------------------------------------------------------
    # Presentation / persistence
    # ------------------------------------------------------------------
    def columns(self) -> list[str]:
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_text(self) -> str:
        columns = self.columns()
        body = [
            [row.get(column, "") for column in columns] for row in self.rows
        ]
        header = f"== {self.name} ==\n{self.description}"
        if not body:
            return header + "\n(no rows)"
        return header + "\n" + format_table(columns, body)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "description": self.description,
                "meta": self.meta,
                "rows": self.rows,
            },
            indent=2,
            default=str,
        )

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def save_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = self.columns()
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return path

    def series(self, key_column: str, value_column: str) -> dict:
        """Extract ``{key: value}`` pairs, e.g. benchmark -> speedup."""
        return {row[key_column]: row[value_column] for row in self.rows}


def timed_run(
    runner: Callable[..., ISEGenerationResult],
    program: Program,
    constraints: ISEConstraints,
    **kwargs,
) -> tuple[ISEGenerationResult | None, float]:
    """Run one algorithm, returning ``(result, wall_seconds)``.

    Infeasible runs (the exhaustive baselines on oversized blocks) return
    ``(None, elapsed)`` — the paper's figures likewise have missing bars for
    those configurations.
    """
    started = time.perf_counter()
    try:
        result = runner(program, constraints, **kwargs)
    except BaselineInfeasibleError:
        return None, time.perf_counter() - started
    return result, time.perf_counter() - started


def save_tables(
    tables: Iterable[ExperimentTable],
    output_dir: str | Path,
    *,
    formats: Sequence[str] = ("json", "csv"),
) -> list[Path]:
    """Persist every table under *output_dir* (one file per table per format)."""
    output_dir = Path(output_dir)
    written: list[Path] = []
    for table in tables:
        stem = table.name.lower().replace(" ", "_")
        if "json" in formats:
            written.append(table.save_json(output_dir / f"{stem}.json"))
        if "csv" in formats:
            written.append(table.save_csv(output_dir / f"{stem}.csv"))
    return written


def print_tables(tables: Iterable[ExperimentTable]) -> None:
    for table in tables:
        print(table.to_text())
        print()


def meta_from_constraints(constraints: ISEConstraints, **extra) -> Mapping:
    return {
        "max_inputs": constraints.max_inputs,
        "max_outputs": constraints.max_outputs,
        "max_ises": constraints.max_ises,
        **extra,
    }
