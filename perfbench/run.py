"""End-to-end ISE-generation benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload aes_reuse --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
of ``--seconds`` on plain repetitions and half on repetitions with the
layer probes attached, and prints the per-layer metrics (including the
tracing overhead: traced wall minus plain wall).  Timings of fixed work,
set-up included, are CPU seconds rescaled to a reference host speed
(``refclock.py``): on a shared host, neighbours slow everything by up to
1.8x for minutes at a time.  Both print a table of every metric with its
unit and sample count, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units come from ``BENCHMARK.json``.

``--write-expected`` regenerates ``perfbench/expected.json``: ISEGEN's AES
outputs, every Figure-4 grid cell run serially through ``run_algorithm``,
and the deterministic work counters of one traced repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Counters that depend on thread timing (polls, retries), not on the work.
TIMING_DEPENDENT_COUNTS = {
    "sweep.claims",
    "sweep.empty_claims",
    "sweep.store_calls",
    "service.throttled",
}
UNATTRIBUTED_FLAG = 0.05


def percentile(values, q: float) -> float:
    """The *q*-quantile of *values*, interpolated between neighbours."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_setup(case) -> tuple[float, dict]:
    """Set-up seconds at the reference host speed, and the case's state."""
    from refclock import RefClock

    state, elapsed = RefClock().time(case.setup)
    return elapsed, state


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: import, inputs, service start."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def run_reps(case, state, seconds: float, traced: bool, min_reps: int) -> list:
    """Repetitions for *seconds*, at least *min_reps* of them.

    Another repetition starts only while the fastest one so far would still
    end within *seconds*, so a run keeps to its budget on a slow host too.
    """
    reps, durations = [], []
    started = time.perf_counter()
    while len(reps) < min_reps or (
        time.perf_counter() - started + min(durations) <= seconds
    ):
        rep_started = time.perf_counter()
        if traced:
            reps.append(traced_rep(case, state, len(reps)))
        else:
            reps.append(case.run_rep(state, len(reps)))
        durations.append(time.perf_counter() - rep_started)
    return reps


def traced_rep(case, state, index: int):
    """One repetition with the layer probes attached."""
    from probes import Probes

    probes = Probes()
    try:
        rep = case.run_rep(state, index, probes)
    finally:
        probes.close()
    rep.layers.update(probes.seconds)
    rep.layers.update(
        (name, value)
        for name, value in probes.counts.items()
        if name != "service.requests"
    )
    return rep


def end_to_end(reps, setup_s: float) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for every end-to-end metric."""
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)

    def median(attr):
        return statistics.median(getattr(rep, attr) for rep in reps), len(reps)

    latencies = [value for rep in reps for value in rep.job_latencies_s]
    jobs = sum(rep.jobs for rep in reps)
    return {
        "setup_s": (setup_s, SETUP_SAMPLES),
        "wall_s": median("wall_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "ok_share": (1.0 - failed / attempted, attempted),
        "isegen_s": median("isegen_s"),
        "baseline_s": median("baseline_s"),
        "isegen_speedup": median("isegen_speedup"),
        "isegen_vs_baseline": (
            median("isegen_speedup")[0] / median("baseline_speedup")[0],
            len(reps),
        ),
        "job_p50_ms": (1000 * statistics.median(latencies), len(latencies)),
        "job_p90_ms": (1000 * percentile(latencies, 0.9), len(latencies)),
        "jobs_per_s": (jobs / sum(rep.wall_s for rep in reps), jobs),
    }


def nonrepeating_counts(name: str, reps, expected_counts: dict) -> list[str]:
    """Work counters that differ between repetitions or from the record."""
    names = sorted({key for rep in reps for key in rep.counts} | {
        key for rep in reps for key in rep.layers if key in expected_counts
    })
    problems = []
    for key in names:
        if key in TIMING_DEPENDENT_COUNTS:
            continue
        by_variant: dict[int, set] = {}
        for rep in reps:
            merged = {**rep.layers, **rep.counts}
            if key in merged:
                by_variant.setdefault(rep.variant, set()).add(merged[key])
        for variant, seen in by_variant.items():
            if key in expected_counts:
                seen.add(expected_counts[key])
            if len(seen) > 1:
                problems.append(f"{name} {key} (variant {variant}): {sorted(seen)}")
    return problems


def per_layer(plain, traced, state, expected_counts, workload) -> tuple[dict, list]:
    """``name -> (value, samples)`` for the per-layer metrics, plus notes."""
    values: dict[str, list[float]] = {}
    for rep in traced:
        merged = {**rep.layers, **rep.counts, **rep.shares}
        if rep.unattributed_share is not None:
            merged["telemetry.unattributed_share"] = rep.unattributed_share
        for key, value in merged.items():
            values.setdefault(key, []).append(value)
    layers = {
        key: (statistics.median(series), len(series)) for key, series in values.items()
    }
    layers["workloads.load_s"] = (state["load_s"], 1)
    layers["telemetry.cpu_s"] = (
        statistics.median(rep.cpu_s for rep in plain), len(plain)
    )
    layers["telemetry.trace_overhead_s"] = (
        statistics.median(rep.wall_s for rep in traced)
        - statistics.median(rep.wall_s for rep in plain),
        len(traced) + len(plain),
    )
    notes = nonrepeating_counts(workload, plain + traced, expected_counts)
    layers["telemetry.counts_nonrepeat"] = (len(notes), len(plain) + len(traced))
    share = layers.get("telemetry.unattributed_share", (0.0, 0))[0]
    if share > UNATTRIBUTED_FLAG:
        notes.append(
            f"FLAG {workload}: {share:.1%} of the work time is outside every "
            "timed layer call"
        )
    return layers, notes


def print_report(workload, metrics, declared, reps, notes, correct) -> None:
    print(f"workload {workload}: {len(reps)} repetition(s), correct={correct}")
    print(f"  {'metric':36} {'value':>14} {'unit':8} samples")
    for entry in declared:
        value, samples = metrics[entry["name"]]
        print(f"  {entry['name']:36} {value:14.6g} {entry['unit']:8} {samples}")
    for rep in reps:
        for failure in rep.failures:
            print(f"  FAILED {failure}")
    for note in notes:
        print(f"  {note}")
    slowdowns = [value for rep in reps for value in rep.slowdowns]
    print(f"  host slowdown against the reference loop: median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
          f"{max(slowdowns):.3f} over {len(slowdowns)} timed calls")


def write_expected(work_root: Path) -> None:
    """Regenerate expected.json from serial reference runs."""
    import cases

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    count_names = {entry["name"] for entry in declared if entry["unit"] == "count"}
    record = {}
    cases.EXPECTED_PATH.write_text(json.dumps({}))
    for workload in cases.WORKLOADS:
        case = cases.make_case(workload, 0, work_root)
        state = case.setup()
        try:
            record[workload] = case.expected_record(state)
            cases.EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n")
            rep = traced_rep(case, state, 0)
            if rep.failures:
                raise SystemExit(f"{workload}: {rep.failures}")
            counts = {**rep.layers, **rep.counts}
            record[workload]["counts"] = {
                key: value
                for key, value in sorted(counts.items())
                if key in count_names
                and key not in TIMING_DEPENDENT_COUNTS
                and key not in cases.SEED_DEPENDENT_COUNTS.get(workload, ())
            }
        finally:
            case.teardown(state)
    cases.EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="aes_reuse")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_file.is_file():
        print(f"error: {ROOT} holds no program source (src/repro) or no "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cases

    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if args.write_expected:
        write_expected(work_root)
        return 0
    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {cases.WORKLOADS}")
    case = cases.make_case(args.workload, args.seed, work_root, traced=bool(args.trace))
    if args.setup_only:
        elapsed, state = timed_setup(case)
        case.teardown(state)
        print(elapsed)
        return 0

    declared = json.loads(benchmark_file.read_text())
    setup_samples = [setup_in_child(args.workload, args.seed)
                     for _ in range(SETUP_SAMPLES - 1)]
    elapsed, state = timed_setup(case)
    setup_samples.append(elapsed)
    try:
        if args.trace:
            plain = run_reps(case, state, args.seconds / 2, traced=False, min_reps=1)
            traced = run_reps(case, state, args.seconds / 2, traced=True, min_reps=1)
            reps = plain + traced
            expected_counts = cases.load_expected()[args.workload].get("counts", {})
            metrics, notes = per_layer(plain, traced, state, expected_counts, args.workload)
            entries = declared["per_layer"]
        else:
            reps = run_reps(case, state, args.seconds, traced=False, min_reps=case.min_reps)
            metrics, notes = end_to_end(reps, statistics.median(setup_samples)), []
            entries = declared["end_to_end"]
    finally:
        case.teardown(state)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # not empty: another run's work directory is still there
    for entry in entries:
        metrics.setdefault(entry["name"], (0.0, 0))
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(len(rep.failures) for rep in reps)
    print_report(args.workload, metrics, entries, reps, notes, failed == 0)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
            for entry in entries
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
