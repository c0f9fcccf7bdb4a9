"""Job specifications: validate API payloads, turn them into sweep cells.

A *job* is what ``POST /v1/jobs`` accepts.  Three kinds are understood:

``sweep``
    A registered sweep harness by name (``figure6``, ...) plus its
    registry-validated options — the whole figure grid as one job.
``workload``
    One registered workload (``aes``, ``fft00``, ...) x one algorithm x
    one I/O constraint point, with optional :class:`ISEGenConfig`
    overrides — the "generate ISEs for this benchmark" request.
``ir``
    Inline serialized IR: the client ships a DFG (or a multi-block
    program) as JSON in the dialect of :mod:`repro.dfg.serialization`,
    and gets ISEs for code the registry has never seen.

Parsing normalizes every payload into a canonical, JSON-round-trippable
``spec`` dict; :func:`build_cells` turns a spec into the module-level,
picklable :class:`~repro.parallel.ParallelJob` cells the sweep substrate
executes.  Because cell identity is the content hash of the (function,
arguments) pair, two clients submitting the same normalized spec address
the same :class:`~repro.sweep.store.ResultStore` records — identical
resubmissions are answered from cache without enqueuing anything.

Validation errors raise :class:`ServiceError` with an HTTP status the
server maps straight onto the response line.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..baselines import (
    ALGORITHMS,
    NODE_LIMITED_ALGORITHMS,
    GeneticConfig,
    run_algorithm,
)
from ..core import ISEGenConfig
from ..core.config import GainWeights
from ..dfg.serialization import dfg_from_dict
from ..errors import DFGError, ISEGenError, ReproError
from ..hwmodel import ISEConstraints
from ..parallel import ParallelJob, job
from ..program import BlockProfile, Program, single_block_program
from ..reuse import reuse_aware_speedup
from ..sweep.registry import SweepError, sweep_spec
from ..workloads import available_workloads, load_workload


class ServiceError(ReproError):
    """A request the service rejects, carrying the HTTP status to send."""

    def __init__(self, message: str, *, status: int = 400, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


JOB_KINDS = ("sweep", "workload", "ir")

#: Scalar ISEGenConfig fields clients may override, with expected types.
_CONFIG_FIELDS = {
    "max_passes": int,
    "min_merit": (int, float),
    "reset_working_cut": bool,
}
_WEIGHT_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon")

#: Hard ceiling on inline-IR size: a DFG bigger than the AES-696 block
#: by an order of magnitude is a denial-of-service, not a workload.
MAX_IR_NODES = 4096


def _is_finite_number(value) -> bool:
    """A JSON number that is neither a bool nor NaN/±inf (Python's json
    module parses the ``NaN`` and ``Infinity`` literals)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _expect(payload: dict, key: str, types, *, required: bool = True, default=None):
    if key not in payload:
        if required:
            raise ServiceError(f"job spec missing required field {key!r}")
        return default
    value = payload[key]
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise ServiceError(f"field {key!r} must be {names}, got {type(value).__name__}")
    return value


def isegen_config_from(overrides: dict | None) -> ISEGenConfig:
    """Build an :class:`ISEGenConfig` from a JSON overrides dict.

    Unknown keys and wrong types are 400s — a silently ignored override
    would compute (and cache) a result the client did not ask for.
    """
    if not overrides:
        return ISEGenConfig()
    if not isinstance(overrides, dict):
        raise ServiceError("'config' must be an object of ISEGenConfig overrides")
    kwargs = {}
    for key, value in overrides.items():
        if key == "weights":
            if not isinstance(value, dict):
                raise ServiceError("config.weights must be an object")
            unknown = set(value) - set(_WEIGHT_FIELDS)
            if unknown:
                raise ServiceError(
                    f"unknown gain weight(s) {sorted(unknown)}; "
                    f"available: {list(_WEIGHT_FIELDS)}"
                )
            weights = {}
            for name in _WEIGHT_FIELDS:
                if name in value:
                    if not _is_finite_number(value[name]):
                        raise ServiceError(
                            f"config.weights.{name} must be a finite number"
                        )
                    weights[name] = float(value[name])
            kwargs["weights"] = dataclasses.replace(GainWeights(), **weights)
        elif key in _CONFIG_FIELDS:
            expected = _CONFIG_FIELDS[key]
            is_bool_field = expected is bool
            if is_bool_field:
                if not isinstance(value, bool):
                    raise ServiceError(f"config.{key} must be a boolean")
            elif not isinstance(value, expected) or not _is_finite_number(value):
                raise ServiceError(f"config.{key} must be a finite number")
            kwargs[key] = value
        else:
            raise ServiceError(
                f"unknown ISEGenConfig override {key!r}; available: "
                f"{sorted(_CONFIG_FIELDS) + ['weights']}"
            )
    return dataclasses.replace(ISEGenConfig(), **kwargs)


def _normalize_constraints(payload: dict) -> dict:
    raw = payload.get("constraints", {})
    if not isinstance(raw, dict):
        raise ServiceError("'constraints' must be an object")
    unknown = set(raw) - {"max_inputs", "max_outputs", "max_ises"}
    if unknown:
        raise ServiceError(
            f"unknown constraint(s) {sorted(unknown)}; "
            "available: ['max_inputs', 'max_outputs', 'max_ises']"
        )
    defaults = ISEConstraints()
    out = {}
    for name, default in (
        ("max_inputs", defaults.max_inputs),
        ("max_outputs", defaults.max_outputs),
        ("max_ises", defaults.max_ises),
    ):
        value = raw.get(name, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ServiceError(f"constraints.{name} must be a positive integer")
        out[name] = value
    return out


def _normalize_algorithm(payload: dict) -> str:
    algorithm = _expect(payload, "algorithm", str, required=False, default="ISEGEN")
    if algorithm not in ALGORITHMS:
        raise ServiceError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    return algorithm


def _normalize_algo_config(payload: dict, algorithm: str) -> dict:
    """Validate the per-algorithm ``config`` object, return it normalized."""
    config = payload.get("config") or {}
    if not isinstance(config, dict):
        raise ServiceError("'config' must be an object")
    if algorithm == "ISEGEN":
        isegen_config_from(config)  # validation only; rebuilt in the cell
        return config
    if algorithm == "Genetic":
        unknown = set(config) - {"quick"}
        if unknown:
            raise ServiceError(
                f"unknown Genetic config key(s) {sorted(unknown)}; "
                "available: ['quick']"
            )
        if "quick" in config and not isinstance(config["quick"], bool):
            raise ServiceError("config.quick must be a boolean")
        return config
    if config:
        raise ServiceError(f"algorithm {algorithm!r} takes no 'config' overrides")
    return config


def _normalize_node_limit(payload: dict, algorithm: str) -> int | None:
    node_limit = payload.get("node_limit")
    if node_limit is None:
        return None
    if algorithm not in NODE_LIMITED_ALGORITHMS:
        raise ServiceError(
            f"'node_limit' only applies to {sorted(NODE_LIMITED_ALGORITHMS)}"
        )
    if isinstance(node_limit, bool) or not isinstance(node_limit, int) or node_limit < 1:
        raise ServiceError("'node_limit' must be a positive integer")
    return node_limit


def _normalize_ir(payload: dict) -> dict:
    """Validate inline IR and normalize it to a multi-block program dict."""
    ir = payload["ir"]
    if isinstance(ir, dict) and "blocks" in ir:
        name = ir.get("name", "inline")
        blocks = ir["blocks"]
        if not isinstance(name, str) or not name:
            raise ServiceError("ir.name must be a non-empty string")
        if not isinstance(blocks, list) or not blocks:
            raise ServiceError("ir.blocks must be a non-empty array")
    elif isinstance(ir, dict):
        # A bare DFG payload: wrap it as a one-block program.
        name = payload.get("name", "inline")
        blocks = [{"dfg": ir, "frequency": 1.0}]
    else:
        raise ServiceError("'ir' must be a DFG object or {name, blocks} program")
    normalized_blocks = []
    total_nodes = 0
    for index, block in enumerate(blocks):
        if not isinstance(block, dict) or "dfg" not in block:
            raise ServiceError(f"ir.blocks[{index}] must be an object with a 'dfg'")
        frequency = block.get("frequency", 1.0)
        if not _is_finite_number(frequency):
            raise ServiceError(
                f"ir.blocks[{index}].frequency must be a finite number"
            )
        if frequency <= 0:
            raise ServiceError(f"ir.blocks[{index}].frequency must be positive")
        try:
            dfg = dfg_from_dict(block["dfg"])
        except DFGError as error:
            raise ServiceError(f"ir.blocks[{index}]: {error}") from error
        total_nodes += len(dfg)
        if total_nodes > MAX_IR_NODES:
            raise ServiceError(
                f"inline IR too large: > {MAX_IR_NODES} nodes total", status=413
            )
        normalized_blocks.append(
            {"dfg": block["dfg"], "frequency": float(frequency)}
        )
    normalized = {"name": str(name), "blocks": normalized_blocks}
    try:
        # Full program assembly (duplicate block names etc.) must fail at
        # submission time as a 400, never later inside a worker.
        _program_from_ir(normalized)
    except ReproError as error:
        raise ServiceError(f"invalid inline IR: {error}") from error
    return normalized


@dataclass(frozen=True)
class JobSpec:
    """A validated, canonicalized job: ``kind`` + JSON-safe ``spec``."""

    kind: str
    spec: dict

    def describe(self) -> str:
        if self.kind == "sweep":
            return f"sweep:{self.spec['sweep']}"
        if self.kind == "workload":
            return f"workload:{self.spec['workload']}:{self.spec['algorithm']}"
        return f"ir:{self.spec['ir']['name']}:{self.spec['algorithm']}"


def parse_job_request(payload) -> JobSpec:
    """Validate a ``POST /v1/jobs`` body into a canonical :class:`JobSpec`."""
    if not isinstance(payload, dict):
        raise ServiceError("job spec must be a JSON object")
    kinds = [kind for kind in JOB_KINDS if kind in payload]
    if len(kinds) != 1:
        raise ServiceError(
            "job spec must contain exactly one of 'sweep', 'workload', 'ir'"
        )
    kind = kinds[0]
    if kind == "sweep":
        name = _expect(payload, "sweep", str)
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ServiceError("'options' must be an object")
        try:
            spec = sweep_spec(name)
            options = spec.normalize_options(options)
        except SweepError as error:
            raise ServiceError(str(error)) from error
        return JobSpec(kind="sweep", spec={"sweep": name, "options": options})

    algorithm = _normalize_algorithm(payload)
    normalized = {
        "algorithm": algorithm,
        "constraints": _normalize_constraints(payload),
        "config": _normalize_algo_config(payload, algorithm),
    }
    node_limit = _normalize_node_limit(payload, algorithm)
    if node_limit is not None:
        normalized["node_limit"] = node_limit
    if kind == "workload":
        workload = _expect(payload, "workload", str)
        if workload not in available_workloads():
            raise ServiceError(
                f"unknown workload {workload!r}; "
                f"available: {list(available_workloads())}"
            )
        normalized["workload"] = workload
        return JobSpec(kind="workload", spec=normalized)
    normalized["ir"] = _normalize_ir(payload)
    return JobSpec(kind="ir", spec=normalized)


# ----------------------------------------------------------------------
# Cell functions — module-level so ParallelJob cells stay picklable and
# content-addressable (the qualified name is part of the cell key).
# ----------------------------------------------------------------------
def _program_from_ir(ir: dict) -> Program:
    blocks = ir["blocks"]
    if len(blocks) == 1:
        return single_block_program(
            dfg_from_dict(blocks[0]["dfg"]),
            frequency=blocks[0]["frequency"],
            name=ir["name"],
        )
    program = Program(ir["name"])
    for block in blocks:
        program.add_block(
            BlockProfile(dfg=dfg_from_dict(block["dfg"]), frequency=block["frequency"])
        )
    return program


def _generate(program: Program, algorithm: str, constraints: dict,
              config: dict, node_limit: int | None) -> dict:
    kwargs = {}
    if algorithm == "ISEGEN":
        kwargs["config"] = isegen_config_from(config)
    elif algorithm == "Genetic":
        kwargs["config"] = (
            GeneticConfig.quick() if config.get("quick", True) else GeneticConfig()
        )
    if node_limit is not None:
        kwargs["node_limit"] = node_limit
    iseconstraints = ISEConstraints(**constraints)
    result = run_algorithm(algorithm, program, iseconstraints, **kwargs)
    reuse = reuse_aware_speedup(program, result)
    return {
        "program": program.name,
        "algorithm": algorithm,
        "io": f"({constraints['max_inputs']},{constraints['max_outputs']})",
        "nise": constraints["max_ises"],
        "num_ises": result.num_ises,
        "speedup": round(reuse.reuse_speedup, 4),
        "single_use_speedup": round(reuse.single_use_speedup, 4),
        "largest_cut": max((len(ise.cut) for ise in result.ises), default=0),
        "ises": [
            {
                "name": ise.name,
                "block": ise.block_name,
                "size": len(ise.cut),
                "inputs": ise.num_inputs,
                "outputs": ise.num_outputs,
                "merit": round(ise.merit, 6),
                "instances": ise.instances,
                "nodes": list(ise.cut.node_names),
            }
            for ise in result.ises
        ],
        "runtime_s": round(result.runtime_seconds, 4),
    }


def run_workload_cell(
    workload: str,
    algorithm: str,
    constraints: dict,
    config: dict,
    node_limit: int | None = None,
) -> dict:
    """One registered-workload ISE-generation cell (one result row)."""
    return _generate(
        load_workload(workload), algorithm, constraints, config, node_limit
    )


def run_ir_cell(
    ir: dict,
    algorithm: str,
    constraints: dict,
    config: dict,
    node_limit: int | None = None,
) -> dict:
    """One inline-IR ISE-generation cell (one result row).

    The IR dict itself is part of the cell's content address, so two
    clients shipping byte-identical programs share one cached result.
    """
    return _generate(
        _program_from_ir(ir), algorithm, constraints, config, node_limit
    )


def build_cells(spec: JobSpec) -> list[ParallelJob]:
    """Materialize the sweep cells of a validated job spec.

    Sweep-kind jobs enumerate through the registry harness (the same
    enumeration ``sweep submit`` performs); cell-kind jobs are a single
    :func:`run_workload_cell` / :func:`run_ir_cell` job.
    """
    if spec.kind == "sweep":
        # Deferred import: orchestrator imports the registry too, and the
        # _SubmitExecutor trick is the submit-path enumeration idiom.
        from ..sweep.orchestrator import SweepSubmitted, _SubmitExecutor

        harness = sweep_spec(spec.spec["sweep"])
        executor = _SubmitExecutor(store=None)
        try:
            harness.build(executor, **spec.spec["options"])
        except SweepSubmitted as submitted:
            return submitted.cells
        raise ServiceError(
            f"sweep {spec.spec['sweep']!r} never routed cells through "
            "the executor",
            status=500,
        )
    payload = spec.spec
    func = run_workload_cell if spec.kind == "workload" else run_ir_cell
    source = payload["workload"] if spec.kind == "workload" else payload["ir"]
    return [
        job(
            func,
            source,
            payload["algorithm"],
            payload["constraints"],
            payload["config"],
            node_limit=payload.get("node_limit"),
        )
    ]


def validate_job(payload) -> JobSpec:
    """Parse + a dry cell build, so enumeration errors surface as 400s."""
    spec = parse_job_request(payload)
    try:
        cells = build_cells(spec)
    except ISEGenError as error:
        raise ServiceError(str(error)) from error
    if not cells:
        raise ServiceError("job spec produced no cells")
    return spec


__all__ = [
    "JobSpec",
    "ServiceError",
    "build_cells",
    "isegen_config_from",
    "parse_job_request",
    "run_ir_cell",
    "run_workload_cell",
    "validate_job",
]
