"""Unit tests for job-spec parsing, validation, and cell identity."""

from __future__ import annotations

import math

import pytest

from repro.core import ISEGenConfig
from repro.dfg.serialization import dfg_from_dict, dfg_to_dict
from repro.errors import DFGError
from repro.service import (
    ServiceError,
    build_cells,
    parse_job_request,
    validate_job,
)
from repro.service.jobspec import isegen_config_from
from repro.sweep.hashing import cell_key
from repro.workloads import figure1_dfg


def keys_of(payload, salt="test-salt"):
    return [cell_key(cell, salt) for cell in build_cells(validate_job(payload))]


# ----------------------------------------------------------------------
# Config overrides
# ----------------------------------------------------------------------
def test_empty_overrides_is_default_config():
    assert isegen_config_from({}) == ISEGenConfig()
    assert isegen_config_from(None) == ISEGenConfig()


def test_scalar_and_weight_overrides():
    config = isegen_config_from(
        {"max_passes": 3, "min_merit": 0.5, "weights": {"alpha": 2.0}}
    )
    assert config.max_passes == 3
    assert config.min_merit == 0.5
    assert config.weights.alpha == 2.0
    # untouched fields keep their defaults
    assert config.weights.beta == ISEGenConfig().weights.beta


@pytest.mark.parametrize(
    "overrides",
    [
        {"bogus": 1},
        {"max_passes": "three"},
        {"max_passes": True},
        {"weights": {"zeta": 1.0}},
        {"weights": {"alpha": "heavy"}},
        {"reset_working_cut": 1},
        "not-an-object",
    ],
)
def test_bad_overrides_are_service_errors(overrides):
    with pytest.raises(ServiceError):
        isegen_config_from(overrides)


@pytest.mark.parametrize(
    "key", ["use_gain_cache", "exact_candidate_merit", "stall_limit"]
)
def test_removed_overrides_are_unknown(key):
    value = 0 if key == "stall_limit" else False
    with pytest.raises(ServiceError, match="unknown ISEGenConfig override") as excinfo:
        parse_job_request({"workload": "conven00", "config": {key: value}})
    assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Payload parsing
# ----------------------------------------------------------------------
def test_exactly_one_kind_required():
    with pytest.raises(ServiceError, match="exactly one"):
        parse_job_request({})
    with pytest.raises(ServiceError, match="exactly one"):
        parse_job_request({"workload": "aes", "sweep": "figure6"})
    with pytest.raises(ServiceError):
        parse_job_request("not an object")


def test_workload_spec_normalizes_defaults():
    spec = parse_job_request({"workload": "conven00"})
    assert spec.kind == "workload"
    assert spec.spec["algorithm"] == "ISEGEN"
    assert spec.spec["constraints"] == {
        "max_inputs": 4,
        "max_outputs": 2,
        "max_ises": 4,
    }


@pytest.mark.parametrize(
    "payload,match",
    [
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "aes", "algorithm": "Magic"}, "unknown algorithm"),
        ({"workload": "aes", "constraints": {"max_inputs": 0}}, "positive"),
        ({"workload": "aes", "constraints": {"widgets": 1}}, "unknown constraint"),
        ({"workload": "aes", "node_limit": 10}, "node_limit"),
        ({"workload": "aes", "config": {"quick": True}}, "unknown ISEGenConfig"),
        (
            {"workload": "aes", "algorithm": "Greedy", "config": {"x": 1}},
            "no 'config'",
        ),
        ({"sweep": "figure6", "options": {"bogus": 1}}, "bogus"),
        ({"sweep": "nope"}, "unknown sweep"),
    ],
)
def test_invalid_payloads(payload, match):
    with pytest.raises(ServiceError, match=match):
        parse_job_request(payload)


def test_node_limit_allowed_for_exhaustive_algorithms():
    spec = parse_job_request(
        {"workload": "conven00", "algorithm": "Exact", "node_limit": 16}
    )
    assert spec.spec["node_limit"] == 16


# ----------------------------------------------------------------------
# Inline IR
# ----------------------------------------------------------------------
def test_bare_dfg_wrapped_as_single_block_program():
    spec = parse_job_request(
        {"ir": dfg_to_dict(figure1_dfg()), "name": "fig1"}
    )
    assert spec.kind == "ir"
    assert spec.spec["ir"]["name"] == "fig1"
    assert len(spec.spec["ir"]["blocks"]) == 1
    assert spec.spec["ir"]["blocks"][0]["frequency"] == 1.0


def test_program_form_with_frequencies():
    dfg = dfg_to_dict(figure1_dfg())
    spec = parse_job_request(
        {
            "ir": {
                "name": "app",
                "blocks": [{"dfg": dfg, "frequency": 12.5}],
            }
        }
    )
    assert spec.spec["ir"]["blocks"][0]["frequency"] == 12.5


@pytest.mark.parametrize(
    "ir",
    [
        {"nodes": "garbage"},
        {"name": "x", "blocks": []},
        {"name": "x", "blocks": [{"frequency": 1.0}]},
        {"name": "x", "blocks": [{"dfg": dfg_to_dict(figure1_dfg()), "frequency": -1}]},
        [1, 2, 3],
    ],
)
def test_malformed_ir_is_400(ir):
    with pytest.raises(ServiceError) as excinfo:
        parse_job_request({"ir": ir})
    assert excinfo.value.status == 400


#: An int JSON can carry but no float can hold.
_HUGE = 10**400
#: Numbers the boundary must refuse: non-finite anywhere, negative where a
#: latency or an execution frequency is meant.
_BAD_NUMBERS = [
    ("sw_latency", math.nan),
    ("sw_latency", math.inf),
    ("sw_latency", -1),
    ("sw_latency", _HUGE),
    ("hw_delay", math.nan),
    ("hw_delay", -math.inf),
    ("hw_delay", -0.5),
    ("frequency", math.nan),
    ("frequency", math.inf),
    ("frequency", _HUGE),
    ("weights.alpha", math.nan),
    ("weights.beta", math.inf),
    ("min_merit", math.nan),
    ("min_merit", -math.inf),
]


@pytest.mark.parametrize(
    "field,value",
    _BAD_NUMBERS,
    ids=[f"{f}={'huge' if v == _HUGE else v}" for f, v in _BAD_NUMBERS],
)
def test_bad_numbers_rejected_at_the_input_boundary(field, value):
    dfg = dfg_to_dict(figure1_dfg())
    block = {"dfg": dfg, "frequency": 1.0}
    config: dict = {}
    if field in ("sw_latency", "hw_delay"):
        dfg["nodes"][0][field] = value
        with pytest.raises(DFGError, match=field):
            dfg_from_dict(dfg)
    elif field == "frequency":
        block["frequency"] = value
    elif field.startswith("weights."):
        config["weights"] = {field.split(".")[1]: value}
    else:
        config[field] = value
    payload = {"ir": {"name": "app", "blocks": [block]}, "config": config}
    with pytest.raises(ServiceError) as excinfo:
        parse_job_request(payload)
    assert excinfo.value.status == 400


def test_duplicate_block_names_rejected_at_parse_time():
    dfg = dfg_to_dict(figure1_dfg())
    with pytest.raises(ServiceError, match="invalid inline IR"):
        parse_job_request(
            {"ir": {"name": "app", "blocks": [{"dfg": dfg}, {"dfg": dfg}]}}
        )


def test_oversized_ir_is_413(monkeypatch):
    monkeypatch.setattr("repro.service.jobspec.MAX_IR_NODES", 3)
    with pytest.raises(ServiceError) as excinfo:
        parse_job_request({"ir": dfg_to_dict(figure1_dfg())})
    assert excinfo.value.status == 413


# ----------------------------------------------------------------------
# Cell identity: the content-addressed cache contract
# ----------------------------------------------------------------------
def test_identical_specs_share_cell_keys():
    payload = {
        "workload": "conven00",
        "constraints": {"max_inputs": 2, "max_outputs": 1, "max_ises": 1},
    }
    assert keys_of(payload) == keys_of(dict(payload))


def test_different_config_changes_cell_keys():
    base = {"workload": "conven00"}
    tweaked = {"workload": "conven00", "config": {"max_passes": 1}}
    assert keys_of(base) != keys_of(tweaked)


def test_ir_cells_keyed_by_content():
    payload = {"ir": dfg_to_dict(figure1_dfg()), "name": "fig1"}
    assert keys_of(payload) == keys_of(dict(payload))
    renamed = {"ir": dfg_to_dict(figure1_dfg()), "name": "fig2"}
    assert keys_of(payload) != keys_of(renamed)


def test_sweep_spec_builds_full_grid():
    spec = validate_job(
        {"sweep": "figure6", "options": {"io_sweep": [[2, 1]], "nise_values": [1]}}
    )
    cells = build_cells(spec)
    assert len(cells) == 2  # ISEGEN + Genetic at one sweep point
