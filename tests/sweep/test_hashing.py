"""Content addressing: canonical state, fingerprints, cell keys."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.baselines import GeneticConfig
from repro.core import GainWeights, ISEGenConfig, canonical_state, fingerprint
from repro.errors import ISEGenError
from repro.experiments.figure6 import _figure6_cell
from repro.parallel import job
from repro.sweep import SweepError, cell_key
from repro.sweep.hashing import decode_result, encode_result


@dataclass(frozen=True)
class _OtherConfig:
    max_passes: int = 5


def test_fingerprint_is_deterministic():
    config = ISEGenConfig()
    assert fingerprint(config) == fingerprint(ISEGenConfig())
    assert fingerprint(config, salt="a") != fingerprint(config, salt="b")


def test_default_isegen_config_fingerprint_is_pinned():
    """Every sweep store key embeds this digest: a change to the config's
    fields or to their canonical encoding orphans every stored record."""
    assert fingerprint(ISEGenConfig()) == (
        "8e48b552a492a5a1633a44349f2dec2c1e5218c7bd237565f0f782b46d2e4706"
    )


def test_fingerprint_sees_field_changes():
    base = ISEGenConfig()
    assert fingerprint(base) != fingerprint(ISEGenConfig(max_passes=3))
    assert fingerprint(base.weights) != fingerprint(GainWeights(alpha=5.0))


def test_fingerprint_distinguishes_dataclass_types():
    # Same field names/values, different class -> different hash.
    assert fingerprint(_OtherConfig(max_passes=5)) != fingerprint(
        ISEGenConfig(max_passes=5)
    )


def test_canonical_state_orders_mappings_and_sets():
    assert canonical_state({"b": 1, "a": 2}) == canonical_state({"a": 2, "b": 1})
    assert canonical_state({3, 1, 2}) == canonical_state({2, 3, 1})


def test_canonical_state_mapping_keys_are_type_exact():
    # 1 and "1" are distinct dict keys and must not collide in the hash.
    assert fingerprint({1: "a"}) != fingerprint({"1": "a"})
    mixed = {1: "a", "1": "b"}
    assert fingerprint(mixed) == fingerprint(dict(reversed(list(mixed.items()))))
    assert fingerprint({(1, 2): "t"}) != fingerprint({"(1, 2)": "t"})


def test_canonical_state_rejects_unhashable_types():
    with pytest.raises(ISEGenError):
        canonical_state(object())


def test_canonical_state_floats_exact():
    assert fingerprint(0.1) != fingerprint(0.1 + 1e-12)
    assert fingerprint(0.1) == fingerprint(0.1)


def test_cell_key_stable_and_salted():
    cell = job(
        _figure6_cell, "aes", 1, 2, 1, "ISEGEN", ISEGenConfig(), GeneticConfig.quick()
    )
    again = job(
        _figure6_cell, "aes", 1, 2, 1, "ISEGEN", ISEGenConfig(), GeneticConfig.quick()
    )
    assert cell_key(cell) == cell_key(again)
    assert cell_key(cell, salt="other") != cell_key(cell)
    different = job(
        _figure6_cell, "aes", 1, 3, 1, "ISEGEN", ISEGenConfig(), GeneticConfig.quick()
    )
    assert cell_key(different) != cell_key(cell)


def test_cell_key_rejects_unpicklable_arguments():
    with pytest.raises(SweepError):
        cell_key(job(_figure6_cell, object()))


def test_cell_key_stable_across_processes():
    """The same cell hashes identically in a fresh interpreter (no reliance
    on PYTHONHASHSEED or in-process state) — the property multi-machine
    sharding rests on."""
    script = (
        "from repro.experiments.figure6 import _figure6_cell\n"
        "from repro.core import ISEGenConfig\n"
        "from repro.baselines import GeneticConfig\n"
        "from repro.parallel import job\n"
        "from repro.sweep import cell_key\n"
        "cell = job(_figure6_cell, 'aes', 1, 2, 1, 'ISEGEN', ISEGenConfig(),"
        " GeneticConfig.quick())\n"
        "print(cell_key(cell, salt='fixed'))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
    ).stdout.strip()
    cell = job(
        _figure6_cell, "aes", 1, 2, 1, "ISEGEN", ISEGenConfig(), GeneticConfig.quick()
    )
    assert output == cell_key(cell, salt="fixed")


# ----------------------------------------------------------------------
# Result encoding
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [
        None,
        42,
        1.5,
        "row",
        [1, 2, 3],
        ("autcor00", "default", 2.5, 4),
        {"benchmark": "aes", "rows": [{"io": "(2,1)", "speedup": 1.2}]},
        ({"a": 1}, {"b": (2, 3)}),
        [{"nested": ({"deep": (1,)}, [2])}],
        {(1, 2): "tuple-key"},
        {"__tuple__": "literal-string-key"},
    ],
)
def test_encode_decode_round_trip_preserves_types(value):
    encoded = encode_result(value)
    json_safe = json.loads(json.dumps(encoded))
    assert decode_result(json_safe) == value
    assert decode_result(json_safe).__class__ is value.__class__


def test_encode_rejects_non_row_results():
    with pytest.raises(SweepError):
        encode_result(object())
