"""Content addressing of experiment cells.

Every cell of a sweep — one :class:`~repro.parallel.ParallelJob` — is keyed
by a stable SHA-256 hash of

* the qualified name of the cell function,
* its positional and keyword arguments (canonicalized via
  :func:`repro.core.config.canonical_state`, so configuration dataclasses
  hash by field values, not identity), and
* a *code-version salt*.

The salt ties stored results to the behaviour of the code that produced
them: bump :data:`CODE_VERSION` whenever an algorithm change makes old rows
incomparable, and every previously stored cell becomes a miss instead of
serving stale data.  ``ISEGEN_SWEEP_SALT`` adds a user-controlled component
on top (useful to segregate experimental branches sharing one store).

Results are persisted as JSON.  Plain JSON would flatten tuples into lists,
which breaks harnesses that unpack cell results positionally and would make
replayed tables differ from freshly computed ones — so :func:`encode_result`
tags tuples (and the rare non-string mapping key) and :func:`decode_result`
restores them exactly.
"""

from __future__ import annotations

import os

from ..core.config import canonical_state, fingerprint
from ..errors import ReproError
from ..parallel import ParallelJob

#: Bump when an algorithm/result-schema change invalidates stored cells —
#: or when a config dataclass loses fields: the cells that carried it get
#: new keys, and only a new salt lets ``sweep gc`` reclaim the orphans.
CODE_VERSION = "sweep-v2"

_TUPLE_TAG = "__tuple__"
_MAPPING_TAG = "__items__"


class SweepError(ReproError):
    """Errors of the distributed sweep subsystem."""


def sweep_salt() -> str:
    """The effective code-version salt (env override appended)."""
    extra = os.environ.get("ISEGEN_SWEEP_SALT", "")
    return f"{CODE_VERSION}:{extra}" if extra else CODE_VERSION


def qualified_name(func) -> str:
    return f"{func.__module__}.{func.__qualname__}"


def cell_key(cell: ParallelJob, salt: str | None = None) -> str:
    """The content address of one experiment cell."""
    try:
        return fingerprint(
            qualified_name(cell.func),
            list(cell.args),
            dict(cell.kwargs),
            salt=salt if salt is not None else sweep_salt(),
        )
    except ReproError as error:
        raise SweepError(
            f"cell {qualified_name(cell.func)} is not content-addressable: {error}"
        ) from error


# ----------------------------------------------------------------------
# JSON-safe result encoding (tuple-exact round trip)
# ----------------------------------------------------------------------
def encode_result(value):
    """Encode a cell result into JSON-serializable data, preserving tuples."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_result(item) for item in value]}
    if isinstance(value, list):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and not (
            _TUPLE_TAG in value or _MAPPING_TAG in value
        ):
            return {key: encode_result(item) for key, item in value.items()}
        return {
            _MAPPING_TAG: [
                [encode_result(key), encode_result(item)]
                for key, item in value.items()
            ]
        }
    raise SweepError(
        f"cell results must be JSON-representable rows; got {type(value).__name__!r}"
    )


def decode_result(value):
    """Inverse of :func:`encode_result`."""
    if isinstance(value, list):
        return [decode_result(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_result(item) for item in value[_TUPLE_TAG])
        if set(value) == {_MAPPING_TAG}:
            return {
                decode_result(key): decode_result(item)
                for key, item in value[_MAPPING_TAG]
            }
        return {key: decode_result(item) for key, item in value.items()}
    return value


__all__ = [
    "CODE_VERSION",
    "SweepError",
    "sweep_salt",
    "qualified_name",
    "cell_key",
    "encode_result",
    "decode_result",
    "canonical_state",
]
