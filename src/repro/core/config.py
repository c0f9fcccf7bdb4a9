"""Configuration of the ISEGEN engine.

The gain function of Section 4.2 is a linear weighted sum of five components
whose weights "have been determined experimentally" in the paper.  The
weights (and every other knob of the algorithm) live here so that

* the defaults reproduce the paper's behaviour on the benchmark suite, and
* the ablation benchmarks can switch individual components off and measure
  their contribution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace

from ..errors import ISEGenError


# ----------------------------------------------------------------------
# Stable fingerprints of configuration values
# ----------------------------------------------------------------------
# The distributed sweep subsystem (:mod:`repro.sweep`) keys every experiment
# cell by a content hash of its arguments — mostly the frozen configuration
# dataclasses defined in this package (ISEGenConfig, GainWeights,
# ISEConstraints, GeneticConfig, ...).  The helpers below turn any such value
# into a canonical JSON document and hash it, with two stability guarantees:
#
# * the fingerprint is identical across processes and machines (no reliance
#   on PYTHONHASHSEED, object identity, or dict creation order);
# * two configs of *different* types with identical field values hash
#   differently (the qualified class name is part of the document).


def canonical_state(value):
    """Recursively convert *value* into a canonical JSON-serializable form.

    Supported inputs: ``None``, ``bool``, ``int``, ``float``, ``str``,
    dataclass instances, mappings with string-convertible keys, sequences,
    and (frozen)sets.  Sets are sorted by their canonical encoding; floats
    are encoded via ``repr`` so that e.g. ``0.1`` survives the round trip
    exactly.  Unsupported types raise :class:`~repro.errors.ISEGenError`
    rather than silently hashing an unstable ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical_state(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        # Keys are canonicalized (not str()-coerced) so 1 and "1" stay
        # distinct, and pairs sort by the key's JSON encoding alone — dict
        # keys are unique, so no tie ever falls through to the values.
        items = [
            [
                json.dumps(canonical_state(key), sort_keys=True),
                canonical_state(item),
            ]
            for key, item in value.items()
        ]
        return {"__mapping__": sorted(items, key=lambda pair: pair[0])}
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                (json.dumps(canonical_state(item), sort_keys=True) for item in value)
            )
        }
    if isinstance(value, (list, tuple)):
        return [canonical_state(item) for item in value]
    raise ISEGenError(
        f"cannot build a stable fingerprint for {type(value).__name__!r} values"
    )


def fingerprint(*values, salt: str = "") -> str:
    """A stable SHA-256 hex digest of *values* (see :func:`canonical_state`)."""
    document = json.dumps(
        {"salt": salt, "values": [canonical_state(value) for value in values]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GainWeights:
    """Weights of the five gain-function components.

    Attributes
    ----------
    alpha:
        Weight of the merit (speedup-estimate) component.
    beta:
        Weight of the input/output *violation penalty*.  The paper applies a
        "heavy penalty with the help of a large factor"; the component itself
        is the (negative) number of excess ports, so ``beta`` must be large
        relative to typical node merits.
    gamma:
        Weight of the convexity-affinity component (neighbours already in the
        cut attract a node into the cut; nodes inside the cut resist leaving).
    delta:
        Weight of the "large cut" directional-growth component (nodes close
        to a barrier — external inputs/outputs or memory operations — are
        favoured so the cut grows towards the barriers and covers reusable
        regions).
    epsilon:
        Weight of the independent-cuts component (nodes of the current cut
        may move back to software to let other, potentially large, connected
        subgraphs grow — this is what lets one ISE contain several
        disconnected subgraphs).
    """

    alpha: float = 4.0
    beta: float = 30.0
    gamma: float = 1.0
    delta: float = 1.0
    epsilon: float = 0.25

    def disabled(self, *components: str) -> "GainWeights":
        """Return a copy with the given components zeroed (for ablations).

        Component names are the attribute names (``"delta"``, ...).
        """
        valid = {"alpha", "beta", "gamma", "delta", "epsilon"}
        unknown = set(components) - valid
        if unknown:
            raise ISEGenError(f"unknown gain components: {sorted(unknown)}")
        return replace(self, **{name: 0.0 for name in components})


@dataclass(frozen=True)
class ISEGenConfig:
    """Knobs of the modified Kernighan-Lin loop (Figure 2 of the paper)."""

    #: Maximum number of improvement passes of the outer loop.  The paper
    #: found experimentally that 5 passes are enough.
    max_passes: int = 5
    #: Gain-function weights.
    weights: GainWeights = field(default_factory=GainWeights)
    #: A legal cut must save at least this many cycles per execution to be
    #: accepted as an ISE.
    min_merit: int = 1
    #: How the working cut ``C`` evolves across improvement passes.  The
    #: paper's pseudocode never resets ``C`` inside the outer loop (it keeps
    #: toggling the same configuration, so consecutive passes sweep the
    #: partition back and forth), which is ``False`` — the default.  With
    #: ``True`` every pass restarts ``C`` from the best legal cut found so
    #: far, a more greedy variant kept for the ablation study.
    reset_working_cut: bool = False

    def __post_init__(self) -> None:
        if self.max_passes < 1:
            raise ISEGenError("max_passes must be at least 1")

    def with_weights(self, weights: GainWeights) -> "ISEGenConfig":
        return replace(self, weights=weights)

    def without_components(self, *components: str) -> "ISEGenConfig":
        """Ablation helper: disable individual gain components by name."""
        return replace(self, weights=self.weights.disabled(*components))
