"""ISEGEN core: the Kernighan-Lin based ISE identification engine."""

from .config import GainWeights, ISEGenConfig, canonical_state, fingerprint
from .cut_evaluator import BitsetCutEvaluator, CutEvaluator
from .iostate import IOState
from .state import PartitionState
from .gain import GainBreakdown, GainEvaluator
from .gain_cache import CachedGainEvaluator, ShadowCutCache, VectorizedGainEvaluator
from .kernighan_lin import BipartitionResult, PassTrace, bipartition
from .isegen import ISEGen, KernighanLinCutFinder, generate_block_cuts
from .application import ApplicationISEDriver, BlockCutFinder
from .result import GeneratedISE, ISEGenerationResult, name_ises

__all__ = [
    "GainWeights",
    "ISEGenConfig",
    "canonical_state",
    "fingerprint",
    "CutEvaluator",
    "BitsetCutEvaluator",
    "IOState",
    "PartitionState",
    "GainBreakdown",
    "GainEvaluator",
    "CachedGainEvaluator",
    "VectorizedGainEvaluator",
    "ShadowCutCache",
    "BipartitionResult",
    "PassTrace",
    "bipartition",
    "ISEGen",
    "KernighanLinCutFinder",
    "generate_block_cuts",
    "ApplicationISEDriver",
    "BlockCutFinder",
    "GeneratedISE",
    "ISEGenerationResult",
    "name_ises",
]
