"""The paper's contribution: the AEP scan, extractors and algorithms."""

from repro.core.aep import ScanResult, aep_scan, request_of
from repro.core.batchscan import batch_aep_scan, scan_class_key
from repro.core.candidates import LegFactory
from repro.core.composite import (
    constrained_best,
    dominates,
    lexicographic_choice,
    pareto_front,
    weighted_choice,
)
from repro.core.algorithms import (
    AMP,
    BalancedEdgeExtractor,
    CSA,
    Exhaustive,
    FirstFit,
    MinCost,
    MinEnergy,
    MinFinish,
    MinIdle,
    MinProcTime,
    MinRunTime,
    RigidBackfill,
    SlotSelectionAlgorithm,
)
from repro.core.criteria import Criterion, best_window
from repro.core.repair import find_fixed_start_replacements
from repro.core.search import find_window
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    ExactAdditiveExtractor,
    Extraction,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
    WindowExtractor,
    cheapest_subset,
)

__all__ = [
    "aep_scan",
    "AMP",
    "batch_aep_scan",
    "scan_class_key",
    "best_window",
    "BalancedEdgeExtractor",
    "cheapest_subset",
    "constrained_best",
    "dominates",
    "lexicographic_choice",
    "pareto_front",
    "weighted_choice",
    "Criterion",
    "CSA",
    "EarliestFinishExtractor",
    "EarliestStartExtractor",
    "ExactAdditiveExtractor",
    "Exhaustive",
    "Extraction",
    "find_fixed_start_replacements",
    "find_window",
    "FirstFit",
    "GreedyAdditiveExtractor",
    "LegFactory",
    "MinCost",
    "MinEnergy",
    "MinFinish",
    "MinIdle",
    "MinProcTime",
    "MinRunTime",
    "MinRuntimeExactExtractor",
    "MinRuntimeSubstitutionExtractor",
    "MinTotalCostExtractor",
    "RandomWindowExtractor",
    "request_of",
    "RigidBackfill",
    "ScanResult",
    "SlotSelectionAlgorithm",
    "WindowExtractor",
]
