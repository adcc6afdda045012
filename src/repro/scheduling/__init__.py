"""Two-phase batch scheduling (the VO scheme of the paper's reference [6])."""

from repro.scheduling.combination import CombinationChoice, greedy_combination
from repro.scheduling.metascheduler import BatchScheduler, CycleReport

__all__ = [
    "BatchScheduler",
    "CombinationChoice",
    "CycleReport",
    "greedy_combination",
]
