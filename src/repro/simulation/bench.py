"""Bit-exact fingerprint of a comparison run's aggregates.

:func:`result_fingerprint` hashes every accumulator of a
:class:`~repro.simulation.runner.ComparisonResult` through ``float.hex``,
so two runs agree on it only if their aggregate statistics are
bit-identical.  The runner's worker-count invariance test and the
``paper_study`` workload of the ``perf/`` harness compare runs by it.
"""

from __future__ import annotations

import hashlib
import json

from repro.simulation.metrics import RunningStat, WindowStats
from repro.simulation.runner import ComparisonResult


def _stat_fields(stat: RunningStat) -> list:
    return [
        stat.count,
        stat.mean.hex(),
        stat._m2.hex(),
        stat.minimum.hex(),
        stat.maximum.hex(),
    ]


def _window_stats_fields(stats: WindowStats) -> dict:
    return {
        "attempts": stats.attempts,
        "found": stats.found,
        "metrics": {
            criterion.value: _stat_fields(stat)
            for criterion, stat in stats.metrics.items()
        },
    }


def result_fingerprint(result: ComparisonResult) -> str:
    """SHA-256 over every accumulator field, bit-exact via ``float.hex``."""
    payload = {
        "cycles_run": result.cycles_run,
        "slot_count": _stat_fields(result.slot_count),
        "algorithms": {
            name: _window_stats_fields(stats)
            for name, stats in sorted(result.algorithms.items())
        },
        "csa_alternatives": _stat_fields(result.csa.alternatives),
        "csa_selections": {
            criterion.value: _window_stats_fields(stats)
            for criterion, stats in result.csa.selections.items()
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("ascii")
    ).hexdigest()
    return digest
