"""MinProcTime — the minimum total node (processor) time window.

The paper evaluates a deliberately *simplified* implementation: at each
scan step "a random window is selected" and only the best-by-criterion
random window survives.  It trades optimality for speed — Section 3.2
reports it within 2% of the CSA result at a fraction of the cost — so we
keep that randomized variant as the default and additionally provide an
optimizing variant (``simplified=False``) built on the greedy-substitution
additive extractor, for the ablation benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import (
    ExactAdditiveExtractor,
    GreedyAdditiveExtractor,
    RandomWindowExtractor,
    runtime_key,
)
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class MinProcTime(SlotSelectionAlgorithm):
    """Minimum total processor-time window selection.

    Parameters
    ----------
    simplified:
        ``True`` (default) reproduces the paper's randomized selection;
        ``False`` optimizes each step with greedy substitutions.
    exact:
        With ``simplified=False``, use the branch-and-bound extractor
        instead of the greedy one.  This is the per-step 0-1 program of
        Section 2.1 solved exactly — the IP-style comparator of the
        paper's related work, optimal but markedly slower (see the
        MinProcTime ablation benchmark).
    rng:
        Random generator for the simplified mode (reproducibility).
    """

    def __init__(
        self,
        simplified: bool = True,
        rng: Optional[np.random.Generator] = None,
        exact: bool = False,
    ) -> None:
        self.simplified = simplified
        self.exact = exact
        if simplified:
            self.name = "MinProcTime"
            self._extractor = RandomWindowExtractor(rng=rng)
            # The randomized extractor consumes a shared random stream:
            # grouping equal requests would draw fewer times than the
            # sequential per-job loop, changing later selections.  (The
            # scan itself runs on the columnar kernel, which replays the
            # stream draw for draw — that keeps the stream, it does not
            # make two scans of one request interchangeable.)
            self.deterministic = False
        elif exact:
            self.name = "MinProcTime-exact"
            self._extractor = ExactAdditiveExtractor(key=runtime_key)
        else:
            self.name = "MinProcTime-opt"
            self._extractor = GreedyAdditiveExtractor(key=runtime_key)

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None

    def _batch_scan_spec(self):
        """Optimizing variants are plain AEP scans; the randomized one
        is excluded by ``deterministic = False`` before this is consulted."""
        if self.simplified:
            return None
        return (self._extractor, False)
