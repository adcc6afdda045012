"""Span tracing from outside the program: wrap public methods, keep spans
in memory, fold them into per-layer self times.

The traced pass patches a declared table of ``(layer, span name,
"module:Class.method")`` rows (or ``"module:function"``) at *class*
level — ``SlotPool.copy()`` returns a plain ``SlotPool`` and the broker
builds its own ``AdmissionController``, so instance wrapping would miss
most calls.
Nothing under ``src/`` knows about this module; a row whose target no
longer exists fails the run loudly, naming it.

The harness is single-threaded by design (``workers=1``, one client, one
event loop), so one span stack serves the whole process.  An ``await``
inside a wrapped coroutine keeps its span open while the loop runs the
server side, which is exactly the causal nesting wanted: the server's
``ShardManager`` spans become children of the client's ``submit`` span
and the client span's *self* time is what the wire and the loop cost.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional, Sequence


class SpanTargetError(RuntimeError):
    """A span table row names something the program no longer has."""


def _job_id(_self: Any, job: Any, *_args: Any, **_kwargs: Any) -> str:
    return job.job_id


def _cycle_index(self: Any, *_args: Any, **_kwargs: Any) -> str:
    return f"cycle-{self.stats.cycles}"


#: ``(layer, span name, target, request id of the call or None)``.  Spans
#: without a request id of their own inherit their parent's, so every
#: span under one ``submit`` carries the job id and every span under one
#: cycle-running call the index of the first cycle it ran.
SPAN_TABLE: tuple[tuple[str, str, str, Optional[Callable[..., str]]], ...] = (
    ("environment", "environment.generate",
     "repro.environment.generator:EnvironmentGenerator.generate", None),
    ("environment", "environment.generate",
     "repro.environment.generator:Environment.slot_pool", None),
    ("environment", "environment.ensure",
     "repro.environment.rolling:RollingHorizonSource.ensure", None),
    ("model", "model.snapshot", "repro.model.slotpool:SlotPool.as_arrays", None),
    ("model", "model.snapshot", "repro.model.slotpool:SlotPool.copy", None),
    ("model", "model.snapshot", "repro.model.slotpool:SlotPool.ordered", None),
    ("model", "model.commit", "repro.model.slotpool:SlotPool.commit_window", None),
    ("model", "model.release", "repro.model.slotpool:SlotPool.release", None),
    ("model", "model.trim", "repro.model.slotpool:SlotPool.trim_before", None),
    ("model", "model.add", "repro.model.slotpool:SlotPool.add", None),
    ("core", "core.search",
     "repro.core.algorithms.base:SlotSelectionAlgorithm.find_alternatives_batch",
     None),
    ("core", "core.search", "repro.core.algorithms.csa:CSA.find_alternatives", None),
    ("core", "core.select.amp", "repro.core.algorithms.amp:AMP.select", None),
    ("core", "core.select.minfinish",
     "repro.core.algorithms.minfinish:MinFinish.select", None),
    ("core", "core.select.mincost",
     "repro.core.algorithms.mincost:MinCost.select", None),
    ("core", "core.select.minruntime",
     "repro.core.algorithms.minruntime:MinRunTime.select", None),
    ("core", "core.select.minproctime",
     "repro.core.algorithms.minproctime:MinProcTime.select", None),
    ("scheduling", "scheduling.plan",
     "repro.scheduling.metascheduler:BatchScheduler.plan", None),
    ("service", "service.submit", "repro.service.broker:BrokerService.submit", _job_id),
    ("service", "service.cycle", "repro.service.broker:BrokerService.pump",
     _cycle_index),
    ("service", "service.cycle", "repro.service.broker:BrokerService.advance_to",
     _cycle_index),
    ("service", "service.cycle", "repro.service.broker:BrokerService.drain",
     _cycle_index),
    ("service", "service.admission",
     "repro.service.admission:AdmissionController.evaluate", None),
    ("resilience", "resilience.busy",
     "repro.service.resilience.manager:ResilienceManager.sample_interval", None),
    ("resilience", "resilience.busy",
     "repro.service.resilience.manager:ResilienceManager.apply", None),
    ("resilience", "resilience.busy",
     "repro.service.resilience.manager:ResilienceManager.release_due_retries", None),
    ("resilience", "resilience.busy",
     "repro.service.resilience.manager:ResilienceManager.on_scheduled", None),
    ("tenancy", "tenancy.busy", "repro.tenancy.manager:TenancyManager.drain_batch", None),
    ("tenancy", "tenancy.busy", "repro.tenancy.manager:TenancyManager.charge_commit", None),
    ("tenancy", "tenancy.busy", "repro.tenancy.manager:TenancyManager.on_retired", None),
    ("tenancy", "tenancy.busy", "repro.tenancy.manager:TenancyManager.observe_cycle", None),
    ("tenancy", "tenancy.busy",
     "repro.tenancy.manager:TenancyManager.admission_balance", None),
    ("federation", "federation.route",
     "repro.federation.sharding:ShardManager.submit", _job_id),
    ("federation", "federation.route",
     "repro.federation.sharding:ShardManager.advance_to", None),
    ("federation", "federation.route",
     "repro.federation.sharding:ShardManager.drain", None),
    ("federation", "federation.coalloc",
     "repro.federation.coallocation:CoAllocator.try_place", None),
    ("federation", "federation.coalloc",
     "repro.federation.coallocation:CoAllocator.release_due", None),
    ("federation", "federation.client_submit",
     "repro.federation.client:FederationClient.submit", _job_id),
    ("federation", "federation.client_drain",
     "repro.federation.client:FederationClient.drain", None),
    ("simulation", "simulation.cycle", "repro.simulation.runner:run_comparison", None),
)

#: One finished span: ``(layer, name, start, end, parent index or -1,
#: request id)``; a span's id is its index in :attr:`Tracer.spans`.
Span = tuple[str, str, float, float, int, str]


class Tracer:
    """An in-memory span recorder with one open-span stack."""

    def __init__(self, episode_id: str = "episode") -> None:
        self.episode_id = episode_id
        self.spans: list[Optional[Span]] = []
        #: The open spans, outermost first: ``(index, request id)``.
        self._stack: list[tuple[int, str]] = []

    def _open(self, request: Optional[str]) -> int:
        index = len(self.spans)
        self.spans.append(None)
        if request is None:
            request = self._stack[-1][1] if self._stack else self.episode_id
        self._stack.append((index, request))
        return index

    def _close(self, index: int, layer: str, name: str, start: float) -> None:
        end = perf_counter()
        _index, request = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[index] = (layer, name, start, end, parent, request)

    def wrap(
        self,
        layer: str,
        name: str,
        function: Callable[..., Any],
        request_of: Optional[Callable[..., str]] = None,
    ) -> Callable[..., Any]:
        """``function`` recording one span per call (sync or coroutine)."""
        tracer = self
        if inspect.iscoroutinefunction(function):

            async def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
                index = tracer._open(request_of(*args, **kwargs) if request_of else None)
                start = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._close(index, layer, name, start)

            return traced_coroutine

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(request_of(*args, **kwargs) if request_of else None)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(index, layer, name, start)

        return traced

    def finished(self, since: float = 0.0) -> list[Span]:
        """The spans that started at or after ``since``, all closed.

        Spans are stored in start order and none may straddle ``since``
        (the harness takes it between calls), so the result is a suffix
        whose parent indices are rebased onto it.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        spans: list[Span] = self.spans  # type: ignore[assignment]
        first = next(
            (index for index, span in enumerate(spans) if span[2] >= since), len(spans)
        )
        return [
            (layer, name, start, end, parent - first if parent >= 0 else -1, request)
            for layer, name, start, end, parent, request in spans[first:]
        ]


def _resolve(target: str) -> tuple[Any, str]:
    """The owner (class or module) and attribute a table row names."""
    try:
        module_name, qualified = target.split(":")
        owner: Any = importlib.import_module(module_name)
        *class_path, attribute = qualified.split(".")
        for class_name in class_path:
            owner = getattr(owner, class_name)
        # The attribute must be defined on that very owner: an inherited
        # method would be patched onto the subclass only and silently
        # miss the siblings the row was written to cover.
        if attribute not in vars(owner):
            raise AttributeError(attribute)
    except (ValueError, ImportError, AttributeError) as error:
        raise SpanTargetError(
            f"span target {target!r} does not exist ({type(error).__name__}: {error})"
        ) from error
    return owner, attribute


@contextmanager
def installed(
    tracer: Tracer,
    table: Sequence[tuple[str, str, str, Optional[Callable[..., str]]]] = SPAN_TABLE,
) -> Iterator[Tracer]:
    """Patch every table row onto its class for the ``with`` block."""
    resolved = [(row, _resolve(row[2])) for row in table]
    originals: list[tuple[Any, str, Any]] = []
    try:
        for (layer, name, _target, request_of), (owner, attribute) in resolved:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(layer, name, original, request_of))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _layer, _name, start, end, _parent, _request in spans]
    for _layer, _name, start, end, parent, _request in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def fold(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """``name -> {"self_s", "calls"}`` plus the attribution the core
    layer needs: ``root:<name>`` sums the self time of every core span
    under an outermost core span of that name (AMP runs nested in a CSA
    search are CSA's cost, not AMP's).
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    core_root: list[int] = []
    for index, (layer, name, _start, _end, parent, _request) in enumerate(spans):
        # Parents open before their children, so they are already seen.
        is_nested_core = layer == "core" and parent >= 0 and spans[parent][0] == "core"
        core_root.append(core_root[parent] if is_nested_core else index)
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[index]
        entry["calls"] += 1
        if layer == "core":
            root_name = "root:" + spans[core_root[index]][1]
            root = totals.setdefault(root_name, {"self_s": 0.0, "calls": 0})
            root["self_s"] += own[index]
            root["calls"] += core_root[index] == index
    return totals


def covered_seconds(spans: Sequence[Span]) -> float:
    """Wall time under any span: the summed durations of the root spans."""
    return sum(end - start for _l, _n, start, end, parent, _r in spans if parent < 0)


def write_jsonl(path: str, spans: Sequence[Span]) -> None:
    """One JSON object per span; ``id`` is the line number (0-based)."""
    with open(path, "w", encoding="ascii") as handle:
        for index, (layer, name, start, end, parent, request) in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "layer": layer,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent if parent >= 0 else None,
                        "request": request,
                    }
                )
            )
            handle.write("\n")
