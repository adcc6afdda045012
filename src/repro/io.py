"""JSON serialization of environments, windows and experiment results.

Reproducibility plumbing: a generated environment (the exact slot list an
experiment ran on), the windows an algorithm selected, and aggregate
comparison results can all be written to JSON and read back bit-exactly.
Used to archive experiment inputs, to ship failing cases into tests, and
by the CLI's ``generate``/``schedule`` subcommands.

Only plain-JSON types are emitted, so the files are diffable and
language-neutral.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.core.criteria import Criterion
from repro.environment.generator import Environment, EnvironmentConfig
from repro.environment.load import LoadModel
from repro.environment.pricing import MarketPricing
from repro.model.errors import ModelError
from repro.model.job import Job, ResourceRequest
from repro.model.resource import CpuNode, NodeSpec
from repro.model.slot import Slot
from repro.model.timeline import Timeline
from repro.model.window import Window, WindowSlot
from repro.simulation.runner import ComparisonResult

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
def node_to_dict(node: CpuNode) -> dict[str, Any]:
    """Plain-JSON form of a node."""
    return {
        "node_id": node.node_id,
        "performance": node.performance,
        "price_per_unit": node.price_per_unit,
        "spec": {
            "clock_speed": node.spec.clock_speed,
            "ram": node.spec.ram,
            "disk": node.spec.disk,
            "os": node.spec.os,
        },
    }


def node_from_dict(data: dict[str, Any]) -> CpuNode:
    """Inverse of :func:`node_to_dict`."""
    spec = data.get("spec", {})
    return CpuNode(
        node_id=int(data["node_id"]),
        performance=float(data["performance"]),
        price_per_unit=float(data["price_per_unit"]),
        spec=NodeSpec(
            clock_speed=float(spec.get("clock_speed", 1.0)),
            ram=int(spec.get("ram", 4096)),
            disk=int(spec.get("disk", 100)),
            os=str(spec.get("os", "linux")),
        ),
    )


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------
def environment_to_dict(environment: Environment) -> dict[str, Any]:
    """Plain-JSON form of an environment (config + nodes + busy intervals)."""
    config = environment.config
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "node_count": config.node_count,
            "interval_start": config.interval_start,
            "interval_end": config.interval_end,
            "performance_range": list(config.performance_range),
            "pricing": {
                "factor": config.pricing.factor,
                "exponent": config.pricing.exponent,
                "sigma": config.pricing.sigma,
                "floor": config.pricing.floor,
            },
            "load": {
                "load_range": list(config.load.load_range),
                "min_job_length": config.load.min_job_length,
                "mean_job_length": config.load.mean_job_length,
            },
            "seed": config.seed,
        },
        "nodes": [node_to_dict(node) for node in environment.nodes],
        "busy": {
            str(node_id): timeline.busy_intervals
            for node_id, timeline in environment.timelines.items()
        },
    }


def environment_from_dict(data: dict[str, Any]) -> Environment:
    """Inverse of :func:`environment_to_dict`."""
    if data.get("format_version") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported environment format version {data.get('format_version')!r}"
        )
    raw = data["config"]
    config = EnvironmentConfig(
        node_count=int(raw["node_count"]),
        interval_start=float(raw["interval_start"]),
        interval_end=float(raw["interval_end"]),
        performance_range=tuple(raw["performance_range"]),
        pricing=MarketPricing(**raw["pricing"]),
        load=LoadModel(
            load_range=tuple(raw["load"]["load_range"]),
            min_job_length=float(raw["load"]["min_job_length"]),
            mean_job_length=float(raw["load"]["mean_job_length"]),
        ),
        seed=raw.get("seed"),
    )
    nodes = [node_from_dict(entry) for entry in data["nodes"]]
    timelines = {}
    for node in nodes:
        timeline = Timeline(node, config.interval_start, config.interval_end)
        for start, end in data["busy"].get(str(node.node_id), []):
            timeline.add_busy(float(start), float(end))
        timelines[node.node_id] = timeline
    return Environment(config=config, nodes=nodes, timelines=timelines)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
def job_to_dict(job: Job) -> dict[str, Any]:
    """Plain-JSON form of a job (the federation wire format).

    Optional request fields at their defaults are omitted, so the frames
    the protocol ships stay small for typical jobs.
    """
    request = job.request
    payload: dict[str, Any] = {
        "job_id": job.job_id,
        "request": {
            "node_count": request.node_count,
            "reservation_time": request.reservation_time,
        },
    }
    fields = payload["request"]
    if request.budget is not None:
        fields["budget"] = request.budget
    if request.max_price_per_unit is not None:
        fields["max_price_per_unit"] = request.max_price_per_unit
    if request.reference_performance != 1.0:
        fields["reference_performance"] = request.reference_performance
    if request.min_performance:
        fields["min_performance"] = request.min_performance
    if request.min_clock_speed:
        fields["min_clock_speed"] = request.min_clock_speed
    if request.min_ram:
        fields["min_ram"] = request.min_ram
    if request.min_disk:
        fields["min_disk"] = request.min_disk
    if request.required_os is not None:
        fields["required_os"] = request.required_os
    if request.deadline is not None:
        fields["deadline"] = request.deadline
    if job.priority:
        payload["priority"] = job.priority
    if job.owner != "anonymous":
        payload["owner"] = job.owner
    return payload


def job_from_dict(data: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_dict`.

    Malformed payloads surface as :class:`ModelError` naming the missing
    field, so the server can turn a bad frame into an error response
    instead of a traceback.
    """
    try:
        raw = data["request"]
        request = ResourceRequest(
            node_count=int(raw["node_count"]),
            reservation_time=float(raw["reservation_time"]),
            budget=None if raw.get("budget") is None else float(raw["budget"]),
            max_price_per_unit=(
                None
                if raw.get("max_price_per_unit") is None
                else float(raw["max_price_per_unit"])
            ),
            reference_performance=float(raw.get("reference_performance", 1.0)),
            min_performance=float(raw.get("min_performance", 0.0)),
            min_clock_speed=float(raw.get("min_clock_speed", 0.0)),
            min_ram=int(raw.get("min_ram", 0)),
            min_disk=int(raw.get("min_disk", 0)),
            required_os=(
                None
                if raw.get("required_os") is None
                else str(raw["required_os"])
            ),
            deadline=(
                None if raw.get("deadline") is None else float(raw["deadline"])
            ),
        )
        return Job(
            job_id=str(data["job_id"]),
            request=request,
            priority=int(data.get("priority", 0)),
            owner=str(data.get("owner", "anonymous")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ModelError(f"malformed job payload: {error!r}") from None


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
def window_to_dict(window: Window) -> dict[str, Any]:
    """Plain-JSON form of a window and its legs."""
    return {
        "start": window.start,
        "slots": [
            {
                "node": node_to_dict(ws.slot.node),
                "slot_start": ws.slot.start,
                "slot_end": ws.slot.end,
                "required_time": ws.required_time,
                "cost": ws.cost,
            }
            for ws in window.slots
        ],
    }


def window_from_dict(data: dict[str, Any]) -> Window:
    """Inverse of :func:`window_to_dict`."""
    legs = []
    for entry in data["slots"]:
        node = node_from_dict(entry["node"])
        slot = Slot(node, float(entry["slot_start"]), float(entry["slot_end"]))
        legs.append(
            WindowSlot(
                slot=slot,
                required_time=float(entry["required_time"]),
                cost=float(entry["cost"]),
            )
        )
    return Window(start=float(data["start"]), slots=tuple(legs))


# ----------------------------------------------------------------------
# Comparison results
# ----------------------------------------------------------------------
def comparison_to_dict(result: ComparisonResult) -> dict[str, Any]:
    """Aggregate means only — the exchange format for reports."""
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "cycles": result.cycles_run,
        "slot_count_mean": result.slot_count.mean,
        "csa_alternatives_mean": result.csa.alternatives.mean,
        "algorithms": {},
        "csa_diagonal": {},
    }
    for name, stats in result.algorithms.items():
        payload["algorithms"][name] = {
            "find_rate": stats.find_rate,
            **{criterion.value: stats.mean(criterion) for criterion in Criterion},
        }
    for criterion in Criterion:
        payload["csa_diagonal"][criterion.value] = result.csa.diagonal(criterion)
    return payload


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def save_json(payload: dict[str, Any], path: str) -> None:
    """Write a payload to ``path`` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> dict[str, Any]:
    """Read a JSON payload from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_environment(environment: Environment, path: str) -> None:
    """Archive an environment to a JSON file."""
    save_json(environment_to_dict(environment), path)


def load_environment(path: str) -> Environment:
    """Restore an environment archived by :func:`save_environment`."""
    return environment_from_dict(load_json(path))
