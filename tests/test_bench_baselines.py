"""``bench-*`` CLI targets and committed baselines match one to one.

The repo's convention is that each benchmark subcommand archives its
refuse-to-record-gated payload as ``BENCH_<name>.json`` at the repo
root, so regressions are diffable.  This guard walks the real argparse
tree in both directions: a new ``bench-foo`` subcommand without a
committed ``BENCH_foo.json`` fails until the baseline is recorded, and a
committed ``BENCH_foo.json`` whose ``bench-foo`` is gone fails until the
stale baseline is deleted.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_commands() -> list[str]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(
                name
                for name in action.choices
                if name.startswith("bench-")
            )
    raise AssertionError("the CLI lost its subparsers")


def baseline_path(command: str) -> Path:
    return REPO_ROOT / f"BENCH_{command.removeprefix('bench-')}.json"


def committed_baselines() -> list[Path]:
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_the_cli_still_has_benchmarks():
    assert bench_commands()


@pytest.mark.parametrize("command", bench_commands())
def test_every_bench_target_has_a_committed_baseline(command):
    path = baseline_path(command)
    assert path.is_file(), (
        f"CLI target {command!r} has no committed baseline: run "
        f"`repro {command} -o {path.name}` and commit the result"
    )
    payload = json.loads(path.read_text())
    assert isinstance(payload, dict) and payload, (
        f"{path.name} is not a benchmark payload"
    )


@pytest.mark.parametrize("path", committed_baselines(), ids=lambda path: path.name)
def test_every_committed_baseline_has_a_bench_target(path):
    targets = {baseline_path(command) for command in bench_commands()}
    assert path in targets, (
        f"{path.name} has no `bench-*` CLI target left to regenerate it: "
        "delete the stale baseline"
    )


@pytest.mark.parametrize("path", committed_baselines(), ids=lambda path: path.name)
def test_every_committed_baseline_carries_the_shared_header(path):
    """One payload header across the benches: the name under
    ``benchmark`` and the ``repro.hostinfo`` host block, so baselines
    can be read (and ``cpu_limited`` rows discounted) uniformly."""
    payload = json.loads(path.read_text())
    assert isinstance(payload.get("benchmark"), str), (
        f"{path.name} does not name itself under 'benchmark'"
    )
    host = payload.get("host", {})
    assert isinstance(host.get("usable_cpus"), int), path.name
    assert isinstance(host.get("cpu_limited"), bool), path.name
