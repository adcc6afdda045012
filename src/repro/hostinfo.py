"""Host capability reporting shared by the bench payloads.

Every ``bench-*`` command and the ``perf/`` harness record a host block,
because their numbers are only interpretable against the machine that
produced them.  The one subtlety is the CPU count: containers and CI runners
routinely pin processes to a subset of the machine's cores, so
``os.cpu_count()`` (the machine) overstates what a benchmark could
actually use.  :func:`usable_cpu_count` asks the scheduler for the
process's affinity mask instead, and every ``cpu_limited`` flag in the
archived baselines derives from it.
"""

from __future__ import annotations

import os
import platform


def usable_cpu_count() -> int:
    """CPUs this process may actually run on, not CPUs the machine has.

    ``len(os.sched_getaffinity(0))`` honours cgroup/affinity pinning;
    ``os.cpu_count()`` is only the fallback where affinity masks do not
    exist (non-Linux platforms).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_payload(parallel_target: int = 2) -> dict[str, object]:
    """The standard ``host`` block of a bench payload.

    ``parallel_target`` is the parallelism the benchmark would need for
    its speedup numbers to be meaningful (e.g. the largest worker count
    measured); ``cpu_limited`` records that this host cannot provide it,
    so a ~1x speedup row is read as a host artifact rather than a
    regression.
    """
    cpus = usable_cpu_count()
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "cpu_limited": cpus < parallel_target,
    }
