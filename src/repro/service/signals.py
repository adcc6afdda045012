"""Graceful shutdown plumbing for long-running CLI entry points.

``repro serve`` and ``repro serve-federation`` run until their job
stream ends — or until the operator stops them.  A bare SIGTERM (the
default ``kill``, and what most supervisors send) would tear the process
down mid-write, leaving a truncated JSONL trace.
:func:`graceful_interrupt` converts the first SIGTERM into the same
:class:`KeyboardInterrupt` a Ctrl-C raises, so both stop paths flow
through one ``except KeyboardInterrupt`` that flushes every event sink
before exiting.

The handler is installed only around the serving loop and the previous
disposition is restored on exit, so library callers and tests are never
left with a hijacked signal table.  A second SIGTERM during cleanup gets
the restored (usually default, terminating) behaviour — the escape hatch
when a flush itself wedges.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator


@contextlib.contextmanager
def graceful_interrupt() -> Iterator[None]:
    """Convert SIGTERM to :class:`KeyboardInterrupt` within the block.

    No-op (but still a valid context manager) when not on the main
    thread, where CPython forbids installing signal handlers.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise_interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
