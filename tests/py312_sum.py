"""CPython 3.12's float ``sum()``, for running the suite as 3.12 would.

From 3.12 on, builtin ``sum()`` adds floats with Neumaier's compensated
summation, so a float total can round differently from the left-to-right
loop of 3.11 and earlier.  :func:`compensated_sum` is that algorithm
(the correction is added once, at the end, and only when it is finite);
any input that is not all exact ``float`` falls back to the builtin.
The ``py312_sum`` fixture (``tests/conftest.py``) installs it for one
test; :func:`install` installs it process-wide, e.g. from a
``sitecustomize.py`` on ``PYTHONPATH``::

    from tests.py312_sum import install
    install()

This module imports nothing but the standard library, so it is safe to
load before anything else.
"""

from __future__ import annotations

import builtins
import math

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it for float items."""
    items = list(iterable)
    if (
        not items
        or type(start) not in (int, float)
        or any(type(item) is not float for item in items)
    ):
        return _builtin_sum(items, start)
    total = float(start)
    correction = 0.0
    for item in items:
        added = total + item
        if abs(total) >= abs(item):
            correction += (total - added) + item
        else:
            correction += (item - added) + total
        total = added
    if correction and math.isfinite(correction):
        total += correction
    return total


def install() -> None:
    """Replace ``builtins.sum`` with :func:`compensated_sum`."""
    builtins.sum = compensated_sum
