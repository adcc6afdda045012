"""One float test for "a leg fits from t": no second spelling in ``src/``.

Every scan, check and cut reads a leg's last start ``min(end, deadline)
- r`` against ``t - eps`` (``repro.model.slot.fits_from``).  The guards
that once patched around a second spelling — the expired-on-arrival
pass (``_arrival_expired``), the certificate refusal near a threshold
(``_near_expiry``) and its scale (``_scale``) — and the ``Slot`` methods
that spelled the test differently (``contains``, ``can_host``,
``remaining_from``) are gone; this scan fails if any module of the
package defines or references one of them again, as a name, a function
or an attribute, at any depth.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Names no module may define or reference.
GUARDS = {"_arrival_expired", "_near_expiry", "_scale"}
#: Attribute (and method) names no module may define or reference.
SPELLINGS = {"remaining_from", "can_host", "contains"}


def offending_names(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every definition or use of a forbidden name."""
    found: list[tuple[int, str]] = []
    forbidden = GUARDS | SPELLINGS
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in forbidden:
            found.append((getattr(node, "lineno", 0), name))
    return found


def test_no_second_spelling_of_the_fit_test():
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, name in offending_names(tree):
            offenders.append(f"{path.relative_to(SRC)}:{line} {name}")
    assert not offenders, "second spellings of the fit test:\n  " + "\n  ".join(offenders)


def test_the_scan_catches_each_form():
    source = """
def _near_expiry(plan): ...
class Slot:
    def can_host(self, start, duration): ...
value = slot.remaining_from(t) + _scale(plan)
from repro.core.vectorized import _arrival_expired
ok = span in pool and slot.contains(a, b)
"""
    names = sorted(name for _, name in offending_names(ast.parse(source)))
    assert names == sorted(
        ["_near_expiry", "can_host", "remaining_from", "_scale", "_arrival_expired", "contains"]
    )
