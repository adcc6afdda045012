"""Past free time is gone by one rule, applied on read.

A pool stores its slots as they were published, released or cut, plus
one monotone floor, and every read clamps the stored slots to it by
:func:`repro.model.slotpool.floor_survivors`: a slot ending by ``floor +
TIME_EPSILON`` is gone, one starting before ``floor - TIME_EPSILON``
starts at the floor.  The machinery that once kept a second, eager form
of the rule — a pending floor (``PendingFloor``, ``apply_floor``,
``arrays_before_floor``, the snapshot's ``_pending_floor`` and
admission's ``_admission_floor``), a trim that cut each node's head
(``_trim_head``, ``_trim_node``, the store's ``replace_prefix``), its
``_trimmed`` memo and a ``release`` told the coming floor — is gone.
This scan fails if any of it comes back, if ``SlotPool.release`` takes
more than the window, or if code in ``repro.model`` other than
``floor_survivors`` compares against the floor with ``TIME_EPSILON``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODEL = SRC / "model"
POOL_MODULE = MODEL / "slotpool.py"

DELETED = {
    "PendingFloor",
    "arrays_before_floor",
    "apply_floor",
    "_pending_floor",
    "_admission_floor",
    "_trimmed",
    "_trim_head",
    "_trim_node",
    "replace_prefix",
}
#: The names the time axis's one epsilon goes by.
EPSILONS = {"TIME_EPSILON", "COALESCE_GAP"}
RULE = "floor_survivors"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def deleted_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every deleted name: a variable, attribute,
    definition, import, parameter, keyword or string spelling it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = [node.arg]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [(getattr(node, "lineno", 0), name) for name in names if name in DELETED]
    return found


def release_parameters(tree: ast.AST) -> list[list[str]]:
    """The parameter names of each ``SlotPool.release`` in ``tree``."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SlotPool":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "release":
                    arguments = node.args
                    every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                    every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
                    found.append([argument.arg for argument in every])
    return found


def _identifiers(node: ast.AST) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def floor_comparisons(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of every comparison or sum that
    names both a floor (any identifier containing ``floor``) and the
    time axis's epsilon."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Compare, ast.BinOp)):
                names = _identifiers(child)
                if names & EPSILONS and any("floor" in name for name in names):
                    found.add((child.lineno, function))
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found)


def test_no_deleted_name_is_left():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in deleted_names(parse(path))
    ]
    assert not offenders, "the eager floor is back:\n  " + "\n  ".join(offenders)


def test_release_takes_only_the_window():
    assert release_parameters(parse(POOL_MODULE)) == [["self", "window"]]


def test_only_floor_survivors_compares_against_the_floor():
    comparisons = {
        path: floor_comparisons(parse(path)) for path in sorted(MODEL.rglob("*.py"))
    }
    offenders = [
        f"{path.relative_to(SRC)}:{line} in {function}"
        for path, found in comparisons.items()
        for line, function in found
        if function != RULE
    ]
    assert not offenders, "a second floor rule:\n  " + "\n  ".join(offenders)
    assert any(function == RULE for _, function in comparisons[POOL_MODULE])


def test_the_scans_catch_each_form():
    tree = ast.parse(
        '''
from repro.model.slotpool import PendingFloor

class SlotPool:
    _trimmed: tuple = (0.0, 0)

    def release(self, window, floor=None):
        bound = floor - TIME_EPSILON
        if not span_end + COALESCE_GAP < bound:
            self._trim_node(node_id, floor)

    def apply_floor(self):
        cached = getattr(arrays, "_pending_floor", None)
        return self.trim_before(self._floor)

def floor_survivors(start, end, floor):
    return end > floor + TIME_EPSILON

def _clamp(start, end, floor):
    return end - floor > TIME_EPSILON, start < self._floor
'''
    )
    assert sorted(deleted_names(tree)) == [
        (2, "PendingFloor"),
        (5, "_trimmed"),
        (10, "_trim_node"),
        (12, "apply_floor"),
        (13, "_pending_floor"),
    ]
    assert release_parameters(tree) == [["self", "window", "floor"]]
    # ``bound`` hides the floor from the second test of ``release``; the
    # first names it.  ``start < self._floor`` names no epsilon.
    assert floor_comparisons(tree) == [(8, "release"), (17, RULE), (20, "_clamp")]
