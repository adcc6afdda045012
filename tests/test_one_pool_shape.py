"""A pool has one shape and one cut: no ``coalesce=`` and no ``cut_window``.

Per node, a ``SlotPool``'s slots are disjoint and more than
``COALESCE_GAP`` apart: ``add`` coalesces a touching slot and refuses an
overlapping one, and ``assert_disjoint_per_node`` checks the whole
shape.  ``commit_window`` is the pool's one cut.  The second shape (a
``coalesce=False`` pool, built through a ``coalesce`` parameter of
``add`` or ``from_slots``) and the second cut (``cut_window``, which
removed a window's exact slot objects) are gone; this scan fails if
either comes back anywhere in ``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
POOL_MODULE = SRC / "model" / "slotpool.py"


def coalesce_options(tree: ast.AST) -> list[int]:
    """Lines of every ``coalesce`` parameter or keyword argument."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "coalesce"
    ]


def second_cuts(tree: ast.AST) -> list[int]:
    """Lines naming ``cut_window``: a definition, a call or a reference."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name == "cut_window":
            found.append(node.lineno)
    return found


def add_parameters(tree: ast.AST) -> list[list[str]]:
    """The parameter names of each ``SlotPool.add`` in ``tree``."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SlotPool":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "add":
                    arguments = node.args
                    every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                    every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
                    found.append([argument.arg for argument in every])
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def offenders(scan) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in scan(parse(path))
    ]


def test_no_coalesce_option_is_left():
    found = offenders(coalesce_options)
    assert not found, "a second pool shape:\n  " + "\n  ".join(found)


def test_no_second_cut_is_left():
    found = offenders(second_cuts)
    assert not found, "a second cut:\n  " + "\n  ".join(found)


def test_add_takes_only_the_slot():
    assert add_parameters(parse(POOL_MODULE)) == [["self", "slot"]]


def test_the_scans_catch_each_form():
    tree = ast.parse(
        """
class SlotPool:
    def add(self, slot, coalesce=True): ...

    @classmethod
    def from_slots(cls, slots, *, coalesce=True): ...

    def cut_window(self, window): ...

pool.add(slot, coalesce=False)
SlotPool.from_slots(slots, coalesce=False)
pool.cut_window(window)
cut = SlotPool.cut_window
cut_window = pool.commit_window
"""
    )
    assert sorted(coalesce_options(tree)) == [3, 6, 10, 11]
    assert sorted(second_cuts(tree)) == [8, 12, 13, 14]
    assert add_parameters(tree) == [["self", "slot", "coalesce"]]
    starred = ast.parse("class SlotPool:\n    def add(self, slot, **options): ...")
    assert add_parameters(starred) == [["self", "slot", "options"]]
