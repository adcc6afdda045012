"""A span is a slot by one rule, and the cutting policy is CSA's alone.

"Long enough to be a slot" is one float test,
:func:`repro.model.slot.is_span` (``end - start > TIME_EPSILON``): a
``Slot`` must pass it, and a cut's remainders, a trimmed tail and a
timeline's free gaps are kept exactly when they pass it.  The knobs that
once wrote it a second way — the pool's ``min_usable_length`` and the
``min_length`` parameters of ``Slot.split``, ``Timeline.free_intervals``
/ ``free_slots`` and ``Environment.slots`` / ``slot_pool`` — are gone,
and the pool's cut (``SlotPool.commit_window``) takes no ``mode``:
whether a used slot's remainders go back between AMP runs is CSA's
``cut_mode``, validated in one place.  This scan fails if any of them
comes back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CSA_MODULE = SRC / "core" / "algorithms" / "csa.py"
POOL_MODULE = SRC / "model" / "slotpool.py"

CUT_MODE_ERROR = "unknown cut mode"


def length_knobs(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every ``min_usable_length`` name (attribute,
    variable, parameter or keyword) and every ``min_length`` parameter
    or keyword."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        else:
            continue
        if name == "min_usable_length" or (
            name == "min_length" and isinstance(node, (ast.arg, ast.keyword))
        ):
            found.append((getattr(node, "lineno", 0), name))
    return found


def cut_parameters(tree: ast.AST) -> list[list[str]]:
    """The parameter names of each ``SlotPool.commit_window`` in ``tree``."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SlotPool":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "commit_window":
                    arguments = node.args
                    every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                    every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
                    found.append([argument.arg for argument in every])
    return found


def cut_mode_errors(tree: ast.AST) -> list[int]:
    """Lines of string literals (plain or f-string parts) that spell the
    unknown-cut-mode error."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and CUT_MODE_ERROR in node.value
    ]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_length_knob_is_left():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in length_knobs(parse(path))
    ]
    assert not offenders, "a second slot-length rule:\n  " + "\n  ".join(offenders)


def test_commit_window_takes_only_the_window():
    assert cut_parameters(parse(POOL_MODULE)) == [["self", "window"]]


def test_the_cut_mode_is_checked_by_csa_alone():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != CSA_MODULE
        for line in cut_mode_errors(parse(path))
    ]
    assert not offenders, "cut modes checked outside CSA:\n  " + "\n  ".join(offenders)
    assert len(cut_mode_errors(parse(CSA_MODULE))) == 1


def test_the_scans_catch_each_form():
    tree = ast.parse(
        """
class SlotPool:
    min_usable_length: float = TIME_EPSILON

    def commit_window(self, window, mode="split"):
        if mode not in ("split", "consume"):
            raise ValueError(f"unknown cut mode {mode!r}")

def split(self, start, required_time, min_length=TIME_EPSILON): ...
twin = SlotPool(min_usable_length=pool.min_usable_length)
gaps = timeline.free_intervals(min_length=10.0)
min_length = 3.0
"""
    )
    assert sorted(length_knobs(tree)) == [
        (3, "min_usable_length"),
        (9, "min_length"),
        (10, "min_usable_length"),
        (10, "min_usable_length"),
        (11, "min_length"),
    ]
    assert cut_parameters(tree) == [["self", "window", "mode"]]
    assert cut_mode_errors(tree) == [7]
    keyword_only = ast.parse(
        "class SlotPool:\n    def commit_window(self, window, *, consume=False): ..."
    )
    assert cut_parameters(keyword_only) == [["self", "window", "consume"]]
