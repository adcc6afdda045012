"""The pool keeps its slot order once: no second ordered form in ``src/``.

``SlotPool`` keeps one total order of its slots, the column store's
entry list (``repro.model.slotarrays.SlotColumnStore``); the per-node
buckets are the only other index, and their keys are the node set.  The
forms that once repeated that order — the pool's own ``_slots`` list,
the store's reference-counted node registry (``_node_refs``,
``_node_objs``, ``_sorted_ids``, ``_retain``, ``_release``) and the
pool's list handed to the store on every read (an ``entries`` parameter
of ``snapshot``, ``copy`` or ``_catch_up``) — are gone; this scan fails
if any of them comes back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
STORE_MODULE = SRC / "model" / "slotarrays.py"

#: The store's deleted node registry.
REGISTRY = {"_node_refs", "_node_objs", "_sorted_ids", "_retain", "_release"}
#: Store methods that once took the pool's entry list.
READERS = {"snapshot", "copy", "_catch_up"}


def named(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every name defined or referenced in ``tree``:
    functions, classes, variables, attributes and imports."""
    found: list[tuple[int, str]] = []
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
        found.append((getattr(node, "lineno", 0), name))
    return found


def classes(tree: ast.AST, name: str) -> list[ast.ClassDef]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]


def pool_slot_lists(tree: ast.AST, outside_store: bool) -> list[int]:
    """Lines naming ``_slots`` in a ``SlotPool`` class — or, in a module
    other than the store's (where ``SlotArrays._slots`` is the
    snapshot's lazy slot list), anywhere."""
    scopes = [tree] if outside_store else classes(tree, "SlotPool")
    return [line for scope in scopes for line, name in named(scope) if name == "_slots"]


def registry_names(tree: ast.AST) -> list[tuple[int, str]]:
    return [(line, name) for line, name in named(tree) if name in REGISTRY]


def entry_parameters(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, method)`` of every ``SlotColumnStore`` reader that takes
    an ``entries`` parameter."""
    found = []
    for store in classes(tree, "SlotColumnStore"):
        for node in store.body:
            if isinstance(node, ast.FunctionDef) and node.name in READERS:
                arguments = node.args
                every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                if any(argument.arg == "entries" for argument in every):
                    found.append((node.lineno, node.name))
    return found


def test_the_pool_keeps_no_slot_list():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line in pool_slot_lists(tree, outside_store=path != STORE_MODULE):
            offenders.append(f"{path.relative_to(SRC)}:{line} _slots")
    assert not offenders, "a second ordered slot list:\n  " + "\n  ".join(offenders)


def test_the_store_keeps_no_node_registry():
    tree = ast.parse(STORE_MODULE.read_text(encoding="utf-8"))
    assert registry_names(tree) == []


def test_store_reads_take_no_entry_list():
    tree = ast.parse(STORE_MODULE.read_text(encoding="utf-8"))
    assert classes(tree, "SlotColumnStore"), "the store moved: re-point this scan"
    assert entry_parameters(tree) == []


def test_the_scans_catch_each_form():
    pool = ast.parse(
        """
class SlotPool:
    _slots: list = field(default_factory=list)
"""
    )
    probe = ast.parse("arrays = pool._store.snapshot(pool._slots)")
    store = ast.parse(
        """
class SlotColumnStore:
    def _retain(self, node):
        self._node_refs[node.node_id] = 1
        self._node_objs[node.node_id] = node
        insort(self._sorted_ids, node.node_id)

    def delete(self, entry):
        self._release(entry[1].node.node_id)

    def _catch_up(self, entries): ...
    def snapshot(self, entries=()): ...
    def copy(self, *, entries): ...
    def insert(self, entries): ...
"""
    )
    assert pool_slot_lists(pool, outside_store=False) == [3]
    assert pool_slot_lists(probe, outside_store=True) == [1]
    assert pool_slot_lists(probe, outside_store=False) == []
    assert sorted(name for _, name in registry_names(store)) == sorted(
        ["_retain", "_node_refs", "_node_objs", "_sorted_ids", "_release"]
    )
    assert [method for _, method in entry_parameters(store)] == [
        "_catch_up",
        "snapshot",
        "copy",
    ]
