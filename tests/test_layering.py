"""CONTRIBUTING.md's layering rule, executable.

``model -> environment -> core -> scheduling / execution`` and then the
packages that drive them: a module of one of those five layers may, at
module level, import only from its own layer or a layer below.

Scope: module-level imports only (including those under a top-level
``if`` / ``try``, e.g. ``TYPE_CHECKING`` blocks).  Imports inside a
function body — ``CycleReport.fairness`` reaching for
``repro.analysis`` — are deliberate lazy edges and are not checked here.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Rank of each layered package; equal ranks are siblings that must not
#: import each other.
RANK = {"model": 0, "environment": 1, "core": 2, "scheduling": 3, "execution": 3}


def module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, dotted module)`` of every import outside a def/class body."""
    found: list[tuple[int, str]] = []
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module or ""))
            stack.append(child)
    return found


def test_layered_packages_import_only_downwards():
    upward: list[str] = []
    for package, rank in RANK.items():
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for line, module in module_level_imports(tree):
                parts = module.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                target = parts[1]
                if target == package or (SRC / f"{target}.py").exists():
                    continue  # own layer, or a top-level helper module
                if RANK.get(target, len(RANK)) >= rank:
                    upward.append(
                        f"{path.relative_to(SRC.parent)}:{line} imports {module}"
                    )
    assert not upward, "upward imports:\n  " + "\n  ".join(upward)
