"""Phase one has one path: no thread or process pool outside the study.

The broker's phase one is ``BatchScheduler.find_alternatives`` on the
cycle's pool snapshot, run in the cycle's own thread.  The only pool
executor in the package is the paper study's process pool over
independent cycles (``simulation/runner.py``); any other import of
``concurrent.futures`` would be a second phase-one path.  Every import
is checked, module level or inside a function body.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {Path("simulation/runner.py")}


def imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, dotted module)`` of every absolute import, at any depth."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            found.extend(
                (node.lineno, f"{module}.{alias.name}") for alias in node.names
            )
    return found


def test_only_the_study_runner_imports_concurrent_futures():
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, module in imported_modules(tree):
            if module == "concurrent" or module.startswith("concurrent.futures"):
                offenders.append(f"{relative}:{line} imports {module}")
    assert not offenders, "phase-one executors:\n  " + "\n  ".join(offenders)

