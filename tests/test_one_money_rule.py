"""One float rule for money: every cost total is one ``left_sum`` and
every budget verdict reads one ``budget_limit``.

The paper's economic constraint is one real inequality — a window's
total cost is within the user budget ``S``.  In floats it is written
once (``repro.model.window``): the total is a left-to-right
:func:`~repro.model.window.left_sum` (builtin ``sum()`` is compensated
from CPython 3.12 on, so it would round differently from the kernel's
ascending loops on some interpreters), and "within" means at most
:func:`~repro.model.window.budget_limit`.  The searches, the kernel,
:meth:`Window.validate`, the admission door and repair then agree on
every interpreter.

The regression cases put one leg's cost between the two limits the code
once used (``b + eps (1 + |b|)`` in the searches, ``b (1 + eps) + eps``
in ``validate``, the door and repair): every search returned a window
that ``validate`` refused, and the door turned the job away.  The scans
below keep a second spelling from coming back, together with the
admission door's deleted second policy.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core import AMP, CSA, MinCost
from repro.core.repair import find_fixed_start_replacements
from repro.model import CpuNode, Job, ResourceRequest, Slot, SlotPool
from repro.service import BrokerService, ServiceConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages and modules whose float totals must be ``left_sum``.
SUMMING = (
    "core",
    "model",
    "environment",
    "tenancy",
    "service/resilience",
    "service/admission.py",
    "scheduling/combination.py",
)
#: Names of the admission door's deleted second policy and options.
DELETED = {
    "AdmissionOutlook",
    "PREDICTED_MISS",
    "outlook_decay",
    "outlook_min_fit",
    "outlook_min_fit_cycles",
    "strict_budget",
}


def summing_modules() -> list[Path]:
    paths: list[Path] = []
    for entry in SUMMING:
        path = SRC / entry
        paths.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return paths


def builtin_sum_calls(tree: ast.Module) -> list[int]:
    """Lines that call the builtin ``sum``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def _names_cost_epsilon(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id == "COST_EPSILON")
        or (isinstance(sub, ast.Attribute) and sub.attr == "COST_EPSILON")
        for sub in ast.walk(node)
    )


def cost_epsilon_arithmetic(tree: ast.AST, inside: str = "") -> list[int]:
    """Lines using ``COST_EPSILON`` in arithmetic or a comparison outside
    the body of ``budget_limit``."""
    found: list[int] = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(cost_epsilon_arithmetic(node, node.name))
            continue
        if (
            inside != "budget_limit"
            and isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp, ast.Compare))
            and _names_cost_epsilon(node)
        ):
            found.append(node.lineno)
            continue
        found.extend(cost_epsilon_arithmetic(node, inside))
    return found


def deleted_names(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every definition or use of a deleted name."""
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
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        else:
            continue
        if name in DELETED:
            found.append((getattr(node, "lineno", 0), name))
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_builtin_sum_where_totals_feed_decisions():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in summing_modules()
        for line in builtin_sum_calls(parse(path))
    ]
    assert not offenders, "builtin sum() calls:\n  " + "\n  ".join(offenders)


def test_cost_epsilon_is_applied_only_by_budget_limit():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in cost_epsilon_arithmetic(parse(path))
    ]
    assert not offenders, "COST_EPSILON outside budget_limit:\n  " + "\n  ".join(
        offenders
    )


def test_the_door_has_one_policy():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in deleted_names(parse(path))
    ]
    assert not offenders, "deleted admission names:\n  " + "\n  ".join(offenders)


def test_the_scans_catch_each_form():
    source = """
from repro.service.admission import AdmissionOutlook
total = sum(leg.cost for leg in window)
limit = budget * (1.0 + COST_EPSILON) + COST_EPSILON
budget += model.COST_EPSILON * (1.0 + abs(budget))
ok = cost <= COST_EPSILON
controller = AdmissionController(strict_budget=False)
reason = RejectionReason.PREDICTED_MISS

def budget_limit(budget):
    return budget + COST_EPSILON * (1.0 + abs(budget))

class ServiceConfig:
    outlook_min_fit: float = 0.0

def gate(outlook_decay, min_fit):
    return config.outlook_min_fit_cycles
"""
    tree = ast.parse(source)
    assert builtin_sum_calls(tree) == [3]
    assert cost_epsilon_arithmetic(tree) == [4, 5, 6]
    assert sorted(name for _, name in deleted_names(tree)) == sorted(
        [
            "AdmissionOutlook",
            "strict_budget",
            "PREDICTED_MISS",
            "outlook_min_fit",
            "outlook_decay",
            "outlook_min_fit_cycles",
        ]
    )


# ----------------------------------------------------------------------
# A leg whose cost sits between the two old limits.
# ----------------------------------------------------------------------
#: One node at performance 1: a task of reservation time 1 runs 1 and
#: costs the price.  The budget is under the price by less than the
#: slack, and ``b (1 + eps) + eps`` rounds below the cost where
#: ``b + eps (1 + |b|)`` does not.
PRICE = 831409.4219270932
BUDGET = 831408.5905175026
REQUEST = ResourceRequest(node_count=1, reservation_time=1.0, budget=BUDGET)


def edge_pool() -> SlotPool:
    node = CpuNode(node_id=0, performance=1.0, price_per_unit=PRICE)
    return SlotPool.from_slots([Slot(node, 0.0, 10.0)])


def test_the_edge_sits_between_the_two_old_limits():
    epsilon = 1e-6
    assert BUDGET * (1.0 + epsilon) + epsilon < PRICE
    assert PRICE <= BUDGET + epsilon * (1.0 + abs(BUDGET))


@pytest.mark.parametrize(
    "search",
    [
        pytest.param(lambda job, pool: [AMP("first").select(job, pool)], id="amp-first"),
        pytest.param(
            lambda job, pool: [AMP("cheapest").select(job, pool)], id="amp-cheapest"
        ),
        pytest.param(lambda job, pool: CSA().find_alternatives(job, pool), id="csa-first"),
        pytest.param(
            lambda job, pool: CSA(amp_policy="cheapest").find_alternatives(job, pool),
            id="csa-cheapest",
        ),
        pytest.param(lambda job, pool: [MinCost().select(job, pool)], id="mincost"),
    ],
)
def test_every_searched_window_validates(search):
    windows = search(Job("edge", REQUEST), edge_pool())
    assert windows and all(window is not None for window in windows)
    for window in windows:
        window.validate(REQUEST)


def test_the_door_admits_what_the_search_places():
    broker = BrokerService(edge_pool(), config=ServiceConfig(batch_size=1))
    assert broker.submit(Job("edge", REQUEST)).admitted
    broker.pump()
    assert broker.stats.scheduled == 1


def test_repair_accepts_the_leg_under_the_same_budget():
    legs = find_fixed_start_replacements(
        edge_pool(), REQUEST, 0.0, count=1, exclude_nodes=set(), budget=BUDGET
    )
    assert legs is not None and [leg.cost for leg in legs] == [PRICE]
