"""Reference strategies the solver is measured against.

Cloud-Only ships every raw stream; Edge-Only keeps computation on the edge
wherever locality allows, uploading results only.
"""

from __future__ import annotations

from .costs import Assignment, Instance, Profile, cost_report
from .feasibility import check_assignment, forced_cloud, propagate_composite_gamma
from .model import OperatorId, Workload
from .solver import Solution


def _evaluate(
    w: Workload,
    p: Profile,
    per_op: dict[OperatorId, float],
    mode: str,
    strategy: str,
) -> Solution:
    a = Assignment.from_op_gamma(w, per_op)
    inst = Instance.build(w, p)
    violations = check_assignment(w, p, a, inst=inst)
    report = cost_report(w, p, a, mode, inst=inst)
    return Solution(
        feasible=not violations,
        assignment=a,
        report=report,
        stats={
            "strategy": strategy,
            "violations": [
                {"constraint": v.constraint, "op": v.op, "detail": v.detail}
                for v in violations
            ],
        },
    )


def cloud_only(w: Workload, p: Profile, mode: str = "paper") -> Solution:
    """Every operator fully offloaded (ratio 1 everywhere)."""
    per_op = {op.id: 1.0 for op in w.operators}
    return _evaluate(w, p, per_op, mode, "co")


def edge_only(w: Workload, p: Profile, mode: str = "paper") -> Solution:
    """Edge-resident wherever locality allows; forced-cloud operators get 1
    and composite ratios derive from their dependencies as usual."""
    per_op: dict[OperatorId, float] = {}
    for op in w.operators:
        if op.atomic:
            per_op[op.id] = 1.0 if forced_cloud(w, op.id) else 0.0
    per_op = propagate_composite_gamma(w, per_op)
    return _evaluate(w, p, per_op, mode, "eo")

