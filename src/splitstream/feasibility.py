"""Constraint checks and derived-ratio propagation for offload assignments.

The twelve constraint ids:

  C1  fractional ratio stays in [0, 1] (splittable operators)
  C2  non-splittable operators use {0, 1} only
  C3  every operator has a ratio (the format holds one per operator)
  C4  topology values are well-formed node ids
  C5  each referenced sensor is wired to exactly one node
  C6  an operator whose own sensors span several nodes runs in the cloud
  C7  a composite whose transitive sensor set spans several nodes runs in
      the cloud
  C8  a composite with any fractionally-placed dependency runs in the cloud
  C9  otherwise a composite's ratio is the min over its dependencies
  C10 every operator's window latency meets its deadline
  C11 per-node CPU stays strictly under capacity
  C12 per-node memory stays strictly under capacity

"Splittable" means OperatorSpec.may_split: the workload declares the
operator iterative and its function has a partial form. C6/C7/C8 take
precedence over C9. C10 to C12 are checked only when every operator has a
finite ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import (
    Assignment,
    Instance,
    Profile,
    forced_cloud,
    latency_rows,
    under_cap,
)
from .model import (
    GAMMA_TOL,
    OperatorId,
    Workload,
    ratio_in_range,
    runs_in_cloud,
    runs_split,
    topological_order,
)


@dataclass(frozen=True)
class Violation:
    constraint: str
    op: OperatorId | None
    detail: str


def composite_gamma(forced: bool, dep_gammas: list[float]) -> float:
    """A composite's ratio given its deps' ratios: 1 when locality forces it
    to the cloud (`forced`, see forced_cloud) or any dep's window is split
    (model.runs_split), else the min over its deps."""
    if forced or any(runs_split(g) for g in dep_gammas):
        return 1.0
    return min(dep_gammas)


def propagate_composite_gamma(w: Workload, per_op: dict[OperatorId, float]) -> dict[OperatorId, float]:
    """Fill composite ratios from their dependencies.

    Input maps every atomic operator to its ratio; the result adds composites
    in dependency order through composite_gamma.
    """
    out = dict(per_op)
    for i in topological_order(w):
        op = w.operator(i)
        if op.atomic:
            if i not in out:
                raise ValueError(f"atomic operator {i} has no ratio")
            continue
        out[i] = composite_gamma(forced_cloud(w, i), [out[d] for d in op.deps])
    return out


def check_assignment(
    w: Workload,
    p: Profile,
    a: Assignment,
    *,
    inst: Instance | None = None,
) -> list[Violation]:
    """Evaluate every constraint; an empty list means feasible. `inst`, when
    given, is Instance.build(w, p), compiled by the caller."""
    out: list[Violation] = []
    inst = inst or Instance.build(w, p)

    # C4/C5: topology well-formedness for every referenced sensor.
    for op in w.operators:
        for s in op.sensors:
            node = w.topology.sensor_node.get(s)
            if node is None:
                out.append(
                    Violation("C5", op.id, f"sensor {s} is wired to no node")
                )
            elif node not in w.topology.nodes:
                out.append(
                    Violation("C4", op.id, f"sensor {s} wired to unknown node {node}")
                )

    # C1/C2/C3 per operator. A ratio out of range, NaN included, is flagged
    # whatever class the model rule gives it.
    for op in w.operators:
        g = a.gamma.get(op.id)
        if g is None:
            out.append(Violation("C3", op.id, "no ratio recorded"))
        elif not ratio_in_range(g) or not op.may_split and runs_split(g):
            cid, want = ("C1", "outside [0, 1]") if op.may_split else ("C2", "not in {0, 1}")
            out.append(Violation(cid, op.id, f"ratio {g} {want}"))

    # C6/C7/C8/C9 placement rules.
    for op in w.operators:
        g = a.gamma.get(op.id)
        if g is None:
            continue
        facts = inst.ops[op.id]
        if len(facts.nodes) > 1 and not runs_in_cloud(g):
            out.append(
                Violation("C6", op.id, f"sensors span {sorted(facts.nodes)}, ratio {g}")
            )
            continue
        if op.deps:
            dep_gammas = [a.gamma.get(d) for d in op.deps]
            # A forced composite is checked even when a dep has no ratio:
            # composite_gamma then reads none of them.
            if not facts.forced_cloud and any(v is None for v in dep_gammas):
                continue
            expected = composite_gamma(facts.forced_cloud, dep_gammas)
            if abs(g - expected) <= GAMMA_TOL:
                continue
            if facts.forced_cloud:
                out.append(
                    Violation("C7", op.id, f"transitive sensors span nodes, ratio {g}")
                )
            elif any(runs_split(v) for v in dep_gammas):
                out.append(Violation("C8", op.id, f"fractional dependency, ratio {g}"))
            else:
                out.append(Violation("C9", op.id, f"ratio {g} != min over deps {expected}"))

    # C10 deadlines, evaluated in dependency order so waits resolve.
    ratios = [a.gamma.get(op.id) for op in w.operators]
    if all(g is not None and math.isfinite(g) for g in ratios):
        rows = latency_rows(inst, a, inst.order)
        for i, _te, _tt, _tw, _tc, t in rows:
            facts = inst.ops[i]
            if not facts.meets_deadline(t):
                out.append(
                    Violation("C10", i, f"latency {t:.6g}s > deadline {facts.t_req:.6g}s")
                )

        # C11/C12 strict capacity bounds per node.
        for k, usage in inst.usage(a).items():
            for cid, name, used, cap in (
                ("C11", "cpu", usage.cpu_cycles, p.cpu_cap.get(k)),
                ("C12", "mem", usage.mem_bytes, p.mem_cap.get(k)),
            ):
                if not under_cap(used, cap):
                    out.append(Violation(cid, None, f"node {k} {name} {used:.6g} >= cap {cap:.6g}"))
    return out
