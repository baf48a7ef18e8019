"""Constraint checks and derived-ratio propagation for offload assignments.

The twelve constraint ids:

  C1  fractional ratio stays in [0, 1] (splittable operators)
  C2  non-splittable operators use {0, 1} only
  C3  all sensors of one operator share one ratio
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

C6/C7/C8 take precedence over C9.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import (
    Assignment,
    Profile,
    effective_t_req,
    latency_rows,
    le_with_tol,
    lt_strict,
    node_usage,
)
from .model import (
    GAMMA_TOL,
    NodeId,
    OperatorId,
    Workload,
    topological_order,
    transitive_sensors,
)


@dataclass(frozen=True)
class Violation:
    constraint: str
    op: OperatorId | None
    detail: str


def _is_zero(g: float) -> bool:
    return abs(g) <= GAMMA_TOL


def _is_one(g: float) -> bool:
    return abs(g - 1.0) <= GAMMA_TOL


def _is_fractional(g: float) -> bool:
    return not _is_zero(g) and not _is_one(g)


def _node_spans(w: Workload, op_id: OperatorId) -> tuple[set[NodeId], bool]:
    """The nodes of the operator's own sensors, and whether a composite's
    transitive sensor closure spans several nodes. The closure is only
    walked when the own sensors sit on at most one node."""
    op = w.operator(op_id)
    own_nodes = {
        w.topology.sensor_node[s]
        for s in op.sensors
        if s in w.topology.sensor_node
    }
    if len(own_nodes) > 1 or not op.deps:
        return own_nodes, False
    closure_nodes = {
        w.topology.sensor_node[s]
        for s in transitive_sensors(w, op_id)
        if s in w.topology.sensor_node
    }
    return own_nodes, len(closure_nodes) > 1


def forced_cloud(w: Workload, op_id: OperatorId) -> bool:
    """True when data locality leaves no choice but full offload: the
    operator's own sensors sit on more than one node, or (composite) its
    transitive sensor closure does."""
    own_nodes, closure_span = _node_spans(w, op_id)
    return len(own_nodes) > 1 or closure_span


def composite_gamma(
    w: Workload, op_id: OperatorId, dep_gammas: list[float]
) -> float:
    """A composite's ratio given its deps' ratios: 1 when it is forced to
    the cloud or any dep is fractional, else the min over its deps."""
    if forced_cloud(w, op_id) or any(_is_fractional(g) for g in dep_gammas):
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
        out[i] = composite_gamma(w, i, [out[d] for d in op.deps])
    return out


def check_assignment(
    w: Workload,
    p: Profile,
    a: Assignment,
    orientation: str = "corrected",
) -> list[Violation]:
    """Evaluate every constraint; an empty list means feasible."""
    out: list[Violation] = []
    order = topological_order(w)

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

    # C1/C2/C3 per operator; remember each operator's shared ratio.
    shared: dict[OperatorId, float] = {}
    for op in w.operators:
        values = []
        for s in op.sensors:
            g = a.gamma_op.get((op.id, s))
            if g is None:
                out.append(
                    Violation("C3", op.id, f"missing ratio for sensor {s}")
                )
                continue
            values.append(g)
        if not op.sensors:
            if op.id in a.gamma_bare:
                values = [a.gamma_bare[op.id]]
            else:
                out.append(Violation("C3", op.id, "no ratio recorded"))
        if not values:
            continue
        lo, hi = min(values), max(values)
        if hi - lo > GAMMA_TOL:
            out.append(
                Violation("C3", op.id, f"per-sensor ratios differ ({lo}..{hi})")
            )
        g = values[0]
        shared[op.id] = g
        if op.iterative:
            if g < -GAMMA_TOL or g > 1.0 + GAMMA_TOL:
                out.append(Violation("C1", op.id, f"ratio {g} outside [0, 1]"))
        else:
            if not (_is_zero(g) or _is_one(g)):
                out.append(Violation("C2", op.id, f"ratio {g} not in {{0, 1}}"))

    # C6/C7/C8/C9 placement rules.
    for op in w.operators:
        g = shared.get(op.id)
        if g is None:
            continue
        own_nodes, closure_span = _node_spans(w, op.id)
        own_span = len(own_nodes) > 1
        if own_span and not _is_one(g):
            out.append(
                Violation("C6", op.id, f"sensors span {sorted(own_nodes)}, ratio {g}")
            )
            continue
        if op.deps:
            if closure_span and not _is_one(g):
                out.append(
                    Violation("C7", op.id, f"transitive sensors span nodes, ratio {g}")
                )
                continue
            dep_gammas = [shared.get(d) for d in op.deps]
            if any(v is None for v in dep_gammas):
                continue
            if any(_is_fractional(v) for v in dep_gammas):
                if not _is_one(g):
                    out.append(
                        Violation("C8", op.id, f"fractional dependency, ratio {g}")
                    )
                continue
            if own_span or closure_span:
                continue  # forced-cloud rule already satisfied
            expected = min(dep_gammas)
            if abs(g - expected) > GAMMA_TOL:
                out.append(
                    Violation(
                        "C9", op.id, f"ratio {g} != min over deps {expected}"
                    )
                )

    # C10 deadlines, evaluated in dependency order so waits resolve.
    if not any(v.constraint == "C3" for v in out):
        for i, _te, _tt, _tw, _tc, t in latency_rows(a, p, w, order, orientation):
            t_req = effective_t_req(w.operator(i), p)
            if t_req is not None and not le_with_tol(t, t_req):
                out.append(
                    Violation("C10", i, f"latency {t:.6g}s > deadline {t_req:.6g}s")
                )

        # C11/C12 strict capacity bounds per node.
        for k, usage in node_usage(a, p, w, orientation).items():
            cpu, mem = usage.cpu_cycles, usage.mem_bytes
            cap_c = p.cpu_cap.get(k)
            cap_m = p.mem_cap.get(k)
            if cap_c is not None and not lt_strict(cpu, cap_c):
                out.append(
                    Violation("C11", None, f"node {k} cpu {cpu:.6g} >= cap {cap_c:.6g}")
                )
            if cap_m is not None and not lt_strict(mem, cap_m):
                out.append(
                    Violation("C12", None, f"node {k} mem {mem:.6g} >= cap {cap_m:.6g}")
                )
    return out
