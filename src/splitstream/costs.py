"""Analytic cost model: data volumes, latency components, node usage.

Offload ratios live in [0, 1] per (operator, sensor): 0 keeps the work on the
edge node, 1 ships the raw window to the cloud, fractional values ship a raw
share plus one partial-aggregate upload per window. All sensors of one
operator share a single ratio; a sensor's upload ratio is the max over the
operators consuming it.

Two orientations are supported. The default ("corrected") scales edge-side
compute and usage by (1 - gamma) and cloud-side compute by gamma, charging
the cloud merge cost only when gamma > 0. The "literal" orientation keeps the
swapped scaling of the source formulas for side-by-side comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .model import (
    GAMMA_TOL,
    REL_TOL,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Workload,
    topological_order,
    transitive_sensors,
)

ORIENTATIONS = ("corrected", "literal")

OBJECTIVE_MODES = ("paper", "dedup")


@dataclass(frozen=True)
class Profile:
    """Measured/synthesized per-operator costs and per-node platform limits.

    Keys follow the data's natural shape: per (operator, sensor, node) for
    edge-side quantities, per (operator, sensor) for cloud compute, per
    operator for the partial-aggregate and result sizes.
    """

    cpu_edge: dict[tuple[OperatorId, SensorId, NodeId], float]
    cpu_cloud: dict[tuple[OperatorId, SensorId], float]
    cpu_res: dict[OperatorId, float]
    mem_edge: dict[tuple[OperatorId, SensorId, NodeId], float]
    data_raw: dict[tuple[OperatorId, SensorId, NodeId], float]
    data_int: dict[OperatorId, float]
    data_res: dict[OperatorId, float]
    cpu_unit_edge: dict[NodeId, float]
    cpu_unit_cloud: float
    bandwidth: dict[NodeId, float]
    cpu_cap: dict[NodeId, float]
    mem_cap: dict[NodeId, float]
    t_req_s: dict[OperatorId, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Assignment:
    """A complete offload decision.

    gamma_op maps (operator, sensor) to the operator's ratio; gamma_sensor is
    the derived per-sensor max. Operators without sensors keep their ratio in
    gamma_bare.
    """

    gamma_op: dict[tuple[OperatorId, SensorId], float]
    gamma_sensor: dict[SensorId, float]
    gamma_bare: dict[OperatorId, float] = field(default_factory=dict)

    @classmethod
    def from_op_gamma(cls, w: Workload, per_op: dict[OperatorId, float]) -> "Assignment":
        """Expand one ratio per operator into the keyed maps."""
        gamma_op: dict[tuple[OperatorId, SensorId], float] = {}
        gamma_bare: dict[OperatorId, float] = {}
        for op in w.operators:
            g = per_op[op.id]
            if op.sensors:
                for s in op.sensors:
                    gamma_op[(op.id, s)] = g
            else:
                gamma_bare[op.id] = g
        a = cls(gamma_op=gamma_op, gamma_sensor={}, gamma_bare=gamma_bare)
        return derive_sensor_gamma(a, w)

    def op_gamma(self, w: Workload, op_id: OperatorId) -> float:
        """The operator's shared ratio; fails if its sensors disagree."""
        op = w.operator(op_id)
        if not op.sensors:
            if op_id not in self.gamma_bare:
                raise ValueError(f"no offload ratio recorded for operator {op_id}")
            return self.gamma_bare[op_id]
        values = []
        for s in op.sensors:
            if (op_id, s) not in self.gamma_op:
                raise ValueError(f"no offload ratio for operator {op_id}, sensor {s}")
            values.append(self.gamma_op[(op_id, s)])
        lo, hi = min(values), max(values)
        if hi - lo > GAMMA_TOL:
            raise ValueError(
                f"operator {op_id} has unequal per-sensor ratios ({lo}..{hi})"
            )
        return values[0]


def derive_sensor_gamma(a: Assignment, w: Workload) -> Assignment:
    """Recompute per-sensor upload ratios as the max over consuming operators.

    Sensors no operator consumes upload nothing (ratio 0).
    """
    gamma_sensor: dict[SensorId, float] = {s: 0.0 for s in sorted(w.sensors)}
    for op in w.operators:
        for s in op.sensors:
            g = a.gamma_op.get((op.id, s))
            if g is None:
                raise ValueError(f"no offload ratio for operator {op.id}, sensor {s}")
            if g > gamma_sensor[s]:
                gamma_sensor[s] = g
    return Assignment(
        gamma_op=dict(a.gamma_op),
        gamma_sensor=gamma_sensor,
        gamma_bare=dict(a.gamma_bare),
    )


def le_with_tol(x: float, bound: float, rel: float = REL_TOL) -> bool:
    """x <= bound, forgiving relative float noise at the boundary."""
    if math.isclose(x, bound, rel_tol=rel, abs_tol=0.0):
        return True
    return x <= bound


def lt_strict(x: float, bound: float, rel: float = REL_TOL) -> bool:
    """x < bound, treating values within noise of the bound as equal (fails)."""
    if math.isclose(x, bound, rel_tol=rel, abs_tol=0.0):
        return False
    return x < bound


def effective_t_req(op: OperatorSpec, p: Profile) -> float | None:
    """Deadline for one operator: the workload value, else the profile's."""
    if op.t_req_s is not None:
        return op.t_req_s
    return p.t_req_s.get(op.id)


def home_nodes(w: Workload, op_id: OperatorId) -> frozenset[NodeId]:
    """Nodes where the operator's edge share runs: its sensors' nodes, or for
    sensorless composites the nodes of its transitive dependency sensors."""
    op = w.operator(op_id)
    sensors = op.sensors if op.sensors else transitive_sensors(w, op_id)
    return frozenset(
        w.topology.sensor_node[s] for s in sensors if s in w.topology.sensor_node
    )


def _int_res_terms(gamma: float, d_int: float, d_res: float) -> float:
    """Partial-aggregate and result uploads as a function of the ratio."""
    term = (math.ceil(gamma) - math.floor(gamma)) * d_int
    term += math.floor(1.0 - gamma) * d_res
    return term


def data_volume(
    i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload
) -> float:
    """Bytes uplinked from node k per window of operator i.

    Raw samples leave at the sensor-level ratio; a fractional operator adds
    one partial aggregate per window; a fully edge-resident operator uploads
    only its result. The aggregate/result terms are charged at the operator's
    home nodes (they vanish unless gamma is fractional or zero, and such
    operators are single-homed in any feasible assignment).
    """
    op = w.operator(i)
    gamma = a.op_gamma(w, i)
    total = 0.0
    for s in op.sensors:
        if w.topology.sensor_node.get(s) != k:
            continue
        raw = p.data_raw.get((i, s, k), 0.0)
        total += raw * a.gamma_sensor.get(s, 0.0)
    if k in home_nodes(w, i):
        total += _int_res_terms(gamma, p.data_int.get(i, 0.0), p.data_res.get(i, 0.0))
    return total


def edge_loads(
    op: OperatorSpec,
    gamma: float,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> Iterator[tuple[NodeId, float, float]]:
    """Yield (node, CPU cycles, memory bytes) that each wired sensor of the
    operator puts on its edge node at ratio gamma."""
    share = gamma if orientation == "literal" else 1.0 - gamma
    for s in op.sensors:
        k = w.topology.sensor_node.get(s)
        if k is None:
            continue
        yield (
            k,
            p.cpu_edge.get((op.id, s, k), 0.0) * share,
            p.mem_edge.get((op.id, s, k), 0.0) * share,
        )


def edge_time(
    i: OperatorId,
    a: Assignment,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> float:
    """Slowest per-node edge compute time for operator i (seconds)."""
    per_node: dict[NodeId, float] = {}
    for k, cycles, _mem in edge_loads(w.operator(i), a.op_gamma(w, i), p, w, orientation):
        per_node[k] = per_node.get(k, 0.0) + cycles
    if not per_node:
        return 0.0
    return max(t / p.cpu_unit_edge[k] for k, t in per_node.items())


def trans_time(
    i: OperatorId,
    a: Assignment,
    p: Profile,
    w: Workload,
    node: NodeId | None = None,
) -> float:
    """Window transfer time: per-node volume over that node's uplink, worst
    node unless one is named."""
    nodes = [node] if node is not None else sorted(w.topology.nodes)
    worst = 0.0
    for k in nodes:
        vol = data_volume(i, k, a, p, w)
        if vol <= 0.0:
            continue
        worst = max(worst, vol / p.bandwidth[k])
    return worst


def cloud_time(
    i: OperatorId,
    a: Assignment,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> float:
    """Cloud compute time for operator i's offloaded share (seconds)."""
    op = w.operator(i)
    gamma = a.op_gamma(w, i)
    cycles = 0.0
    if orientation == "literal":
        share = 1.0 - gamma
        res = p.cpu_res.get(i, 0.0)
    else:
        share = gamma
        res = p.cpu_res.get(i, 0.0) if gamma > GAMMA_TOL else 0.0
    for s in op.sensors:
        cycles += p.cpu_cloud.get((i, s), 0.0) * share
    return (cycles + res) / p.cpu_unit_cloud


def latency_rows(
    a: Assignment,
    p: Profile,
    w: Workload,
    order: Iterable[OperatorId],
    orientation: str = "corrected",
) -> Iterator[tuple[OperatorId, float, float, float, float, float]]:
    """Yield (op, t_edge, t_trans, t_wait, t_cloud, t_total) for each operator
    of `order`, the window latency and its terms in seconds.

    The wait is the skew between the totals of the operator's deps, so
    `order` must list every dep ahead of its consumers.
    """
    totals: dict[OperatorId, float] = {}
    for i in order:
        te = edge_time(i, a, p, w, orientation)
        tt = trans_time(i, a, p, w)
        dep_totals = [totals[d] for d in w.operator(i).deps]
        tw = max(dep_totals) - min(dep_totals) if dep_totals else 0.0
        tc = cloud_time(i, a, p, w, orientation)
        totals[i] = te + tt + tw + tc
        yield i, te, tt, tw, tc, totals[i]


@dataclass(frozen=True)
class OperatorCost:
    op: OperatorId
    gamma: float
    data_bytes_by_node: dict[NodeId, float]
    t_edge: float
    t_trans: float
    t_wait: float
    t_cloud: float
    t_total: float


@dataclass(frozen=True)
class NodeUsage:
    node: NodeId
    cpu_cycles: float
    mem_bytes: float


@dataclass(frozen=True)
class CostReport:
    per_operator: dict[OperatorId, OperatorCost]
    per_node: dict[NodeId, NodeUsage]
    objective_bytes: float
    latency_sum: float


def node_cpu(
    i: OperatorId,
    k: NodeId,
    a: Assignment,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> float:
    """Edge CPU cycles operator i occupies on node k."""
    loads = edge_loads(w.operator(i), a.op_gamma(w, i), p, w, orientation)
    return sum((cpu for node, cpu, _mem in loads if node == k), 0.0)


def node_mem(
    i: OperatorId,
    k: NodeId,
    a: Assignment,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> float:
    """Edge memory bytes operator i occupies on node k."""
    loads = edge_loads(w.operator(i), a.op_gamma(w, i), p, w, orientation)
    return sum((mem for node, _cpu, mem in loads if node == k), 0.0)


def node_usage(
    a: Assignment,
    p: Profile,
    w: Workload,
    orientation: str = "corrected",
) -> dict[NodeId, NodeUsage]:
    """Per-node edge CPU and memory: each operator's node_cpu and node_mem
    share, summed over operators in workload order."""
    nodes = sorted(w.topology.nodes)
    cpu = dict.fromkeys(nodes, 0.0)
    mem = dict.fromkeys(nodes, 0.0)
    for op in w.operators:
        op_cpu: dict[NodeId, float] = {}
        op_mem: dict[NodeId, float] = {}
        for k, c, m in edge_loads(op, a.op_gamma(w, op.id), p, w, orientation):
            op_cpu[k] = op_cpu.get(k, 0.0) + c
            op_mem[k] = op_mem.get(k, 0.0) + m
        for k in op_cpu.keys() & cpu.keys():
            cpu[k] += op_cpu[k]
            mem[k] += op_mem[k]
    return {k: NodeUsage(node=k, cpu_cycles=cpu[k], mem_bytes=mem[k]) for k in nodes}


def windows_in_horizon(window_s: float, step_s: float, horizon_s: float) -> int:
    """Number of window closes within a horizon (closes at window + n*step)."""
    if horizon_s + 1e-9 < window_s:
        return 0
    return int(math.floor((horizon_s - window_s) / step_s + 1e-9)) + 1


def total_objective(
    a: Assignment,
    p: Profile,
    w: Workload,
    mode: str = "paper",
    horizon_s: float | None = None,
    ops: Iterable[OperatorId] | None = None,
) -> float:
    """Total uplink bytes under the assignment.

    "paper" sums every operator's volumes independently, double-counting raw
    streams shared between operators. "dedup" counts each sensor's upload once per
    (sensor, node) and keeps per-operator aggregate/result terms. Without a
    horizon the figure is per window close; with one, per-operator terms scale
    by their number of closes and dedup raw scales by stream rate. `ops`
    limits the sum to those operator ids, in that order; by default every
    operator counts, in workload order.
    """
    if mode not in OBJECTIVE_MODES:
        raise ValueError(f"unknown objective mode {mode!r}")
    specs = w.operators if ops is None else [w.operator(i) for i in ops]
    total = 0.0
    if mode == "paper":
        nodes = sorted(w.topology.nodes)
        for op in specs:
            per_window = 0.0
            for k in nodes:
                per_window += data_volume(op.id, k, a, p, w)
            if horizon_s is None:
                total += per_window
            else:
                total += per_window * windows_in_horizon(
                    op.window_s, op.step_s, horizon_s
                )
        return total

    # dedup: raw once per (sensor, node), aggregate/result once per operator
    raw_best: dict[tuple[SensorId, NodeId], float] = {}
    for op in specs:
        for s in op.sensors:
            k = w.topology.sensor_node.get(s)
            if k is None:
                continue
            raw = p.data_raw.get((op.id, s, k), 0.0)
            if horizon_s is not None:
                raw = raw / op.window_s * horizon_s
            key = (s, k)
            if raw > raw_best.get(key, 0.0):
                raw_best[key] = raw
    for (s, _k), raw in sorted(raw_best.items()):
        total += raw * a.gamma_sensor.get(s, 0.0)
    for op in specs:
        gamma = a.op_gamma(w, op.id)
        term = _int_res_terms(
            gamma, p.data_int.get(op.id, 0.0), p.data_res.get(op.id, 0.0)
        )
        if horizon_s is None:
            total += term
        else:
            total += term * windows_in_horizon(op.window_s, op.step_s, horizon_s)
    return total


def cost_report(
    w: Workload,
    p: Profile,
    a: Assignment,
    mode: str = "paper",
    orientation: str = "corrected",
) -> CostReport:
    """Per-operator latency/volume rows plus per-node usage for an assignment."""
    rows: dict[OperatorId, OperatorCost] = {}
    for i, te, tt, tw, tc, t in latency_rows(a, p, w, topological_order(w), orientation):
        volumes: dict[NodeId, float] = {}
        for k in sorted(w.topology.nodes):
            vol = data_volume(i, k, a, p, w)
            if vol > 0.0:
                volumes[k] = vol
        rows[i] = OperatorCost(
            op=i,
            gamma=a.op_gamma(w, i),
            data_bytes_by_node=volumes,
            t_edge=te,
            t_trans=tt,
            t_wait=tw,
            t_cloud=tc,
            t_total=t,
        )
    rows = {i: rows[i] for i in sorted(rows)}
    latency_sum = sum(rows[i].t_total for i in sorted(rows))
    return CostReport(
        per_operator=rows,
        per_node=node_usage(a, p, w, orientation),
        objective_bytes=total_objective(a, p, w, mode),
        latency_sum=latency_sum,
    )
