"""Analytic cost model: data volumes, latency components, node usage.

Offload ratios live in [0, 1], one per operator: 0 keeps the work on the
edge node, 1 ships the raw window to the cloud, fractional values ship a raw
share plus one partial-aggregate upload per window. A sensor's upload ratio
is the max over the operators consuming it.

Edge-side compute and usage scale by (1 - gamma) and cloud-side compute by
gamma, as the replay splits each window; the cloud merge cost is charged
only when gamma > 0. (The source formulas swap the two scalings.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import (
    GAMMA_TOL,
    REL_TOL,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Workload,
    check_cost,
    check_positive,
    fold_sum,
    topological_order,
    transitive_sensors,
)

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


def check_profile(p: Profile) -> Profile:
    """p, or ValueError naming the first figure that breaks a profile's value
    rules: costs finite and non-negative; clock rates and bandwidths, which
    divide, and caps and deadlines, which are strict bounds, positive and
    finite. The reader and generate_profile both apply it."""
    for key in p.cpu_edge:
        for name in ("cpu_edge", "cpu_cloud", "mem_edge", "data_raw"):
            check_cost(name, key, getattr(p, name)[key[:2] if name == "cpu_cloud" else key])
    for op in p.cpu_res:
        for name in ("cpu_res", "data_int", "data_res"):
            check_cost(name, f"op {op}", getattr(p, name)[op])
    check_positive("cpu_unit_cloud", p.cpu_unit_cloud)
    for name in ("cpu_unit_edge", "bandwidth", "cpu_cap", "mem_cap", "t_req_s"):
        where = "op" if name == "t_req_s" else "node"
        for k, value in getattr(p, name).items():
            check_positive(f"{name} of {where} {k}", value)
    return p


def validate_profile(w: Workload, p: Profile) -> None:
    """Raise ValueError at the first row the workload needs and the profile
    lacks: an (op, sensor, node) or per-operator row, or a topology node's
    bandwidth or edge clock rate."""
    for op in w.operators:
        for s in op.sensors:
            k = w.topology.sensor_node.get(s)
            key = (op.id, s, k)
            if (op.id, s) not in p.cpu_cloud or any(
                key not in t for t in (p.cpu_edge, p.mem_edge, p.data_raw)
            ):
                raise ValueError(f"no per_sensor row for op {op.id}, sensor {s}, node {k}")
        if any(op.id not in t for t in (p.cpu_res, p.data_int, p.data_res)):
            raise ValueError(f"no per_operator row for op {op.id}")
    for k in sorted(w.topology.nodes):
        for name, table in (("bandwidth", p.bandwidth), ("cpu_unit_edge", p.cpu_unit_edge)):
            if k not in table:
                raise ValueError(f"no {name} for node {k}")


@dataclass(frozen=True)
class Assignment:
    """A complete offload decision: gamma maps each operator to its ratio;
    gamma_sensor is the derived per-sensor max."""

    gamma: dict[OperatorId, float]
    gamma_sensor: dict[SensorId, float]

    @classmethod
    def from_op_gamma(cls, w: Workload, per_op: dict[OperatorId, float]) -> "Assignment":
        """Take one ratio per workload operator, and no other. A sensor's
        ratio is the max over the operators consuming it, 0 for none."""
        missing = [op.id for op in w.operators if op.id not in per_op]
        if missing:
            raise ValueError(f"no ratio for operator {missing[0]}")
        gamma = {op.id: per_op[op.id] for op in w.operators}
        extra = sorted(per_op.keys() - gamma.keys())
        if extra:
            raise ValueError(f"a ratio for operator {extra[0]}, which the workload lacks")
        gamma_sensor: dict[SensorId, float] = {s: 0.0 for s in sorted(w.sensors)}
        for op in w.operators:
            for s in op.sensors:
                gamma_sensor[s] = max(gamma_sensor[s], gamma[op.id])
        return cls(gamma=gamma, gamma_sensor=gamma_sensor)

    def op_gamma(self, w: Workload, op_id: OperatorId) -> float:
        """The operator's ratio."""
        return self.gamma[op_id]


def le_with_tol(x: float, bound: float) -> bool:
    """x <= bound, forgiving relative float noise at the boundary."""
    if math.isclose(x, bound, rel_tol=REL_TOL, abs_tol=0.0):
        return True
    return x <= bound


def lt_strict(x: float, bound: float) -> bool:
    """x < bound, treating values within noise of the bound as equal (fails)."""
    if math.isclose(x, bound, rel_tol=REL_TOL, abs_tol=0.0):
        return False
    return x < bound


def under_cap(x: float, cap: float | None) -> bool:
    """True when usage x stays strictly under a node's cap (lt_strict); a
    missing cap never binds. The one capacity test of the search and the
    checks."""
    return cap is None or lt_strict(x, cap)


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


def forced_cloud(w: Workload, op_id: OperatorId) -> bool:
    """True when data locality leaves no choice but full offload: the
    sensors of the operator's dependency closure, its own included, sit on
    more than one node."""
    closure = transitive_sensors(w, op_id)
    return len({w.topology.sensor_node[s] for s in closure if s in w.topology.sensor_node}) > 1


def int_res_bytes(gamma: float, d_int: float, d_res: float) -> float:
    """Partial-aggregate and result uploads as a function of the ratio: the
    result at ratio 0, the aggregate at a fractional ratio, nothing at ratio
    1, each within GAMMA_TOL as the replay classifies it."""
    if gamma <= GAMMA_TOL:
        return d_res
    return d_int if gamma < 1.0 - GAMMA_TOL else 0.0


@dataclass(frozen=True)
class VolumeTerms:
    """The ratio-independent inputs of one operator's uplink volumes.

    `nodes` lists, in ascending node order, every node the operator can
    uplink from: its wired sensors' (sensor, data_raw) pairs there, in the
    operator's sensor order, and whether the node is a home node (where the
    aggregate/result terms are charged). Other nodes carry nothing.
    """

    nodes: tuple[tuple[NodeId, tuple[tuple[SensorId, float], ...], bool], ...]
    d_int: float
    d_res: float


class OpVolumes(NamedTuple):
    """An operator's bytes per window: the total and each node's share."""

    total: float
    by_node: tuple[tuple[NodeId, float], ...]


def node_volumes(
    terms: VolumeTerms, gamma: float, gamma_sensor: Mapping[SensorId, float]
) -> OpVolumes:
    """Bytes uplinked per window of one operator, per node and in total.

    Raw samples leave at the sensor-level ratio; a fractional operator adds
    one partial aggregate per window; a fully edge-resident operator uploads
    only its result. The aggregate/result terms are charged at the operator's
    home nodes (they vanish unless gamma is fractional or zero, and such
    operators are single-homed in any feasible assignment). The total folds
    the nodes in ascending order.
    """
    extra = int_res_bytes(gamma, terms.d_int, terms.d_res)
    total = 0.0
    by_node = []
    for k, raws, home in terms.nodes:
        vol = 0.0
        for s, raw in raws:
            vol += raw * gamma_sensor.get(s, 0.0)
        if home:
            vol += extra
        by_node.append((k, vol))
        total += vol
    return OpVolumes(total, tuple(by_node))


def data_volume(
    i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload
) -> float:
    """Bytes uplinked from node k per window of operator i (see node_volumes)."""
    terms = OpFacts.build(w, p, i).terms
    return dict(node_volumes(terms, a.gamma[i], a.gamma_sensor).by_node).get(k, 0.0)


def fold_at(values: Iterable[float], share: float) -> float:
    """Each value times `share`, added left to right (see fold_sum)."""
    total = 0.0
    for v in values:
        total += v * share
    return total


LoadRow = tuple[NodeId, tuple[float, ...], tuple[float, ...]]


@dataclass(frozen=True)
class OpFacts:
    """What pricing and the checks read of one operator, compiled in one
    pass over its sensors' profile rows. `loads` holds a row per node with
    wired sensors, nodes ascending: the node, then those sensors' edge CPU
    cycles and memory bytes in sensor order, folded at the edge share
    1 - gamma (fold_at). The cloud cycles per own sensor fold at gamma."""

    spec: OperatorSpec
    terms: VolumeTerms
    loads: tuple[LoadRow, ...]
    cloud: tuple[float, ...]
    cpu_res: float
    t_req: float | None
    nodes: frozenset[NodeId]
    forced_cloud: bool

    @classmethod
    def build(cls, w: Workload, p: Profile, i: OperatorId) -> "OpFacts":
        op = w.operator(i)
        cloud = []
        cpu: dict[NodeId, list[float]] = {}
        mem: dict[NodeId, list[float]] = {}
        raws: dict[NodeId, list[tuple[SensorId, float]]] = {}
        for s in op.sensors:
            cloud.append(p.cpu_cloud.get((i, s), 0.0))
            k = w.topology.sensor_node.get(s)
            if k is not None:
                key = (i, s, k)
                cpu.setdefault(k, []).append(p.cpu_edge.get(key, 0.0))
                mem.setdefault(k, []).append(p.mem_edge.get(key, 0.0))
                raws.setdefault(k, []).append((s, p.data_raw.get(key, 0.0)))
        homes = home_nodes(w, i)
        return cls(
            spec=op,
            terms=VolumeTerms(
                tuple((k, tuple(raws.get(k, ())), k in homes) for k in sorted(raws.keys() | homes)),
                d_int=p.data_int.get(i, 0.0),
                d_res=p.data_res.get(i, 0.0),
            ),
            loads=tuple((k, tuple(cpu[k]), tuple(mem[k])) for k in sorted(cpu)),
            cloud=tuple(cloud),
            cpu_res=p.cpu_res.get(i, 0.0),
            t_req=effective_t_req(op, p),
            nodes=frozenset(cpu),
            forced_cloud=forced_cloud(w, i),
        )

    def latency_terms(
        self, gamma: float, by_node: Iterable[tuple[NodeId, float]], p: Profile
    ) -> tuple[float, float, float]:
        """The wait-free window latency terms at ratio gamma, in seconds:
        (edge, transfer, cloud). Edge is the slowest node's cycles; transfer
        is the worst node's volume in `by_node` (the operator's
        node_volumes) over its uplink; the result cycles are charged only
        once offloading starts."""
        share = 1.0 - gamma
        t_edge = max(
            (fold_at(cpu, share) / p.cpu_unit_edge[k] for k, cpu, _mem in self.loads),
            default=0.0,
        )
        t_trans = 0.0
        for k, vol in by_node:
            if vol > 0.0:
                t_trans = max(t_trans, vol / p.bandwidth[k])
        res = self.cpu_res if gamma > GAMMA_TOL else 0.0
        return t_edge, t_trans, (fold_at(self.cloud, gamma) + res) / p.cpu_unit_cloud

    def meets_deadline(self, t: float) -> bool:
        """True when the operator has no deadline or latency t meets it."""
        return self.t_req is None or le_with_tol(t, self.t_req)


@dataclass(frozen=True)
class Instance:
    """A workload and profile compiled once: the topological order and each
    operator's OpFacts."""

    w: Workload
    p: Profile
    order: tuple[OperatorId, ...]
    ops: dict[OperatorId, OpFacts]

    @classmethod
    def build(cls, w: Workload, p: Profile) -> "Instance":
        ops = {op.id: OpFacts.build(w, p, op.id) for op in w.operators}
        return cls(w, p, tuple(topological_order(w)), ops)

    def volumes(self, a: Assignment) -> dict[OperatorId, OpVolumes]:
        """Every operator's node_volumes under the assignment."""
        g, gs = a.gamma, a.gamma_sensor
        return {i: node_volumes(f.terms, g[i], gs) for i, f in self.ops.items()}

    def usage(self, a: Assignment) -> dict[NodeId, NodeUsage]:
        """Per-node edge CPU and memory: each operator's load rows folded at
        its edge share, summed per node over operators in workload order."""
        nodes = sorted(self.w.topology.nodes)
        cpu = dict.fromkeys(nodes, 0.0)
        mem = dict.fromkeys(nodes, 0.0)
        for i, f in self.ops.items():
            share = 1.0 - a.gamma[i]
            for k, cycles, nbytes in f.loads:
                if k in cpu:
                    cpu[k] += fold_at(cycles, share)
                    mem[k] += fold_at(nbytes, share)
        return {k: NodeUsage(node=k, cpu_cycles=cpu[k], mem_bytes=mem[k]) for k in nodes}

    def objective(
        self,
        a: Assignment,
        mode: str = "paper",
        horizon_s: float | None = None,
        ops: Iterable[OperatorId] | None = None,
        volumes: Mapping[OperatorId, OpVolumes] | None = None,
    ) -> float:
        """Total uplink bytes under the assignment.

        "paper" sums every operator's node_volumes total independently,
        double-counting raw streams shared between operators. "dedup" counts
        each sensor's upload once per (sensor, node) and keeps per-operator
        aggregate/result terms (see dedup_bytes). Without a horizon the
        figure is per window close; with one, per-operator terms scale by
        their number of closes and dedup raw scales by stream rate. `ops`
        limits the sum to those operator ids, in that order; by default
        every operator counts, in workload order. Paper mode reads each
        operator's node_volumes from `volumes` when given, as
        Instance.volumes prices them, instead of pricing them again.
        """
        if mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {mode!r}")
        facts = [self.ops[i] for i in (self.ops if ops is None else ops)]
        g, gs = a.gamma, a.gamma_sensor
        closes = [
            1 if horizon_s is None else windows_in_horizon(f.spec.window_s, f.spec.step_s, horizon_s)
            for f in facts
        ]
        if mode == "paper":
            vols = (
                node_volumes(f.terms, g[f.spec.id], gs) if volumes is None else volumes[f.spec.id]
                for f in facts
            )
            return fold_sum(v.total * n for v, n in zip(vols, closes))
        raw_best: dict[tuple[SensorId, NodeId], float] = {}
        for f in facts:
            for k, raws, _home in f.terms.nodes:
                for s, raw in raws:
                    if horizon_s is not None:
                        raw = raw / f.spec.window_s * horizon_s
                    if raw > raw_best.get((s, k), 0.0):
                        raw_best[(s, k)] = raw
        terms = (
            int_res_bytes(g[f.spec.id], f.terms.d_int, f.terms.d_res) * n
            for f, n in zip(facts, closes)
        )
        return dedup_bytes(raw_best, gs, terms)


def latency_rows(
    inst: Instance,
    a: Assignment,
    volumes: Mapping[OperatorId, OpVolumes],
    order: Iterable[OperatorId],
) -> Iterator[tuple[OperatorId, float, float, float, float, float]]:
    """Yield (op, t_edge, t_trans, t_wait, t_cloud, t_total) for each operator
    of `order`, the window latency and its terms in seconds.

    The edge, transfer and cloud terms are the operator's latency_terms,
    its transfer read from its node_volumes under `a` in `volumes`. The
    wait is the skew between the totals of the operator's deps, so `order`
    must list every dep ahead of its consumers.
    """
    totals: dict[OperatorId, float] = {}
    for i in order:
        f = inst.ops[i]
        te, tt, tc = f.latency_terms(a.gamma[i], volumes[i].by_node, inst.p)
        dep_totals = [totals[d] for d in f.spec.deps]
        tw = max(dep_totals) - min(dep_totals) if dep_totals else 0.0
        totals[i] = te + tt + tw + tc
        yield i, te, tt, tw, tc, totals[i]


def latency_sum(totals: Mapping[OperatorId, float]) -> float:
    """Latency totals folded in ascending operator id order (see fold_sum)."""
    return fold_sum(totals[i] for i in sorted(totals))


@dataclass(frozen=True)
class OperatorCost:
    op: OperatorId
    gamma: float
    data_bytes: float
    t_req: float | None
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


def node_cpu(i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload) -> float:
    """Edge CPU cycles operator i occupies on node k: its load row there
    folded at its edge share."""
    rows = OpFacts.build(w, p, i).loads
    return fold_at((c for node, cpu, _mem in rows if node == k for c in cpu), 1.0 - a.gamma[i])


def node_mem(i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload) -> float:
    """Edge memory bytes operator i occupies on node k (see node_cpu)."""
    rows = OpFacts.build(w, p, i).loads
    return fold_at((m for node, _cpu, mem in rows if node == k for m in mem), 1.0 - a.gamma[i])


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
    """Total uplink bytes under the assignment (see Instance.objective)."""
    return Instance.build(w, p).objective(a, mode, horizon_s, ops)


def dedup_bytes(
    raw_best: Mapping[tuple[SensorId, NodeId], float],
    gamma_sensor: Mapping[SensorId, float],
    op_terms: Iterable[float],
) -> float:
    """The dedup objective from its parts: each (sensor, node)'s largest raw
    size at its sensor's ratio, in key order, then each operator's
    aggregate/result term, in the given order."""
    total = 0.0
    for (s, _k), raw in sorted(raw_best.items()):
        total += raw * gamma_sensor.get(s, 0.0)
    for term in op_terms:
        total += term
    return total


def cost_report(
    w: Workload,
    p: Profile,
    a: Assignment,
    mode: str = "paper",
    *,
    inst: Instance | None = None,
) -> CostReport:
    """Per-operator latency/volume rows plus per-node usage for an assignment.
    `inst`, when given, is Instance.build(w, p), compiled by the caller."""
    inst = inst or Instance.build(w, p)
    volumes = inst.volumes(a)
    rows: dict[OperatorId, OperatorCost] = {}
    for i, te, tt, tw, tc, t in latency_rows(inst, a, volumes, inst.order):
        rows[i] = OperatorCost(
            op=i,
            gamma=a.gamma[i],
            data_bytes=volumes[i].total,
            t_req=inst.ops[i].t_req,
            t_edge=te,
            t_trans=tt,
            t_wait=tw,
            t_cloud=tc,
            t_total=t,
        )
    rows = {i: rows[i] for i in sorted(rows)}
    return CostReport(
        per_operator=rows,
        per_node=inst.usage(a),
        objective_bytes=inst.objective(a, mode, volumes=volumes),
        latency_sum=latency_sum({i: row.t_total for i, row in rows.items()}),
    )
