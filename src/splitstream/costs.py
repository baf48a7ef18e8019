"""Analytic cost model: data volumes, latency components, node usage.

Offload ratios live in [0, 1], one per operator: 0 keeps the work on the
edge node, 1 ships the raw window to the cloud, fractional values ship a raw
share plus one partial-aggregate upload per window, by model's one rule of
where a window runs (runs_at_edge, runs_split, runs_in_cloud), which the
checks, the search and the replay read too: a ratio within GAMMA_TOL of 0
or 1, or past it, counts as 0 or 1, and NaN as split. A sensor's upload
ratio is the max over the operators consuming it.

Edge-side compute and usage scale by (1 - gamma) and cloud-side compute by
gamma, as the replay splits each window; the cloud merge cost is charged
unless the window runs at the edge. (The source swaps the two scalings.)

Bytes and latencies are priced from the ratios where they are read, by
OpFacts.total, volumes and latency_terms; latency_rows chains the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import (
    REL_TOL,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Workload,
    check_cost,
    check_positive,
    fold_sum,
    runs_at_edge,
    runs_in_cloud,
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


# The profile's tables by row kind, in the file's column order. A per_sensor
# row is keyed (op, sensor, node), a per_operator row by op, a node table by
# node; cpu_unit_cloud and t_req_s are read and checked on their own.
PER_SENSOR = ("cpu_edge", "cpu_cloud", "mem_edge", "data_raw")
PER_OPERATOR = ("cpu_res", "data_int", "data_res")
PER_NODE = ("cpu_unit_edge", "bandwidth", "cpu_cap", "mem_cap")


def table_key(name: str, key: tuple[OperatorId, SensorId, NodeId]) -> tuple:
    """Per_sensor table `name`'s key for the row (op, sensor, node): the
    cloud's cycles, cpu_cloud, do not depend on the node."""
    return key[:2] if name == "cpu_cloud" else key


def check_profile(p: Profile) -> Profile:
    """p, or ValueError naming the first row a table lacks or the first
    figure that breaks a profile's value rules. Every (op, sensor, node) key
    of cpu_edge has a row in each per_sensor table, and every op of cpu_res
    one in each per_operator table. Costs are finite and non-negative; clock
    rates and bandwidths, which divide, and caps and deadlines, which are
    strict bounds, positive and finite. The reader, the writer and
    generate_profile all apply it."""
    for key in p.cpu_edge:
        for name in PER_SENSOR:
            check_cost(name, key, _row(p, name, table_key(name, key)))
    for op in p.cpu_res:
        for name in PER_OPERATOR:
            check_cost(name, f"op {op}", _row(p, name, op))
    check_positive("cpu_unit_cloud", p.cpu_unit_cloud)
    for name in (*PER_NODE, "t_req_s"):
        where = "op" if name == "t_req_s" else "node"
        for k, value in getattr(p, name).items():
            check_positive(f"{name} of {where} {k}", value)
    return p


def _row(p: Profile, name: str, key: object) -> float:
    """Table `name`'s figure at `key`, or ValueError naming both."""
    table = getattr(p, name)
    if key not in table:
        labels = zip(("op", "sensor", "node"), key if isinstance(key, tuple) else (key,))
        raise ValueError(f"no {name} for {', '.join(f'{n} {v}' for n, v in labels)}")
    return table[key]


def validate_profile(w: Workload, p: Profile) -> None:
    """Raise ValueError at the first row the workload needs and the profile
    lacks: an (op, sensor, node) or per-operator row, or a topology node's
    bandwidth or edge clock rate."""
    for op in w.operators:
        for s in op.sensors:
            key = (op.id, s, w.topology.sensor_node.get(s))
            if any(table_key(name, key) not in getattr(p, name) for name in PER_SENSOR):
                raise ValueError(f"no per_sensor row for op {op.id}, sensor {s}, node {key[2]}")
        if any(op.id not in getattr(p, name) for name in PER_OPERATOR):
            raise ValueError(f"no per_operator row for op {op.id}")
    for k in sorted(w.topology.nodes):
        for name in ("bandwidth", "cpu_unit_edge"):
            if k not in getattr(p, name):
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
    """Partial-aggregate and result uploads by where the window runs: the
    result at the edge, nothing in the cloud, the aggregate when split."""
    return d_res if runs_at_edge(gamma) else 0.0 if runs_in_cloud(gamma) else d_int


def data_volume(
    i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload
) -> float:
    """Bytes uplinked from node k per window of operator i (see OpFacts.volumes)."""
    return dict(OpFacts.build(w, p, i).volumes(a.gamma[i], a.gamma_sensor)).get(k, 0.0)


def fold_at(values: Iterable[float], share: float) -> float:
    """Each value times `share`, added left to right (see fold_sum)."""
    total = 0.0
    for v in values:
        total += v * share
    return total


class NodeRow(NamedTuple):
    """What one operator reads of one node: its wired sensors' (sensor,
    data_raw) pairs there, in the operator's sensor order, with those
    sensors' edge CPU cycles and memory bytes, and whether the node is a
    home node, where the aggregate/result terms are charged. A home node
    without wired sensors has empty tuples."""

    node: NodeId
    raws: tuple[tuple[SensorId, float], ...]
    cpu: tuple[float, ...]
    mem: tuple[float, ...]
    home: bool


def node_rows(w: Workload, p: Profile, i: OperatorId) -> tuple[NodeRow, ...]:
    """Operator i's NodeRows, read in one pass over its sensors' profile
    rows: one per node with wired sensors or home to it, nodes ascending."""
    wired: dict[NodeId, tuple[list, list, list]] = {}
    for s in w.operator(i).sensors:
        k = w.topology.sensor_node.get(s)
        if k is not None:
            key = (i, s, k)
            raws, cpu, mem = wired.setdefault(k, ([], [], []))
            raws.append((s, p.data_raw.get(key, 0.0)))
            cpu.append(p.cpu_edge.get(key, 0.0))
            mem.append(p.mem_edge.get(key, 0.0))
    homes = home_nodes(w, i)
    rows = []
    for k in sorted(wired.keys() | homes):
        raws, cpu, mem = wired.get(k, ((), (), ()))
        rows.append(NodeRow(k, tuple(raws), tuple(cpu), tuple(mem), k in homes))
    return tuple(rows)


@dataclass(frozen=True)
class OpFacts:
    """What pricing and the checks read of one operator, compiled once:
    its node_rows, per-operator sizes and cloud cycles per own sensor. Edge
    cycles and bytes fold at the edge share 1 - gamma (fold_at), the cloud
    cycles at gamma. Bytes are priced from the ratios where they are read:
    volumes per node, for latency, and total, their sum, for byte counts."""

    spec: OperatorSpec
    rows: tuple[NodeRow, ...]
    d_int: float
    d_res: float
    cloud: tuple[float, ...]
    cpu_res: float
    t_req: float | None
    nodes: frozenset[NodeId]
    forced_cloud: bool
    may_miss: bool

    @classmethod
    def build(cls, w: Workload, p: Profile, i: OperatorId) -> "OpFacts":
        """Compile operator i. may_miss is False when the deadline holds the
        sum of latency_terms' terms each at its worst, which no ratio or
        sensor ratios exceed, in floats too: edge at ratio 0, cloud at ratio
        1, transfer at sensor ratios 1 and the larger of d_int and d_res."""
        op = w.operator(i)
        rows = node_rows(w, p, i)
        facts = cls(
            spec=op,
            rows=rows,
            d_int=p.data_int.get(i, 0.0),
            d_res=p.data_res.get(i, 0.0),
            cloud=tuple(p.cpu_cloud.get((i, s), 0.0) for s in op.sensors),
            cpu_res=p.cpu_res.get(i, 0.0),
            t_req=effective_t_req(op, p),
            nodes=frozenset(r.node for r in rows if r.raws),
            forced_cloud=forced_cloud(w, i),
            may_miss=False,
        )
        if facts.t_req is None:
            return facts
        ones = dict.fromkeys(op.sensors, 1.0)
        # Ratio 0 uplinks d_res at home, a fractional ratio d_int.
        by_node = facts.volumes(0.0 if facts.d_res >= facts.d_int else 0.5, ones)
        t_edge, t_trans, _ = facts.latency_terms(0.0, by_node, p)
        worst = t_edge + t_trans + facts.latency_terms(1.0, (), p)[2]
        return facts if worst <= facts.t_req else replace(facts, may_miss=True)

    def volumes(
        self, gamma: float, gamma_sensor: Mapping[SensorId, float]
    ) -> tuple[tuple[NodeId, float], ...]:
        """Bytes uplinked per window from each of the operator's nodes, as
        ((node, bytes), ...) in row order.

        Raw samples leave at the sensor-level ratio; a fractional operator
        adds one partial aggregate per window; a fully edge-resident operator
        uploads only its result. The aggregate/result terms are charged at
        the home nodes (they vanish unless gamma is fractional or zero, and
        such operators are single-homed in any feasible assignment).
        """
        extra = int_res_bytes(gamma, self.d_int, self.d_res)
        by_node = []
        for k, raws, _cpu, _mem, home in self.rows:
            vol = 0.0
            for s, raw in raws:
                vol += raw * gamma_sensor.get(s, 0.0)
            if home:
                vol += extra
            by_node.append((k, vol))
        return tuple(by_node)

    def total(self, gamma: float, gamma_sensor: Mapping[SensorId, float]) -> float:
        """Bytes uplinked per window in all: volumes' node shares added left
        to right, bit for bit, without building them."""
        extra = int_res_bytes(gamma, self.d_int, self.d_res)
        total = 0.0
        for _k, raws, _cpu, _mem, home in self.rows:
            vol = 0.0
            for s, raw in raws:
                vol += raw * gamma_sensor.get(s, 0.0)
            if home:
                vol += extra
            total += vol
        return total

    def latency_terms(
        self, gamma: float, by_node: Iterable[tuple[NodeId, float]], p: Profile
    ) -> tuple[float, float, float]:
        """The wait-free window latency terms at ratio gamma, in seconds:
        (edge, transfer, cloud). Edge is the slowest wired node's cycles;
        transfer is the worst node's volume in `by_node` (the operator's
        volumes) over its uplink; the result cycles are charged only once
        offloading starts."""
        share = 1.0 - gamma
        t_edge = max(
            (fold_at(r.cpu, share) / p.cpu_unit_edge[r.node] for r in self.rows if r.raws),
            default=0.0,
        )
        t_trans = 0.0
        for k, vol in by_node:
            if vol > 0.0:
                t_trans = max(t_trans, vol / p.bandwidth[k])
        res = 0.0 if runs_at_edge(gamma) else self.cpu_res
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

    def usage(self, a: Assignment) -> dict[NodeId, NodeUsage]:
        """Per-node edge CPU and memory: each operator's node rows folded at
        its edge share, summed per node over operators in workload order."""
        nodes = sorted(self.w.topology.nodes)
        cpu = dict.fromkeys(nodes, 0.0)
        mem = dict.fromkeys(nodes, 0.0)
        for i, f in self.ops.items():
            share = 1.0 - a.gamma[i]
            for k, _raws, cycles, nbytes, _home in f.rows:
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
    ) -> float:
        """Total uplink bytes under the assignment.

        "paper" sums every operator's volumes total independently,
        double-counting raw streams shared between operators. "dedup" counts
        each sensor's upload once per (sensor, node) and keeps per-operator
        aggregate/result terms (see dedup_bytes). Without a horizon the
        figure is per window close; with one, positive and finite, per-operator
        terms scale by their number of closes and dedup raw by stream rate. `ops`
        limits the sum to those operator ids, in that order; by default
        every operator counts, in workload order.
        """
        if mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {mode!r}")
        if horizon_s is not None:
            check_positive("horizon", horizon_s)
        facts = [self.ops[i] for i in (self.ops if ops is None else ops)]
        g, gs = a.gamma, a.gamma_sensor
        closes = [
            1 if horizon_s is None else windows_in_horizon(f.spec.window_s, f.spec.step_s, horizon_s)
            for f in facts
        ]
        if mode == "paper":
            return fold_sum(f.total(g[f.spec.id], gs) * n for f, n in zip(facts, closes))
        raw_best: dict[tuple[SensorId, NodeId], float] = {}
        for f in facts:
            for k, raws, _cpu, _mem, _home in f.rows:
                for s, raw in raws:
                    if horizon_s is not None:
                        raw = raw / f.spec.window_s * horizon_s
                    if raw > raw_best.get((s, k), 0.0):
                        raw_best[(s, k)] = raw
        terms = (
            int_res_bytes(g[f.spec.id], f.d_int, f.d_res) * n
            for f, n in zip(facts, closes)
        )
        return dedup_bytes(raw_best, gs, terms)


def latency_rows(
    inst: Instance, a: Assignment, order: Iterable[OperatorId]
) -> Iterator[tuple[OperatorId, float, float, float, float, float]]:
    """Yield (op, t_edge, t_trans, t_wait, t_cloud, t_total) for each operator
    of `order`, the window latency and its terms in seconds.

    The edge, transfer and cloud terms are the operator's latency_terms,
    its transfer read from its OpFacts.volumes priced from the ratios of
    `a`. The wait is the skew between the totals of the operator's deps, so
    `order` must list every dep ahead of its consumers.
    """
    g, gs = a.gamma, a.gamma_sensor
    totals: dict[OperatorId, float] = {}
    for i in order:
        f = inst.ops[i]
        te, tt, tc = f.latency_terms(g[i], f.volumes(g[i], gs), inst.p)
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
    """Edge CPU cycles operator i occupies on node k: its node row there
    folded at its edge share."""
    rows = node_rows(w, p, i)
    return fold_at((c for row in rows if row.node == k for c in row.cpu), 1.0 - a.gamma[i])


def node_mem(i: OperatorId, k: NodeId, a: Assignment, p: Profile, w: Workload) -> float:
    """Edge memory bytes operator i occupies on node k (see node_cpu)."""
    rows = node_rows(w, p, i)
    return fold_at((m for row in rows if row.node == k for m in row.mem), 1.0 - a.gamma[i])


def windows_in_horizon(window_s: float, step_s: float, horizon_s: float) -> int:
    """Number of window closes within a horizon (closes at window + n*step).
    Raises ValueError when that number is not finite."""
    if horizon_s + 1e-9 < window_s:
        return 0
    steps = (horizon_s - window_s) / step_s + 1e-9
    if not math.isfinite(steps):
        raise ValueError(f"{window_s} s windows every {step_s} s close {steps} times in {horizon_s} s")
    return int(math.floor(steps)) + 1


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
    rows: dict[OperatorId, OperatorCost] = {}
    for i, te, tt, tw, tc, t in latency_rows(inst, a, inst.order):
        rows[i] = OperatorCost(
            op=i,
            gamma=a.gamma[i],
            data_bytes=inst.ops[i].total(a.gamma[i], a.gamma_sensor),
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
        objective_bytes=inst.objective(a, mode),
        latency_sum=latency_sum({i: row.t_total for i, row in rows.items()}),
    )
