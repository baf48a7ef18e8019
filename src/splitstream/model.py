"""Domain model for windowed stream operators on an edge-cloud topology.

An operator consumes raw samples from logical sensors (atomic) or the outputs
of other operators (composite), evaluates a window function every step, and
emits results at a fixed frequency. Sensors are wired to exactly one edge
node; operators are placed fractionally between edge and cloud by an offload
ratio decided elsewhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Iterable

SensorId = int
NodeId = int
OperatorId = int

# Absolute tolerance for offload-ratio domain and equality checks.
GAMMA_TOL = 1e-9
# Relative tolerance for latency and capacity comparisons.
REL_TOL = 1e-9


def check_positive(name: str, value: float) -> float:
    """The value, or ValueError unless it is positive and finite. NaN fails
    every comparison, so the test is for the good case."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_cost(name: str, key: object, value: float) -> float:
    """The value, or ValueError unless it is finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a non-negative finite number for {key}, got {value}")
    return value


def fold_sum(values: Iterable[float]) -> float:
    """The floats added left to right, as `sum` did before Python 3.12 began
    compensating float rounding, so the result is the same on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


@unique
class FunctionKind(str, Enum):
    """Window functions the engine knows how to evaluate."""

    MEAN = "mean"
    MSQRT = "msqrt"
    MAX = "max"
    MIN = "min"
    FIRST = "first"
    LAST = "last"
    RANGE = "range"
    STD = "std"
    VAR = "var"
    COV = "cov"
    SPEED = "speed"
    ACC = "acc"
    DISP = "disp"
    CC = "cc"
    FILTER = "filter"
    TREND = "trend"
    SURGE = "surge"
    AVGWS = "avgws"
    AVGWA = "avgwa"
    GF = "gf"
    FWS = "fws"
    TI = "ti"
    AOA = "aoa"
    AWD = "awd"


# Function shapes and partial-state sizes: what the cost model and the
# profile read of a function without evaluating it (see functions.py).
F = FunctionKind

PER_CHANNEL = {
    F.MEAN, F.MSQRT, F.MAX, F.MIN, F.FIRST, F.LAST, F.RANGE, F.STD, F.VAR,
    F.DISP, F.FILTER, F.SURGE, F.GF, F.SPEED, F.ACC, F.TREND,
}

CROSS_CHANNEL = {F.COV, F.CC, F.AVGWS, F.AVGWA, F.AOA, F.AWD, F.FWS, F.TI}

# The 8-byte values in one channel's partial state (per-channel functions)
# or in the whole state (cross-channel ones): the one home of which
# functions split. GF's size follows the context (see state_length).
_STATE_LEN = {
    F.MEAN: 2, F.DISP: 2, F.MSQRT: 2, F.STD: 4, F.VAR: 4, F.SURGE: 3,
    F.SPEED: 5, F.ACC: 5, F.TREND: 6, F.GF: None,
    F.COV: 6, F.AVGWS: 2, F.AOA: 3, F.AWD: 3,
}

SPLITTABLE = frozenset(_STATE_LEN)


@dataclass(frozen=True)
class FunctionContext:
    """Knobs the window functions need beyond the samples themselves."""

    sample_rate_hz: float = 10.0
    disp_baseline: float = 0.0
    filter_len: int = 5
    gf_subwindow_s: float = 3.0

    def gf_k(self) -> int:
        return max(1, int(round(self.gf_subwindow_s * self.sample_rate_hz)))


DEFAULT_CONTEXT = FunctionContext()


def output_arity(func: FunctionKind, n_channels: int) -> int:
    if n_channels <= 0:
        return 0
    return n_channels if func in PER_CHANNEL else 1


def is_splittable(func: FunctionKind) -> bool:
    return func in SPLITTABLE


def state_length(func: FunctionKind, n_channels: int, ctx: FunctionContext = DEFAULT_CONTEXT) -> int:
    """Number of 8-byte values in a serialized partial state."""
    if func not in SPLITTABLE or n_channels <= 0:
        return 0
    size = 2 * ctx.gf_k() + 3 if func is F.GF else _STATE_LEN[func]
    return size * n_channels if func in PER_CHANNEL else size


@dataclass(frozen=True)
class OperatorSpec:
    """One stream operator.

    Atomic operators (empty deps) read sensor samples directly. Composite
    operators read the outputs of their dependencies; their listed sensors
    record which raw streams the pipeline is over.
    """

    id: OperatorId
    sensors: tuple[SensorId, ...]
    deps: tuple[OperatorId, ...]
    func: FunctionKind
    iterative: bool
    window_s: float
    step_s: float
    freq_s: float
    t_req_s: float | None = None

    @property
    def atomic(self) -> bool:
        return not self.deps


@dataclass(frozen=True)
class Topology:
    """Wiring of logical sensors to edge nodes (one node per sensor)."""

    sensor_node: dict[SensorId, NodeId]
    nodes: frozenset[NodeId]

    @classmethod
    def build(cls, sensor_node: dict[SensorId, NodeId]) -> "Topology":
        return cls(dict(sensor_node), frozenset(sensor_node.values()))


@dataclass(frozen=True)
class Workload:
    """A set of operators plus the sensor topology they run against."""

    operators: tuple[OperatorSpec, ...]
    sensors: frozenset[SensorId]
    topology: Topology
    by_id: dict[OperatorId, OperatorSpec] = field(repr=False, default_factory=dict)

    @classmethod
    def build(cls, operators: list[OperatorSpec], topology: Topology) -> "Workload":
        sensors = set(topology.sensor_node)
        for op in operators:
            sensors.update(op.sensors)
        return cls(
            operators=tuple(operators),
            sensors=frozenset(sensors),
            topology=topology,
            by_id={op.id: op for op in operators},
        )

    def operator(self, op_id: OperatorId) -> OperatorSpec:
        try:
            return self.by_id[op_id]
        except KeyError:
            raise KeyError(f"unknown operator id {op_id}") from None


# Violation categories reported by validate_workload.
V_CYCLE = "cycle"
V_DANGLING = "dangling-ref"
V_UNWIRED = "unwired-sensor"
V_NONPOSITIVE = "nonpositive-duration"


@dataclass(frozen=True)
class WorkloadViolation:
    category: str
    subject: int
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[WorkloadViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_workload(w: Workload) -> ValidationReport:
    """Structural checks: acyclic deps, resolvable references, wired sensors,
    finite positive durations. An empty report means the workload is usable."""
    out: list[WorkloadViolation] = []
    seen: set[OperatorId] = set()
    for op in w.operators:
        if op.id in seen:
            out.append(WorkloadViolation(V_DANGLING, op.id, "duplicate operator id"))
        seen.add(op.id)

    ids = set(w.by_id)
    for op in w.operators:
        for dep in op.deps:
            if dep not in ids:
                out.append(
                    WorkloadViolation(V_DANGLING, op.id, f"dep {dep} does not exist")
                )
        for s in op.sensors:
            if s not in w.topology.sensor_node:
                out.append(
                    WorkloadViolation(V_UNWIRED, s, f"sensor {s} of op {op.id} has no node")
                )
        durations = [
            ("window_s", op.window_s),
            ("step_s", op.step_s),
            ("freq_s", op.freq_s),
        ]
        if op.t_req_s is not None:
            durations.append(("t_req_s", op.t_req_s))
        for name, value in durations:
            # NaN fails every comparison, so `value <= 0` alone lets it pass.
            if not (math.isfinite(value) and value > 0):
                out.append(
                    WorkloadViolation(V_NONPOSITIVE, op.id, f"{name} = {value}")
                )

    out.extend(_find_cycles(w))
    return ValidationReport(tuple(out))


def _find_cycles(w: Workload) -> list[WorkloadViolation]:
    """One violation per dependency cycle, anchored at its smallest member."""
    color: dict[OperatorId, int] = {}  # 0 unvisited, 1 on stack, 2 done
    cycles: list[tuple[OperatorId, ...]] = []
    for op in w.operators:
        if color.get(op.id, 0):
            continue
        # A depth-first walk with an explicit stack, so that a long chain
        # does not overflow Python's: path[i] is on the walk and deps[i]
        # holds the dependencies of path[i] still to visit.
        color[op.id] = 1
        path, deps = [op.id], [iter(w.by_id[op.id].deps)]
        while deps:
            for v in deps[-1]:
                if v not in w.by_id:
                    continue
                c = color.get(v, 0)
                if c == 0:
                    color[v] = 1
                    path.append(v)
                    deps.append(iter(w.by_id[v].deps))
                    break
                if c == 1:
                    cycles.append(tuple(path[path.index(v):]))
            else:
                color[path.pop()] = 2
                deps.pop()

    out = []
    reported: set[frozenset[OperatorId]] = set()
    for cycle in cycles:
        key = frozenset(cycle)
        if key in reported:
            continue
        reported.add(key)
        members = ",".join(str(i) for i in sorted(cycle))
        out.append(WorkloadViolation(V_CYCLE, min(cycle), f"cycle through {members}"))
    return out


def topological_order(w: Workload) -> list[OperatorId]:
    """Evaluation order: every atomic operator first (ascending id), then
    composites once all their deps are placed, ties broken by ascending id.

    Raises ValueError on cycles or dangling deps; run validate_workload first
    for a full diagnosis.
    """
    indeg: dict[OperatorId, int] = {}
    consumers: dict[OperatorId, list[OperatorId]] = {op.id: [] for op in w.operators}
    for op in w.operators:
        indeg[op.id] = 0
        for dep in op.deps:
            if dep not in w.by_id:
                raise ValueError(f"operator {op.id} depends on unknown operator {dep}")
    for op in w.operators:
        for dep in op.deps:
            indeg[op.id] += 1
            consumers[dep].append(op.id)

    # Key (composite?, id) keeps atomics strictly ahead of composites.
    ready = [(0 if w.by_id[i].atomic else 1, i) for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[OperatorId] = []
    while ready:
        _, u = heapq.heappop(ready)
        order.append(u)
        for v in consumers[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, (0 if w.by_id[v].atomic else 1, v))
    if len(order) != len(w.operators):
        missing = sorted(set(w.by_id) - set(order))
        raise ValueError(f"dependency cycle involving operators {missing}")
    return order


def sensor_clusters(w: Workload) -> list[tuple[OperatorId, ...]]:
    """Partition operators into groups linked by shared sensors or deps.

    Offload decisions interact only inside a group (sensor-level ratios are
    maxima over co-consumers; composite ratios derive from deps), so each
    group can be searched independently when node capacity is not contended.
    Clusters are ordered by smallest member; members ascend.
    """

    def links():
        first_user: dict[SensorId, OperatorId] = {}
        for op in w.operators:
            for s in op.sensors:
                if s in first_user:
                    yield op.id, first_user[s]
                else:
                    first_user[s] = op.id
            for dep in op.deps:
                if dep in w.by_id:
                    yield op.id, dep

    groups = union_find_groups([op.id for op in w.operators], links())
    return [tuple(sorted(g)) for g in groups]


def union_find_groups(keys: list[int], links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of `keys` joined by `links`, each listing its
    keys in `keys` order; the components are ordered by smallest key."""
    parent = {k: k for k in keys}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for k in keys:
        groups.setdefault(find(k), []).append(k)
    return [g for _, g in sorted(groups.items())]


def transitive_sensors(w: Workload, op_id: OperatorId) -> frozenset[SensorId]:
    """All sensors reachable through op's dependency closure, own included."""
    seen: set[OperatorId] = set()
    sensors: set[SensorId] = set()
    stack = [op_id]
    while stack:
        u = stack.pop()
        if u in seen or u not in w.by_id:
            continue
        seen.add(u)
        op = w.by_id[u]
        sensors.update(op.sensors)
        stack.extend(op.deps)
    return frozenset(sensors)
