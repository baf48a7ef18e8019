"""Progressive enumeration of offload ratios with pre-flight pruning.

Free variables are the atomic operators: splittable ones range over the
gamma grid {0, delta, 2*delta, ...} + {1}, non-splittable ones over {0, 1},
and operators whose sensor locality forces full offload are pinned to 1.
Composite ratios derive from their dependencies, so the search never branches
on them.

Operators are searched in dependency-linked clusters. Clusters are
independent except for node capacity; clusters sharing a node whose capacity
could bind are merged before the search so pruning stays exact.

Three pre-flight checks gate every branch, in order: resource (partial
CPU/memory sums against capacity), incumbent bound (partial objective against
the best complete solution), latency (deadline check on a lower bound of each
decided operator's total). A branch is pruned on the bound check only when it
is strictly worse than the incumbent, so equal-objective leaves survive to
the deterministic tie-break: smaller latency sum, then lexicographically
smallest ratio vector in topological order.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .costs import (
    Assignment,
    CostReport,
    Profile,
    cost_report,
    edge_loads,
    effective_t_req,
    latency_rows,
    le_with_tol,
    lt_strict,
    node_usage,
    total_objective,
)
from .feasibility import (
    check_assignment,
    composite_gamma,
    forced_cloud,
    propagate_composite_gamma,
)
from .model import (
    NodeId,
    OperatorId,
    SensorId,
    Workload,
    sensor_clusters,
    topological_order,
)

ENUMERATION_CAP = 1_000_000


class EnumerationLimitError(ValueError):
    """Raised when brute force would enumerate more than the cap allows."""


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 0.05
    objective_mode: str = "paper"
    cost_orientation: str = "corrected"
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.objective_mode not in ("paper", "dedup"):
            raise ValueError(f"unknown objective mode {self.objective_mode!r}")
        if self.cost_orientation not in ("corrected", "literal"):
            raise ValueError(f"unknown orientation {self.cost_orientation!r}")


@dataclass
class Solution:
    feasible: bool
    assignment: Assignment | None
    objective_bytes: float | None
    report: CostReport | None
    stats: dict
    budget_exceeded: bool = False


def gamma_grid(delta: float) -> tuple[float, ...]:
    """Offload-ratio grid: multiples of delta below 1, then 1 itself."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    values = []
    k = 0
    while True:
        v = round(k * delta, 12)
        if v >= 1.0 - 1e-12:
            break
        values.append(v)
        k += 1
    values.append(1.0)
    return tuple(values)


def operator_domain(
    w: Workload, op_id: OperatorId, grid: tuple[float, ...]
) -> tuple[float, ...]:
    """Candidate ratios for one atomic operator."""
    if forced_cloud(w, op_id):
        return (1.0,)
    if not w.operator(op_id).iterative:
        return (0.0, 1.0)
    return grid


@dataclass
class SearchState:
    """Partially enumerated cluster: decided ratios plus running node sums.

    It prices like an Assignment over the decided operators: op_gamma and
    gamma_sensor are what the cost functions read.
    """

    w: Workload
    p: Profile
    orientation: str
    gamma: dict[OperatorId, float] = field(default_factory=dict)
    gamma_sensor: dict[SensorId, float] = field(default_factory=dict)
    cpu_used: dict[NodeId, float] = field(default_factory=dict)
    mem_used: dict[NodeId, float] = field(default_factory=dict)

    def op_gamma(self, w: Workload, op_id: OperatorId) -> float:
        return self.gamma[op_id]

    def assign(self, op_id: OperatorId, gamma: float) -> list:
        """Record one decided operator; returns an undo token."""
        op = self.w.operator(op_id)
        undo: list = [op_id]
        self.gamma[op_id] = gamma
        for s in op.sensors:
            old = self.gamma_sensor.get(s, 0.0)
            if gamma > old:
                undo.append(("s", s, old))
                self.gamma_sensor[s] = gamma
        for k, dc, dm in edge_loads(op, gamma, self.p, self.w, self.orientation):
            if dc:
                self.cpu_used[k] = self.cpu_used.get(k, 0.0) + dc
                undo.append(("c", k, dc))
            if dm:
                self.mem_used[k] = self.mem_used.get(k, 0.0) + dm
                undo.append(("m", k, dm))
        return undo

    def unassign(self, undo: list) -> None:
        op_id = undo[0]
        del self.gamma[op_id]
        for tag, key, val in undo[1:]:
            if tag == "s":
                self.gamma_sensor[key] = val
            elif tag == "c":
                self.cpu_used[key] -= val
            else:
                self.mem_used[key] -= val


def preflight_resource(state: SearchState) -> NodeId | None:
    """First node whose partial CPU or memory sum already meets its cap."""
    for k in state.cpu_used:
        cap = state.p.cpu_cap.get(k)
        if cap is not None and not lt_strict(state.cpu_used[k], cap):
            return k
    for k in state.mem_used:
        cap = state.p.mem_cap.get(k)
        if cap is not None and not lt_strict(state.mem_used[k], cap):
            return k
    return None


def preflight_bound(partial_objective: float, incumbent: float | None) -> bool:
    """True when the partial objective is strictly worse than the incumbent.

    Equal partials may still win the tie-break, so they are not cut.
    """
    return incumbent is not None and partial_objective > incumbent


def preflight_latency(state: SearchState, order: list[OperatorId]) -> OperatorId | None:
    """First decided operator whose latency lower bound misses its deadline.

    `order` is the cluster's evaluation order; undecided operators are
    skipped. The bound leaves out the wait, which can shrink as later
    decisions raise the fastest dep's total; transfer uses the decided
    sensor maxima, which only grow. So a failure here is final for the
    whole subtree.
    """
    decided = [i for i in order if i in state.gamma]
    rows = latency_rows(state, state.p, state.w, decided, state.orientation)
    for i, te, tt, _tw, tc, _t in rows:
        t_req = effective_t_req(state.w.operator(i), state.p)
        if t_req is not None and not le_with_tol(te + tt + tc, t_req):
            return i
    return None


class _BudgetExceeded(Exception):
    pass


@dataclass
class _ClusterResult:
    feasible: bool
    gamma: dict[OperatorId, float] | None
    objective: float | None


def _solve_cluster(
    w: Workload,
    p: Profile,
    cfg: SolverConfig,
    cluster: tuple[OperatorId, ...],
    grid: tuple[float, ...],
    stats: dict,
    deadline: float | None,
) -> _ClusterResult:
    members = set(cluster)
    topo = [i for i in topological_order(w) if i in members]
    atoms = [i for i in topo if w.operator(i).atomic]
    domains = [operator_domain(w, i, grid) for i in atoms]
    atom_pos = {i: d for d, i in enumerate(atoms)}

    # Depth at which each composite becomes fully derived.
    comp_at: dict[int, list[OperatorId]] = {}
    for i in topo:
        op = w.operator(i)
        if op.atomic:
            continue
        seen: set[OperatorId] = set()
        stack = list(op.deps)
        depth = 0
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            dep = w.operator(u)
            if dep.atomic:
                depth = max(depth, atom_pos[u] + 1)
            else:
                stack.extend(dep.deps)
        comp_at.setdefault(depth, []).append(i)

    state = SearchState(w=w, p=p, orientation=cfg.cost_orientation)
    best: list = [None]  # [ (objective, latency_sum, gamma_vector, gamma_dict) ]

    def leaf_eval() -> None:
        if preflight_resource(state) is not None:
            return
        totals: dict[OperatorId, float] = {}
        for i, _te, _tt, _tw, _tc, t in latency_rows(state, p, w, topo, cfg.cost_orientation):
            t_req = effective_t_req(w.operator(i), p)
            if t_req is not None and not le_with_tol(t, t_req):
                return
            totals[i] = t
        objective = total_objective(state, p, w, cfg.objective_mode, ops=cluster)
        latency_sum = sum(totals[i] for i in sorted(totals))
        gvec = tuple(state.gamma[i] for i in topo)
        candidate = (objective, latency_sum, gvec)
        if best[0] is None or candidate < best[0][:3]:
            best[0] = (objective, latency_sum, gvec, dict(state.gamma))

    def place(op_id: OperatorId, gamma: float, undos: list) -> None:
        undos.append(state.assign(op_id, gamma))

    def propagate_depth(depth: int, undos: list) -> None:
        for i in comp_at.get(depth, ()):
            dep_gammas = [state.gamma[d] for d in w.operator(i).deps]
            place(i, composite_gamma(w, i, dep_gammas), undos)

    def descend(depth: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded
        if depth == len(atoms):
            leaf_eval()
            return
        for gamma in domains[depth]:
            stats["nodes_explored"] += 1
            undos: list = []
            place(atoms[depth], gamma, undos)
            propagate_depth(depth + 1, undos)
            if preflight_resource(state) is not None:
                stats["prunes"]["resource"] += 1
            elif preflight_bound(
                total_objective(
                    state, p, w, cfg.objective_mode,
                    ops=[i for i in cluster if i in state.gamma],
                ),
                best[0][0] if best[0] is not None else None,
            ):
                stats["prunes"]["bound"] += 1
            elif preflight_latency(state, topo) is not None:
                stats["prunes"]["latency"] += 1
            else:
                descend(depth + 1)
            for undo in reversed(undos):
                state.unassign(undo)

    # Cloud-only incumbent: a feasible all-ones leaf seeds the bound check.
    undos: list = []
    if atoms:
        for d, i in enumerate(atoms):
            place(i, 1.0, undos)
            propagate_depth(d + 1, undos)
    else:
        propagate_depth(0, undos)
    leaf_eval()
    for undo in reversed(undos):
        state.unassign(undo)

    if atoms:
        descend(0)
    else:
        undos = []
        propagate_depth(0, undos)
        leaf_eval()
        for undo in reversed(undos):
            state.unassign(undo)

    if best[0] is None:
        return _ClusterResult(feasible=False, gamma=None, objective=None)
    return _ClusterResult(feasible=True, gamma=best[0][3], objective=best[0][0])


def _merge_capacity_coupled(
    w: Workload, p: Profile, clusters: list[tuple[OperatorId, ...]]
) -> list[tuple[OperatorId, ...]]:
    """Join clusters that share a node whose capacity could bind.

    A node's worst case is its full edge load: the all-edge usage under the
    corrected orientation, which the literal one reaches at ratio 1.
    """
    all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
    contended: set[NodeId] = set()
    for k, worst in node_usage(all_edge, p, w).items():
        cap_c, cap_m = p.cpu_cap.get(k), p.mem_cap.get(k)
        if (cap_c is not None and not lt_strict(worst.cpu_cycles, cap_c)) or (
            cap_m is not None and not lt_strict(worst.mem_bytes, cap_m)
        ):
            contended.add(k)
    if not contended:
        return clusters

    parent = list(range(len(clusters)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    node_owner: dict[NodeId, int] = {}
    for idx, cluster in enumerate(clusters):
        nodes = {
            w.topology.sensor_node[s]
            for i in cluster
            for s in w.operator(i).sensors
            if s in w.topology.sensor_node
        }
        for k in nodes & contended:
            if k in node_owner:
                ra, rb = find(idx), find(node_owner[k])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                node_owner[k] = idx
    groups: dict[int, list[OperatorId]] = {}
    for idx, cluster in enumerate(clusters):
        groups.setdefault(find(idx), []).extend(cluster)
    return [tuple(sorted(g)) for _, g in sorted(groups.items())]


def solve(w: Workload, p: Profile, cfg: SolverConfig | None = None) -> Solution:
    """Grid-exact minimum-uplink assignment, or infeasible if none exists.

    With a time budget set, exhaustion returns the best incumbent found so
    far (undecided clusters fall back to full offload) flagged
    budget_exceeded.
    """
    cfg = cfg or SolverConfig()
    grid = gamma_grid(cfg.delta)
    clusters = _merge_capacity_coupled(w, p, sensor_clusters(w))
    deadline = (
        time.monotonic() + cfg.time_budget_s if cfg.time_budget_s is not None else None
    )
    stats: dict = {
        "nodes_explored": 0,
        "prunes": {"resource": 0, "bound": 0, "latency": 0},
        "clusters": len(clusters),
        "grid_points": len(grid),
    }
    per_op: dict[OperatorId, float] = {}
    feasible = True
    budget_exceeded = False
    for cluster in clusters:
        if budget_exceeded:
            for i in cluster:
                per_op[i] = 1.0
            continue
        try:
            result = _solve_cluster(w, p, cfg, cluster, grid, stats, deadline)
        except _BudgetExceeded:
            budget_exceeded = True
            for i in cluster:
                per_op[i] = 1.0
            continue
        if not result.feasible:
            feasible = False
            break
        per_op.update(result.gamma)
    if budget_exceeded:
        assignment = Assignment.from_op_gamma(w, per_op)
        ok = not check_assignment(w, p, assignment, cfg.cost_orientation)
        return Solution(
            feasible=ok,
            assignment=assignment,
            objective_bytes=(
                total_objective(assignment, p, w, cfg.objective_mode) if ok else None
            ),
            report=(
                cost_report(w, p, assignment, cfg.objective_mode, cfg.cost_orientation)
                if ok
                else None
            ),
            stats=stats,
            budget_exceeded=True,
        )
    if not feasible:
        return Solution(
            feasible=False,
            assignment=None,
            objective_bytes=None,
            report=None,
            stats=stats,
        )
    assignment = Assignment.from_op_gamma(w, per_op)
    return Solution(
        feasible=True,
        assignment=assignment,
        objective_bytes=total_objective(assignment, p, w, cfg.objective_mode),
        report=cost_report(w, p, assignment, cfg.objective_mode, cfg.cost_orientation),
        stats=stats,
    )


def brute_force(
    w: Workload,
    p: Profile,
    cfg: SolverConfig | None = None,
    cap: int = ENUMERATION_CAP,
) -> Solution:
    """Full-grid oracle: every combination, no pruning, full feasibility check."""
    cfg = cfg or SolverConfig()
    grid = gamma_grid(cfg.delta)
    atoms = [i for i in topological_order(w) if w.operator(i).atomic]
    domains = [operator_domain(w, i, grid) for i in atoms]
    count = 1
    for d in domains:
        count *= len(d)
    if count > cap:
        raise EnumerationLimitError(
            f"{count} grid points exceed the enumeration cap of {cap}"
        )
    topo = topological_order(w)
    best: tuple | None = None
    best_assignment: Assignment | None = None
    explored = 0
    for combo in itertools.product(*domains):
        explored += 1
        per_op = dict(zip(atoms, combo))
        full = propagate_composite_gamma(w, per_op)
        a = Assignment.from_op_gamma(w, full)
        if check_assignment(w, p, a, cfg.cost_orientation):
            continue
        objective = total_objective(a, p, w, cfg.objective_mode)
        report = cost_report(w, p, a, cfg.objective_mode, cfg.cost_orientation)
        gvec = tuple(full[i] for i in topo)
        candidate = (objective, report.latency_sum, gvec)
        if best is None or candidate < best:
            best = candidate
            best_assignment = a
    stats = {"nodes_explored": explored, "prunes": {"resource": 0, "bound": 0, "latency": 0}}
    if best is None:
        return Solution(
            feasible=False,
            assignment=None,
            objective_bytes=None,
            report=None,
            stats=stats,
        )
    return Solution(
        feasible=True,
        assignment=best_assignment,
        objective_bytes=best[0],
        report=cost_report(w, p, best_assignment, cfg.objective_mode, cfg.cost_orientation),
        stats=stats,
    )
