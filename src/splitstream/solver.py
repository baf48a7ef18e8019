"""Progressive enumeration of offload ratios with pre-flight pruning.

Free variables are the atomic operators: splittable ones range over the
gamma grid {0, delta, 2*delta, ...} + {1}, non-splittable ones over {0, 1},
and operators whose sensor locality forces full offload are pinned to 1.
Composite ratios derive from their dependencies, so the search never branches
on them.

Operators are searched in dependency-linked clusters. Clusters are
independent except for node capacity; clusters sharing a node whose capacity
could bind are merged before the search so pruning stays exact.

Three pre-flight checks gate every branch, in order: resource (CPU/memory
sums, from each operator's static load rows, against capacity), incumbent
bound (against the best complete solution; in paper mode the decided
operators' bytes plus a carried floor for each undecided one, see
SearchState.bound), latency (deadline check on a lower bound of the total of
each operator the branch's decisions changed; the others passed at the
parent). A branch is pruned on the bound check only when it is strictly worse
than the incumbent, so equal-objective leaves survive to the deterministic
tie-break: smaller latency sum, then lexicographically smallest ratio vector
in topological order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .costs import (
    OBJECTIVE_MODES,
    ORIENTATIONS,
    Assignment,
    CostReport,
    Instance,
    OpVolumes,
    Profile,
    cost_report,
    dedup_bytes,
    edge_share,
    int_res_bytes,
    latency_rows,
    latency_sum,
    lt_strict,
    node_volumes,
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
    union_find_groups,
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
        points = _grid_steps(self.delta) + 1
        if points > ENUMERATION_CAP:
            raise ValueError(
                f"delta {self.delta} gives {points} grid points, over the cap of "
                f"{ENUMERATION_CAP}"
            )
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {self.objective_mode!r}")
        if self.cost_orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.cost_orientation!r}")
        budget = self.time_budget_s
        # NaN fails every comparison, so the test is for the good case.
        if budget is not None and not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"time budget must be finite and not negative, got {budget}")


@dataclass
class Solution:
    """A placement search's outcome. objective_bytes and budget_exceeded
    are read from the report and the stats, which hold them."""

    feasible: bool
    assignment: Assignment | None
    report: CostReport | None
    stats: dict

    @property
    def objective_bytes(self) -> float | None:
        return None if self.report is None else self.report.objective_bytes

    @property
    def budget_exceeded(self) -> bool:
        return self.stats.get("budget_exceeded", False)


def _grid_steps(delta: float) -> int:
    """How many multiples of delta the grid keeps below 1: the first k whose
    k * delta, rounded to 12 places, reaches 1. The rounded multiples never
    decrease with k, so the search starts next to 1 / delta."""

    def below_one(k: int) -> bool:
        return round(k * delta, 12) < 1.0 - 1e-12

    k = max(0, math.floor(1.0 / delta) - 2)
    while below_one(k):
        k += 1
    while k > 0 and not below_one(k - 1):
        k -= 1
    return k


def gamma_grid(delta: float) -> tuple[float, ...]:
    """Offload-ratio grid: multiples of delta below 1, then 1 itself."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return tuple(round(k * delta, 12) for k in range(_grid_steps(delta))) + (1.0,)


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
    """Partially enumerated cluster: decided ratios plus running sums.

    It has an Assignment's two fields, gamma and gamma_sensor, over the
    decided operators, so the cost functions price it directly. Besides the
    node CPU and memory sums it carries each decided operator's node_volumes
    in `volumes` and, for the dedup objective, the largest raw size per
    (sensor, node) in `raw_best`; in paper mode, each undecided operator's
    `floor` (see bound). `trail` logs every entry a decision overwrote, so
    that undo restores earlier states by value.
    `cluster` lists the operators it may decide, which must include every
    reader of their sensors; `readers` lists, per sensor, the operators
    whose volumes read its ratio. Everything static, the VolumeTerms and
    the edge_loads rows at share 1 among it, is read from `inst`.
    """

    inst: Instance
    orientation: str
    mode: str
    cluster: tuple[OperatorId, ...]
    gamma: dict[OperatorId, float] = field(default_factory=dict)
    gamma_sensor: dict[SensorId, float] = field(default_factory=dict)
    cpu_used: dict[NodeId, float] = field(default_factory=dict)
    mem_used: dict[NodeId, float] = field(default_factory=dict)
    volumes: dict[OperatorId, OpVolumes] = field(default_factory=dict)
    raw_best: dict[tuple[SensorId, NodeId], float] = field(default_factory=dict)
    readers: dict[SensorId, list[OperatorId]] = field(init=False, repr=False)
    floor: dict[OperatorId, float] = field(init=False, repr=False)
    trail: list[tuple] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        self.readers = {}
        self.floor = {}
        for i in self.cluster:
            t = self.inst.ops[i].terms
            self.floor[i] = node_volumes(t, 1.0, self.gamma_sensor).total
            for _k, raws, _home in t.nodes:
                for s, _raw in raws:
                    self.readers.setdefault(s, []).append(i)

    def assign(self, op_id: OperatorId, gamma: float) -> None:
        """Record one decided operator.

        Volumes are recomputed for this operator and for every decided
        operator reading a sensor whose ratio this decision raised; in paper
        mode the floors of the undecided readers are refreshed too. Every
        entry written is first logged on `trail` as (table, key, previous
        value or None when absent), for undo.
        """
        facts = self.inst.ops[op_id]
        trail = self.trail
        trail.append((self.gamma, op_id, self.gamma.get(op_id)))
        self.gamma[op_id] = gamma
        stale = {op_id}
        for s in facts.spec.sensors:
            old = self.gamma_sensor.get(s)
            if gamma > (old or 0.0):
                trail.append((self.gamma_sensor, s, old))
                self.gamma_sensor[s] = gamma
                stale.update(self.readers.get(s, ()))
        for j in stale:
            terms = self.inst.ops[j].terms
            if j in self.gamma:
                trail.append((self.volumes, j, self.volumes.get(j)))
                self.volumes[j] = node_volumes(terms, self.gamma[j], self.gamma_sensor)
            elif self.mode == "paper":
                trail.append((self.floor, j, self.floor[j]))
                self.floor[j] = node_volumes(terms, 1.0, self.gamma_sensor).total
        if self.mode == "dedup":
            for k, raws, _home in facts.terms.nodes:
                for s, raw in raws:
                    old = self.raw_best.get((s, k))
                    if raw > (old or 0.0):
                        trail.append((self.raw_best, (s, k), old))
                        self.raw_best[(s, k)] = raw
        share = edge_share(gamma, self.orientation)
        cpu, mem = self.cpu_used, self.mem_used
        for k, c, m in facts.loads:
            dc, dm = c * share, m * share
            if dc:
                old = cpu.get(k)
                trail.append((cpu, k, old))
                cpu[k] = (old or 0.0) + dc
            if dm:
                old = mem.get(k)
                trail.append((mem, k, old))
                mem[k] = (old or 0.0) + dm

    def undo(self, mark: int) -> None:
        """Restore, newest first, every entry logged since the trail held
        `mark` entries, deleting those the decisions created, and truncate
        the trail: the state then equals a fresh replay of the decisions
        still on it, bit for bit."""
        trail = self.trail
        for table, key, old in reversed(trail[mark:]):
            if old is None:
                del table[key]
            else:
                table[key] = old
        del trail[mark:]

    def objective(self, ops: tuple[OperatorId, ...]) -> float:
        """total_objective over the decided members of `ops`, in that order,
        from the carried terms; the same value bit for bit."""
        decided = [i for i in ops if i in self.gamma]
        if self.mode == "dedup":
            terms = [(self.gamma[i], self.inst.ops[i].terms) for i in decided]
            return dedup_bytes(
                self.raw_best,
                self.gamma_sensor,
                (int_res_bytes(g, t.d_int, t.d_res) for g, t in terms),
            )
        total = 0.0
        for i in decided:
            total += self.volumes[i].total
        return total

    def bound(self, ops: tuple[OperatorId, ...]) -> float:
        """A lower bound on objective(ops) at every leaf below this state.

        Dedup mode returns the decided operators' objective. Paper mode folds
        `ops` in order, a decided operator adding its volumes' total and an
        undecided one its floor: node_volumes at ratio 1 under the current
        sensor ratios, which at ratio 1 is its raw bytes alone. Each term is
        at most the same term of objective(ops) at any leaf below, in floats
        too: sensor ratios only rise as decisions are added; products with a
        non-negative raw size and sums of non-negative terms are monotone
        under rounding; int_res_bytes is d_int, d_res or 0 at every ratio,
        never negative, as profiles hold non-negative finite sizes. Folded in
        the same order, the bound is therefore at most the leaf's objective.
        """
        if self.mode == "dedup":
            return self.objective(ops)
        total = 0.0
        for i in ops:
            total += self.volumes[i].total if i in self.gamma else self.floor[i]
        return total


def preflight_resource(state: SearchState) -> NodeId | None:
    """First node whose partial CPU or memory sum already meets its cap."""
    for k in state.cpu_used:
        cap = state.inst.p.cpu_cap.get(k)
        if cap is not None and not lt_strict(state.cpu_used[k], cap):
            return k
    for k in state.mem_used:
        cap = state.inst.p.mem_cap.get(k)
        if cap is not None and not lt_strict(state.mem_used[k], cap):
            return k
    return None


def preflight_latency(state: SearchState, mark: int) -> OperatorId | None:
    """First operator changed since the trail held `mark` entries whose
    latency lower bound misses its deadline.

    The bound is the sum of its latency_terms under the carried volumes. It
    leaves out the wait, which can shrink as later decisions raise the
    fastest dep's total; transfer uses the decided sensor maxima, which
    only grow. So a failure here is final for the whole subtree. A node's
    decisions change only the operators they recompute volumes for (a
    `volumes` entry on the trail): every other decided operator passed at the
    parent node with the same ratio and volumes, so only the changed ones are
    checked.
    """
    volumes = state.volumes
    changed = dict.fromkeys(key for table, key, _ in state.trail[mark:] if table is volumes)
    for i in changed:
        facts = state.inst.ops[i]
        te, tt, tc = facts.latency_terms(
            state.gamma[i], volumes[i].by_node, state.inst.p, state.orientation
        )
        if not facts.meets_deadline(te + tt + tc):
            return i
    return None


class _BudgetExceeded(Exception):
    pass


def _solve_cluster(
    inst: Instance,
    cfg: SolverConfig,
    cluster: tuple[OperatorId, ...],
    grid: tuple[float, ...],
    stats: dict,
    deadline: float | None,
) -> dict[OperatorId, float] | None:
    """The cluster's optimal ratios, or None when no leaf is feasible."""
    members = set(cluster)
    topo = [i for i in inst.order if i in members]
    atoms = [i for i in topo if inst.ops[i].spec.atomic]
    domains = [operator_domain(inst.w, i, grid) for i in atoms]

    # Depth at which each composite becomes fully derived: one past its
    # deepest atomic ancestor. A composite shares its deps' cluster and
    # topological_order rejects cycles and missing deps, so every cluster
    # holds an atomic operator and every composite is ready at depth >= 1.
    ready = {i: d + 1 for d, i in enumerate(atoms)}
    comp_at: dict[int, list[OperatorId]] = {}
    for i in topo:
        if i not in ready:
            ready[i] = max(ready[d] for d in inst.ops[i].spec.deps)
            comp_at.setdefault(ready[i], []).append(i)

    state = SearchState(
        inst=inst, orientation=cfg.cost_orientation, mode=cfg.objective_mode, cluster=cluster
    )
    best: list = [None]  # [ (objective, latency_sum, gamma_vector, gamma_dict) ]

    def leaf_eval() -> None:
        if preflight_resource(state) is not None:
            return
        totals: dict[OperatorId, float] = {}
        rows = latency_rows(inst, state, state.volumes, topo, cfg.cost_orientation)
        for i, _te, _tt, _tw, _tc, t in rows:
            if not inst.ops[i].meets_deadline(t):
                return
            totals[i] = t
        objective = state.objective(cluster)
        gvec = tuple(state.gamma[i] for i in topo)
        candidate = (objective, latency_sum(totals), gvec)
        if best[0] is None or candidate < best[0][:3]:
            best[0] = (*candidate, dict(state.gamma))

    def propagate_depth(depth: int) -> None:
        for i in comp_at.get(depth, ()):
            facts = inst.ops[i]
            dep_gammas = [state.gamma[d] for d in facts.spec.deps]
            state.assign(i, composite_gamma(facts.forced_cloud, dep_gammas))

    def descend(depth: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded
        if depth == len(atoms):
            leaf_eval()
            return
        mark = len(state.trail)
        for gamma in domains[depth]:
            stats["nodes_explored"] += 1
            state.assign(atoms[depth], gamma)
            propagate_depth(depth + 1)
            if preflight_resource(state) is not None:
                stats["prunes"]["resource"] += 1
            # Only a strictly worse partial is cut: an equal one may still
            # win the tie-break.
            elif best[0] is not None and state.bound(cluster) > best[0][0]:
                stats["prunes"]["bound"] += 1
            elif preflight_latency(state, mark) is not None:
                stats["prunes"]["latency"] += 1
            else:
                descend(depth + 1)
            state.undo(mark)

    # Cloud-only incumbent: a feasible all-ones leaf seeds the bound check.
    for d, i in enumerate(atoms):
        state.assign(i, 1.0)
        propagate_depth(d + 1)
    leaf_eval()
    state.undo(0)
    descend(0)

    return None if best[0] is None else best[0][3]


def _merge_capacity_coupled(
    inst: Instance, clusters: list[tuple[OperatorId, ...]]
) -> list[tuple[OperatorId, ...]]:
    """Join clusters that share a node whose capacity could bind.

    A node's worst case is its full edge load: the all-edge usage under the
    corrected orientation, which the literal one reaches at ratio 1.
    """
    w, p = inst.w, inst.p
    all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
    contended: set[NodeId] = set()
    for k, worst in inst.usage(all_edge).items():
        cap_c, cap_m = p.cpu_cap.get(k), p.mem_cap.get(k)
        if (cap_c is not None and not lt_strict(worst.cpu_cycles, cap_c)) or (
            cap_m is not None and not lt_strict(worst.mem_bytes, cap_m)
        ):
            contended.add(k)
    if not contended:
        return clusters

    def links():
        node_owner: dict[NodeId, int] = {}
        for idx, cluster in enumerate(clusters):
            nodes = set().union(*(inst.ops[i].nodes for i in cluster))
            for k in nodes & contended:
                if k in node_owner:
                    yield idx, node_owner[k]
                else:
                    node_owner[k] = idx

    groups = union_find_groups(list(range(len(clusters))), links())
    return [tuple(sorted(i for idx in g for i in clusters[idx])) for g in groups]


def solve(w: Workload, p: Profile, cfg: SolverConfig | None = None) -> Solution:
    """Grid-exact minimum-uplink assignment, or infeasible if none exists.

    With a time budget set, exhaustion returns the best incumbent found so
    far (undecided clusters fall back to full offload) flagged
    budget_exceeded.
    """
    cfg = cfg or SolverConfig()
    grid = gamma_grid(cfg.delta)
    inst = Instance.build(w, p)
    clusters = _merge_capacity_coupled(inst, sensor_clusters(w))
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
    # The search tests the caps of loaded nodes only, but check_assignment
    # holds every node under its caps, unloaded ones at usage 0: a cap that
    # 0 does not stay under rules out every placement.
    feasible = all(
        lt_strict(0.0, caps[k]) for caps in (p.cpu_cap, p.mem_cap)
        for k in w.topology.nodes if k in caps
    )
    for cluster in clusters if feasible else ():
        gamma = None
        if "budget_exceeded" not in stats:
            try:
                gamma = _solve_cluster(inst, cfg, cluster, grid, stats, deadline)
                if gamma is None:
                    feasible = False
                    break
            except _BudgetExceeded:
                stats["budget_exceeded"] = True
        per_op.update(dict.fromkeys(cluster, 1.0) if gamma is None else gamma)
    assignment = Assignment.from_op_gamma(w, per_op) if feasible else None
    if "budget_exceeded" in stats:
        # The cut clusters' full offload may miss a deadline or a cap.
        feasible = not check_assignment(w, p, assignment, cfg.cost_orientation, inst=inst)
    report = (
        cost_report(w, p, assignment, cfg.objective_mode, cfg.cost_orientation, inst=inst)
        if feasible
        else None
    )
    return Solution(feasible=feasible, assignment=assignment, report=report, stats=stats)


def brute_force(
    w: Workload,
    p: Profile,
    cfg: SolverConfig | None = None,
    cap: int = ENUMERATION_CAP,
) -> Solution:
    """Full-grid oracle: every combination, no pruning, full feasibility check."""
    cfg = cfg or SolverConfig()
    grid = gamma_grid(cfg.delta)
    topo = topological_order(w)
    atoms = [i for i in topo if w.operator(i).atomic]
    domains = [operator_domain(w, i, grid) for i in atoms]
    count = 1
    for d in domains:
        count *= len(d)
    if count > cap:
        raise EnumerationLimitError(
            f"{count} grid points exceed the enumeration cap of {cap}"
        )
    inst = Instance.build(w, p)
    best: tuple | None = None  # (objective, latency_sum, gamma_vector), assignment, report
    explored = 0
    for combo in itertools.product(*domains):
        explored += 1
        per_op = dict(zip(atoms, combo))
        full = propagate_composite_gamma(w, per_op)
        a = Assignment.from_op_gamma(w, full)
        if check_assignment(w, p, a, cfg.cost_orientation, inst=inst):
            continue
        report = cost_report(w, p, a, cfg.objective_mode, cfg.cost_orientation, inst=inst)
        gvec = tuple(full[i] for i in topo)
        candidate = (report.objective_bytes, report.latency_sum, gvec)
        if best is None or candidate < best[0]:
            best = (candidate, a, report)
    stats = {"nodes_explored": explored, "prunes": {"resource": 0, "bound": 0, "latency": 0}}
    if best is None:
        return Solution(feasible=False, assignment=None, report=None, stats=stats)
    return Solution(feasible=True, assignment=best[1], report=best[2], stats=stats)
