"""Progressive enumeration of offload ratios with pre-flight pruning.

Free variables are the atomic operators: splittable ones, those for which
OperatorSpec.may_split holds (declared iterative, with a function that has a
partial form), range over the gamma grid {0, delta, 2*delta, ...} + {1}, the
others over {0, 1}, and operators whose sensor locality forces full offload
are pinned to 1.
Composite ratios derive from their dependencies, so the search never branches
on them.

Operators are searched in clusters from one union-find, linked by a shared
sensor, a dependency or a node whose caps could bind under its worst case,
the all-edge usage; clusters then share no decision, so pruning stays exact.

Three pre-flight checks gate every branch, in order: resource (CPU/memory
sums, from each operator's static load rows, against capacity), incumbent
bound (against the best complete solution; in paper mode the decided
operators' bytes plus each undecided one's bytes at ratio 1, see
SearchState.bound), latency (deadline check on a lower bound of the total of
each decided operator that can miss it at all, OpFacts.may_miss; the others
pass at every ratio, and a cluster without such an operator skips it). A
branch is pruned on the bound check only when it is strictly worse than the
incumbent, so equal-objective leaves survive to the deterministic
tie-break: smaller latency sum, then lexicographically smallest ratio vector
in topological order.

The resource check reads only ratios and loads, so a branch is placed (its
atom's ratio, the composites it completes and their node loads), checked
against the caps on the nodes it loaded, and priced (sensor ratios, raw
maxima) only once it fits; every other node kept the sum that passed at the
parent. Bytes and latencies are priced from the ratios where they are read.
A leaf is reached only through points that fit.

Fractional prefix rule: the points of an atom's fractional run (the ratios
whose window runs split, model.runs_split: strictly between GAMMA_TOL and
1 - GAMMA_TOL, the one class that pricing, the checks and the replay read,
contiguous as its domain ascends) that fail the resource check come first. Across the run each
composite derived with the atom takes the same ratio (1 when a dep is
fractional, C8, else the min of deps that do not change), so its loads stay;
the atom's own loads fold its non-negative cycles and bytes at the edge
share 1 - gamma, and products and sums of non-negative floats are monotone
under rounding, so they only fall as gamma rises. Folded in the same
placement order, every node's CPU and memory sum is non-increasing along the
run, in floats too; and under_cap is monotone: a non-negative sum below one
that stays under a cap, outside lt_strict's relative tolerance, is outside
it as well. So once a fractional point fails, first_fit finds the first
point of the run that fits, walking from where this depth found it last
in the cluster, and that point is priced without a second check. Ratio 1
lies outside the run: there a composite takes the min of its deps and can
load the edge again.

Fractional tail rule: once a fractional ratio of an atom is bound-pruned,
every larger fractional point of its ascending domain is pruned with it, and
the search goes on with the next non-fractional point, 1 on every grid. At
every fractional point the atom's own aggregate term is d_int and each
composite derived with it takes the same ratio; raw_best does not depend on
the ratio, and each sensor ratio max(old, gamma) only rises with it. So
every term of the bound rises or stays, in floats too (see
SearchState.bound), in both modes, and the larger point is cut as well. By
the prefix rule it also passes the resource check, which comes first; and no
point in between descends, so the incumbent stays.

nodes_explored and the resource and bound prunes count the grid points the
search rules out, some of them in bulk, so they read as if each point were
tried.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .costs import (
    OBJECTIVE_MODES,
    Assignment,
    CostReport,
    Instance,
    Profile,
    cost_report,
    dedup_bytes,
    fold_at,
    int_res_bytes,
    latency_rows,
    latency_sum,
    under_cap,
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
    runs_split,
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
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        _grid_steps(self.delta)
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {self.objective_mode!r}")
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
    decrease with k, so the count walks up from k = floor(1 / delta) - 2
    (or 0), whose multiple is at most about 1 - 2 * delta: below 1 by far
    more than the rounding, as delta is at least 0.5 / ENUMERATION_CAP. So
    the start is always below 1, and the walk never has to go down. Raises
    ValueError for a delta outside (0, 1] or a grid over ENUMERATION_CAP
    points."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    # Below 1 / (2 * cap) the grid holds over 2 * cap points. Such a delta is
    # refused before counting: for a tiny one the count steps k through every
    # multiple that rounds to 1, and for a subnormal one 1 / delta is inf.
    if delta < 0.5 / ENUMERATION_CAP:
        raise ValueError(
            f"delta {delta} gives over {2 * ENUMERATION_CAP} grid points, over the cap of "
            f"{ENUMERATION_CAP}"
        )

    def below_one(k: int) -> bool:
        return round(k * delta, 12) < 1.0 - 1e-12

    k = max(0, math.floor(1.0 / delta) - 2)
    while below_one(k):
        k += 1
    if k + 1 > ENUMERATION_CAP:
        raise ValueError(
            f"delta {delta} gives {k + 1} grid points, over the cap of {ENUMERATION_CAP}"
        )
    return k


def gamma_grid(delta: float) -> tuple[float, ...]:
    """Offload-ratio grid: multiples of delta below 1, then 1 itself (see
    _grid_steps for the deltas it refuses)."""
    return tuple(round(k * delta, 12) for k in range(_grid_steps(delta))) + (1.0,)


def operator_domain(
    w: Workload, op_id: OperatorId, grid: tuple[float, ...]
) -> tuple[float, ...]:
    """Candidate ratios for one atomic operator."""
    if forced_cloud(w, op_id):
        return (1.0,)
    if not w.operator(op_id).may_split:
        return (0.0, 1.0)
    return grid


@dataclass
class SearchState:
    """Partially enumerated cluster: decided ratios plus running sums.

    It has an Assignment's two fields, gamma and gamma_sensor, over the
    decided operators, so the cost functions price it directly. It carries
    only what a decision writes: those ratios, the node CPU and memory sums
    and, for the dedup objective, the largest raw size per (sensor, node) in
    `raw_best`. Bytes are pure functions of the ratios, so bound prices
    them where it is read; at a leaf it is the objective. `trail` logs every
    entry a decision overwrote, so that undo restores earlier states by
    value. Everything static, each operator's node rows among it, is read
    from `inst`; a decision adds one CPU and one memory entry per loaded
    node, folded once per (operator, ratio) into `loads`. A decision is
    placed (ratio and loads, all the resource check reads), then priced
    (sensor ratios and raw maxima); assign does both.
    """

    inst: Instance
    mode: str
    gamma: dict[OperatorId, float] = field(default_factory=dict)
    gamma_sensor: dict[SensorId, float] = field(default_factory=dict)
    cpu_used: dict[NodeId, float] = field(default_factory=dict)
    mem_used: dict[NodeId, float] = field(default_factory=dict)
    raw_best: dict[tuple[SensorId, NodeId], float] = field(default_factory=dict)
    loads: dict[tuple[OperatorId, float], list[tuple]] = field(
        default_factory=dict, init=False, repr=False)
    trail: list[tuple] = field(default_factory=list, init=False, repr=False)

    def place(self, op_id: OperatorId, gamma: float) -> None:
        """Record one decided operator's ratio and node loads, all the
        resource check reads; price does the rest.

        Each entry written is first logged on `trail` as (table, key,
        previous value or None when absent), for undo. The loads are the
        operator's node rows folded at its edge share, once per (operator,
        ratio) in `loads`; a fold is pure, so the sums equal fresh folds.
        """
        trail = self.trail
        trail.append((self.gamma, op_id, self.gamma.get(op_id)))
        self.gamma[op_id] = gamma
        loads = self.loads.get((op_id, gamma))
        if loads is None:
            share = 1.0 - gamma
            loads = self.loads[op_id, gamma] = []
            for k, _raws, cycles, nbytes, _home in self.inst.ops[op_id].rows:
                for table, load in ((self.cpu_used, fold_at(cycles, share)),
                                    (self.mem_used, fold_at(nbytes, share))):
                    if load:
                        loads.append((table, k, load))
        for table, k, load in loads:
            old = table.get(k)
            trail.append((table, k, old))
            table[k] = (old or 0.0) + load

    def price(self, placed: Sequence[OperatorId]) -> None:
        """Price the placed operators, logging on `trail` as place does:
        each raises its sensors' ratios to its own and, in dedup mode, its
        raw sizes enter `raw_best`. Both only rise, so pricing several
        placements at once gives the values of pricing after each."""
        trail, facts, ratio, sensor_ratio = self.trail, self.inst.ops, self.gamma, self.gamma_sensor
        for i in placed:
            gamma = ratio[i]
            for s in facts[i].spec.sensors:
                old = sensor_ratio.get(s)
                if gamma > (old or 0.0):
                    trail.append((sensor_ratio, s, old))
                    sensor_ratio[s] = gamma
        if self.mode == "dedup":
            for i in placed:
                for k, raws, _cpu, _mem, _home in facts[i].rows:
                    for s, raw in raws:
                        old = self.raw_best.get((s, k))
                        if raw > (old or 0.0):
                            trail.append((self.raw_best, (s, k), old))
                            self.raw_best[(s, k)] = raw

    def assign(self, op_id: OperatorId, gamma: float) -> None:
        """Record and price one decided operator: place, then price."""
        self.place(op_id, gamma)
        self.price((op_id,))

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

    def bound(self, ops: tuple[OperatorId, ...]) -> float:
        """A lower bound on the objective of `ops` at every leaf below; at a
        leaf it is total_objective over `ops`, in that order, bit for bit.

        Dedup mode prices the decided operators' dedup_bytes. Paper mode
        folds OpFacts.total over `ops` in order under the current sensor
        ratios, a decided operator at its ratio and an undecided one at
        ratio 1, where only its raw bytes count. Each term is at most the
        same term at any leaf below, in floats too: sensor ratios only rise
        as decisions are added; products with a non-negative raw size and
        sums of non-negative terms are monotone under rounding;
        int_res_bytes is d_int, d_res or 0 at every ratio, never negative, as
        profiles hold non-negative finite sizes. Folded in the same order,
        the bound is therefore at most the leaf's objective.
        """
        facts, ratio, sensor_ratio = self.inst.ops, self.gamma, self.gamma_sensor
        if self.mode == "dedup":
            terms = (int_res_bytes(ratio[i], facts[i].d_int, facts[i].d_res)
                     for i in ops if i in ratio)
            return dedup_bytes(self.raw_best, sensor_ratio, terms)
        total = 0.0
        for i in ops:
            total += facts[i].total(ratio.get(i, 1.0), sensor_ratio)
        return total


def preflight_resource(state: SearchState, mark: int = 0) -> NodeId | None:
    """First node whose CPU or memory sum, written since the trail held
    `mark` entries, already meets its cap. A node not written since then
    holds the sum that passed at the parent node, so only the written ones
    are checked; from mark 0, a state built empty checks every loaded node.
    """
    p = state.inst.p
    cpu, mem = state.cpu_used, state.mem_used
    for table, k, _old in state.trail[mark:]:
        if table is cpu:
            if not under_cap(cpu[k], p.cpu_cap.get(k)):
                return k
        elif table is mem and not under_cap(mem[k], p.mem_cap.get(k)):
            return k
    return None


def preflight_latency(state: SearchState) -> OperatorId | None:
    """First decided operator whose latency lower bound misses its
    deadline; operators that cannot miss it at any ratio (OpFacts.may_miss
    false) are passed over.

    The bound is the sum of its latency_terms under its volumes, priced
    fresh. It leaves out the wait, which can shrink as later decisions raise
    the fastest dep's total; transfer uses the decided sensor maxima, which
    only grow. So a failure here is final for the whole subtree, and an
    operator a node's decisions did not change passed at the parent node:
    the prune decisions are those of checking the changed operators alone.
    """
    ops, p, sensor_ratio = state.inst.ops, state.inst.p, state.gamma_sensor
    for i, gamma in state.gamma.items():
        facts = ops[i]
        if facts.may_miss:
            te, tt, tc = facts.latency_terms(gamma, facts.volumes(gamma, sensor_ratio), p)
            if not facts.meets_deadline(te + tt + tc):
                return i
    return None


def first_fit(fits: Callable[[int], bool], lo: int, hi: int, hint: int | None = None) -> int:
    """The first index in [lo, hi) where `fits` holds, or hi; `fits` must
    hold at every index after one where it holds. The search starts at
    `hint` (lo by default), moved into [lo, hi), and walks down while the
    index below fits, or else up until an index fits. Every probe lies in
    [lo, hi), an index below hi is returned only once probed, and a hint
    that is the answer costs at most two probes."""
    if lo >= hi:
        return lo
    k = min(max(lo if hint is None else hint, lo), hi - 1)
    if fits(k):
        while k > lo and fits(k - 1):
            k -= 1
        return k
    k += 1
    while k < hi and not fits(k):
        k += 1
    return k


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
    # Index just past each domain's fractional points, which are contiguous
    # as a domain ascends; found once per distinct domain.
    ends = {d: max((j + 1 for j, g in enumerate(d) if runs_split(g)), default=0)
            for d in set(domains)}
    frac_end = [ends[d] for d in domains]
    # Per depth, the first fitting fractional point found last: sibling
    # subtrees mostly load the same nodes, so it is the next first probe.
    hints: list[int | None] = [None] * len(atoms)
    check_latency = any(inst.ops[i].may_miss for i in cluster)

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

    state = SearchState(inst=inst, mode=cfg.objective_mode)
    best: list = [None]  # [ (objective, latency_sum, gamma_vector, gamma_dict) ]

    def leaf_eval() -> None:
        totals: dict[OperatorId, float] = {}
        for i, _te, _tt, _tw, _tc, t in latency_rows(inst, state, topo):
            if not inst.ops[i].meets_deadline(t):
                return
            totals[i] = t
        # Every operator is decided, so the bound is the objective.
        gvec = tuple(state.gamma[i] for i in topo)
        candidate = (state.bound(cluster), latency_sum(totals), gvec)
        if best[0] is None or candidate < best[0][:3]:
            best[0] = (*candidate, dict(state.gamma))

    # The operators each depth places: its atom and the composites it completes.
    placed_at = [(i, *comp_at.get(d + 1, ())) for d, i in enumerate(atoms)]

    def place(depth: int, gamma: float) -> None:
        state.place(atoms[depth], gamma)
        for i in comp_at.get(depth + 1, ()):
            facts = inst.ops[i]
            dep_gammas = [state.gamma[d] for d in facts.spec.deps]
            state.place(i, composite_gamma(facts.forced_cloud, dep_gammas))

    def fits(depth: int, gamma: float, mark: int) -> bool:
        place(depth, gamma)
        ok = preflight_resource(state, mark) is None
        state.undo(mark)
        return ok

    def descend(depth: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded
        if depth == len(atoms):
            # Every point on the way down passed the caps.
            leaf_eval()
            return
        mark = len(state.trail)
        domain = domains[depth]
        j = 0
        while j < len(domain):
            gamma = domain[j]
            j += 1
            stats["nodes_explored"] += 1
            place(depth, gamma)
            if preflight_resource(state, mark) is not None:
                state.undo(mark)
                stats["prunes"]["resource"] += 1
                if not runs_split(gamma):
                    continue
                # The fractional prefix rule (module docstring): the points
                # before the first that fits fail too.
                fit = first_fit(
                    lambda k: fits(depth, domain[k], mark), j, frac_end[depth], hints[depth]
                )
                hints[depth] = fit
                stats["nodes_explored"] += fit - j
                stats["prunes"]["resource"] += fit - j
                j = fit
                if j == frac_end[depth]:
                    continue
                # first_fit checked the found point: place it unchecked.
                gamma, j = domain[j], j + 1
                stats["nodes_explored"] += 1
                place(depth, gamma)
            state.price(placed_at[depth])
            # Only a strictly worse partial is cut: an equal one may still
            # win the tie-break.
            if best[0] is not None and state.bound(cluster) > best[0][0]:
                stats["prunes"]["bound"] += 1
                if runs_split(gamma):
                    # The fractional tail rule (module docstring): every
                    # larger fractional point is cut here too.
                    skipped = frac_end[depth] - j
                    stats["nodes_explored"] += skipped
                    stats["prunes"]["bound"] += skipped
                    j = frac_end[depth]
            elif check_latency and preflight_latency(state) is not None:
                stats["prunes"]["latency"] += 1
            else:
                descend(depth + 1)
            state.undo(mark)

    # Cloud-only incumbent: a feasible all-ones leaf seeds the bound check.
    for d in range(len(atoms)):
        place(d, 1.0)
    if preflight_resource(state) is None:
        state.price([i for ops in placed_at for i in ops])
        leaf_eval()
    state.undo(0)
    descend(0)

    return None if best[0] is None else best[0][3]


def _clusters(inst: Instance) -> list[tuple[OperatorId, ...]]:
    """Operators linked by a sensor or a dependency (sensor_clusters) or by a
    node whose caps could bind under its worst case, the all-edge usage.
    Members ascend; clusters are ordered by smallest member."""
    w, p = inst.w, inst.p
    all_edge = Assignment.from_op_gamma(w, dict.fromkeys(inst.ops, 0.0))
    contended = {
        k for k, worst in inst.usage(all_edge).items()
        if not under_cap(worst.cpu_cycles, p.cpu_cap.get(k))
        or not under_cap(worst.mem_bytes, p.mem_cap.get(k))
    }
    owner: dict[NodeId, OperatorId] = {}
    links = [pair for cluster in sensor_clusters(w) for pair in itertools.pairwise(cluster)]
    links += ((i, owner.setdefault(k, i)) for i in inst.ops for k in inst.ops[i].nodes & contended)
    return [tuple(g) for g in union_find_groups(sorted(inst.ops), links)]


def solve(w: Workload, p: Profile, cfg: SolverConfig | None = None) -> Solution:
    """Grid-exact minimum-uplink assignment, or infeasible if none exists.

    With a time budget set, exhaustion returns the best incumbent found so
    far (undecided clusters fall back to full offload) flagged
    budget_exceeded.
    """
    cfg = cfg or SolverConfig()
    grid = gamma_grid(cfg.delta)
    inst = Instance.build(w, p)
    clusters = _clusters(inst)
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
        under_cap(0.0, caps.get(k)) for caps in (p.cpu_cap, p.mem_cap) for k in w.topology.nodes
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
        feasible = not check_assignment(w, p, assignment, inst=inst)
    report = cost_report(w, p, assignment, cfg.objective_mode, inst=inst) if feasible else None
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
        if check_assignment(w, p, a, inst=inst):
            continue
        report = cost_report(w, p, a, cfg.objective_mode, inst=inst)
        gvec = tuple(full[i] for i in topo)
        candidate = (report.objective_bytes, report.latency_sum, gvec)
        if best is None or candidate < best[0]:
            best = (candidate, a, report)
    stats = {"nodes_explored": explored, "prunes": {"resource": 0, "bound": 0, "latency": 0}}
    if best is None:
        return Solution(feasible=False, assignment=None, report=None, stats=stats)
    return Solution(feasible=True, assignment=best[1], report=best[2], stats=stats)
