"""Search correctness: grids, domains, pruning soundness, budget handling."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream import solver
from splitstream import (
    Assignment,
    EnumerationLimitError,
    FunctionKind,
    SolverConfig,
    brute_force,
    check_assignment,
    cloud_only,
    cost_report,
    gamma_grid,
    generate_profile,
    generate_reference_workload,
    solve,
)
from splitstream.costs import Instance, OpFacts, int_res_bytes
from splitstream.feasibility import composite_gamma
from splitstream.model import runs_split, sensor_clusters
from splitstream.solver import SearchState, first_fit, operator_domain, preflight_resource

from conftest import build_workload, capped_reference, random_instance

F = FunctionKind


class TestGrid:
    def test_quarter_grid(self):
        assert gamma_grid(0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_endpoints_always_present(self):
        for delta in (0.05, 0.1, 0.3, 0.5, 1.0):
            grid = gamma_grid(delta)
            assert grid[0] == 0.0
            assert grid[-1] == 1.0
            assert list(grid) == sorted(set(grid))

    def test_bad_delta_rejected(self):
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gamma_grid(delta)
            with pytest.raises(ValueError):
                SolverConfig(delta=delta)

    def test_grid_over_the_enumeration_cap_rejected(self):
        # Checked from the grid's size alone: no grid gets built, and one far
        # over the cap (to subnormal deltas, whose 1 / delta is inf) is not
        # counted either.
        assert len(gamma_grid(1 / 999)) == 1_000
        SolverConfig(delta=1 / 999_999)  # exactly ENUMERATION_CAP points
        for delta in (1e-6, 1e-7, 1e-300, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="grid points"):
                SolverConfig(delta=delta)
            with pytest.raises(ValueError, match="grid points"):
                gamma_grid(delta)

    @staticmethod
    def first_multiple_at_one(delta):
        return next(k for k in itertools.count() if round(k * delta, 12) >= 1 - 1e-12)

    @pytest.mark.parametrize("delta", [1.0, 0.5 + 1e-9, 1 / 3, 0.1, 0.05, 0.01, 1e-4])
    def test_grid_keeps_every_multiple_below_one(self, delta):
        # The count starts its walk next to 1 / delta; a walk over every
        # multiple from 0 finds the same first k.
        assert len(gamma_grid(delta)) - 1 == self.first_multiple_at_one(delta)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=1.0))
    def test_grid_count_on_drawn_deltas(self, delta):
        assert len(gamma_grid(delta)) - 1 == self.first_multiple_at_one(delta)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(objective_mode="bytes")


class TestAgainstBruteForce:
    def test_matches_exhaustive_enumeration(self):
        # The acceptance suite runs the full 200-instance sweep; this is the
        # fast smoke version exercising both objective modes.
        for seed in range(40):
            w, p = random_instance(seed)
            cfg = SolverConfig(
                delta=0.5 if seed % 2 else 0.25,
                objective_mode="dedup" if seed % 3 == 0 else "paper",
            )
            got = solve(w, p, cfg)
            want = brute_force(w, p, cfg)
            assert got.feasible == want.feasible, f"seed {seed}"
            if want.feasible:
                assert got.objective_bytes == want.objective_bytes, f"seed {seed}"
                got_g = {op.id: got.assignment.op_gamma(w, op.id) for op in w.operators}
                want_g = {op.id: want.assignment.op_gamma(w, op.id) for op in w.operators}
                assert got_g == want_g, f"seed {seed}"

    def test_capacity_coupled_instances(self):
        # Caps under each node's all-edge usage make the search join sensor
        # clusters that load one node; each instance here has such a join.
        feasible = 0
        for seed in (58, 83, 132, 182, 244, 325, 348):
            w, p = random_instance(seed, max_ops=6)
            all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
            usage = Instance.build(w, p).usage(all_edge)
            for f in (0.5, 0.8):
                q = dataclasses.replace(
                    p,
                    cpu_cap={k: f * max(u.cpu_cycles, 1.0) for k, u in usage.items()},
                    mem_cap={k: f * max(u.mem_bytes, 1.0) for k, u in usage.items()},
                )
                for mode in ("paper", "dedup"):
                    cfg = SolverConfig(delta=0.25, objective_mode=mode)
                    case = f"seed {seed}, f {f}, {mode}"
                    got, want = solve(w, q, cfg), brute_force(w, q, cfg)
                    assert got.stats["clusters"] < len(sensor_clusters(w)), case
                    assert got.feasible == want.feasible, case
                    if want.feasible:
                        feasible += 1
                        assert got.objective_bytes == want.objective_bytes, case
                        assert got.assignment.gamma == want.assignment.gamma, case
        assert feasible == 18

    def test_solution_passes_checker(self):
        for seed in range(30):
            w, p = random_instance(seed + 500)
            sol = solve(w, p, SolverConfig(delta=0.5))
            if sol.feasible:
                assert check_assignment(w, p, sol.assignment) == []

    def test_solution_never_beaten_by_baselines(self):
        for seed in range(30):
            w, p = random_instance(seed + 900)
            sol = solve(w, p, SolverConfig(delta=0.25))
            if not sol.feasible:
                continue
            for baseline in (cloud_only(w, p),):
                if baseline.feasible:
                    assert sol.objective_bytes <= baseline.objective_bytes + 1e-9


class TestSplitRule:
    """The search splits an operator only when OperatorSpec.may_split holds:
    declared iterative and a function with a partial form."""

    def test_an_iterative_max_is_not_split(self):
        w = build_workload([(1, (1,), (), F.MAX, True, 60, 60, 60)], {1: 1})
        p = generate_profile(w, headroom=0.5)
        cfg = SolverConfig(delta=0.25)
        got, want = solve(w, p, cfg), brute_force(w, p, cfg)
        assert got.assignment.gamma == want.assignment.gamma
        assert got.assignment.gamma[1] in (0.0, 1.0)
        a = Assignment.from_op_gamma(w, {1: 0.75})
        flagged = {v.constraint for v in check_assignment(w, p, a)}
        assert "C2" in flagged and "C1" not in flagged

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    def test_no_optimum_splits_an_operator_that_may_not(self, mode):
        # Contended synthesized profiles: generate_profile sizes a MAX or
        # RANGE aggregate at 0 B, so splitting one would often be the
        # cheapest plan if its domain held fractions.
        cfg = SolverConfig(delta=0.25, objective_mode=mode)
        for seed in range(60):
            w, _ = random_instance(seed)
            sol = solve(w, generate_profile(w, headroom=0.6), cfg)
            if sol.feasible:
                split = [op.id for op in w.operators if runs_split(sol.assignment.gamma[op.id])]
                assert all(w.operator(i).may_split for i in split), f"seed {seed}"


class TestEdgeCases:
    def test_infeasible_reported_by_both(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1})
        p = generate_profile(w)
        p = dataclasses.replace(p, t_req_s={1: 1e-15})
        for fn in (solve, brute_force):
            sol = fn(w, p)
            assert not sol.feasible
            assert sol.assignment is None
            assert sol.objective_bytes is None
            assert sol.report is None

    @pytest.mark.parametrize("cap", ["cpu_cap", "mem_cap"])
    def test_zero_cap_on_an_unloaded_node_is_infeasible(self, cap):
        # Op 2 at ratio 1 puts no load on node 2, but the checker holds
        # every node, loaded or not, under its cap.
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 5, 5, 5),
                (2, (2,), (), F.MAX, False, 5, 5, 5),
            ],
            {1: 1, 2: 2},
        )
        p = generate_profile(w)
        p = dataclasses.replace(p, **{cap: {**getattr(p, cap), 2: 0.0}})
        cfg = SolverConfig(delta=0.25)
        assert not brute_force(w, p, cfg).feasible
        sol = solve(w, p, cfg)
        assert not sol.feasible
        assert sol.assignment is None

    def test_forced_cloud_operator_is_offloaded(self):
        w = build_workload(
            [(1, (1, 2), (), F.MEAN, True, 600, 600, 600)], {1: 1, 2: 2}
        )
        p = generate_profile(w)
        sol = solve(w, p)
        assert sol.feasible
        assert sol.assignment.op_gamma(w, 1) == 1.0

    def test_capacity_pressure_forces_offload(self):
        # Edge capacity below the operator's own demand leaves cloud placement
        # as the only feasible point.
        w = build_workload([(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1})
        p = generate_profile(w)
        demand = p.cpu_edge[(1, 1, 1)]
        p = dataclasses.replace(p, cpu_cap={1: demand * 0.5})
        sol = solve(w, p, SolverConfig(delta=0.25))
        want = brute_force(w, p, SolverConfig(delta=0.25))
        assert sol.feasible and want.feasible
        assert sol.assignment.op_gamma(w, 1) == want.assignment.op_gamma(w, 1)
        assert sol.assignment.op_gamma(w, 1) >= 0.75

    def test_stats_record_search_effort(self):
        w, p = random_instance(3)
        sol = solve(w, p, SolverConfig(delta=0.25))
        assert sol.stats["nodes_explored"] >= 1
        assert set(sol.stats["prunes"]) == {"resource", "bound", "latency"}
        assert sol.stats["clusters"] >= 1
        assert sol.stats["grid_points"] == len(gamma_grid(0.25))

    def test_enumeration_cap_guards_blowup(self):
        w, p = random_instance(11, max_ops=4)
        with pytest.raises(EnumerationLimitError):
            brute_force(w, p, SolverConfig(delta=0.25), cap=1)

    def test_zero_budget_falls_back_to_full_offload(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1})
        p = generate_profile(w)
        sol = solve(w, p, SolverConfig(delta=0.05, time_budget_s=0.0))
        assert sol.budget_exceeded
        assert sol.feasible  # full offload is feasible here
        assert sol.assignment.op_gamma(w, 1) == 1.0

    def test_unbudgeted_runs_do_not_set_flag(self):
        w, p = random_instance(7)
        assert solve(w, p, SolverConfig(delta=0.5)).budget_exceeded is False

    def test_budget_cut_is_recorded_in_stats(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1})
        p = generate_profile(w)
        assert solve(w, p, SolverConfig(time_budget_s=0.0)).stats["budget_exceeded"] is True
        assert "budget_exceeded" not in solve(w, p, SolverConfig(time_budget_s=60.0)).stats
        assert "budget_exceeded" not in solve(w, p).stats

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_time_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="time budget"):
            SolverConfig(time_budget_s=budget)


# The contended reference instances at delta = 0.25: ratios of the optimum
# (operators not listed stay at 0), then per (caps, mode) the nodes
# explored, prunes by kind and objective. Paper mode's shared-sensor floor (SearchState.bound)
# prunes more than dedup mode's decided-only bound, so it visits fewer nodes.
# The uncapped reference (caps None) is solved at delta 0.05 and 0.01; its
# optimum is all-edge. Every instance has 14 clusters.
_CONTENDED_OFFLOADED = [*range(9, 29), *range(41, 49), 53, 54]
_CONTENDED_GAMMA = {
    0.9: {
        **dict.fromkeys(_CONTENDED_OFFLOADED, 1.0),
        **dict.fromkeys((4, 8, 32, 36, 40, 49, 50, 51, 52, 56), 0.25),
    },
    0.4: {
        **dict.fromkeys(_CONTENDED_OFFLOADED, 1.0),
        **dict.fromkeys((4, 8, 32, 36, 40, 56), 0.75),
        **dict.fromkeys((49, 50, 51, 52), 0.5),
    },
}
_CONTENDED_COUNTERS = [
    (0.9, 0.25, "paper", 414, (43, 260, 0), 548392360.0),
    (0.9, 0.25, "dedup", 4839, (793, 3026, 0), 522661960.0),
    (0.4, 0.25, "paper", 1509, (562, 605, 0), 753288360.0),
    (0.4, 0.25, "dedup", 4839, (2153, 1654, 0), 717930360.0),
    (None, 0.05, "paper", 569, (0, 522, 0), 4280.0),
    (None, 0.01, "paper", 2569, (0, 2522, 0), 4280.0),
]


@pytest.fixture(scope="module")
def contended():
    w = generate_reference_workload()
    return {
        None: (w, generate_profile(w)),
        **{factor: capped_reference(factor) for factor in (0.9, 0.4)},
    }


class TestContendedCounters:
    """Exact search effort on the reference and on instances where the node
    caps bind: a pruning or pricing change that alters any branch decision
    shows up here."""

    @pytest.mark.parametrize(
        "factor, delta, mode, nodes, prunes, objective", _CONTENDED_COUNTERS
    )
    def test_counters_and_optimum(self, contended, factor, delta, mode, nodes, prunes, objective):
        w, p = contended[factor]
        sol = solve(w, p, SolverConfig(delta=delta, objective_mode=mode))
        assert sol.feasible
        assert sol.stats["nodes_explored"] == nodes
        assert sol.stats["prunes"] == dict(zip(("resource", "bound", "latency"), prunes))
        assert sol.stats["clusters"] == 14
        assert sol.objective_bytes == objective
        want = _CONTENDED_GAMMA.get(factor, {})
        got = {op.id: sol.assignment.op_gamma(w, op.id) for op in w.operators}
        assert got == {op.id: want.get(op.id, 0.0) for op in w.operators}


# The most resource checks (preflight_resource calls, the first_fit probes
# among them) a paper-mode solve of the contended reference may make, per
# (caps, delta): a search change that adds checks shows here.
_RESOURCE_CHECKS = [(0.4, 0.25, 1490), (0.9, 0.05, 1360), (0.4, 0.05, 72_027)]


@pytest.mark.parametrize("factor, delta, most", _RESOURCE_CHECKS)
def test_contended_resource_checks(contended, monkeypatch, factor, delta, most):
    calls = []
    check = solver.preflight_resource

    def counted(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(solver, "preflight_resource", counted)
    w, p = contended[factor]
    assert solve(w, p, SolverConfig(delta=delta)).feasible
    assert len(calls) <= most


# The most OpFacts.volumes calls a delta = 0.25 solve of the 0.4-capped
# reference may make, per mode. The search state carries no bytes: bounds and
# objectives fold OpFacts.total, and node shares are built only at leaves and
# for the operators that can miss a deadline. A pricing table carried through
# the search would show here.
_VOLUMES_CALLS = [("paper", 513), ("dedup", 619)]


@pytest.mark.parametrize("mode, most", _VOLUMES_CALLS)
def test_contended_volumes_calls(contended, monkeypatch, mode, most):
    calls = []
    volumes = OpFacts.volumes

    def counted(*args):
        calls.append(None)
        return volumes(*args)

    monkeypatch.setattr(OpFacts, "volumes", counted)
    w, p = contended[0.4]
    assert solve(w, p, SolverConfig(delta=0.25, objective_mode=mode)).feasible
    assert len(calls) <= most


# The contended reference at delta = 0.1 in paper mode, where resource and
# bound prunes meet the fractional tail rule: per caps the nodes explored,
# prunes by kind and objective.
_CONTENDED_TENTH = [
    (0.9, 1471, (131, 1169, 0), 517972968.0),
    (0.4, 23746, (12505, 9004, 0), 721781136.0),
]


@pytest.mark.parametrize("factor, nodes, prunes, objective", _CONTENDED_TENTH)
def test_contended_counters_at_a_tenth(contended, factor, nodes, prunes, objective):
    w, p = contended[factor]
    sol = solve(w, p, SolverConfig(delta=0.1))
    assert sol.feasible
    assert sol.stats["nodes_explored"] == nodes
    assert sol.stats["prunes"] == dict(zip(("resource", "bound", "latency"), prunes))
    assert sol.objective_bytes == objective


# Random instances at delta = 0.25 with every profile deadline scaled by a
# factor, where the latency prune cuts branches (no contended row does): per
# (seed, factor, mode) the nodes explored, prunes by kind, objective and
# optimal ratios, the last two also brute_force's.
_LATENCY_PRUNED = [
    (25, 0.9, "dedup", 66, (0, 26, 16), 95757.0, {1: 1.0, 2: 1.0, 3: 1.0, 4: 0.0}),
    (54, 1.0, "dedup", 121, (0, 56, 21), 63668.0, {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}),
    (239, 1.0, "paper", 22, (0, 8, 9), 183252.5, {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.75}),
    (273, 0.7, "paper", 30, (4, 17, 3), 46608.25, {1: 0.0, 2: 0.25, 3: 0.25}),
]


@pytest.mark.parametrize(
    "seed, factor, mode, nodes, prunes, objective, gamma", _LATENCY_PRUNED
)
def test_latency_prune_counters(seed, factor, mode, nodes, prunes, objective, gamma):
    w, p = random_instance(seed)
    p = dataclasses.replace(p, t_req_s={i: t * factor for i, t in p.t_req_s.items()})
    cfg = SolverConfig(delta=0.25, objective_mode=mode)
    sol, want = solve(w, p, cfg), brute_force(w, p, cfg)
    assert sol.feasible
    assert sol.stats["nodes_explored"] == nodes
    assert sol.stats["prunes"] == dict(zip(("resource", "bound", "latency"), prunes))
    assert sol.objective_bytes == want.objective_bytes == objective
    assert sol.assignment.gamma == want.assignment.gamma == gamma


class TestSearchState:
    """After any sequence of decisions and undos, every carried table equals
    that of a fresh state replaying the decisions still standing, bit for
    bit, and the objective and the paper bound equal a fresh pricing of the
    operators, the undecided ones at ratio 1 in the bound."""

    CARRIED = ("gamma", "gamma_sensor", "cpu_used", "mem_used", "raw_best")

    @classmethod
    def walk(cls, w, p, mode, rng, steps):
        inst = Instance.build(w, p)
        facts = inst.ops
        state = SearchState(inst, mode)
        ops = tuple(sorted(op.id for op in w.operators))
        stack = []  # (operator, ratio, trail length before its decision)
        for _ in range(steps):
            free = [i for i in ops if i not in state.gamma]
            if free and (not stack or rng.random() < 0.6):
                op, gamma = rng.choice(free), rng.choice((0.0, 0.05, 0.1, 0.35, 0.7, 1.0))
                stack.append((op, gamma, len(state.trail)))
                state.assign(op, gamma)
            else:
                state.undo(stack.pop()[2])
            fresh = SearchState(inst, mode)
            for op, gamma, _mark in stack:
                fresh.assign(op, gamma)
            for table in cls.CARRIED:
                assert getattr(state, table) == getattr(fresh, table), table
            decided = [i for i in ops if i in state.gamma]
            oracle = Instance(w, p, inst.order, {i: inst.ops[i] for i in decided})
            assert state.bound(tuple(decided)) == oracle.objective(state, mode)
            if mode == "paper":
                bound = 0.0
                for i in ops:
                    bound += facts[i].total(state.gamma.get(i, 1.0), state.gamma_sensor)
                assert state.bound(ops) == bound

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    def test_random_instances(self, mode):
        rng = random.Random(5)
        for seed in range(30):
            w, p = random_instance(seed, max_ops=6)
            self.walk(w, p, mode, rng, 40)

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    def test_contended_reference(self, contended, mode):
        w, p = contended[0.4]
        self.walk(w, p, mode, random.Random(7), 200)


class TestPaperBound:
    """The paper-mode bound of a partial assignment never exceeds the
    objective of any completion, so pruning on it keeps the search exact."""

    def test_bound_below_every_completion(self):
        rng = random.Random(11)
        grid = (0.0, 0.25, 0.5, 1.0)
        checked = 0
        for seed in range(40):
            w, p = random_instance(seed)
            inst = Instance.build(w, p)
            state = SearchState(inst, "paper")
            ops = tuple(sorted(op.id for op in w.operators))
            for i in rng.sample(ops, rng.randint(0, len(ops))):
                state.assign(i, rng.choice(grid))
            bound = state.bound(ops)
            free = [i for i in ops if i not in state.gamma]
            for combo in itertools.product(grid, repeat=len(free)):
                a = Assignment.from_op_gamma(w, {**state.gamma, **dict(zip(free, combo))})
                oracle = Instance(w, p, inst.order, {i: inst.ops[i] for i in ops})
                assert bound <= oracle.objective(a, "paper"), f"seed {seed}"
                checked += 1
        assert checked > 1_000


class TestFractionalTail:
    """The premise of the search's fractional tail rule: with everything
    else fixed, raising a free splittable atom through its fractional grid
    points, and deriving each composite whose deps are all decided, never
    lowers the bound and never raises a node's CPU or memory sum. So once
    one fractional point is bound-pruned, every larger one is too."""

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    def test_bound_rises_and_loads_fall_along_the_fractions(self, mode):
        rng = random.Random(11)
        grid = gamma_grid(0.1)
        checked = 0
        for seed in range(40):
            w, p = random_instance(seed)
            inst = Instance.build(w, p)
            ops = tuple(sorted(op.id for op in w.operators))
            splittable = [
                i for i in ops
                if inst.ops[i].spec.atomic and len(operator_domain(w, i, grid)) > 2
            ]
            if not splittable:
                continue
            atom = rng.choice(splittable)
            state = SearchState(inst, mode)
            rest = [i for i in ops if i != atom]
            for i in rng.sample(rest, rng.randint(0, len(rest))):
                state.assign(i, rng.choice((0.0, 0.3, 0.5, 1.0)))
            seen = []
            for g in (g for g in grid if runs_split(g)):
                mark = len(state.trail)
                state.assign(atom, g)
                for i in inst.order:
                    deps = inst.ops[i].spec.deps
                    if i not in state.gamma and deps and all(d in state.gamma for d in deps):
                        dep_gammas = [state.gamma[d] for d in deps]
                        state.assign(i, composite_gamma(inst.ops[i].forced_cloud, dep_gammas))
                seen.append((state.bound(ops), dict(state.cpu_used), dict(state.mem_used)))
                state.undo(mark)
            for (b0, cpu0, mem0), (b1, cpu1, mem1) in zip(seen, seen[1:]):
                assert b0 <= b1, f"seed {seed}"
                for used0, used1 in ((cpu0, cpu1), (mem0, mem1)):
                    for k in used0.keys() | used1.keys():
                        assert used1.get(k, 0.0) <= used0.get(k, 0.0), f"seed {seed}, node {k}"
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    def test_points_that_fail_the_caps_come_first(self, mode):
        # The premise of the fractional prefix rule: placed along the
        # fractions with their derived composites, no node's sum rises, so
        # under any caps the points that fail the resource check precede
        # those that pass, and first_fit's walk finds the first that passes.
        rng = random.Random(17)
        fractions = [g for g in gamma_grid(0.1) if runs_split(g)]
        checked = 0
        for seed in range(50):
            w, p = random_instance(seed)
            ops = tuple(sorted(op.id for op in w.operators))
            inst = Instance.build(w, p)
            splittable = [
                i for i in ops
                if inst.ops[i].spec.atomic and len(operator_domain(w, i, gamma_grid(0.1))) > 2
            ]
            if not splittable:
                continue
            atom = rng.choice(splittable)
            rest = [i for i in ops if i != atom]
            decided = [(i, rng.choice((0.0, 0.3, 0.5, 1.0)))
                       for i in rng.sample(rest, rng.randint(0, len(rest)))]

            def partial(inst):
                state = SearchState(inst, mode)
                for i, g in decided:
                    state.assign(i, g)
                return state, len(state.trail)

            def place(state, g):
                state.place(atom, g)
                for i in inst.order:
                    deps = inst.ops[i].spec.deps
                    if i not in state.gamma and deps and all(d in state.gamma for d in deps):
                        dep_gammas = [state.gamma[d] for d in deps]
                        state.place(i, composite_gamma(inst.ops[i].forced_cloud, dep_gammas))

            state, mark = partial(inst)
            seen = []
            for g in fractions:
                place(state, g)
                seen.append((dict(state.cpu_used), dict(state.mem_used)))
                state.undo(mark)
            for (cpu0, mem0), (cpu1, mem1) in zip(seen, seen[1:]):
                for used0, used1 in ((cpu0, cpu1), (mem0, mem1)):
                    for k in used0.keys() | used1.keys():
                        assert used1.get(k, 0.0) <= used0.get(k, 0.0), f"seed {seed}, node {k}"
            for _ in range(5):
                caps = [{}, {}]
                for table, used in zip(caps, zip(*seen)):
                    for k in set().union(*used):
                        sums = [u.get(k, 0.0) for u in used]
                        table[k] = rng.uniform(0.9 * min(sums), 1.1 * max(sums))
                state, mark = partial(Instance.build(w, dataclasses.replace(
                    p, cpu_cap={**p.cpu_cap, **caps[0]}, mem_cap={**p.mem_cap, **caps[1]})))

                def fits(j):
                    place(state, fractions[j])
                    ok = preflight_resource(state, mark) is None
                    state.undo(mark)
                    return ok

                linear = next((j for j in range(len(fractions)) if fits(j)), len(fractions))
                assert first_fit(fits, 0, len(fractions)) == linear, f"seed {seed}"
                checked += 0 < linear < len(fractions)
        assert checked > 100

    @pytest.mark.parametrize("delta", [0.25, 0.1, 1 / 3, 0.01])
    def test_fractional_is_the_aggregate_class(self, delta):
        for g in gamma_grid(delta):
            assert runs_split(g) == (int_res_bytes(g, 1.0, 2.0) == 1.0), g


class TestFirstFit:
    """first_fit from any hint returns the first index where a monotone
    `fits` holds, probing only inside [lo, hi)."""

    @settings(max_examples=500, deadline=None)
    @given(lo=st.integers(0, 5), length=st.integers(0, 40), data=st.data())
    def test_first_fitting_index(self, lo, length, data):
        hi = lo + length
        first = data.draw(st.integers(lo, hi), label="first")  # hi: none fits
        hint = data.draw(st.none() | st.integers(lo - 45, hi + 45), label="hint")
        probes = []

        def fits(k):
            probes.append(k)
            return k >= first

        got = first_fit(fits, lo, hi) if hint is None else first_fit(fits, lo, hi, hint)
        assert got == first
        assert all(lo <= k < hi for k in probes), probes
        if got < hi:
            assert got in probes
        if (lo if hint is None else hint) == first:
            assert len(probes) <= 2, probes


class TestDeadlineSlack:
    """An operator OpFacts marks as unable to miss its deadline meets it
    with its wait-free latency at every ratio and any sensor ratios, so the
    latency prune may skip it."""

    @staticmethod
    def admissible(w, p, rng):
        # Every grid point and a few random ratios: a superset of every
        # operator's domain, composites' derived ratios among it.
        ratios = sorted({*gamma_grid(0.05), *(rng.random() for _ in range(5))})
        checked = 0
        for i, facts in Instance.build(w, p).ops.items():
            if facts.may_miss:
                continue
            for g in ratios:
                sensor_ratios = [dict.fromkeys(facts.spec.sensors, 1.0)] + [
                    {s: rng.random() for s in facts.spec.sensors} for _ in range(3)
                ]
                for gs in sensor_ratios:
                    te, tt, tc = facts.latency_terms(g, facts.volumes(g, gs), p)
                    assert facts.t_req is None or te + tt + tc <= facts.t_req, f"op {i}"
                    checked += 1
        return checked

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_random_instances(self, factor):
        rng = random.Random(19)
        checked = 0
        for seed in range(150):
            w, p = random_instance(seed)
            p = dataclasses.replace(p, t_req_s={i: t * factor for i, t in p.t_req_s.items()})
            checked += self.admissible(w, p, rng)
        assert checked > 10_000

    def test_reference_profiles(self, contended):
        for factor in (None, 0.9, 0.4):
            w, p = contended[factor]
            assert self.admissible(w, p, random.Random(23)) > 5_000
            ops = Instance.build(w, p).ops
            assert [i for i, facts in ops.items() if facts.may_miss] == [59]


class TestLatencyBound:
    """The latency prune's bound for a decided operator, its latency_terms
    under its volumes at the partial state's ratios, never exceeds its t_total in any
    completion, so a deadline it misses is missed in the whole subtree."""

    def test_bound_below_every_completion(self):
        rng = random.Random(13)
        grid = (0.0, 0.25, 0.5, 1.0)
        checked = 0
        for seed in range(100):
            w, p = random_instance(seed)
            inst = Instance.build(w, p)
            ops = tuple(sorted(inst.ops))
            state = SearchState(inst, "paper")
            for i in rng.sample(ops, rng.randint(1, len(ops))):
                state.assign(i, rng.choice(grid))
            bounds = {}
            for i, g in state.gamma.items():
                by_node = inst.ops[i].volumes(g, state.gamma_sensor)
                te, tt, tc = inst.ops[i].latency_terms(g, by_node, p)
                bounds[i] = te + tt + tc
            free = [i for i in ops if i not in state.gamma]
            for combo in itertools.product(grid, repeat=len(free)):
                a = Assignment.from_op_gamma(w, {**state.gamma, **dict(zip(free, combo))})
                rows = cost_report(w, p, a, inst=inst).per_operator
                for i, bound in bounds.items():
                    assert bound <= rows[i].t_total, f"seed {seed}, op {i}"
                    checked += 1
        assert checked > 1_000


class TestFineGridOptimum:
    def test_capped_reference_at_a_twentieth(self, contended):
        # Ratios of the optimum found by the decided-only bound, before the
        # floor; operators not listed stay at 0.
        w, p = contended[0.9]
        sol = solve(w, p, SolverConfig(delta=0.05))
        assert sol.feasible
        assert sol.objective_bytes == 500928448.0
        # The search effort, where the fractional prefix rule cuts.
        assert sol.stats["nodes_explored"] == 5534
        assert sol.stats["prunes"] == {"resource": 482, "bound": 4747, "latency": 0}
        want = {
            **dict.fromkeys((49, 50, 51, 52), 0.05),
            **dict.fromkeys((2, 4), 0.1),
            **dict.fromkeys((8, 32, 36, 40, 56), 0.15),
            **dict.fromkeys((*range(9, 29), *range(41, 49), 53, 54, 55, *range(57, 64)), 1.0),
        }
        got = {op.id: sol.assignment.op_gamma(w, op.id) for op in w.operators}
        assert got == {op.id: want.get(op.id, 0.0) for op in w.operators}
