"""Search correctness: grids, domains, pruning soundness, budget handling."""

import dataclasses
import random

import pytest

from splitstream import (
    Assignment,
    EnumerationLimitError,
    FunctionKind,
    SolverConfig,
    brute_force,
    check_assignment,
    cloud_only,
    gamma_grid,
    generate_profile,
    solve,
)

from conftest import build_workload, random_instance

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

    def test_bad_mode_and_orientation_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(objective_mode="bytes")
        with pytest.raises(ValueError):
            SolverConfig(cost_orientation="sideways")


class TestAgainstBruteForce:
    def test_matches_exhaustive_enumeration(self):
        # The acceptance suite runs the full 200-instance sweep; this is the
        # fast smoke version exercising both objective modes and both cost
        # orientations.
        for seed in range(40):
            w, p = random_instance(seed)
            cfg = SolverConfig(
                delta=0.5 if seed % 2 else 0.25,
                objective_mode="dedup" if seed % 3 == 0 else "paper",
                cost_orientation="literal" if seed % 4 >= 2 else "corrected",
            )
            got = solve(w, p, cfg)
            want = brute_force(w, p, cfg)
            assert got.feasible == want.feasible, f"seed {seed}"
            if want.feasible:
                assert got.objective_bytes == want.objective_bytes, f"seed {seed}"
                got_g = {op.id: got.assignment.op_gamma(w, op.id) for op in w.operators}
                want_g = {op.id: want.assignment.op_gamma(w, op.id) for op in w.operators}
                assert got_g == want_g, f"seed {seed}"

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
