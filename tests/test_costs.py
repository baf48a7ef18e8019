"""Cost model: per-window volumes, latency decomposition, objectives.

The frozen numbers below were derived by hand before being pinned:
with a 600 s window at 10 Hz and 8-byte samples, each sensor's window is
48000 bytes; a two-channel mean keeps a 4-number partial aggregate (32 bytes)
and emits a 2-number result (16 bytes).
"""

import math
import random

import pytest

from splitstream import (
    Assignment,
    FunctionKind,
    cloud_only,
    cost_report,
    data_volume,
    effective_t_req,
    home_nodes,
    le_with_tol,
    lt_strict,
    node_cpu,
    node_mem,
    node_usage,
    StreamConfig,
    generate_trace,
    propagate_composite_gamma,
    run_sim,
    solve,
    total_objective,
    windows_in_horizon,
)
from splitstream import generate_profile, generate_reference_workload, topological_order
from splitstream.costs import Instance, edge_loads, int_res_bytes, volume_terms
from splitstream.model import fold_sum

from conftest import build_workload, random_instance

F = FunctionKind


def gam(w, g):
    return Assignment.from_op_gamma(w, {op.id: g for op in w.operators})


class TestDataVolume:
    def test_fully_edge_uploads_result_only(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.0})
        assert data_volume(1, 1, a, tiny_profile, tiny_workload) == 16.0

    def test_fully_offloaded_uploads_raw_only(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 1.0})
        assert data_volume(1, 1, a, tiny_profile, tiny_workload) == 96000.0

    def test_fractional_adds_partial_aggregate(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.3})
        got = data_volume(1, 1, a, tiny_profile, tiny_workload)
        assert got == pytest.approx(28832.0, rel=1e-12)

    def test_other_nodes_carry_nothing(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.3})
        assert data_volume(1, 99, a, tiny_profile, tiny_workload) == 0.0

    def test_raw_term_uses_sensor_level_ratio(self):
        # Two operators share sensor 1; the stream leaves at the max ratio.
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 600, 600, 600),
                (2, (1,), (), F.STD, True, 600, 600, 600),
            ],
            {1: 1},
        )
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: 0.3, 2: 0.7})
        assert a.gamma_sensor[1] == 0.7
        got = data_volume(1, 1, a, p, w)
        # op 1: raw at sensor ratio 0.7, plus its own partial aggregate.
        assert got == pytest.approx(0.7 * 48000.0 + 8 * 2, rel=1e-12)


class TestObjective:
    def test_paper_equals_dedup_without_sharing(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.3})
        paper = total_objective(a, tiny_profile, tiny_workload, mode="paper")
        dedup = total_objective(a, tiny_profile, tiny_workload, mode="dedup")
        assert paper == pytest.approx(28832.0, rel=1e-12)
        assert dedup == pytest.approx(paper, rel=1e-12)

    def test_horizon_scales_window_closes(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.3})
        paper = total_objective(a, tiny_profile, tiny_workload, "paper", horizon_s=3600)
        dedup = total_objective(a, tiny_profile, tiny_workload, "dedup", horizon_s=3600)
        assert paper == pytest.approx(172992.0, rel=1e-12)
        assert dedup == pytest.approx(172992.0, rel=1e-12)

    def test_dedup_counts_shared_raw_once(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 600, 600, 600),
                (2, (1,), (), F.MSQRT, True, 600, 600, 600),
            ],
            {1: 1},
        )
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: 1.0, 2: 1.0})
        paper = total_objective(a, p, w, mode="paper")
        dedup = total_objective(a, p, w, mode="dedup")
        assert paper == pytest.approx(2 * 48000.0, rel=1e-12)
        assert dedup == pytest.approx(48000.0, rel=1e-12)

    def test_unknown_mode_rejected(self, tiny_workload, tiny_profile):
        a = Assignment.from_op_gamma(tiny_workload, {1: 1.0})
        with pytest.raises(ValueError):
            total_objective(a, tiny_profile, tiny_workload, mode="net")

    # Ratios off the binary grid make the products inexact, so a change in
    # summation order would show in the bit-for-bit comparisons below.
    RATIOS = (0.0, 0.05, 0.35, 0.7, 1.0)

    @pytest.mark.parametrize("horizon", [None, 3600.0])
    def test_paper_folds_data_volume(self, horizon):
        for seed in range(60):
            w, p = random_instance(seed)
            rng = random.Random(4000 + seed)
            a = Assignment.from_op_gamma(w, {op.id: rng.choice(self.RATIOS) for op in w.operators})
            nodes = sorted(w.topology.nodes)
            closes = {
                op.id: 1 if horizon is None else windows_in_horizon(op.window_s, op.step_s, horizon)
                for op in w.operators
            }
            for ops in (w.operators, w.operators[::-1]):
                want = fold_sum(
                    fold_sum(data_volume(op.id, k, a, p, w) for k in nodes) * closes[op.id]
                    for op in ops
                )
                ids = [op.id for op in ops]
                assert total_objective(a, p, w, "paper", horizon, ids) == want, f"seed {seed}"

    @pytest.mark.parametrize("horizon", [None, 3600.0])
    def test_dedup_matches_a_longhand_oracle(self, horizon):
        for seed in range(60):
            w, p = random_instance(seed)
            rng = random.Random(5000 + seed)
            a = Assignment.from_op_gamma(w, {op.id: rng.choice(self.RATIOS) for op in w.operators})
            raw_best = {}
            for op in w.operators:
                for s in op.sensors:
                    k = w.topology.sensor_node[s]
                    raw = p.data_raw[(op.id, s, k)]
                    if horizon is not None:
                        raw = raw / op.window_s * horizon
                    raw_best[(s, k)] = max(raw_best.get((s, k), 0.0), raw)
            want = 0.0
            for s, k in sorted(raw_best):
                want += raw_best[(s, k)] * a.gamma_sensor[s]
            for op in w.operators:
                g = a.gamma[op.id]
                term = {0.0: p.data_res[op.id], 1.0: 0.0}.get(g, p.data_int[op.id])
                if horizon is not None:
                    term *= windows_in_horizon(op.window_s, op.step_s, horizon)
                want += term
            assert total_objective(a, p, w, "dedup", horizon_s=horizon) == want, f"seed {seed}"


class TestIntResTolerance:
    """Ratios within GAMMA_TOL of 0 or 1 pass check_assignment and are
    replayed as 0 or 1, so they are priced as 0 or 1."""

    NEAR_GRID = [(-1e-12, 0.0), (1e-12, 0.0), (1.0 - 1e-12, 1.0), (1.0 + 1e-10, 1.0)]

    @pytest.mark.parametrize("gamma, like", NEAR_GRID)
    def test_near_grid_ratio_prices_as_the_grid(self, gamma, like):
        for d_int, d_res in ((100.0, 8.0), (8.0, 100.0)):
            assert int_res_bytes(gamma, d_int, d_res) == int_res_bytes(like, d_int, d_res)
        assert int_res_bytes(0.5, 100.0, 8.0) == 100.0

    @pytest.mark.parametrize("gamma, like", NEAR_GRID)
    def test_replay_sends_the_analytic_aggregate_and_result(self, gamma, like):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 5, 5, 5),
                (2, (2,), (), F.STD, True, 2, 1, 1),
            ],
            {1: 1, 2: 2},
        )
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: gamma, 2: 0.5})
        trace = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=1), [1, 2])
        rep = run_sim(w, p, a, trace)
        want = 0.0
        for op in w.operators:
            term = int_res_bytes(a.gamma[op.id], p.data_int[op.id], p.data_res[op.id])
            want += term * windows_in_horizon(op.window_s, op.step_s, trace.duration_s)
        assert rep.int_payload_bytes + rep.res_payload_bytes == want


class TestWindowsInHorizon:
    @pytest.mark.parametrize(
        "window,step,horizon,expect",
        [
            (60, 60, 3600, 60),
            (600, 60, 3600, 51),
            (5, 5, 600, 120),
            (60, 60, 60, 1),
            (700, 600, 600, 0),
            (86400, 86400, 3600, 0),
            (0.3, 0.1, 0.6, 4),
        ],
    )
    def test_close_counting(self, window, step, horizon, expect):
        assert windows_in_horizon(window, step, horizon) == expect


class TestTolerances:
    def test_le_forgives_boundary_noise(self):
        assert le_with_tol(1.0 + 1e-12, 1.0)
        assert le_with_tol(1.0, 1.0)
        assert not le_with_tol(1.1, 1.0)

    def test_lt_treats_near_boundary_as_equal(self):
        assert lt_strict(0.9, 1.0)
        assert not lt_strict(1.0, 1.0)
        assert not lt_strict(1.0 - 1e-12, 1.0)
        assert not lt_strict(1.0 + 1e-12, 1.0)


class TestLatency:
    def test_decomposition_sums_exactly(self):
        for seed in range(25):
            w, p = random_instance(seed)
            rng = random.Random(1000 + seed)
            per_op = {}
            for op in w.operators:
                if op.atomic:
                    per_op[op.id] = rng.choice((0.0, 0.25, 0.5, 1.0))
            per_op = propagate_composite_gamma(w, per_op)
            a = Assignment.from_op_gamma(w, per_op)
            rep = cost_report(w, p, a)
            for row in rep.per_operator.values():
                assert row.t_total == row.t_edge + row.t_trans + row.t_wait + row.t_cloud
                if w.operator(row.op).atomic:
                    assert row.t_wait == 0.0

    def test_edge_terms_vanish_when_fully_offloaded(self, tiny_workload, tiny_profile):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 1.0})
        assert cost_report(w, p, a).per_operator[1].t_edge == 0.0
        assert node_cpu(1, 1, a, p, w) == 0.0
        assert node_mem(1, 1, a, p, w) == 0.0

    def test_cloud_terms_vanish_when_fully_edge(self, tiny_workload, tiny_profile):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.0})
        assert cost_report(w, p, a).per_operator[1].t_cloud == 0.0

    def test_fixed_cloud_overhead_charged_once_offloading_starts(
        self, tiny_workload, tiny_profile
    ):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.3})
        cycles = sum(p.cpu_cloud[(1, s)] for s in (1, 2))
        expect = (0.3 * cycles + p.cpu_res[1]) / p.cpu_unit_cloud
        assert cost_report(w, p, a).per_operator[1].t_cloud == pytest.approx(
            expect, rel=1e-12
        )

    def test_literal_orientation_swaps_shares(self, tiny_workload, tiny_profile):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.0})
        cycles = sum(p.cpu_cloud[(1, s)] for s in (1, 2))
        expect = (1.0 * cycles + p.cpu_res[1]) / p.cpu_unit_cloud
        row = cost_report(w, p, a, orientation="literal").per_operator[1]
        assert row.t_cloud == pytest.approx(expect, rel=1e-12)
        assert row.t_edge == 0.0

    def test_trans_time_picks_worst_node(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 600, 600, 600),
                (2, (2,), (), F.MEAN, True, 600, 600, 600),
                (3, (), (1, 2), F.LAST, False, 600, 600, 600),
            ],
            {1: 1, 2: 2},
        )
        p = generate_profile(w)
        a = Assignment.from_op_gamma(
            w, propagate_composite_gamma(w, {1: 1.0, 2: 1.0})
        )
        per_node_1 = data_volume(1, 1, a, p, w) / p.bandwidth[1]
        assert cost_report(w, p, a).per_operator[1].t_trans == pytest.approx(
            per_node_1, rel=1e-12
        )
        assert data_volume(1, 2, a, p, w) == 0.0


class TestNodeUsage:
    @pytest.mark.parametrize("orientation", ["corrected", "literal"])
    def test_equals_per_operator_sums(self, orientation):
        # Ratios off the binary grid make the products inexact, so a change
        # in summation order would show here.
        for seed in range(40):
            w, p = random_instance(seed)
            rng = random.Random(3000 + seed)
            a = Assignment.from_op_gamma(
                w, {op.id: rng.choice((0.0, 0.05, 0.35, 0.7, 1.0)) for op in w.operators}
            )
            usage = node_usage(a, p, w, orientation)
            assert list(usage) == sorted(w.topology.nodes)
            for k, u in usage.items():
                ops = w.operators
                cpu = fold_sum(node_cpu(op.id, k, a, p, w, orientation) for op in ops)
                mem = fold_sum(node_mem(op.id, k, a, p, w, orientation) for op in ops)
                assert (u.cpu_cycles, u.mem_bytes) == (cpu, mem)


class TestInstance:
    @pytest.mark.parametrize("orientation", ["corrected", "literal"])
    def test_facts_repeat_the_narrow_builders(self, orientation):
        # Load rows at share 1, scaled by a share, repeat edge_loads' rows
        # bit for bit; ratios off the binary grid make the products inexact.
        for seed in range(30):
            w, p = random_instance(seed)
            inst = Instance.build(w, p)
            assert list(inst.order) == topological_order(w)
            for op in w.operators:
                facts = inst.ops[op.id]
                assert facts.spec is op
                assert facts.terms == volume_terms(w, p, op.id)
                assert facts.nodes == {w.topology.sensor_node[s] for s in op.sensors}
                assert facts.t_req == effective_t_req(op, p)
                for g in (0.0, 0.05, 0.35, 0.7, 1.0):
                    share = g if orientation == "literal" else 1.0 - g
                    rows = [(k, c * share, m * share) for k, c, m in facts.loads]
                    assert rows == list(edge_loads(op, g, p, w, orientation))


class TestFloatFolds:
    """Float sums fold left to right, so reports read the same on every
    supported Python: from 3.12 on, `sum` compensates float rounding."""

    def test_fold_sum_rounds_each_addition(self):
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert fold_sum([]) == 0.0

    def test_reference_latency_sums(self):
        w = generate_reference_workload()
        p = generate_profile(w)
        assert solve(w, p).report.latency_sum == 0.3812594779487179
        assert cloud_only(w, p).report.latency_sum == 555.6473590124999


class TestPlacementRules:
    def test_home_nodes_follow_own_sensors(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 4, 4, 4),
                (2, (2,), (), F.MEAN, True, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 2},
        )
        assert home_nodes(w, 1) == frozenset({1})
        assert home_nodes(w, 3) == frozenset({1, 2})

    def test_propagation_minimum_rule(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 4, 4, 4),
                (2, (2,), (), F.MEAN, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 1},
        )
        out = propagate_composite_gamma(w, {1: 0.0, 2: 1.0})
        assert out[3] == 0.0
        out = propagate_composite_gamma(w, {1: 1.0, 2: 1.0})
        assert out[3] == 1.0

    def test_propagation_fractional_dependency_forces_cloud(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 4, 4, 4),
                (2, (), (1,), F.LAST, False, 4, 4, 4),
            ],
            {1: 1},
        )
        assert propagate_composite_gamma(w, {1: 0.5})[2] == 1.0

    def test_propagation_node_span_forces_cloud(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 4, 4, 4),
                (2, (2,), (), F.MEAN, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 2},
        )
        assert propagate_composite_gamma(w, {1: 0.0, 2: 0.0})[3] == 1.0

    def test_propagation_requires_atomic_ratios(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 4, 4, 4)], {1: 1})
        with pytest.raises(ValueError):
            propagate_composite_gamma(w, {})

    def test_unconsumed_sensor_uploads_nothing(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 4, 4, 4)], {1: 1, 2: 1})
        a = Assignment.from_op_gamma(w, {1: 1.0})
        assert a.gamma_sensor[2] == 0.0


class TestDeadlineLookup:
    def test_workload_value_wins_over_profile(self, tiny_workload, tiny_profile):
        op = tiny_workload.operator(1)
        assert effective_t_req(op, tiny_profile) == tiny_profile.t_req_s[1]
        import dataclasses

        op2 = dataclasses.replace(op, t_req_s=42.0)
        assert effective_t_req(op2, tiny_profile) == 42.0
