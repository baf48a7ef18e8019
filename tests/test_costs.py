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
    cloud_time,
    cost_report,
    data_volume,
    derive_sensor_gamma,
    edge_time,
    effective_t_req,
    home_nodes,
    le_with_tol,
    lt_strict,
    node_cpu,
    node_mem,
    node_usage,
    propagate_composite_gamma,
    total_objective,
    trans_time,
    windows_in_horizon,
)
from splitstream import generate_profile

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
        assert edge_time(1, a, p, w) == 0.0
        assert node_cpu(1, 1, a, p, w) == 0.0
        assert node_mem(1, 1, a, p, w) == 0.0

    def test_cloud_terms_vanish_when_fully_edge(self, tiny_workload, tiny_profile):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.0})
        assert cloud_time(1, a, p, w) == 0.0

    def test_fixed_cloud_overhead_charged_once_offloading_starts(
        self, tiny_workload, tiny_profile
    ):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.3})
        cycles = sum(p.cpu_cloud[(1, s)] for s in (1, 2))
        expect = (0.3 * cycles + p.cpu_res[1]) / p.cpu_unit_cloud
        assert cloud_time(1, a, p, w) == pytest.approx(expect, rel=1e-12)

    def test_literal_orientation_swaps_shares(self, tiny_workload, tiny_profile):
        w, p = tiny_workload, tiny_profile
        a = Assignment.from_op_gamma(w, {1: 0.0})
        cycles = sum(p.cpu_cloud[(1, s)] for s in (1, 2))
        expect = (1.0 * cycles + p.cpu_res[1]) / p.cpu_unit_cloud
        assert cloud_time(1, a, p, w, orientation="literal") == pytest.approx(
            expect, rel=1e-12
        )
        assert edge_time(1, a, p, w, orientation="literal") == 0.0

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
        assert trans_time(1, a, p, w) == pytest.approx(per_node_1, rel=1e-12)
        assert trans_time(1, a, p, w, node=2) == 0.0


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
                assert u.cpu_cycles == sum(node_cpu(op.id, k, a, p, w, orientation) for op in ops)
                assert u.mem_bytes == sum(node_mem(op.id, k, a, p, w, orientation) for op in ops)


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
