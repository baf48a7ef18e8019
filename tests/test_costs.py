"""Cost model: per-window volumes, latency decomposition, objectives.

The frozen numbers below were derived by hand before being pinned:
with a 600 s window at 10 Hz and 8-byte samples, each sensor's window is
48000 bytes; a two-channel mean keeps a 4-number partial aggregate (32 bytes)
and emits a 2-number result (16 bytes).
"""

import dataclasses
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
    StreamConfig,
    generate_trace,
    propagate_composite_gamma,
    run_sim,
    solve,
    total_objective,
    windows_in_horizon,
)
from splitstream import generate_profile, generate_reference_workload, topological_order
from splitstream.costs import (
    PER_NODE,
    PER_OPERATOR,
    PER_SENSOR,
    Instance,
    Profile,
    fold_at,
    int_res_bytes,
    table_key,
    under_cap,
)
from splitstream.feasibility import check_assignment, composite_gamma
from splitstream.model import (
    GAMMA_TOL,
    fold_sum,
    runs_at_edge,
    runs_in_cloud,
    runs_split,
    transitive_sensors,
)
from splitstream.solver import gamma_grid

from conftest import build_workload, capped_reference, random_instance

F = FunctionKind


def gam(w, g):
    return Assignment.from_op_gamma(w, {op.id: g for op in w.operators})


class TestProfileTables:
    def test_the_lists_name_every_profile_field_once(self):
        # A field the lists miss is one the reader, the writer and the value
        # rules would all skip.
        names = [*PER_SENSOR, *PER_OPERATOR, *PER_NODE, "cpu_unit_cloud", "t_req_s"]
        assert len(names) == len(set(names))
        assert set(names) == {f.name for f in dataclasses.fields(Profile)}

    def test_table_key_gives_each_per_sensor_table_its_keys(self, tiny_workload):
        p = generate_profile(tiny_workload)
        for name in PER_SENSOR:
            assert set(getattr(p, name)) == {table_key(name, key) for key in p.cpu_edge}
        assert all(len(key) == 2 for key in p.cpu_cloud)


class TestAssignment:
    def test_refuses_a_ratio_for_an_unknown_operator(self, tiny_workload):
        with pytest.raises(ValueError, match="operator 999"):
            Assignment.from_op_gamma(tiny_workload, {1: 0.0, 999: 0.5})


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

    @pytest.mark.parametrize("mode", ["paper", "dedup"])
    @pytest.mark.parametrize("horizon", [-5.0, 0.0, math.inf, math.nan])
    def test_a_horizon_not_positive_and_finite_is_refused(
        self, tiny_workload, tiny_profile, mode, horizon
    ):
        a = Assignment.from_op_gamma(tiny_workload, {1: 0.0})
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            total_objective(a, tiny_profile, tiny_workload, mode, horizon_s=horizon)

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
    replayed as 0 or 1, so they are priced as 0 or 1. Past the range a ratio
    takes its nearer end's class and NaN is split, by the same model rule,
    though C1 or C2 flags them and the replay refuses them."""

    NEAR_GRID = [
        (-1e-12, 0.0), (1e-12, 0.0), (1.0 - 1e-12, 1.0), (1.0 + 1e-10, 1.0),
        (-0.5, 0.0), (1.5, 1.0), (math.nan, 0.5),
    ]

    @pytest.mark.parametrize("gamma, like", NEAR_GRID)
    def test_every_reader_takes_the_model_class(self, gamma, like):
        # Pricing's upload term, a composite forced to 1 by a split dep, the
        # replay's frame kind and the C1/C2 checks all follow model's rule.
        kind = (runs_at_edge(gamma), runs_split(gamma), runs_in_cloud(gamma))
        assert kind == (runs_at_edge(like), runs_split(like), runs_in_cloud(like))
        assert sum(kind) == 1
        edge, split, _cloud = kind
        assert int_res_bytes(gamma, 100.0, 8.0) == (8.0 if edge else 100.0 if split else 0.0)
        assert (composite_gamma(False, [gamma, 0.0]) == 1.0) == split
        trace = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=1), [1])
        in_range = -GAMMA_TOL <= gamma <= 1.0 + GAMMA_TOL
        for iterative, cid in ((True, "C1"), (False, "C2")):
            w = build_workload([(1, (1,), (), F.MEAN, iterative, 5, 5, 5)], {1: 1})
            p = generate_profile(w)
            a = Assignment.from_op_gamma(w, {1: gamma})
            found = {v.constraint for v in check_assignment(w, p, a)}
            assert (cid in found) == (not in_range), cid
            # No raw share, so the operator's own frames tell its class.
            if not in_range:
                with pytest.raises(ValueError, match=f"ratio {gamma} of operator 1 is outside"):
                    run_sim(w, p, Assignment({1: gamma}, {1: 0.0}), trace)
                continue
            stats = run_sim(w, p, Assignment({1: gamma}, {1: 0.0}), trace).per_op[1]
            assert (stats.res_frames > 0, stats.int_frames > 0) == (edge, split)

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
        if not -GAMMA_TOL <= gamma <= 1.0 + GAMMA_TOL:
            with pytest.raises(ValueError, match=f"ratio {gamma} of operator 1 is outside"):
                run_sim(w, p, a, trace)
            return
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

    @pytest.mark.parametrize(
        "window,step,horizon",
        [(60, 1e-300, 1e300), (60, 60, math.inf), (60, 60, math.nan), (0.5, 5e-324, 1.0)],
    )
    def test_a_count_that_is_not_finite_is_refused(self, window, step, horizon):
        # inf and NaN have no floor; the error names the figures instead.
        with pytest.raises(ValueError) as info:
            windows_in_horizon(window, step, horizon)
        assert f"{window} s windows every {step} s" in str(info.value)
        assert f"in {horizon} s" in str(info.value)


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

    def test_under_cap_is_strict_and_a_missing_cap_never_binds(self):
        assert under_cap(0.9, 1.0)
        assert not under_cap(1.0 - 1e-12, 1.0)
        assert not under_cap(2.0, 1.0)
        assert under_cap(math.inf, None)


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


def fold_rows(w, p, table, i, k, share):
    """Longhand: operator i's rows of `table` at node k, each times `share`,
    added in the operator's sensor order."""
    total = 0.0
    for s in w.operator(i).sensors:
        if w.topology.sensor_node.get(s) == k:
            total += table.get((i, s, k), 0.0) * share
    return total


class TestNodeUsage:
    def test_equals_per_operator_sums(self):
        # Ratios off the binary grid make the products inexact, so a change
        # in summation order would show here.
        for seed in range(40):
            w, p = random_instance(seed)
            rng = random.Random(3000 + seed)
            a = Assignment.from_op_gamma(
                w, {op.id: rng.choice((0.0, 0.05, 0.35, 0.7, 1.0)) for op in w.operators}
            )
            usage = Instance.build(w, p).usage(a)
            assert list(usage) == sorted(w.topology.nodes)
            for k, u in usage.items():
                shares = [(op.id, 1.0 - a.gamma[op.id]) for op in w.operators]
                cpu = fold_sum(fold_rows(w, p, p.cpu_edge, i, k, g) for i, g in shares)
                mem = fold_sum(fold_rows(w, p, p.mem_edge, i, k, g) for i, g in shares)
                assert (u.cpu_cycles, u.mem_bytes) == (cpu, mem)


class TestInstance:
    def test_facts_repeat_a_longhand_fold_of_the_rows(self):
        # Each operator's compiled rows, and the narrow builders that read
        # them, repeat a longhand fold of the profile's rows bit for bit, as
        # the acceptance oracle folds volumes; ratios off the binary grid
        # make the products inexact, so a change in summation order would
        # show here.
        for seed in range(30):
            w, p = random_instance(seed)
            inst = Instance.build(w, p)
            assert list(inst.order) == topological_order(w)
            for op in w.operators:
                i, facts = op.id, inst.ops[op.id]
                assert facts.spec is op
                assert facts.nodes == {w.topology.sensor_node[s] for s in op.sensors}
                assert facts.t_req == effective_t_req(op, p)
                assert facts.cpu_res == p.cpu_res.get(i, 0.0)
                homes = {
                    w.topology.sensor_node[s]
                    for s in op.sensors or transitive_sensors(w, i)
                    if s in w.topology.sensor_node
                }
                assert [row.node for row in facts.rows] == sorted(facts.nodes | homes)
                assert [row.node for row in facts.rows if row.home] == sorted(homes)
                assert [row.node for row in facts.rows if row.raws] == sorted(facts.nodes)
                assert all(len(r.raws) == len(r.cpu) == len(r.mem) for r in facts.rows)
                rows = {row.node: row for row in facts.rows}
                for g in (0.0, 0.05, 0.35, 0.7, 1.0):
                    a = Assignment.from_op_gamma(w, {j.id: g for j in w.operators})
                    cloud = 0.0
                    for s in op.sensors:
                        cloud += p.cpu_cloud.get((i, s), 0.0) * g
                    assert fold_at(facts.cloud, g) == cloud
                    volumes = dict(facts.volumes(g, a.gamma_sensor))
                    for k in sorted(w.topology.nodes):
                        cpu = fold_rows(w, p, p.cpu_edge, i, k, 1.0 - g)
                        mem = fold_rows(w, p, p.mem_edge, i, k, 1.0 - g)
                        if k in rows:
                            assert fold_at(rows[k].cpu, 1.0 - g) == cpu
                            assert fold_at(rows[k].mem, 1.0 - g) == mem
                        assert node_cpu(i, k, a, p, w) == cpu
                        assert node_mem(i, k, a, p, w) == mem
                        vol = fold_rows(w, p, p.data_raw, i, k, g)
                        if k in homes:
                            vol += (math.ceil(g) - math.floor(g)) * p.data_int.get(i, 0.0)
                            vol += math.floor(1.0 - g) * p.data_res.get(i, 0.0)
                        assert volumes.get(k, 0.0) == vol
                        assert data_volume(i, k, a, p, w) == vol

    def test_total_is_the_volumes_total(self):
        # OpFacts.total, which the search folds for its bounds and
        # objectives, gives volumes' total bit for bit: at every grid point,
        # 1 among them (the paper bound's term for an undecided operator),
        # under sensor ratios 1, none and random ones.
        rng = random.Random(29)
        ref = generate_reference_workload()
        instances = [random_instance(seed) for seed in range(60)]
        instances += [(ref, generate_profile(ref)), capped_reference(0.9), capped_reference(0.4)]
        checked = 0
        for w, p in instances:
            sensor_ratios = [dict.fromkeys(w.sensors, 1.0), {}] + [
                {s: rng.random() for s in w.sensors} for _ in range(3)
            ]
            for facts in Instance.build(w, p).ops.values():
                for g in gamma_grid(0.05):
                    for gs in sensor_ratios:
                        want = fold_sum(v for _k, v in facts.volumes(g, gs))
                        assert facts.total(g, gs) == want, facts.spec.id
                        checked += 1
        assert checked > 30_000


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
