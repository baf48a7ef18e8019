"""Bundled reference workload and synthetic profile.

Spot values derived by hand: a 60 s window at 10 Hz holds 600 samples, so a
mean over one sensor costs 4 cycles/sample * 600 = 2400 cycles and its raw
window is 60 * 10 * 8 = 4800 bytes; an 11-channel mean emits 11 numbers, so
its fixed cloud-side overhead is 400 + 100 * 11 = 1500 cycles.
"""

import math

import pytest

from splitstream import (
    Assignment,
    FunctionKind,
    cloud_only,
    cost_report,
    generate_profile,
    generate_reference_workload,
    sensor_clusters,
    sensor_legend,
    validate_workload,
)

F = FunctionKind


@pytest.fixture(scope="module")
def reference():
    w = generate_reference_workload()
    return w, generate_profile(w)


class TestCatalogShape:
    def test_counts(self, reference):
        w, _ = reference
        assert len(w.operators) == 63
        assert len(w.topology.sensor_node) == 170
        assert validate_workload(w).ok

    def test_every_function_kind_appears(self, reference):
        w, _ = reference
        assert {op.func for op in w.operators} == set(F)

    def test_cluster_count_matches_node_count(self, reference):
        w, _ = reference
        clusters = sensor_clusters(w)
        assert len(clusters) == 14
        assert sorted(w.topology.nodes) == list(range(1, 15))

    def test_clusters_map_one_to_one_onto_nodes(self, reference):
        w, _ = reference
        for ops in sensor_clusters(w):
            nodes = set()
            for i in ops:
                for s in w.operator(i).sensors:
                    nodes.add(w.topology.sensor_node[s])
            assert len(nodes) == 1

    def test_window_ladder(self, reference):
        w, _ = reference
        op = w.operator(1)
        assert (op.window_s, op.step_s, op.freq_s) == (60.0, 60.0, 60.0)
        ladder = {w.operator(i).window_s for i in (1, 2, 3, 4)}
        assert ladder == {60.0, 600.0, 3600.0, 86400.0}

    def test_sensor_legend_covers_all_sensors(self, reference):
        w, _ = reference
        legend = sensor_legend()
        assert sorted(legend) == sorted(w.topology.sensor_node)
        assert all(isinstance(v, str) and v for v in legend.values())


class TestProfileSynthesis:
    def test_frozen_spot_values(self, reference):
        w, p = reference
        op1 = w.operator(1)
        assert op1.func is F.MEAN
        s = op1.sensors[0]
        k = w.topology.sensor_node[s]
        assert p.data_raw[(1, s, k)] == 4800.0
        assert p.cpu_edge[(1, s, k)] == 2400.0
        assert p.cpu_cloud[(1, s)] == 2400.0
        assert p.cpu_res[1] == 400.0 + 100.0 * len(op1.sensors)
        assert p.mem_edge[(1, s, k)] == 8.0 * 600 + 1024.0

    def test_deadlines_track_full_offload_latency(self, reference):
        w, p = reference
        co = cloud_only(w, p)
        for op in w.operators:
            lat = co.report.per_operator[op.id].t_total
            assert p.t_req_s[op.id] == pytest.approx(1.1 * lat, rel=1e-9)
        assert co.feasible

    def test_capacity_headroom_above_all_edge_usage(self, reference):
        w, p = reference
        all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
        rep = cost_report(w, p, all_edge)
        for k, usage in rep.per_node.items():
            assert usage.cpu_cycles < p.cpu_cap[k]
            assert usage.mem_bytes < p.mem_cap[k]
            assert p.cpu_cap[k] == pytest.approx(2.0 * max(usage.cpu_cycles, 1.0))

    @pytest.mark.parametrize("headroom", [0.0, -1.0, math.nan, math.inf])
    def test_headroom_must_be_positive_and_finite(self, reference, headroom):
        w, _ = reference
        with pytest.raises(ValueError, match="positive and finite"):
            generate_profile(w, headroom=headroom)

    def test_headroom_below_one_caps_under_all_edge_usage(self, reference):
        w, p = reference
        q = generate_profile(w, headroom=0.9)
        all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
        for k, usage in cost_report(w, p, all_edge).per_node.items():
            assert q.cpu_cap[k] == 0.9 * max(usage.cpu_cycles, 1.0) < usage.cpu_cycles
            assert q.mem_cap[k] == 0.9 * max(usage.mem_bytes, 1.0) < usage.mem_bytes
        assert q.t_req_s == p.t_req_s

    def test_byte_fields_are_integral(self, reference):
        _, p = reference
        for mapping in (p.data_raw, p.data_int, p.data_res):
            for v in mapping.values():
                assert v == math.floor(v)
