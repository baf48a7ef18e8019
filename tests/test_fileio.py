"""Serialization: text workloads, JSON profiles, binary traces, reports."""

import json
import math

import numpy as np
import pytest

from splitstream import (
    Assignment,
    FunctionKind,
    StreamConfig,
    canonical_json,
    dumps_profile,
    dumps_workload,
    gamma_record,
    generate_profile,
    generate_trace,
    load_gamma,
    load_profile,
    load_trace,
    load_workload,
    parse_gamma,
    parse_profile,
    parse_workload,
    save_profile,
    save_report,
    save_trace,
    save_workload,
    sha256_bytes,
    sha256_file,
    validate_workload,
)

from conftest import build_workload

F = FunctionKind


def sample_workload():
    return build_workload(
        [
            (1, (1, 2), (), F.MEAN, True, 60, 60, 60),
            (2, (3,), (), F.COV, True, 600, 300, 300, 1.5),
            (3, (), (1, 2), F.LAST, False, 600, 600, 600),
        ],
        {1: 1, 2: 1, 3: 2},
    )


class TestWorkloadText:
    def test_round_trip(self):
        w = sample_workload()
        w2 = parse_workload(dumps_workload(w))
        assert w2.operators == w.operators
        assert w2.topology.sensor_node == w.topology.sensor_node
        assert w2.topology.nodes == w.topology.nodes

    def test_file_round_trip(self, tmp_path):
        w = sample_workload()
        path = str(tmp_path / "w.txt")
        save_workload(path, w)
        assert load_workload(path).operators == w.operators

    def test_comments_and_blank_lines_ignored(self):
        text = dumps_workload(sample_workload())
        noisy = "# header comment\n\n" + text.replace(
            "[operators]", "[operators]\n# inline comment\n"
        )
        assert parse_workload(noisy).operators == sample_workload().operators

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("[nonsense]", "unknown section"),
            ("1 | 2 | 3", "9 '|'-separated fields"),
            ("x | 1 | - | mean | 1 | 1 | 1 | 1 | -", "bad operator id"),
            ("1 | 1 | - | warp | 1 | 1 | 1 | 1 | -", "unknown function"),
            ("1 | 1 | - | mean | 2 | 1 | 1 | 1 | -", "iter flag"),
            ("1 | 1 | - | mean | 1 | wide | 1 | 1 | -", "bad numeric"),
        ],
    )
    def test_operator_diagnostics_carry_line_numbers(self, line, fragment):
        text = f"[operators]\n{line}\n"
        with pytest.raises(ValueError) as err:
            parse_workload(text)
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)

    def test_topology_diagnostics(self):
        with pytest.raises(ValueError, match="sensor 1 wired twice"):
            parse_workload("[topology]\n1 -> 1\n1 -> 2\n")
        with pytest.raises(ValueError, match="expected 'sensor -> node'"):
            parse_workload("[topology]\n1 = 1\n")
        with pytest.raises(ValueError, match="content before any section"):
            parse_workload("1 | 1 | - | mean | 1 | 1 | 1 | 1 | -\n")

    def test_parsed_workload_validates(self):
        w = parse_workload(dumps_workload(sample_workload()))
        assert validate_workload(w).ok


class TestProfileJson:
    def test_round_trip(self):
        w = sample_workload()
        p = generate_profile(w)
        p2 = parse_profile(dumps_profile(p))
        assert p2.cpu_edge == p.cpu_edge
        assert p2.cpu_cloud == p.cpu_cloud
        assert p2.cpu_res == p.cpu_res
        assert p2.mem_edge == p.mem_edge
        assert p2.data_raw == p.data_raw
        assert p2.data_int == p.data_int
        assert p2.data_res == p.data_res
        assert p2.cpu_unit_edge == p.cpu_unit_edge
        assert p2.cpu_unit_cloud == p.cpu_unit_cloud
        assert p2.bandwidth == p.bandwidth
        assert p2.cpu_cap == p.cpu_cap
        assert p2.mem_cap == p.mem_cap
        assert p2.t_req_s == pytest.approx(p.t_req_s)

    def test_file_round_trip(self, tmp_path):
        w = sample_workload()
        p = generate_profile(w)
        path = str(tmp_path / "p.json")
        save_profile(path, p)
        assert load_profile(path).cpu_edge == p.cpu_edge

    def test_byte_quantities_must_be_integral(self):
        import dataclasses

        w = sample_workload()
        p = generate_profile(w)
        key = next(iter(p.data_raw))
        bad = dataclasses.replace(p, data_raw={**p.data_raw, key: 10.5})
        with pytest.raises(ValueError, match="integral"):
            dumps_profile(bad)


class TestTraceBinary:
    def test_round_trip(self, tmp_path):
        trace = generate_trace(StreamConfig(duration_s=3, sample_rate_hz=10, seed=4), [1, 2])
        path = str(tmp_path / "t.bin")
        save_trace(path, trace)
        got = load_trace(path)
        assert got.duration_s == trace.duration_s
        assert got.sample_rate_hz == trace.sample_rate_hz
        for s in (1, 2):
            assert np.array_equal(got.samples[s], trace.samples[s])

    def test_corrupt_files_rejected(self, tmp_path):
        trace = generate_trace(StreamConfig(duration_s=3, sample_rate_hz=10, seed=4), [1])
        path = str(tmp_path / "t.bin")
        save_trace(path, trace)
        raw = open(path, "rb").read()
        bad = str(tmp_path / "bad.bin")
        open(bad, "wb").write(b"NOPE" + raw[4:])
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(bad)
        open(bad, "wb").write(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(bad)
        open(bad, "wb").write(raw[:3])
        with pytest.raises(ValueError, match="truncated trace header"):
            load_trace(bad)


class TestReports:
    def test_canonical_json_is_sorted_and_newline_terminated(self):
        out = canonical_json({"b": 1, "a": [1, 2]})
        assert out.endswith("\n")
        assert out.index('"a"') < out.index('"b"')
        assert json.loads(out) == {"a": [1, 2], "b": 1}

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_save_report_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        record = {"z": 1, "a": {"nested": [3, 2, 1]}}
        save_report(path, record)
        text = open(path).read()
        assert text == canonical_json(record)

    def test_gamma_record_round_trip(self, tmp_path):
        w = sample_workload()
        a = Assignment.from_op_gamma(w, {1: 0.25, 2: 1.0, 3: 1.0})
        record = gamma_record(w, a)
        assert parse_gamma(record) == {1: 0.25, 2: 1.0, 3: 1.0}
        path = str(tmp_path / "g.json")
        save_report(path, {"gamma": record})
        assert load_gamma(path) == {1: 0.25, 2: 1.0, 3: 1.0}

    @pytest.mark.parametrize(
        "record",
        [
            {"gamma": None},
            {"gamma": [0.5]},
            [0.5],
            {"gamma": {"1": math.nan}},
            {"gamma": {"1": math.inf}},
            {"gamma": {"1": "0.5"}},
            {"gamma": {"1": True}},
        ],
        ids=["null", "list", "bare-list", "nan", "inf", "string", "bool"],
    )
    def test_parse_gamma_rejects_malformed_ratios(self, record):
        with pytest.raises(ValueError):
            parse_gamma(record)

    def test_digests_are_stable(self, tmp_path):
        assert sha256_bytes(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        path = str(tmp_path / "f.bin")
        open(path, "wb").write(b"abc")
        assert sha256_file(path) == sha256_bytes(b"abc")
