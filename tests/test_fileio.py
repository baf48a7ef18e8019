"""Serialization: text workloads, JSON profiles, binary traces, reports."""

import copy
import functools
import hashlib
import json
import math
import operator
import re
import struct

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitstream import (
    Assignment,
    FunctionKind,
    StreamConfig,
    Trace,
    canonical_json,
    check_assignment,
    dumps_profile,
    dumps_workload,
    gamma_record,
    generate_profile,
    generate_reference_workload,
    generate_trace,
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
    sha256_file,
    validate_profile,
    validate_workload,
)
from splitstream.cli import main
from splitstream.fileio import (
    _TRACE_HEADER,
    _TRACE_SENSOR,
    TRACE_MAGIC,
    report_bytes,
    unique_keys,
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

    @pytest.mark.parametrize("table, message", [
        ("data_int", "no data_int for op 1"),
        ("data_res", "no data_res for op 1"),
        ("data_raw", "no data_raw for op 1, sensor 1, node 1"),
        ("cpu_cloud", "no cpu_cloud for op 1, sensor 1"),
    ])
    def test_a_missing_row_is_named_and_nothing_is_written(self, tmp_path, table, message):
        # Written as 0 B, such a row would price the operator's bytes free.
        import dataclasses

        w = build_workload([(1, (1,), (), F.MAX, False, 60, 60, 60)], {1: 1})
        bad = dataclasses.replace(generate_profile(w), **{table: {}})
        path = tmp_path / "p.json"
        with pytest.raises(ValueError, match=f"^{message}$"):
            save_profile(str(path), bad)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field",
        ["bandwidth", "cpu_unit_edge", "cpu_unit_cloud", "cpu_cap", "mem_cap", "t_req_s"],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rates_must_be_positive_and_finite(self, field, value):
        # json writes and reads NaN and Infinity tokens.
        record = json.loads(dumps_profile(generate_profile(sample_workload())))
        if field == "cpu_unit_cloud":
            record[field] = value
        elif field == "t_req_s":
            record["per_operator"][0][field] = value
        else:
            record[field][next(iter(record[field]))] = value
        with pytest.raises(ValueError, match="positive and finite"):
            parse_profile(json.dumps(record))

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "1.0"])
    @pytest.mark.parametrize("table", ["cpu_unit_edge", "bandwidth", "cpu_cap", "mem_cap"])
    def test_node_keys_are_canonical(self, table, key):
        # int() reads each of these keys as a node id, so it could stand in
        # for (or override) another spelling of the same node.
        record = json.loads(dumps_profile(generate_profile(sample_workload())))
        record[table][key] = 1.0
        with pytest.raises(ValueError, match=f"{table} key must be an id in canonical decimal"):
            parse_profile(json.dumps(record))

    @pytest.mark.parametrize("table", ["per_sensor", "per_operator"])
    def test_a_repeated_row_is_refused(self, table):
        record = json.loads(dumps_profile(generate_profile(sample_workload())))
        record[table].append(dict(record[table][0]))
        with pytest.raises(ValueError, match=f"{table} lists .* twice"):
            parse_profile(json.dumps(record))

    def test_nesting_too_deep_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_profile("[" * 100_000)

    def test_a_second_row_for_one_op_and_sensor_is_refused(self):
        # cpu_cloud is keyed (op, sensor): a row at another node would
        # silently replace the operator's cloud cycles.
        record = json.loads(dumps_profile(generate_profile(sample_workload())))
        row = next(r for r in record["per_sensor"] if (r["op"], r["sensor"]) == (1, 1))
        record["per_sensor"].append(dict(row, node=101, cpu_cloud=1000 * row["cpu_cloud"]))
        with pytest.raises(ValueError, match="op 1, sensor 1 twice"):
            parse_profile(json.dumps(record))

    @pytest.mark.parametrize(
        "table, field",
        [
            ("per_sensor", "cpu_edge"),
            ("per_sensor", "cpu_cloud"),
            ("per_sensor", "mem_edge"),
            ("per_sensor", "data_raw"),
            ("per_operator", "cpu_res"),
            ("per_operator", "data_int"),
            ("per_operator", "data_res"),
        ],
    )
    @pytest.mark.parametrize(
        "value", ["5", None, True, math.nan, math.inf, -math.inf, -1, 10**400]
    )
    def test_costs_must_be_non_negative_finite_numbers(self, table, field, value):
        record = json.loads(dumps_profile(generate_profile(sample_workload())))
        row = record[table][0]
        row[field] = value
        if table == "per_operator":
            key = f"op {row['op']}"
        else:
            key = (row["op"], row["sensor"], row["node"])
        with pytest.raises(ValueError, match=f"{field} must be .* for {re.escape(str(key))}"):
            parse_profile(json.dumps(record))


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=8),
        st.integers(),
        st.sampled_from([10**400, -(10**400), 2**64, math.nan, math.inf, -math.inf]),
        st.floats(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def json_paths(value, depth: int) -> list[tuple]:
    """The key and index paths to every member of a JSON value, `depth`
    levels down at most."""
    if depth == 0 or not isinstance(value, (dict, list)):
        return []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [path for k, v in items for path in [(k,), *((k, *p) for p in json_paths(v, depth - 1))]]


def repeated_key_text(record, path: tuple, value) -> str:
    """record as JSON text in which the object holding the key at path names
    that key once more, before the rest, with value: json alone would read
    the original member and let the first one pass unseen."""
    *where, key = path
    where = tuple(where)
    obj = functools.reduce(operator.getitem, where, record)
    marker = "\x00repeated\x00"
    text = json.dumps(replaced(record, where, marker) if where else marker)
    spliced = json.dumps({key: value})[:-1] + ", " + json.dumps(obj)[1:]
    return text.replace(json.dumps(marker), spliced)


def replaced(record, path: tuple, value):
    """record with the member at path set to value (added, for a new key);
    only the containers on the way are copied."""
    edited = parent = copy.copy(record)
    *where, last = path
    for step in where:
        parent[step] = parent = copy.copy(parent[step])
    parent[last] = value
    return edited


def deleted(record, path: tuple):
    """record without the member at path; only the containers on the way
    are copied."""
    edited = replaced(record, path, None)
    del functools.reduce(operator.getitem, path[:-1], edited)[path[-1]]
    return edited


def draw_edit(data, record, depth: int):
    """record with one member, or a new key beside one, set to an arbitrary
    JSON value."""
    path = data.draw(st.sampled_from(json_paths(record, depth)))
    parent = functools.reduce(operator.getitem, path[:-1], record)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        path = (*path[:-1], data.draw(st.text(max_size=3)))
    return replaced(record, path, data.draw(JSON_VALUES))


class TestProfileFuzz:
    """parse_profile then validate_profile on the reference profile with one
    member or row field replaced: they return or raise ValueError, the error
    the CLI reports, and nothing else."""

    @pytest.fixture(scope="class")
    def reference(self):
        w = generate_reference_workload()
        record = json.loads(dumps_profile(generate_profile(w)))
        paths = [(name,) for name in record]
        paths += [(name, k) for name, table in record.items() if isinstance(table, dict)
                  for k in table]
        paths += [(name, i, field) for name in ("per_sensor", "per_operator")
                  for i, row in enumerate(record[name]) for field in row]
        return w, record, paths

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_one_replaced_value(self, reference, data, value):
        w, record, paths = reference
        edited = replaced(record, data.draw(st.sampled_from(paths)), value)
        try:
            validate_profile(w, parse_profile(json.dumps(edited)))
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_member_deleted(self, reference, data):
        """Every top-level member and row field but a row's t_req_s is
        required, and a missing one is named. A node's entry in a platform
        map is not drawn: a node missing from cpu_cap or mem_cap has no cap,
        and one missing from bandwidth is validate_profile's to refuse."""
        _, record, paths = reference
        required = [path for path in paths if len(path) != 2 and path[-1] != "t_req_s"]
        path = data.draw(st.sampled_from(required))
        with pytest.raises(ValueError, match=f"^no {path[-1]} for "):
            parse_profile(json.dumps(deleted(record, path)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_a_repeated_key_is_refused(self, reference, data, value):
        _, record, paths = reference
        text = repeated_key_text(record, data.draw(st.sampled_from(paths)), value)
        with pytest.raises(ValueError, match="appears twice"):
            parse_profile(text)


WORKLOAD_TOKENS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "-", "0", "-1", "nan", "inf", "1e400", "9" * 5000, "1,,2",
                     "mean", "#", "[operators]", "[topology]", "1 -> 1", "\x00", "\u2028"]),
)


class TestWorkloadFuzz:
    """parse_workload then validate_workload on the reference workload text
    with one line, or one field or id of a line, replaced: they return or
    raise ValueError or KeyError, the errors the CLI reports, and nothing
    else."""

    LINES = dumps_workload(generate_reference_workload()).splitlines()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), token=WORKLOAD_TOKENS)
    def test_one_replaced_token(self, data, token):
        lines = list(self.LINES)
        i = data.draw(st.integers(0, len(lines) - 1))
        # Separators sit at the odd positions; None replaces the whole line.
        parts = re.split(r"(\||->|,)", lines[i])
        j = data.draw(st.one_of(st.none(), st.integers(0, len(parts) - 1).map(lambda j: j & ~1)))
        if j is None:
            lines[i] = token
        else:
            parts[j] = token
            lines[i] = "".join(parts)
        try:
            validate_workload(parse_workload("\n".join(lines)))
        except (ValueError, KeyError):
            pass


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """A solve and a simulate report on sample_workload, as the CLI writes them."""
    tmp = tmp_path_factory.mktemp("reports")
    w_path, p_path = str(tmp / "w.txt"), str(tmp / "p.json")
    save_workload(w_path, sample_workload())
    save_profile(p_path, generate_profile(sample_workload()))
    solve_path, sim_path = str(tmp / "solve.json"), str(tmp / "sim.json")
    for args in (["solve", w_path, p_path, "--delta", "0.5", "--out", solve_path],
                 ["simulate", w_path, p_path, "--assignment", solve_path, "--out", sim_path]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
    return {name: json.loads(open(path).read())
            for name, path in (("solve", solve_path), ("simulate", sim_path))}


class TestGammaFuzz:
    """What `simulate --assignment` reads of a solve report (parse_gamma,
    Assignment.from_op_gamma, then check_assignment)
    on the report with one member replaced or added, or on any JSON value:
    they return or raise ValueError, and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_replaced_value(self, cli_reports, data):
        if data.draw(st.booleans()):
            record = draw_edit(data, cli_reports["solve"], 3)
        else:
            record = data.draw(JSON_VALUES)
        w = sample_workload()
        try:
            a = Assignment.from_op_gamma(w, parse_gamma(record))
            check_assignment(w, generate_profile(w), a)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_a_repeated_key_is_refused(self, cli_reports, data, value):
        record = cli_reports["solve"]
        keys = [path for path in json_paths(record, 3) if isinstance(path[-1], str)]
        text = repeated_key_text(record, data.draw(st.sampled_from(keys)), value)
        with pytest.raises(ValueError, match="appears twice"):
            parse_gamma(json.loads(text, object_pairs_hook=unique_keys))


class TestReportFuzz:
    """report_bytes, the reader behind `compare`, on a solve or simulate
    report with one member replaced or added, or on any JSON value: it
    returns or raises ValueError, and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_replaced_value(self, cli_reports, data):
        name = data.draw(st.sampled_from(sorted(cli_reports)))
        if data.draw(st.booleans()):
            record = draw_edit(data, cli_reports[name], 3)
        else:
            record = data.draw(JSON_VALUES)
        try:
            report_bytes(record)
        except ValueError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_member_deleted(self, cli_reports, data):
        """A simulate row's res_payload_bytes is the one member report_bytes
        needs (the others may be absent); without it the row is named."""
        record = cli_reports["simulate"]
        op = data.draw(st.sampled_from(sorted(record["per_operator"])))
        with pytest.raises(ValueError, match=f"^no res_payload_bytes for op {op}$"):
            report_bytes(deleted(record, ("per_operator", op, "res_payload_bytes")))


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


    @pytest.mark.parametrize(
        "duration, rate, n",
        [
            (math.nan, 10.0, 30),
            (-3.0, 10.0, 30),
            (math.inf, 10.0, 30),
            (3.0, 0.0, 30),
            (3.0, math.nan, 30),
            (3.0, 10.0, 29),
            (3.0, 10.0, 31),
            (1e300, 1e300, 0),
        ],
        ids=["nan-duration", "negative-duration", "inf-duration", "zero-rate",
             "nan-rate", "short-sensor", "long-sensor", "overflowing-count"],
    )
    def test_inconsistent_headers_rejected(self, tmp_path, duration, rate, n):
        path = str(tmp_path / "t.bin")
        save_trace(path, Trace(duration, rate, {1: np.zeros(n), 2: np.zeros(30)}))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_a_repeated_sensor_is_refused(self, tmp_path):
        path = tmp_path / "t.bin"
        blocks = [_TRACE_SENSOR.pack(1, 2) + np.array([x, x], "<f8").tobytes() for x in (1.0, 2.0)]
        path.write_bytes(_TRACE_HEADER.pack(TRACE_MAGIC, 2, 10.0, 0.2) + b"".join(blocks))
        with pytest.raises(ValueError, match="^sensor 1 appears twice$"):
            load_trace(str(path))

    @pytest.mark.parametrize("sensor", [2**32, -1])
    def test_a_sensor_outside_the_id_field_is_refused(self, tmp_path, sensor):
        # The id field is u32; nothing is written, so the old file stays.
        path = tmp_path / "t.bin"
        save_trace(str(path), Trace(1.0, 1.0, {1: np.zeros(1)}))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^sensor {sensor} is outside"):
            save_trace(str(path), Trace(1.0, 1.0, {1: np.ones(1), sensor: np.zeros(1)}))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]

    def test_a_failed_write_leaves_the_old_file_whole(self, tmp_path):
        # Samples that are not numbers fail after the header is written to
        # the temporary file; it goes, and the old trace stays byte for byte.
        path = tmp_path / "t.bin"
        save_trace(str(path), Trace(1.0, 1.0, {1: np.zeros(1)}))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_trace(str(path), Trace(1.0, 1.0, {1: np.ones(1), 2: np.array(["x"])}))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]

    def test_sample_count_rounds_like_generate_trace(self, tmp_path):
        trace = generate_trace(StreamConfig(duration_s=2.25, sample_rate_hz=10, seed=4), [1])
        path = str(tmp_path / "t.bin")
        save_trace(path, trace)
        assert len(load_trace(path).samples[1]) == round(2.25 * 10) == 22


class TestMappedTrace:
    """load_trace maps the file: each sensor's samples are a read-only view
    of the mapping, equal bit for bit to the array save_trace wrote."""

    def test_views_are_read_only_and_bit_identical(self, tmp_path):
        trace = generate_trace(StreamConfig(duration_s=3, sample_rate_hz=10, seed=4), [1, 2, 3, 7])
        # Negative zero and a NaN with a payload survive only a bitwise copy.
        odd = np.frombuffer(struct.pack("<dQ", -0.0, 0x7FF8_0000_0000_0123), "<f8")
        trace.samples[2][:2] = odd
        path = str(tmp_path / "t.bin")
        save_trace(path, trace)
        got = load_trace(path)
        assert sorted(got.samples) == [1, 2, 3, 7]
        for s, x in got.samples.items():
            assert x.dtype == np.dtype("<f8") and not x.flags.writeable
            assert x.tobytes() == trace.samples[s].tobytes(), s
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        assert got.samples[2][:2].tobytes() == odd.tobytes()
        # The 12-byte sensor headers leave every other sensor's view unaligned.
        assert [got.samples[s].flags.aligned for s in (1, 2, 3, 7)] == [False, True, False, True]

    def test_a_loaded_trace_outlives_the_file_it_was_read_from(self, tmp_path):
        old, new = (
            generate_trace(StreamConfig(duration_s=3, sample_rate_hz=10, seed=seed), [1, 2])
            for seed in (4, 5)
        )
        path = str(tmp_path / "t.bin")
        save_trace(path, old)
        got = load_trace(path)
        save_trace(path, new)
        for s in (1, 2):
            assert got.samples[s].tobytes() == old.samples[s].tobytes()
            assert load_trace(path).samples[s].tobytes() == new.samples[s].tobytes()


HUGE_AND_TINY = [10.0, 1e12, 1e17, 2.0**64, 1e300, 1e-300, 5e-324]


class TestTraceFuzz:
    """load_trace returns a Trace or raises ValueError, and nothing else."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("fuzz") / "t.bin")

    @staticmethod
    def load(path, data: bytes):
        """The trace in a file holding data, or None after a ValueError;
        any other exception fails the test."""
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            trace = load_trace(path)
        except ValueError:
            return None
        for x in trace.samples.values():
            assert len(x) == round(trace.duration_s * trace.sample_rate_hz)
        return trace

    def test_every_truncation_rejected(self, path):
        trace = generate_trace(StreamConfig(duration_s=0.5, sample_rate_hz=10, seed=4), [1, 2, 3])
        save_trace(path, trace)
        raw = open(path, "rb").read()
        for cut in range(len(raw)):
            assert self.load(path, raw[:cut]) is None, cut
        for tail in (b"", b"junk", raw):
            got = self.load(path, raw + tail)
            assert sorted(got.samples) == [1, 2, 3]
            for s in (1, 2, 3):
                assert np.array_equal(got.samples[s], trace.samples[s])

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes_after_the_magic(self, path, tail):
        self.load(path, TRACE_MAGIC + tail)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
        sensor=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
        payload=st.binary(max_size=80),
    )
    def test_huge_sample_counts(self, path, count, sensor, n, payload):
        data = _TRACE_HEADER.pack(TRACE_MAGIC, count, 10.0, 0.5)
        data += _TRACE_SENSOR.pack(sensor, n) + payload
        got = self.load(path, data)
        if count and n != 5:
            assert got is None

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.one_of(st.floats(), st.sampled_from(HUGE_AND_TINY)),
        duration=st.one_of(st.floats(), st.sampled_from(HUGE_AND_TINY)),
        n=st.integers(0, 2**64 - 1),
        consistent=st.booleans(),
    )
    @example(rate=10.0, duration=1e17, n=0, consistent=True)
    def test_nonfinite_and_huge_timebases(self, path, rate, duration, n, consistent):
        # A count that matches the header gets past the count check, so
        # only the file size stands between it and the allocation.
        if consistent and math.isfinite(rate * duration) and 0 <= rate * duration < 2**63:
            n = round(rate * duration)
        data = _TRACE_HEADER.pack(TRACE_MAGIC, 1, rate, duration)
        self.load(path, data + _TRACE_SENSOR.pack(7, n) + bytes(8 * min(n, 4)))


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

    def test_failed_save_leaves_the_target_intact(self, tmp_path):
        path = tmp_path / "r.json"
        save_report(str(path), {"x": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_report(str(path), {"x": math.nan})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_gamma_record_round_trip(self, tmp_path):
        w = sample_workload()
        a = Assignment.from_op_gamma(w, {1: 0.25, 2: 1.0, 3: 1.0})
        record = gamma_record(w, a)
        assert parse_gamma(record) == {1: 0.25, 2: 1.0, 3: 1.0}
        path = str(tmp_path / "g.json")
        save_report(path, {"gamma": record})
        with open(path, encoding="utf-8") as fh:
            assert parse_gamma(json.load(fh)) == {1: 0.25, 2: 1.0, 3: 1.0}

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
            {"gamma": {"1": 10**400}},
            {"gamma": {"1": 1.0, "01": 0.5}},
            {"gamma": {" 1": 0.5}},
        ],
        ids=["null", "list", "bare-list", "nan", "inf", "string", "bool", "huge-int",
             "aliased-key", "spaced-key"],
    )
    def test_parse_gamma_rejects_malformed_ratios(self, record):
        with pytest.raises(ValueError):
            parse_gamma(record)

    @pytest.mark.parametrize(
        "record",
        [
            {"manifest": {"config": {"cost_orientation": "corrected"}}, "gamma": {"1": 0.5}},
            {"manifest": {"config": {"duration_s": 10}}, "gamma": {"1": 0.5}},
            {"manifest": None, "gamma": {"1": 0.5}},
            {"gamma": {"1": 0.5}},
            {"1": 0.5},
        ],
        ids=["corrected", "no-cost-model", "no-config", "no-manifest", "bare-map"],
    )
    def test_parse_gamma_reads_corrected_and_unrecorded_reports(self, record):
        assert parse_gamma(record) == {1: 0.5}

    @pytest.mark.parametrize("model", ["literal", "sideways", None, ["corrected"]])
    def test_parse_gamma_refuses_another_cost_model(self, model):
        record = {"manifest": {"config": {"cost_orientation": model}}, "gamma": {"1": 0.5}}
        with pytest.raises(ValueError, match="cost model"):
            parse_gamma(record)

    def test_digests_are_stable(self, tmp_path):
        path = str(tmp_path / "f.bin")
        open(path, "wb").write(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_an_empty_file_digests_as_no_bytes(self, tmp_path):
        # A map of length 0 is refused, so an empty file maps nothing.
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert sha256_file(str(path)) == hashlib.sha256(b"").hexdigest() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_a_multi_mib_file_digests_as_its_bytes(self, tmp_path):
        # Five whole windows and a part of one.
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(5).bytes(5 * (1 << 20) + 12345))
        assert sha256_file(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()
