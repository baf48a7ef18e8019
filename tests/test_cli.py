"""Command-line surface: exit codes, report files, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitstream import (
    FunctionKind,
    Trace,
    cloud_only,
    dumps_workload,
    generate_profile,
    is_splittable,
    load_profile,
    load_trace,
    load_workload,
    save_trace,
    simulator,
)
from splitstream.cli import main
from splitstream.fileio import dumps_profile, sha256_file
from splitstream.simulator import TRACE_SAMPLE_CAP

from conftest import build_workload, pack_trace

F = FunctionKind


@pytest.fixture
def runner():
    return CliRunner()


def write_inputs(tmp_path, rows=None, wiring=None):
    w = build_workload(
        rows
        or [
            (1, (1,), (), F.MEAN, True, 5, 5, 5),
            (2, (2,), (), F.MAX, False, 5, 5, 5),
        ],
        wiring or {1: 1, 2: 1},
    )
    wpath = str(tmp_path / "workload.txt")
    ppath = str(tmp_path / "profile.json")
    open(wpath, "w").write(dumps_workload(w))
    open(ppath, "w").write(dumps_profile(generate_profile(w)))
    return w, wpath, ppath


def error_lines(result):
    return [line for line in result.output.splitlines() if line.startswith("error:")]


# JSON nested deeper than json's recursion reaches.
DEEP = "[" * 100_000

# Figures from 1e-320 to 1e308, and the edges of a float; SIGNED adds their
# negatives.
FIGURE = st.one_of(
    st.floats(-320.0, 308.25).map(lambda e: 10.0 ** e),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.8e308, 1.0]),
)
SIGNED = st.tuples(FIGURE, st.booleans()).map(lambda s: -s[0] if s[1] else s[0])


def _timebase(samples):
    # A duration from 1e-320 to 1e308 and a rate of 10 ** samples over it,
    # which is 0 or inf where the quotient leaves the floats.
    return st.tuples(st.floats(-320.0, 308.0), samples).map(
        lambda e: (10.0 ** e[0], 10.0 ** e[1] / 10.0 ** e[0]))


# (--duration, --rate) pairs whose trace, on write_inputs' two sensors, holds
# at most 2e4 samples, or is over TRACE_SAMPLE_CAP (2 x 10 ** 8.2 > 2 ** 28),
# or is no timebase at all: no example allocates a large trace.
TIMEBASE = st.one_of(
    _timebase(st.floats(-330.0, 4.0)),
    _timebase(st.floats(8.2, 308.0)),
    st.tuples(SIGNED, st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -5.0]))
    .flatmap(lambda t: st.sampled_from([t, t[::-1]])),
)


class TestValidate:
    def test_ok(self, runner, tmp_path):
        _, wpath, _ = write_inputs(tmp_path)
        result = runner.invoke(main, ["validate", wpath])
        assert result.exit_code == 0

    def test_unknown_function_is_an_input_error(self, runner, tmp_path):
        path = str(tmp_path / "bad.txt")
        open(path, "w").write("[operators]\n1 | 1 | - | warp | 1 | 1 | 1 | 1 | -\n")
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 1
        assert "line 2" in result.output or "line 2" in (result.stderr or "")

    def test_structural_violation_is_an_input_error(self, runner, tmp_path):
        text = "[operators]\n1 | 7 | - | mean | 1 | 1 | 1 | 1 | -\n[topology]\n1 -> 1\n"
        path = str(tmp_path / "unwired.txt")
        open(path, "w").write(text)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 1
        assert error_lines(result) == ["error: unwired-sensor: sensor 7 of op 1 has no node"]

    def test_repeated_sensor_and_dep_are_input_errors(self, runner, tmp_path):
        # Op 1 lists sensor 1 twice and op 2 lists dep 1 twice; priced as
        # listed, op 1 would cost twice the bytes the uplink carries.
        text = ("[operators]\n1 | 1,1 | - | mean | 1 | 60 | 60 | 60 | -\n"
                "2 | - | 1,1 | last | 0 | 60 | 60 | 60 | -\n[topology]\n1 -> 1\n")
        path = str(tmp_path / "repeated.txt")
        open(path, "w").write(text)
        _, _, ppath = write_inputs(tmp_path)
        out = str(tmp_path / "out.json")
        for args in (["validate", path], ["gen-profile", path, "--out", out],
                     ["solve", path, ppath, "--out", out],
                     ["baseline", path, ppath, "--strategy", "co", "--out", out]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, args
            assert error_lines(result) == [
                "error: dangling-ref: op 1 lists sensor 1 more than once",
                "error: dangling-ref: op 2 lists dep 1 more than once",
            ], args
            assert not Path(out).exists(), args

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe[operators]\n",
         b"[operators]\n" + b"9" * 5000 + b" | 1 | - | mean | 1 | 1 | 1 | 1 | -\n",
         b"[operators]\n1 | 1,,2 | - | mean | 1 | 1 | 1 | 1 | -\n",
         b"[topology]\n1 -> \x00\n"],
        ids=["not-utf8", "huge-id", "empty-id", "nul-node"],
    )
    def test_unreadable_workload_is_one_error_line(self, runner, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "bad.txt" in error_lines(result)[0]


class TestGenerators:
    def test_gen_workload_produces_the_reference(self, runner, tmp_path):
        out = str(tmp_path / "ref.txt")
        result = runner.invoke(main, ["gen-workload", "--out", out])
        assert result.exit_code == 0
        assert len(load_workload(out).operators) == 63

    def test_gen_profile_reads_back(self, runner, tmp_path):
        _, wpath, _ = write_inputs(tmp_path)
        out = str(tmp_path / "prof.json")
        result = runner.invoke(main, ["gen-profile", wpath, "--out", out])
        assert result.exit_code == 0
        record = json.loads(open(out).read())
        assert record  # full structural checks live in test_fileio

    def test_gen_profile_rejects_nonfinite_window(self, runner, tmp_path):
        wpath = str(tmp_path / "nan.txt")
        open(wpath, "w").write(
            "[operators]\n1 | 1 | - | mean | 1 | nan | 5 | 5 | -\n[topology]\n1 -> 1\n"
        )
        out = tmp_path / "prof.json"
        result = runner.invoke(main, ["gen-profile", wpath, "--out", str(out)])
        assert result.exit_code == 1
        assert error_lines(result) == ["error: nonpositive-duration: window_s = nan"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--bandwidth", "--rate", "--cloud-speedup"])
    def test_gen_profile_rejects_zero_rates(self, runner, tmp_path, flag):
        _, wpath, _ = write_inputs(tmp_path)
        out = tmp_path / "prof.json"
        result = runner.invoke(main, ["gen-profile", wpath, flag, "0", "--out", str(out)])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--headroom", "nan"), ("--headroom", "inf"),
                                             ("--headroom", "0"), ("--headroom", "-1"),
                                             ("--treq-slack", "nan"), ("--treq-slack", "-2")])
    def test_gen_profile_rejects_bad_headroom_and_slack(self, runner, tmp_path, flag, value):
        _, wpath, _ = write_inputs(tmp_path)
        out = tmp_path / "prof.json"
        result = runner.invoke(main, ["gen-profile", wpath, flag, value, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "positive and finite" in error_lines(result)[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, needle",
        [("--headroom", "1e308", "cpu_cap of node 1"),
         ("--treq-slack", "1e308", "t_req_s of op"),
         ("--bandwidth", "1e-320", "t_req_s of op"),
         ("--cloud-speedup", "1e-320", "t_req_s of op"),
         ("--rate", "1e305", "cpu_edge must be a non-negative finite number"),
         ("--rate", "1e308", "samples per GF sub-window"),
         ("--rate", "1e307", "cpu_edge must be a non-negative finite number"),
         ("--rate", "5e307", "cpu_edge must be a non-negative finite number")],
        ids=["headroom", "treq-slack", "bandwidth", "cloud-speedup", "rate-1e305", "rate-1e308",
             "rate-1e307", "rate-5e307"],
    )
    def test_gen_profile_names_a_figure_it_cannot_write(self, runner, tmp_path, flag, value,
                                                        needle):
        # Each setting is finite, but a figure the bundled workload's profile
        # derives from it is not.
        wpath = str(tmp_path / "w.txt")
        assert runner.invoke(main, ["gen-workload", "--out", wpath]).exit_code == 0
        out = tmp_path / "prof.json"
        result = runner.invoke(main, ["gen-profile", wpath, flag, value, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        assert len(error_lines(result)) == 1
        assert needle in error_lines(result)[0]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0.1", "0.123", "3.3", "12.34", "1e-300", "5e-324"])
    def test_gen_profile_writes_the_profile_it_generates(self, runner, bundled, rate):
        # Figures that are not whole numbers, or far below 1, are written as
        # they are: the file reads back as generate_profile's profile.
        w, wpath = bundled
        out = wpath.parent / f"p-{rate}.json"
        result = runner.invoke(main, ["gen-profile", str(wpath), "--rate", rate,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert load_profile(str(out)) == generate_profile(w, sample_rate_hz=float(rate))

    @pytest.fixture(scope="class")
    def bundled(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundled") / "w.txt"
        assert CliRunner().invoke(main, ["gen-workload", "--out", str(path)]).exit_code == 0
        return load_workload(str(path)), path

    @settings(max_examples=100, deadline=None)
    @given(rate=FIGURE, bandwidth=FIGURE, headroom=FIGURE, speedup=FIGURE,
           slack=SIGNED)
    def test_gen_profile_refuses_or_writes_a_priced_profile(self, bundled, rate, bandwidth,
                                                            headroom, speedup, slack):
        # One error line and no file, or a profile whose every cost is
        # positive and whose all-cloud placement moves bytes.
        w, wpath = bundled
        out = wpath.parent / "p.json"
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(main, [
            "gen-profile", str(wpath), "--rate", repr(rate), "--bandwidth", repr(bandwidth),
            "--headroom", repr(headroom), "--cloud-speedup", repr(speedup),
            "--treq-slack", repr(slack), "--out", str(out),
        ])
        if result.exit_code != 0:
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1, result.output
            assert not out.exists()
            return
        p = load_profile(str(out))
        for table in (p.cpu_edge, p.cpu_cloud, p.mem_edge, p.data_raw, p.cpu_res, p.data_res):
            assert min(table.values()) > 0
        for op in w.operators:
            assert (p.data_int[op.id] > 0) == is_splittable(op.func)
        assert cloud_only(w, p).objective_bytes > 0

    def test_gen_profile_headroom_below_one_writes_a_contended_profile(self, runner, tmp_path):
        w, wpath, ppath = write_inputs(tmp_path)
        out = tmp_path / "p90.json"
        result = runner.invoke(main, ["gen-profile", wpath, "--headroom", "0.9",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        wide, tight = json.loads(open(ppath).read()), json.loads(out.read_text())
        for table in ("cpu_cap", "mem_cap"):
            for k, cap in tight[table].items():
                all_edge = wide[table][k] / 2.0  # the default headroom is 2
                assert cap == 0.9 * all_edge < all_edge

    @pytest.mark.parametrize("flags", [["--duration", "nan"], ["--duration", "-5"],
                                       ["--rate", "0"]])
    def test_gen_trace_rejects_bad_timebase(self, runner, tmp_path, flags):
        _, wpath, _ = write_inputs(tmp_path)
        out = tmp_path / "t.bin"
        result = runner.invoke(main, ["gen-trace", wpath, *flags, "--out", str(out)])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert not out.exists()

    @pytest.fixture(scope="class")
    def two_sensors(self, tmp_path_factory):
        return Path(write_inputs(tmp_path_factory.mktemp("two"))[1])

    @settings(max_examples=150, deadline=None)
    @given(timebase=TIMEBASE)
    @example(timebase=(1e308, 1e-307))
    @example(timebase=(1.0, 1e-311))
    def test_gen_trace_refuses_or_writes_the_requested_samples(self, two_sensors, timebase):
        # One error line and no file, or a trace of round(duration x rate)
        # finite samples per sensor; refused whenever the two sensors'
        # samples are over the cap. 1e308 s at 1e-307 Hz is 10 samples whose
        # times reach 9e307 s, and 1e-311 Hz is a subnormal rate.
        duration, rate = timebase
        out = two_sensors.with_suffix(".bin")
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(main, ["gen-trace", str(two_sensors), "--duration",
                                           repr(duration), "--rate", repr(rate), "--out", str(out)])
        valid = min(duration, rate) > 0 and math.isfinite(duration * rate)
        n = round(duration * rate) if valid else None
        if result.exit_code != 0:
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1, result.output
            assert not out.exists()
            assert not valid or 2 * n > TRACE_SAMPLE_CAP, result.output
            return
        assert valid and 2 * n <= 2e4
        samples = load_trace(str(out)).samples
        assert {s: len(x) for s, x in samples.items()} == {1: n, 2: n}
        assert all(np.isfinite(x).all() for x in samples.values())

    @pytest.mark.parametrize("sensor", [2**32, -1])
    def test_gen_trace_rejects_sensor_outside_id_field(self, runner, tmp_path, sensor):
        # The trace stores each sensor id in an unsigned 32-bit field.
        _, wpath, _ = write_inputs(
            tmp_path, rows=[(1, (sensor,), (), F.MEAN, True, 5, 5, 5)], wiring={sensor: 1}
        )
        out = tmp_path / "t.bin"
        result = runner.invoke(main, ["gen-trace", wpath, "--out", str(out)])
        assert result.exit_code == 1
        assert error_lines(result) == [
            f"error: sensor {sensor} is outside a trace's id range 0 to 4294967295"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json", "workload.txt"]

    def test_gen_trace_is_seeded(self, runner, tmp_path):
        _, wpath, _ = write_inputs(tmp_path)
        t1, t2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        for out in (t1, t2):
            result = runner.invoke(
                main,
                ["gen-trace", wpath, "--out", out, "--duration", "5", "--seed", "9"],
            )
            assert result.exit_code == 0
        assert open(t1, "rb").read() == open(t2, "rb").read()


class TestSolveAndBaseline:
    def test_solve_writes_report(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        out = str(tmp_path / "solution.json")
        result = runner.invoke(
            main, ["solve", wpath, ppath, "--delta", "0.25", "--out", out]
        )
        assert result.exit_code == 0
        record = json.loads(open(out).read())
        assert record["feasible"] is True
        assert set(record["gamma"]) == {"1", "2"}
        assert record["objective_bytes"] >= 0
        assert record["manifest"]["command"] == "solve"
        assert record["stats"]["nodes_explored"] >= 1

    def test_solve_infeasible_exits_2(self, runner, tmp_path):
        w, wpath, ppath = write_inputs(tmp_path)
        import dataclasses

        p = dataclasses.replace(generate_profile(w), t_req_s={1: 1e-15, 2: 1e-15})
        open(ppath, "w").write(dumps_profile(p))
        out = tmp_path / "solve.json"
        result = runner.invoke(main, ["solve", wpath, ppath, "--out", str(out)])
        assert result.exit_code == 2
        # Without a placement the report's figures are null, its tables empty.
        record = json.loads(out.read_text())
        assert {k: v for k, v in record.items() if k not in ("manifest", "stats")} == {
            "feasible": False, "objective_bytes": None, "latency_sum_s": None,
            "gamma": None, "per_operator": {}, "per_node": {},
        }

    def test_a_second_row_for_one_op_and_sensor_is_an_input_error(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        row = next(r for r in record["per_sensor"] if (r["op"], r["sensor"]) == (1, 1))
        record["per_sensor"].append(dict(row, node=101, cpu_cloud=1000 * row["cpu_cloud"]))
        open(ppath, "w").write(json.dumps(record))
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "op 1, sensor 1" in error_lines(result)[0]

    def test_missing_input_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main, ["solve", str(tmp_path / "none.txt"), str(tmp_path / "none.json")]
        )
        assert result.exit_code == 1

    def test_zero_bandwidth_profile_is_an_input_error(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        record["bandwidth"] = {k: 0 for k in record["bandwidth"]}
        open(ppath, "w").write(json.dumps(record))
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert "bandwidth" in error_lines(result)[0]

    @pytest.mark.parametrize(
        "table, field", [("per_sensor", "cpu_edge"), ("per_operator", "data_int")]
    )
    @pytest.mark.parametrize("value", ["5", None, -1, math.nan])
    def test_malformed_profile_cost_is_an_input_error(
        self, runner, tmp_path, table, field, value
    ):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        record[table][0][field] = value
        open(ppath, "w").write(json.dumps(record))
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert field in error_lines(result)[0]

    @pytest.mark.parametrize(
        "table, shape",
        [("per_sensor", "number"), ("per_sensor", "list-row"),
         ("per_operator", "number"), ("per_operator", "list-row"),
         ("per_sensor", "op=[1]"), ("per_sensor", 'sensor={"a": 1}'),
         ("per_sensor", "node=[1]"), ("per_sensor", "op=true"),
         ("per_operator", 'op={"a": 1}'), ("per_operator", "op=1.0"),
         ("bandwidth", "[1]"), ("cpu_unit_edge", "[1]"), ("cpu_cap", "[1]"),
         ("mem_cap", "[1]"), ("cpu_unit_cloud", "{}"), ("t_req_s", '"1.5"')],
    )
    def test_malformed_profile_shape_is_an_input_error(self, runner, tmp_path, table, shape):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        if shape == "number":
            record[table] = 5
        elif shape == "list-row":
            record[table][0] = list(record[table][0].values())
        elif "=" in shape:
            field, value = shape.split("=")
            record[table][0][field] = json.loads(value)
        elif table == "t_req_s":
            record["per_operator"][0][table] = json.loads(shape)
        elif table == "cpu_unit_cloud":
            record[table] = json.loads(shape)
        else:
            record[table]["1"] = json.loads(shape)
        open(ppath, "w").write(json.dumps(record))
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert table in error_lines(result)[0]

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "-1"])
    def test_bad_time_budget_is_an_input_error(self, runner, tmp_path, budget):
        _, wpath, ppath = write_inputs(tmp_path)
        out = tmp_path / "r.json"
        result = runner.invoke(
            main, ["solve", wpath, ppath, "--time-budget", budget, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert "time budget" in error_lines(result)[0]
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_a_budget_cut_is_reported(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        out = tmp_path / "r.json"
        result = runner.invoke(
            main, ["solve", wpath, ppath, "--time-budget", "0", "--out", str(out)]
        )
        assert result.exit_code == 0  # full offload is feasible here
        warnings = [line for line in result.stderr.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "time budget" in warnings[0]
        assert json.loads(out.read_text())["stats"]["budget_exceeded"] is True

    @pytest.mark.parametrize("delta", ["1e-7", "1e-300", "1e-310", "5e-324"])
    def test_grid_over_the_cap_is_an_input_error(self, runner, tmp_path, delta):
        _, wpath, ppath = write_inputs(tmp_path)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["solve", wpath, ppath, "--delta", delta, "--out", str(out)])
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert "grid points" in error_lines(result)[0]
        assert not out.exists()

    @pytest.fixture(scope="class")
    def one_choice(self, tmp_path_factory):
        # One non-iterative operator: its domain is {0, 1} at every delta.
        tmp = tmp_path_factory.mktemp("one-choice")
        _, wpath, ppath = write_inputs(tmp, rows=[(1, (1,), (), F.MEAN, False, 5, 5, 5)])
        return wpath, ppath, tmp / "r.json"

    @settings(max_examples=100, deadline=None)
    @given(delta=SIGNED, budget=st.none() | SIGNED)
    def test_solve_refuses_or_records_its_options(self, one_choice, delta, budget):
        # One error line and no report, or a report whose manifest records
        # the delta and budget given.
        wpath, ppath, out = one_choice
        out.unlink(missing_ok=True)
        args = ["solve", wpath, ppath, "--delta", repr(delta), "--out", str(out)]
        if budget is not None:
            args += ["--time-budget", repr(budget)]
        result = CliRunner().invoke(main, args)
        if result.exit_code == 1:
            assert len(error_lines(result)) == 1, result.output
            assert not out.exists()
            return
        assert result.exit_code in (0, 2), result.output
        config = json.loads(out.read_text())["manifest"]["config"]
        assert (config["delta"], config["time_budget_s"]) == (delta, budget)

    @pytest.mark.parametrize("command", ["solve", "baseline", "simulate"])
    @pytest.mark.parametrize(
        "gap", ["other-workload", "per-operator", "per-sensor", "bandwidth", "cpu-unit"]
    )
    def test_profile_must_cover_the_workload(self, runner, tmp_path, command, gap):
        w, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        if gap == "other-workload":
            one = build_workload([(1, (1,), (), F.MEAN, True, 5, 5, 5)], {1: 1})
            record = json.loads(dumps_profile(generate_profile(one)))
        elif gap == "per-operator":
            record["per_operator"] = [r for r in record["per_operator"] if r["op"] != 2]
        elif gap == "per-sensor":
            record["per_sensor"] = [r for r in record["per_sensor"] if r["op"] != 1]
        else:
            del record["bandwidth" if gap == "bandwidth" else "cpu_unit_edge"]["1"]
        open(ppath, "w").write(json.dumps(record))
        gpath = str(tmp_path / "gamma.json")
        open(gpath, "w").write(json.dumps({"1": 1.0, "2": 1.0}))
        extra = {
            "solve": [],
            "baseline": ["--strategy", "co"],
            "simulate": ["--assignment", gpath, "--duration", "10"],
        }[command]
        out = tmp_path / "report.json"
        result = runner.invoke(main, [command, wpath, ppath, *extra, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, named",
        [(("cpu_cap",), "cpu_cap for the profile"), (("per_sensor",), "per_sensor for the profile"),
         (("per_sensor", 0, "cpu_edge"), "cpu_edge for (1, 1, 1)"),
         (("per_sensor", 0, "node"), "node for a per_sensor row"),
         (("per_operator", 0, "data_res"), "data_res for op 1")],
    )
    def test_a_missing_member_is_named(self, runner, tmp_path, path, named):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        *where, last = path
        parent = record
        for step in where:
            parent = parent[step]
        del parent[last]
        open(ppath, "w").write(json.dumps(record))
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [f"error: profile {ppath}: no {named}"]

    @pytest.mark.parametrize("edit", ["bandwidth", "per_sensor", "per_operator"])
    def test_an_id_named_twice_is_an_input_error(self, runner, tmp_path, edit):
        _, wpath, ppath = write_inputs(tmp_path)
        record = json.loads(open(ppath).read())
        if edit == "bandwidth":
            record[edit]["01"] = 1.0
        else:
            record[edit].append(dict(record[edit][0]))
        open(ppath, "w").write(json.dumps(record))
        out = tmp_path / "co.json"
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert edit in error_lines(result)[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "opening, repeat",
        [('"bandwidth": {', '"1": 1.0, '), ('"cpu_cap": {', '"1": 1.0, '),
         ('"per_operator": [\n    {', '"op": 2, ')],
        ids=["bandwidth", "cpu_cap", "per_operator-row"],
    )
    def test_a_repeated_json_key_is_an_input_error(self, runner, tmp_path, opening, repeat):
        _, wpath, ppath = write_inputs(tmp_path)
        text = open(ppath).read()
        assert text.count(opening) == 1
        open(ppath, "w").write(text.replace(opening, opening + repeat))
        out = tmp_path / "co.json"
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "appears twice" in error_lines(result)[0]
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["co", "eo"])
    def test_baselines_run(self, runner, tmp_path, strategy):
        _, wpath, ppath = write_inputs(tmp_path)
        out = str(tmp_path / f"{strategy}.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", strategy, "--out", out]
        )
        assert result.exit_code == 0
        record = json.loads(open(out).read())
        gammas = set(record["gamma"].values())
        assert gammas == ({1.0} if strategy == "co" else {0.0})

    def test_a_baseline_over_the_caps_exits_2_and_names_its_violations(self, runner, tmp_path):
        w, wpath, ppath = write_inputs(tmp_path)
        open(ppath, "w").write(dumps_profile(generate_profile(w, headroom=0.4)))
        result = runner.invoke(main, ["baseline", wpath, ppath, "--strategy", "eo"])
        assert result.exit_code == 2, result.output
        lines = [line for line in result.output.splitlines() if line.startswith("violations:")]
        assert len(lines) == 1
        assert "node 1 cpu" in lines[0]


class TestSimulateAndCompare:
    def solve_gamma_file(self, runner, tmp_path, wpath, ppath, delta="0.5"):
        out = str(tmp_path / "solution.json")
        result = runner.invoke(
            main, ["solve", wpath, ppath, "--delta", delta, "--out", out]
        )
        assert result.exit_code == 0
        return out

    def test_simulate_writes_report(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        out = str(tmp_path / "sim.json")
        result = runner.invoke(
            main,
            [
                "simulate", wpath, ppath, "--assignment", gpath,
                "--duration", "10", "--seed", "3", "--out", out,
            ],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(out).read())
        assert record["total_payload_bytes"] >= 0
        assert set(record["per_operator"]) == {"1", "2"}

    def test_a_profile_given_as_assignment_names_its_key(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        out = tmp_path / "sim.json"
        result = runner.invoke(main, ["simulate", wpath, ppath, "--assignment", ppath,
                                      "--duration", "10", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1, result.output
        assert "gamma key" in error_lines(result)[0]
        assert "'bandwidth'" in error_lines(result)[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-trace", "simulate"])
    def test_a_negative_seed_is_named(self, runner, tmp_path, command):
        _, wpath, ppath = write_inputs(tmp_path)
        args = [wpath]
        if command == "simulate":
            args = [wpath, ppath, "--assignment",
                    self.solve_gamma_file(runner, tmp_path, wpath, ppath)]
        out = tmp_path / "out.bin"
        result = runner.invoke(main, [command, *args, "--duration", "10", "--seed", "-1",
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == ["error: seed must not be negative, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--duration", "1e9"],
                                       ["--duration", "1e6", "--rate", "1e3"]])
    def test_simulate_refuses_a_trace_over_the_cap(self, runner, tmp_path, flags):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", gpath, *flags, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1
        assert "over the trace cap" in error_lines(result)[0]
        assert not out.exists()

    # One 60 s mean on one sensor; a replay sized by its whole seconds, its
    # window closes or its emissions, each far over TRACE_SAMPLE_CAP, is
    # refused before numpy is asked for an array it cannot build.
    @pytest.mark.parametrize(
        "shape, flags",
        [
            ((60, 60, 60), ["--duration", "1e300", "--rate", "1e-300"]),
            ((60, 60, 60), "trace"),
            ((60, 60, 1e-300), []),
            ((60, 1e-300, 60), []),
        ],
        ids=["long-duration", "long-trace-file", "tiny-freq", "tiny-step"],
    )
    def test_simulate_refuses_a_replay_over_the_cap(self, runner, tmp_path, shape, flags):
        _, wpath, ppath = write_inputs(tmp_path, [(1, (1,), (), F.MEAN, True, *shape)], {1: 1})
        gpath = tmp_path / "gamma.json"
        gpath.write_text('{"gamma": {"1": 1.0}}')
        if flags == "trace":
            tpath = str(tmp_path / "trace.bin")
            result = runner.invoke(main, ["gen-trace", wpath, "--duration", "1e300",
                                          "--rate", "1e-300", "--out", tpath])
            assert result.exit_code == 0, result.output
            flags = ["--trace", tpath]
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", str(gpath), *flags, "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert f"over the replay cap of {TRACE_SAMPLE_CAP}" in error_lines(result)[0]
        assert not out.exists()

    def test_simulate_refuses_a_replay_over_the_cap_before_generating(self, runner, tmp_path,
                                                                       monkeypatch):
        # 3e8 s at 0.005 Hz is a trace of 1.5e6 samples per sensor, under
        # the trace cap, but 3e8 whole seconds are over the replay cap.
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)

        def spy(*args):
            raise AssertionError("generated a trace the replay refuses")

        monkeypatch.setattr(simulator, "generate_trace", spy)
        out = tmp_path / "sim.json"
        result = runner.invoke(main, ["simulate", wpath, ppath, "--assignment", gpath,
                                      "--duration", "3e8", "--rate", "0.005", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [
            f"error: 3e+08 whole seconds are over the replay cap of {TRACE_SAMPLE_CAP}"
        ]
        assert not out.exists()

    def test_simulate_rejects_infeasible_assignment(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write(json.dumps({"gamma": {"1": 0.5, "2": 0.5}}))
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", bad, "--duration", "5"]
        )
        assert result.exit_code == 2
        forced = runner.invoke(
            main,
            ["simulate", wpath, ppath, "--assignment", bad, "--duration", "5", "--force"],
        )
        assert forced.exit_code == 0

    def test_simulate_refuses_a_ratio_out_of_range_even_under_force(self, runner, tmp_path):
        # check_assignment flags 1.5 (C1); --force passes that by, but the
        # replay cannot stream more of a sensor than the trace holds.
        _, wpath, ppath = write_inputs(tmp_path, [(1, (1,), (), F.MEAN, True, 5, 5, 5)], {1: 1})
        gpath = tmp_path / "gamma.json"
        gpath.write_text('{"gamma": {"1": 1.5}}')
        out = tmp_path / "sim.json"
        result = runner.invoke(main, ["simulate", wpath, ppath, "--assignment", str(gpath),
                                      "--duration", "10", "--force", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [
            "error: ratio 1.5 of operator 1 is outside [0, 1]; the replay cannot run it"
        ]
        assert not out.exists()

    def test_simulate_rejects_infeasible_solve_report(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        report = str(tmp_path / "infeasible.json")
        open(report, "w").write(json.dumps({"feasible": False, "gamma": None}))
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", report, "--duration", "5"]
        )
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1

    def test_simulate_refuses_a_report_priced_in_another_cost_model(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        report = str(tmp_path / "solve.json")
        solved = runner.invoke(main, ["solve", wpath, ppath, "--delta", "0.5", "--out", report])
        assert solved.exit_code == 0, solved.output
        record = json.loads(open(report).read())
        assert record["manifest"]["config"]["cost_orientation"] == "corrected"
        bare = str(tmp_path / "bare.json")
        open(bare, "w").write(json.dumps({"gamma": record["gamma"]}))
        for path in (report, bare):
            result = runner.invoke(
                main, ["simulate", wpath, ppath, "--assignment", path, "--duration", "10"]
            )
            assert result.exit_code == 0, result.output
        record["manifest"]["config"]["cost_orientation"] = "literal"
        literal = str(tmp_path / "literal.json")
        open(literal, "w").write(json.dumps(record))
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", literal, "--duration", "10"]
        )
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert len(error_lines(result)) == 1
        assert "'literal' cost model" in error_lines(result)[0]

    def test_compare_reports_reductions(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        paths = []
        for strategy in ("co", "eo"):
            spath = str(tmp_path / f"{strategy}.json")
            result = runner.invoke(
                main, ["baseline", wpath, ppath, "--strategy", strategy, "--out", spath]
            )
            assert result.exit_code == 0
            sim = str(tmp_path / f"sim-{strategy}.json")
            result = runner.invoke(
                main,
                [
                    "simulate", wpath, ppath, "--assignment", spath,
                    "--duration", "10", "--seed", "3", "--out", sim,
                ],
            )
            assert result.exit_code == 0, result.output
            paths.append(sim)
        out = str(tmp_path / "cmp.json")
        result = runner.invoke(main, ["compare", *paths, "--out", out])
        assert result.exit_code == 0
        record = json.loads(open(out).read())
        assert record["reduction_pct_vs_first"][0] == 0.0
        assert record["reduction_pct_vs_first"][1] > 0.0

    @pytest.mark.parametrize(
        "duration, rate, counts",
        [
            (10.0, 10.0, {1: 100}),
            (math.nan, 10.0, {1: 100, 2: 100}),
            (-10.0, 10.0, {1: 100, 2: 100}),
            (10.0, 0.0, {1: 100, 2: 100}),
            (10.0, 10.0, {1: 100, 2: 60}),
        ],
        ids=["missing-sensor", "nan-duration", "negative-duration", "zero-rate",
             "short-sensor"],
    )
    def test_simulate_rejects_inconsistent_traces(self, runner, tmp_path, duration,
                                                  rate, counts):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        tpath = str(tmp_path / "trace.bin")
        pack_trace(tpath, duration, rate, [(s, np.ones(n)) for s, n in counts.items()])
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main,
            ["simulate", wpath, ppath, "--assignment", gpath, "--trace", tpath,
             "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_simulate_refuses_a_trace_that_repeats_a_sensor(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        tpath = tmp_path / "trace.bin"
        pack_trace(tpath, 10.0, 10.0, [(1, np.ones(100)), (1, np.ones(100))])
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main,
            ["simulate", wpath, ppath, "--assignment", gpath, "--trace", str(tpath),
             "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [f"error: trace {tpath}: sensor 1 appears twice"]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--duration", "nan"], ["--rate", "0"]])
    def test_simulate_rejects_bad_generated_timebase(self, runner, tmp_path, flags):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", gpath, *flags, "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert not out.exists()

    def test_compare_refuses_window_set_and_horizon_totals(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        solved = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        sim = str(tmp_path / "sim.json")
        result = runner.invoke(
            main,
            ["simulate", wpath, ppath, "--assignment", solved, "--duration", "10",
             "--out", sim],
        )
        assert result.exit_code == 0, result.output
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        for pair in ((solved, sim), (sim, co)):
            out = tmp_path / "cmp.json"
            result = runner.invoke(main, ["compare", *pair, "--out", str(out)])
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1
            assert not out.exists()
        result = runner.invoke(main, ["compare", co, solved])
        assert result.exit_code == 0, result.output

    def test_compare_refuses_different_trace_lengths(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        sims = []
        for duration in ("20", "10"):
            sim = str(tmp_path / f"sim{duration}.json")
            result = runner.invoke(
                main,
                ["simulate", wpath, ppath, "--assignment", co, "--duration", duration,
                 "--out", sim],
            )
            assert result.exit_code == 0, result.output
            sims.append(sim)
        out = tmp_path / "cmp.json"
        result = runner.invoke(main, ["compare", *sims, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "20.0 s" in error_lines(result)[0] and "10.0 s" in error_lines(result)[0]
        assert not out.exists()
        result = runner.invoke(main, ["compare", sims[0], sims[0]])
        assert result.exit_code == 0, result.output

    def test_compare_refuses_objectives_in_different_modes(self, runner, tmp_path):
        # A dedup solve beside a paper baseline would read as a reduction
        # that is partly the change of objective.
        _, wpath, ppath = write_inputs(tmp_path)

        def report(name, mode, *args):
            path = str(tmp_path / f"{name}.json")
            result = runner.invoke(
                main, [*args[:1], wpath, ppath, *args[1:], "--objective-mode", mode, "--out", path]
            )
            assert result.exit_code == 0, result.output
            return path

        co = report("co", "paper", "baseline", "--strategy", "co")
        co_dedup = report("co-dedup", "dedup", "baseline", "--strategy", "co")
        sd = report("sd", "dedup", "solve", "--delta", "0.5")
        out = tmp_path / "cmp.json"
        result = runner.invoke(main, ["compare", co, sd, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [
            f"error: cannot compare {co} (bytes per window set, paper objective) "
            f"with {sd} (bytes per window set, dedup objective)"
        ]
        assert not out.exists()
        result = runner.invoke(main, ["compare", co_dedup, sd])
        assert result.exit_code == 0, result.output

    def test_compare_refuses_different_sample_rates(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        sims = []
        for rate in ("10", "1"):
            sims.append(str(tmp_path / f"sim{rate}.json"))
            result = runner.invoke(
                main,
                ["simulate", wpath, ppath, "--assignment", co, "--duration", "60",
                 "--rate", rate, "--out", sims[-1]],
            )
            assert result.exit_code == 0, result.output
        out = tmp_path / "cmp.json"
        # A bare ratio map measures nothing, so it does not stand between them.
        gamma = tmp_path / "gamma.json"
        gamma.write_text(json.dumps({"gamma": {"1": 1.0, "2": 1.0}}))
        result = runner.invoke(main, ["compare", sims[0], str(gamma), sims[1], "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [
            f"error: cannot compare {sims[0]} (bytes over 60.0 s at 10.0 Hz) "
            f"with {sims[1]} (bytes over 60.0 s at 1.0 Hz)"
        ]
        assert not out.exists()

    def test_compare_refuses_a_report_that_is_not_an_object(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        listed = tmp_path / "list.json"
        listed.write_text("[1]")
        for pair in ((co, str(listed)), (str(listed), co)):
            result = runner.invoke(main, ["compare", *pair])
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1
            assert "list.json" in error_lines(result)[0]

    @pytest.mark.parametrize(
        "field, value",
        [("per_operator", [1]), ("per_operator", {"1": 5}), ("per_operator", {"x": {}}),
         ("objective_bytes", "x"), ("objective_bytes", -1)],
        ids=["rows-list", "row-number", "row-id", "total-string", "total-negative"],
    )
    def test_compare_refuses_malformed_byte_figures(self, runner, tmp_path, field, value):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(co).read())
        record[field] = value
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(record))
        for pair in ((co, str(bad)), (str(bad), co)):
            result = runner.invoke(main, ["compare", *pair])
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1
            assert "r.json" in error_lines(result)[0]

    @pytest.mark.parametrize("command", [["simulate"], {"name": "simulate"}])
    def test_compare_refuses_a_command_that_is_not_a_string(self, runner, tmp_path, command):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(co).read())
        record["manifest"]["command"] = command
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(record))
        for pair in ((co, str(bad)), (str(bad), co)):
            result = runner.invoke(main, ["compare", *pair])
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1
            assert "r.json" in error_lines(result)[0]

    def test_compare_lists_an_infeasible_solve_without_a_total(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(co).read())
        record.update(feasible=False, objective_bytes=None, per_operator={})
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(record))
        result = runner.invoke(main, ["compare", co, str(bad)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["compare", str(bad), co])
        assert result.exit_code == 1, result.output
        assert "no byte total" in error_lines(result)[0]

    @pytest.mark.parametrize(
        "text",
        ['{"gamma": {"1": 1.0, "01": 0.5, "2": 1.0}}', '{"1": 1' + "0" * 400 + ', "2": 1.0}',
         '{"1": 1.0, "2": 1.0, "+3": 1.0}', b"\xff{}", '{"1": 0.0, "1": 1.0, "2": 1.0}',
         '{"gamma": {}, "gamma": {"1": 1.0, "2": 1.0}}', '{"1": 0.0, "2": 0.0, "999": 0.5}',
         DEEP],
        ids=["aliased-key", "huge-int", "signed-key", "not-utf8", "repeated-key",
             "repeated-member", "unknown-operator", "nested-too-deeply"],
    )
    def test_simulate_refuses_a_malformed_assignment(self, runner, tmp_path, text):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = tmp_path / "gamma.json"
        if isinstance(text, str):
            gpath.write_text(text)
        else:
            gpath.write_bytes(text)
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", str(gpath), "--duration", "10"]
        )
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert "gamma.json" in error_lines(result)[0]

    def test_simulate_names_a_missing_ratio(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = tmp_path / "gamma.json"
        gpath.write_text('{"gamma": {"1": 0.0}}')
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", str(gpath), "--duration", "5"]
        )
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [f"error: assignment {gpath}: no ratio for operator 2"]

    def test_compare_names_a_missing_payload_figure(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        sim = str(tmp_path / "sim.json")
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", gpath, "--duration", "10", "--out", sim]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(sim).read())
        del record["per_operator"]["1"]["res_payload_bytes"]
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(record))
        result = runner.invoke(main, ["compare", sim, str(bad)])
        assert result.exit_code == 1, result.output
        assert error_lines(result) == [f"error: report {bad}: no res_payload_bytes for op 1"]

    def test_compare_refuses_an_undecodable_report(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "deep.json").write_text(DEEP)
        for name in ("bytes.json", "deep.json"):
            bad = str(tmp_path / name)
            for pair in ((co, bad), (bad, co)):
                result = runner.invoke(main, ["compare", *pair])
                assert result.exit_code == 1, result.output
                assert len(error_lines(result)) == 1
                assert name in error_lines(result)[0]

    @pytest.mark.parametrize(
        "flags", [["--duration", "5"], ["--duration", "600"], ["--seed", "9"], ["--rate", "1"]]
    )
    def test_simulate_refuses_trace_settings_with_a_trace(self, runner, tmp_path, flags):
        # The settings shape a generated trace only; given beside --trace,
        # even at their defaults, they would be ignored without a word.
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = self.solve_gamma_file(runner, tmp_path, wpath, ppath)
        tpath = str(tmp_path / "trace.bin")
        save_trace(tpath, Trace(10.0, 10.0, {1: np.ones(100), 2: np.ones(100)}))
        out = tmp_path / "sim.json"
        args = ["simulate", wpath, ppath, "--assignment", gpath, "--out", str(out)]
        assert runner.invoke(main, [*args, "--trace", tpath]).exit_code == 0
        out.unlink()
        result = runner.invoke(main, [*args, "--trace", tpath, *flags])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert flags[0] in error_lines(result)[0]
        assert not out.exists()

    def test_compare_refuses_a_repeated_key(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        twice = tmp_path / "twice.json"
        twice.write_text('{"objective_bytes": 1, ' + open(co).read()[1:])
        for pair in ((co, str(twice)), (str(twice), co)):
            result = runner.invoke(main, ["compare", *pair])
            assert result.exit_code == 1, result.output
            assert len(error_lines(result)) == 1
            assert "twice.json" in error_lines(result)[0]
            assert "appears twice" in error_lines(result)[0]

    def test_compare_refuses_totals_too_far_apart(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        co = str(tmp_path / "co.json")
        result = runner.invoke(
            main, ["baseline", wpath, ppath, "--strategy", "co", "--out", co]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(open(co).read())
        record["objective_bytes"] = 5e-324
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(record))
        out = tmp_path / "cmp.json"
        result = runner.invoke(main, ["compare", str(tiny), co, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(error_lines(result)) == 1
        assert not out.exists()

    def test_compare_needs_two_reports(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        result = runner.invoke(main, ["compare", str(tmp_path / "x.json")])
        assert result.exit_code != 0


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "command",
        ["gen-workload", "gen-profile", "gen-trace", "solve", "baseline", "simulate", "compare"],
    )
    def test_a_missing_directory_is_one_error_line(self, runner, tmp_path, command):
        _, wpath, ppath = write_inputs(tmp_path)
        gpath = tmp_path / "gamma.json"
        gpath.write_text(json.dumps({"gamma": {"1": 1.0, "2": 1.0}}))
        reports = []
        for strategy in ("co", "eo"):
            reports.append(str(tmp_path / f"{strategy}.json"))
            runner.invoke(
                main, ["baseline", wpath, ppath, "--strategy", strategy, "--out", reports[-1]]
            )
        args = {
            "gen-workload": [],
            "gen-profile": [wpath],
            "gen-trace": [wpath, "--duration", "10"],
            "solve": [wpath, ppath, "--delta", "0.5"],
            "baseline": [wpath, ppath, "--strategy", "co"],
            "simulate": [wpath, ppath, "--assignment", str(gpath), "--duration", "10"],
            "compare": reports,
        }[command]
        out = tmp_path / "missing_dir" / "x"
        result = runner.invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert len(error_lines(result)) == 1
        assert str(out) in error_lines(result)[0]
        assert not list(tmp_path.rglob("*.tmp"))


class TestUsageErrors:
    """A usage error is bad input: exit 1 and one error: line, not click's
    usage block and exit 2, which means an infeasible placement."""

    @pytest.mark.parametrize(
        "args, needle",
        [
            (["solve", "{w}", "{p}", "--cost-orientation", "literal"], "--cost-orientation"),
            (["baseline", "{w}", "{p}", "--strategy", "co", "--cost-orientation", "literal"],
             "--cost-orientation"),
            (["solve", "{w}", "{p}", "--delta", "abc"], "--delta"),
            (["solve", "{w}", "{p}", "--bogus"], "--bogus"),
            (["baseline", "{w}", "{p}", "--strategy", "zz"], "--strategy"),
            (["solve", "{w}"], "PROFILE"),
            (["no-such-command"], "no-such-command"),
            (["--no-such-option"], "--no-such-option"),
            ([], "Missing command"),
        ],
        ids=["solve-cost-orientation", "baseline-cost-orientation", "bad-delta",
             "unknown-option", "bad-strategy", "missing-argument", "unknown-command",
             "group-option", "no-command"],
    )
    def test_exits_1_with_one_error_line(self, runner, tmp_path, args, needle):
        _, wpath, ppath = write_inputs(tmp_path)
        result = runner.invoke(main, [a.format(w=wpath, p=ppath) for a in args])
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        assert "Usage:" not in result.output
        lines = error_lines(result)
        assert len(lines) == 1
        assert needle in lines[0]

    @pytest.mark.parametrize(
        "args",
        [["--help"], ["--version"], ["solve", "--help"], ["baseline", "--help"]],
        ids=["help", "version", "solve-help", "baseline-help"],
    )
    def test_help_and_version_exit_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert not error_lines(result)
        assert "--cost-orientation" not in result.output


class TestDeterminism:
    def test_solve_reports_are_byte_identical(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            result = runner.invoke(
                main, ["solve", wpath, ppath, "--delta", "0.25", "--out", out]
            )
            assert result.exit_code == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


# The README's reference steps, each writing one --out file, and the sha256
# of each file. Paths are relative, as the manifests record them as given.
_REFERENCE_STEPS = [
    ["gen-workload", "--out", "w.txt"],
    ["gen-profile", "w.txt", "--out", "p.json"],
    ["solve", "w.txt", "p.json", "--out", "solve.json"],
    ["solve", "w.txt", "p.json", "--objective-mode", "dedup", "--out", "dedup.json"],
    ["solve", "w.txt", "p.json", "--delta", "0.01", "--out", "solve01.json"],
    ["baseline", "w.txt", "p.json", "--strategy", "co", "--out", "co.json"],
    ["baseline", "w.txt", "p.json", "--strategy", "eo", "--out", "eo.json"],
    ["compare", "co.json", "solve.json", "--out", "cmp.json"],
    ["gen-trace", "w.txt", "--duration", "600", "--seed", "3", "--out", "t.bin"],
    ["simulate", "w.txt", "p.json", "--assignment", "solve.json", "--trace", "t.bin",
     "--out", "sim.json"],
    ["simulate", "w.txt", "p.json", "--assignment", "co.json", "--trace", "t.bin",
     "--out", "sim_co.json"],
    ["gen-profile", "w.txt", "--headroom", "0.9", "--out", "p90.json"],
    ["solve", "w.txt", "p90.json", "--delta", "0.1", "--out", "s90.json"],
    ["simulate", "w.txt", "p90.json", "--assignment", "s90.json", "--trace", "t.bin",
     "--out", "sim90.json"],
]
_REFERENCE_DIGESTS = {
    "w.txt": "c68153ed4ef9bc2bb58d73a691196786e341a2726bd8a5373288bd5b7d48cdbe",
    "p.json": "f73ce94056571cf4de44f25dece79539dfa5e76196eabda0d1f9e0a35190c2f0",
    "solve.json": "d07dd336ed2272d27d97566f48e878a26ddff13bb68c72e1b0fb32b4613b5dad",
    "dedup.json": "8e4d8a3766d64dfa2d38ec264be6bfa56cf75d46f302c83dfc294f9c46c659b7",
    "solve01.json": "dc6635540a782d36494380ce037166fc671ba3044280a3d59e43752a6a609337",
    "co.json": "f287c006fa8363d16ea06007662310da0b084b40340591a1ec63eb5c77a7de23",
    "eo.json": "3eff51b180a8db099ec3da4d2c1ddb92fce54c058acc993037390b9611f07423",
    "cmp.json": "641189499604474109c5691b537b8f006bb3e56af3a7048fdf5e53788ba4a989",
    "t.bin": "3fa61ba4d3b6272a441bf5922a0d4ae2f5b83b6b72b00f01f6a1586bcede06b9",
    "sim.json": "2e9cea7f56baae499e26b6c175e4f2a0aa89d2a7fa34b7cf8c5cab1bee1f49f9",
    "sim_co.json": "3683cd024ef93ba51b15cea501d7e2c8b66d9d548ae03f5a9b18a7f65b0f24e7",
    "p90.json": "b5a2012edb66cb7e38d1ecb778461ae0a75ddf6b6ae5f524e2014c6dcb4e61b8",
    "s90.json": "08032a1b46f18598c404920bb2cacf65b7dc9ea2430cacf609e4953b7beeac85",
    "sim90.json": "1362e29ea053029dda79bd7f01d2ea33151ea42b99cec60cf8eb5b555acf3bbb",
}


class TestReferenceDigests:
    def test_reference_reports_keep_their_bytes(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for args in _REFERENCE_STEPS:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
        got = {args[-1]: sha256_file(args[-1]) for args in _REFERENCE_STEPS}
        assert got == _REFERENCE_DIGESTS
