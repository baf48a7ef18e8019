"""Command-line surface: exit codes, report files, determinism."""

import json

import pytest
from click.testing import CliRunner

from splitstream import FunctionKind, dumps_workload, generate_profile, load_workload
from splitstream.cli import main
from splitstream.fileio import dumps_profile

from conftest import build_workload

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
        result = runner.invoke(main, ["solve", wpath, ppath])
        assert result.exit_code == 2

    def test_missing_input_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main, ["solve", str(tmp_path / "none.txt"), str(tmp_path / "none.json")]
        )
        assert result.exit_code == 1

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

    def test_simulate_rejects_infeasible_solve_report(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        report = str(tmp_path / "infeasible.json")
        open(report, "w").write(json.dumps({"feasible": False, "gamma": None}))
        result = runner.invoke(
            main, ["simulate", wpath, ppath, "--assignment", report, "--duration", "5"]
        )
        assert result.exit_code == 1
        assert len(error_lines(result)) == 1

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

    def test_compare_needs_two_reports(self, runner, tmp_path):
        _, wpath, ppath = write_inputs(tmp_path)
        result = runner.invoke(main, ["compare", str(tmp_path / "x.json")])
        assert result.exit_code != 0


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
