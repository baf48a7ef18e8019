"""The three benchmark workloads: reference, contended and replay.

Each workload builds its inputs in `setup` (timed as set-up, not as work),
then `job` runs one timed repetition of the work and returns that
repetition's end-to-end samples. Every call into splitstream goes through a
Recorder, so the same job gives the end-to-end times untraced and the
per-layer spans traced. Expected values below were measured at the commit
that added the benchmark; the replayed byte counts do not depend on the
trace seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from splitstream import (
    Assignment,
    FunctionKind,
    SolverConfig,
    StreamConfig,
    check_assignment,
    cloud_only,
    cost_report,
    data_volume,
    edge_only,
    eval_function,
    generate_profile,
    generate_reference_workload,
    generate_trace,
    merge,
    node_cpu,
    node_mem,
    parse_profile,
    parse_workload,
    partial_eval,
    run_sim,
    save_profile,
    save_trace,
    save_workload,
    solve,
    total_objective,
    validate_workload,
)
from splitstream.fileio import load_trace, save_report, sha256_file
from splitstream.functions import SPLITTABLE

from harness import Cli, Recorder

SAMPLE_RATE_HZ = 10.0

# Solver instances: profile, grid step, and the optimum's objective in bytes
# per window set (paper mode).
INSTANCES = {
    "ref05": ("ref", 0.05, 4280.0),
    "ref01": ("ref", 0.01, 4280.0),
    "cap90": ("cap90", 0.25, 548392360.0),
    "cap40": ("cap40", 0.25, 753288360.0),
}

# Node caps as a share of each node's all-edge CPU and memory usage.
CAP_FACTORS = {"cap90": 0.9, "cap40": 0.4}

# Payload bytes of a 1 h replay by placement; they do not depend on the seed.
TRACE_S = 3600.0
REPLAY_BYTES = {"ref05": 794440, "cap90": 30230784, "co": 48960000, "eo": 794440}

BASELINE_OBJECTIVE = {"co": 864661120.0, "eo": 4280.0}

# Functions probe: windows of 60 s over the first two sensors of the trace.
PROBE_WINDOW = 600
PROBE_WINDOWS = 40


@dataclass
class Inputs:
    """What set-up leaves for the job: the files it reads back."""

    workload_path: Path
    profile_paths: dict[str, Path]
    trace_path: Path


def scaled_caps(w, p, factor: float):
    """The profile with each node's cpu_cap and mem_cap at `factor` times its
    all-edge usage. generate_profile rejects headroom <= 1, so caps below the
    all-edge load are set here."""
    all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
    cpu_cap, mem_cap = {}, {}
    for k in sorted(w.topology.nodes):
        cpu_cap[k] = factor * sum(node_cpu(op.id, k, all_edge, p, w) for op in w.operators)
        mem_cap[k] = factor * sum(node_mem(op.id, k, all_edge, p, w) for op in w.operators)
    return replace(p, cpu_cap=cpu_cap, mem_cap=mem_cap)


class Bench:
    """Shared set-up and steps; subclasses choose profiles, trace and job."""

    profiles: tuple[str, ...] = ("ref",)

    def __init__(self, workdir: Path, seed: int, src_dir: Path, traced_run: bool):
        self.workdir = workdir
        self.seed = seed
        # A traced run compares traced with untraced repetitions, so both
        # must do the same work.
        self.traced_run = traced_run
        self.cli = Cli(src_dir, workdir)
        self.cli_outputs: dict[str, str] = {}  # --out file -> sha256 of its first run

    # -- set-up -------------------------------------------------------------

    def setup(self, rec: Recorder) -> Inputs:
        w = rec.call("reference.generate_workload", generate_reference_workload)
        inputs = Inputs(
            workload_path=self.workdir / "w.txt",
            profile_paths={name: self.workdir / f"{name}.json" for name in self.profiles},
            trace_path=self.workdir / "trace1h.bin",
        )
        rec.call("fileio.save_workload", save_workload, str(inputs.workload_path), w)
        p = rec.call("reference.generate_profile", generate_profile, w)
        for name, path in inputs.profile_paths.items():
            q = p if name == "ref" else rec.call(
                "costs.scale_caps", scaled_caps, w, p, CAP_FACTORS[name]
            )
            rec.call("fileio.save_profile", save_profile, str(path), q)
        cfg = StreamConfig(duration_s=TRACE_S, sample_rate_hz=SAMPLE_RATE_HZ, seed=self.seed)
        trace = rec.call("simulator.generate_trace", generate_trace, cfg, w.sensors)
        rec.call("fileio.save_trace", save_trace, str(inputs.trace_path), trace)
        rec.count("fileio.trace_mb", inputs.trace_path.stat().st_size / 1e6)
        return inputs

    # -- steps of a job -----------------------------------------------------

    def load(self, rec: Recorder, inputs: Inputs):
        """Read the inputs back the way the CLI does: parse, validate, load."""
        with rec.span("step.load"):
            text = inputs.workload_path.read_text()
            w = rec.call("fileio.parse_workload", parse_workload, text)
            report = rec.call("model.validate_workload", validate_workload, w)
            rec.check("workload validates", report.ok, str(report.violations))
            profiles = {}
            for name, path in inputs.profile_paths.items():
                profiles[name] = rec.call("fileio.parse_profile", parse_profile, path.read_text())
            trace = rec.call("fileio.load_trace", load_trace, str(inputs.trace_path))
        return w, profiles, trace

    def solve_instance(self, rec: Recorder, inst: str, w, profiles) -> Assignment:
        """Solve one instance, then check and price its optimum."""
        profile_name, delta, expected = INSTANCES[inst]
        p = profiles[profile_name]
        with rec.span(f"step.solve.{inst}"):
            sol = rec.call(f"solver.{inst}.solve", solve, w, p, SolverConfig(delta=delta),
                           calibrated=True)
            elapsed = rec.times[f"solver.{inst}.solve"]
            stats = sol.stats
            nodes = stats["nodes_explored"]
            prunes = stats["prunes"]
            rec.count(f"solver.{inst}.nodes", nodes)
            rec.count(f"solver.{inst}.nodes_per_s", nodes / elapsed)
            for kind in ("resource", "bound", "latency"):
                rec.count(f"solver.{inst}.prunes.{kind}", prunes[kind])
            rec.count(f"solver.{inst}.prune_share", sum(prunes.values()) / max(nodes, 1))
            rec.count(f"solver.{inst}.clusters", stats["clusters"])
            ok = rec.check(
                f"solve {inst} is feasible with objective {expected:.0f} B",
                sol.feasible and sol.objective_bytes == expected,
                f"feasible={sol.feasible} objective={sol.objective_bytes}",
            )
            if ok:
                self.price(rec, inst, w, p, sol.assignment)
        return sol.assignment

    def price(self, rec: Recorder, label: str, w, p, a: Assignment) -> None:
        """Check the placement against C1-C12 and price it every way."""
        violations = rec.call("feasibility.check_assignment", check_assignment, w, p, a)
        rec.count("feasibility.violations", len(violations))
        rec.check(f"{label} placement has no violations", not violations, str(violations[:3]))
        rec.call("costs.cost_report", cost_report, w, p, a)
        rec.call("costs.total_objective_paper", total_objective, a, p, w, "paper")
        rec.call("costs.total_objective_dedup", total_objective, a, p, w, "dedup")
        nodes = sorted(w.topology.nodes)
        with rec.span("costs.data_volume"):
            for op in w.operators:
                for k in nodes:
                    data_volume(op.id, k, a, p, w)
        rec.count("costs.data_volume_calls", len(w.operators) * len(nodes))

    def replay(self, rec: Recorder, pl: str, key: str, w, p, a: Assignment, trace) -> None:
        """Replay one placement and check its bytes against the cost model."""
        with rec.span(f"step.replay.{pl}"):
            r = rec.call(f"simulator.{pl}.run_sim", run_sim, w, p, a, trace, calibrated=True)
            windows = sum(s.windows for s in r.per_op.values())
            rec.count(f"simulator.{pl}.windows", windows)
            rec.count(f"simulator.{pl}.windows_per_s", windows / rec.times[f"simulator.{pl}.run_sim"])
            rec.count(f"simulator.{pl}.payload_bytes", r.total_payload_bytes)
            rec.count(f"simulator.{pl}.wire_bytes", r.total_wire_bytes)
            rec.count(f"simulator.{pl}.int_frames", sum(s.int_frames for s in r.per_op.values()))
            # Reported as found, not checked: the all-edge and contended
            # placements miss deadlines through a known model gap.
            rec.count(
                f"simulator.{pl}.deadline_misses",
                sum(s.t_req_violations for s in r.per_op.values()),
            )
            analytic = rec.call(
                "costs.total_objective_dedup", total_objective, a, p, w, "dedup",
                horizon_s=trace.duration_s,
            )
            rec.check(
                f"replay {pl} payload equals the dedup objective",
                r.total_payload_bytes == analytic,
                f"replayed {r.total_payload_bytes} B, analytic {analytic} B",
            )
            expected = REPLAY_BYTES[key]
            rec.check(
                f"replay {pl} moves {expected} B",
                r.total_payload_bytes == expected,
                f"replayed {r.total_payload_bytes} B",
            )

    def functions_probe(self, rec: Recorder, trace) -> None:
        """eval_function on every function and partial_eval + merge at
        gamma = 0.5 on every splittable one, over a fixed batch of windows."""
        sensors = sorted(trace.samples)[:2]
        t = trace.times(sensors[0])
        batch = []
        for i in range(PROBE_WINDOWS):
            cut = slice(i * PROBE_WINDOW, (i + 1) * PROBE_WINDOW)
            batch.append(([trace.samples[s][cut] for s in sensors], [t[cut], t[cut]]))
        whole, split = {}, {}
        half = PROBE_WINDOW // 2
        with rec.span("step.functions"):
            with rec.span("functions.eval"):
                for func in FunctionKind:
                    for i, (chans, ts) in enumerate(batch):
                        whole[(func, i)] = eval_function(func, chans, ts)
            with rec.span("functions.split_merge"):
                for func in sorted(SPLITTABLE, key=lambda f: f.value):
                    for i, (chans, ts) in enumerate(batch):
                        state = partial_eval(func, [c[:half] for c in chans], [x[:half] for x in ts])
                        split[(func, i)] = merge(
                            func, state, [c[half:] for c in chans], [x[half:] for x in ts]
                        )
        rec.count("functions.eval_per_s", len(whole) / rec.times["functions.eval"])
        rec.count("functions.split_merge_per_s", len(split) / rec.times["functions.split_merge"])
        mismatched = [
            f"{func.value} window {i}" for (func, i), got in split.items()
            if not np.allclose(got, whole[(func, i)], rtol=1e-9, atol=1e-12, equal_nan=True)
        ]
        rec.check(
            "split + merge matches whole-window evaluation within 1e-9 relative",
            not mismatched, ", ".join(mismatched[:5]),
        )

    def save_probe(self, rec: Recorder, w, a: Assignment) -> None:
        """Write a small gamma report, as every --out report is written."""
        record = {"gamma": {str(op.id): a.op_gamma(w, op.id) for op in w.operators}}
        rec.call("fileio.save_report", save_report, str(self.workdir / "gamma.json"), record)

    def cli_call(self, rec: Recorder, args: list[str], out: str | None = None) -> float:
        """Run one CLI call; its --out file must match the first run's bytes."""
        elapsed = self.cli.run(rec, args + (["--out", out] if out else []))
        if out:
            digest = sha256_file(str(self.workdir / out))
            first = self.cli_outputs.setdefault(out, digest)
            rec.check(f"cli {args[0]} writes {out} byte-identically", digest == first,
                      "report differs from the first run")
        return elapsed

    def check_cli_reports(self, rec: Recorder, inst: str) -> None:
        """The CLI's solve and 1 h simulate reports carry the expected bytes."""
        expected = INSTANCES[inst][2]
        got = self.cli.report("solve.json").get("objective_bytes")
        rec.check(f"cli solve {inst} objective is {expected:.0f} B", got == expected, f"got {got}")
        want = REPLAY_BYTES[inst]
        got = self.cli.report("sim.json").get("total_payload_bytes")
        rec.check(f"cli simulate {inst} moves {want} B in 1 h", got == want, f"got {got}")

    # -- entry points -------------------------------------------------------

    def run_job(self, inputs: Inputs, rec: Recorder) -> dict:
        with rec.span("job", calibrated=True):
            e2e = self.job(inputs, rec)
        times = rec.times
        e2e["solve_s"] = sum(
            v for k, v in times.items() if k.startswith("solver.") and k.endswith(".solve")
        )
        e2e["replay_s"] = sum(
            v for k, v in times.items() if k.startswith("simulator.") and k.endswith(".run_sim")
        )
        if "costs.data_volume" in times:
            rec.count(
                "costs.data_volume_per_s",
                rec.counts["costs.data_volume_calls"] / times["costs.data_volume"],
            )
        return e2e

    def job(self, inputs: Inputs, rec: Recorder) -> dict:
        raise NotImplementedError

    def cli_steps(self, rec: Recorder) -> dict:
        """The CLI pair every workload times: `solve --out` of the reference
        profile at delta = 0.05 and a 1 h `simulate --out` of its report, on
        the set-up's files. The search is trivial there, so the pair costs
        little beside the workload's own job."""
        with rec.span("step.cli"):
            solve_s = self.cli_call(rec, ["solve", "w.txt", "ref.json", "--delta", "0.05"],
                                    "solve.json")
            simulate_s = self.cli_call(
                rec, ["simulate", "w.txt", "ref.json", "--assignment", "solve.json",
                      "--trace", "trace1h.bin"], "sim.json",
            )
            self.check_cli_reports(rec, "ref05")
        return {"cli_solve_s": solve_s, "cli_simulate_s": simulate_s}


class Reference(Bench):
    """The bundled workload and default profile; the search is trivial."""

    profiles = ("ref",)

    def job(self, inputs: Inputs, rec: Recorder) -> dict:
        w, profiles, trace = self.load(rec, inputs)
        p = profiles["ref"]
        a05 = self.solve_instance(rec, "ref05", w, profiles)
        self.solve_instance(rec, "ref01", w, profiles)
        with rec.span("step.baselines"):
            for strategy, fn in (("co", cloud_only), ("eo", edge_only)):
                sol = rec.call(f"baselines.{fn.__name__}", fn, w, p)
                expected = BASELINE_OBJECTIVE[strategy]
                rec.check(
                    f"baseline {strategy} is feasible with objective {expected:.0f} B",
                    sol.feasible and sol.objective_bytes == expected,
                    f"feasible={sol.feasible} objective={sol.objective_bytes}",
                )
        self.replay(rec, "solved", "ref05", w, p, a05, trace)
        self.functions_probe(rec, trace)
        self.save_probe(rec, w, a05)
        return self.cli_steps(rec)

    def cli_steps(self, rec: Recorder) -> dict:
        """The README's command sequence, on files of its own (cli_*). The
        first repetition, every repetition of a traced run and the recheck
        run all of it; other repetitions run only the two timed calls."""
        w, p, tr = "cli_w.txt", "cli_ref.json", "cli_trace1h.bin"
        full = self.traced_run or not self.cli_outputs or rec.trace_id == "recheck"
        with rec.span("step.cli"):
            if full:
                self.cli_call(rec, ["gen-workload"], w)
                self.cli_call(rec, ["validate", w])
                self.cli_call(rec, ["gen-profile", w], p)
            solve_s = self.cli_call(rec, ["solve", w, p, "--delta", "0.05"], "solve.json")
            if full:
                self.cli_call(rec, ["solve", w, p, "--delta", "0.01"], "solve01.json")
                self.cli_call(rec, ["baseline", w, p, "--strategy", "co"], "co.json")
                self.cli_call(rec, ["baseline", w, p, "--strategy", "eo"], "eo.json")
                self.cli_call(rec, ["gen-trace", w, "--duration", "3600",
                                    "--seed", str(self.seed)], tr)
            simulate_s = self.cli_call(
                rec, ["simulate", w, p, "--assignment", "solve.json", "--trace", tr], "sim.json"
            )
            if full:
                self.cli_call(rec, ["compare", "co.json", "solve.json"], "compare.json")
            self.check_cli_reports(rec, "ref05")
        return {"cli_solve_s": solve_s, "cli_simulate_s": simulate_s}


class Contended(Bench):
    """Caps at 0.9x and 0.4x the all-edge usage; the search does the work."""

    profiles = ("ref", "cap90", "cap40")

    def job(self, inputs: Inputs, rec: Recorder) -> dict:
        w, profiles, trace = self.load(rec, inputs)
        a90 = self.solve_instance(rec, "cap90", w, profiles)
        self.solve_instance(rec, "cap40", w, profiles)
        self.replay(rec, "solved", "cap90", w, profiles["cap90"], a90, trace)
        self.functions_probe(rec, trace)
        self.save_probe(rec, w, a90)
        return self.cli_steps(rec)


class Replay(Bench):
    """The trace through the all-cloud, all-edge and contended placements."""

    profiles = ("ref", "cap90")

    def job(self, inputs: Inputs, rec: Recorder) -> dict:
        w, profiles, trace = self.load(rec, inputs)
        p, q = profiles["ref"], profiles["cap90"]
        solved = self.solve_instance(rec, "cap90", w, profiles)
        fractional = sum(1 for op in w.operators if 0.0 < solved.op_gamma(w, op.id) < 1.0)
        rec.check("the solved placement has a fractional operator", fractional > 0,
                  "no operator has 0 < gamma < 1")
        co = rec.call("baselines.cloud_only", cloud_only, w, p).assignment
        eo = rec.call("baselines.edge_only", edge_only, w, p).assignment
        self.replay(rec, "co", "co", w, p, co, trace)
        self.replay(rec, "eo", "eo", w, p, eo, trace)
        self.replay(rec, "solved", "cap90", w, q, solved, trace)
        self.functions_probe(rec, trace)
        self.save_probe(rec, w, solved)
        return self.cli_steps(rec)


BENCHES = {"reference": Reference, "contended": Contended, "replay": Replay}
