"""Command-line surface.

Every command prints a human summary to stdout and, with --out, writes a
machine-readable JSON report. Reports embed a manifest (command, input
digests, configuration, tool version) and contain no wall-clock timestamps,
so equal inputs reproduce byte-identical files. Timing chatter goes to
stderr only.

Exit codes: 0 success, 2 infeasible placement, 1 bad input.

Only gen-trace and simulate import the replay engine (and numpy), inside
the commands, so the planning commands start without it.
"""

from __future__ import annotations

import json
import math
import sys
import time

import click

from . import __version__
from .baselines import cloud_only, edge_only
from .costs import Assignment, effective_t_req, validate_profile
from .feasibility import check_assignment
from .fileio import (
    gamma_record,
    load_profile,
    load_trace,
    load_workload,
    parse_gamma,
    recorded_orientation,
    report_bytes,
    save_profile,
    save_report,
    save_trace,
    save_workload,
    sha256_file,
    unique_keys,
)
from .model import fold_sum, validate_workload
from .reference import (
    REFERENCE_BANDWIDTH_BPS,
    REFERENCE_SAMPLE_RATE_HZ,
    generate_profile,
    generate_reference_workload,
)
from .solver import Solution, SolverConfig, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _save(save, out: str, data) -> None:
    """Write `data` to `out` with `save`; an unwritable path exits 1."""
    try:
        save(out, data)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror or exc}")


def _load_workload(path: str):
    try:
        w = load_workload(path)
    except (OSError, ValueError) as exc:
        _fail(f"workload {path}: {exc}")
    report = validate_workload(w)
    if not report.ok:
        for v in report.violations:
            click.echo(f"error: {v.category}: {v.detail}", err=True)
        sys.exit(EXIT_INPUT)
    return w


def _load_inputs(workload: str, profile: str):
    """The workload and a profile that covers it; exits 1 on a gap."""
    w = _load_workload(workload)
    try:
        p = load_profile(profile)
        validate_profile(w, p)
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"profile {profile}: {exc}")
    return w, p


def _manifest(command: str, inputs: dict[str, str], config: dict) -> dict:
    return {
        "command": command,
        "tool": "splitstream",
        "version": __version__,
        "inputs": {
            name: {"path": path, "sha256": sha256_file(path)}
            for name, path in inputs.items()
        },
        "config": config,
    }


def _solution_record(manifest: dict, w, p, sol: Solution) -> dict:
    if sol.report is None:
        return {
            "manifest": manifest,
            "feasible": sol.feasible,
            "objective_bytes": None,
            "latency_sum_s": None,
            "gamma": None,
            "per_operator": {},
            "per_node": {},
            "stats": sol.stats,
        }
    per_operator = {}
    for op in w.operators:
        cost = sol.report.per_operator[op.id]
        per_operator[str(op.id)] = {
            "gamma": round(cost.gamma, 12),
            "t_edge_s": cost.t_edge,
            "t_trans_s": cost.t_trans,
            "t_wait_s": cost.t_wait,
            "t_cloud_s": cost.t_cloud,
            "t_total_s": cost.t_total,
            "t_req_s": effective_t_req(op, p),
            "data_bytes": fold_sum(cost.data_bytes_by_node.values()),
        }
    return {
        "manifest": manifest,
        "feasible": sol.feasible,
        "objective_bytes": sol.objective_bytes,
        "latency_sum_s": sol.report.latency_sum,
        "gamma": gamma_record(w, sol.assignment),
        "per_operator": per_operator,
        "per_node": {
            str(k): {"cpu_cycles": u.cpu_cycles, "mem_bytes": u.mem_bytes}
            for k, u in sol.report.per_node.items()
        },
        "stats": sol.stats,
    }


def _print_solution(title: str, w, p, sol: Solution) -> None:
    click.echo(f"{title}: {'feasible' if sol.feasible else 'INFEASIBLE'}")
    if sol.report is None:
        click.echo("no feasible placement on the searched grid")
        return
    click.echo(f"objective: {sol.objective_bytes:.0f} bytes/window-set")
    click.echo(f"latency sum: {sol.report.latency_sum:.6f} s")
    click.echo("  op  gamma    t_total_s      t_req_s  bytes")
    for op in w.operators:
        cost = sol.report.per_operator[op.id]
        treq = effective_t_req(op, p)
        treq_text = f"{treq:.6f}" if treq is not None else "-"
        click.echo(
            f"  {op.id:>3} {cost.gamma:>6.3f} {cost.t_total:>12.6f} {treq_text:>12} "
            f"{fold_sum(cost.data_bytes_by_node.values()):>10.0f}"
        )
    if sol.stats.get("violations"):
        click.echo(f"violations: {sol.stats['violations']}")


@click.group()
@click.version_option(version=__version__, prog_name="splitstream")
def main() -> None:
    """Edge-cloud stream operator placement toolkit."""


@main.command("gen-workload")
@click.option("--out", default="workload.txt", show_default=True, help="Output path.")
def gen_workload(out: str) -> None:
    """Write the bundled 63-operator reference workload."""
    w = generate_reference_workload()
    _save(save_workload, out, w)
    click.echo(
        f"wrote {out}: {len(w.operators)} operators, {len(w.sensors)} sensors, "
        f"{len(w.topology.nodes)} nodes"
    )


@main.command("gen-profile")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.option("--out", default="profile.json", show_default=True, help="Output path.")
@click.option("--bandwidth", default=REFERENCE_BANDWIDTH_BPS, show_default=True,
              type=float, help="Uplink bytes/s per node.")
@click.option("--rate", default=REFERENCE_SAMPLE_RATE_HZ, show_default=True,
              type=float, help="Sensor sample rate used for sizing, Hz.")
@click.option("--treq-slack", default=0.10, show_default=True, type=float,
              help="Deadline slack over the all-cloud latency estimate.")
@click.option("--headroom", default=2.0, show_default=True, type=float,
              help="Node capacity headroom over the all-edge usage.")
@click.option("--cloud-speedup", default=1.0, show_default=True, type=float,
              help="Cloud clock multiplier.")
def gen_profile(workload: str, out: str, bandwidth: float, rate: float,
                treq_slack: float, headroom: float, cloud_speedup: float) -> None:
    """Synthesize a cost profile for WORKLOAD."""
    w = _load_workload(workload)
    try:
        p = generate_profile(
            w,
            sample_rate_hz=rate,
            bandwidth_bps=bandwidth,
            treq_slack=treq_slack,
            headroom=headroom,
            cloud_speedup=cloud_speedup,
        )
    except (ValueError, KeyError) as exc:
        _fail(str(exc))
    _save(save_profile, out, p)
    click.echo(f"wrote {out}: {len(p.cpu_edge)} operator-sensor rows")


@main.command("validate")
@click.argument("workload", type=click.Path(dir_okay=False))
def validate(workload: str) -> None:
    """Check WORKLOAD for structural problems."""
    try:
        w = load_workload(workload)
    except (OSError, ValueError) as exc:
        _fail(f"workload {workload}: {exc}")
    report = validate_workload(w)
    if report.ok:
        click.echo(
            f"ok: {len(w.operators)} operators, {len(w.sensors)} sensors, "
            f"{len(w.topology.nodes)} nodes"
        )
        return
    for v in report.violations:
        click.echo(f"{v.category}: {v.detail}")
    sys.exit(EXIT_INPUT)


_SOLVE_OPTIONS = (
    click.option("--objective-mode", default="paper", show_default=True,
                 type=click.Choice(["paper", "dedup"]), help="Byte objective form."),
    click.option("--cost-orientation", default="corrected", show_default=True,
                 type=click.Choice(["corrected", "literal"]),
                 help="Edge/cloud share orientation in the cost model."),
    click.option("--out", default=None, type=click.Path(dir_okay=False),
                 help="Write a JSON report here."),
)


def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@main.command("solve")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.argument("profile", type=click.Path(dir_okay=False))
@click.option("--delta", default=0.05, show_default=True, type=float,
              help="Offload ratio grid step.")
@click.option("--time-budget", default=None, type=float,
              help="Optional solve budget in seconds.")
@_with_options(_SOLVE_OPTIONS)
def solve_cmd(workload: str, profile: str, delta: float, time_budget: float | None,
              objective_mode: str, cost_orientation: str, out: str | None) -> None:
    """Search the ratio grid for the cheapest feasible placement."""
    w, p = _load_inputs(workload, profile)
    try:
        cfg = SolverConfig(
            delta=delta,
            objective_mode=objective_mode,
            cost_orientation=cost_orientation,
            time_budget_s=time_budget,
        )
    except ValueError as exc:
        _fail(str(exc))
    started = time.perf_counter()
    sol = solve(w, p, cfg)
    click.echo(f"solved in {time.perf_counter() - started:.2f}s", err=True)
    if sol.budget_exceeded:
        click.echo(f"warning: the {time_budget} s time budget ran out; the clusters it cut "
                   "fall back to full offload", err=True)
    manifest = _manifest(
        "solve",
        {"workload": workload, "profile": profile},
        {
            "delta": delta,
            "objective_mode": objective_mode,
            "cost_orientation": cost_orientation,
            "time_budget_s": time_budget,
        },
    )
    _print_solution("solve", w, p, sol)
    click.echo(f"stats: {json.dumps(sol.stats, sort_keys=True)}")
    if out:
        _save(save_report, out, _solution_record(manifest, w, p, sol))
        click.echo(f"report: {out}")
    sys.exit(EXIT_OK if sol.feasible else EXIT_INFEASIBLE)


@main.command("baseline")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.argument("profile", type=click.Path(dir_okay=False))
@click.option("--strategy", required=True, type=click.Choice(["co", "eo"]),
              help="co = all cloud, eo = edge wherever allowed.")
@_with_options(_SOLVE_OPTIONS)
def baseline(workload: str, profile: str, strategy: str,
             objective_mode: str, cost_orientation: str, out: str | None) -> None:
    """Price the all-cloud or all-edge reference placement."""
    w, p = _load_inputs(workload, profile)
    runner = cloud_only if strategy == "co" else edge_only
    sol = runner(w, p, mode=objective_mode, orientation=cost_orientation)
    manifest = _manifest(
        "baseline",
        {"workload": workload, "profile": profile},
        {
            "strategy": strategy,
            "objective_mode": objective_mode,
            "cost_orientation": cost_orientation,
        },
    )
    _print_solution(f"baseline {strategy}", w, p, sol)
    if out:
        _save(save_report, out, _solution_record(manifest, w, p, sol))
        click.echo(f"report: {out}")
    sys.exit(EXIT_OK if sol.feasible else EXIT_INFEASIBLE)


@main.command("gen-trace")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.option("--out", default="trace.bin", show_default=True, help="Output path.")
@click.option("--duration", default=600.0, show_default=True, type=float,
              help="Trace length in seconds.")
@click.option("--rate", default=REFERENCE_SAMPLE_RATE_HZ, show_default=True,
              type=float, help="Sample rate, Hz.")
@click.option("--seed", default=0, show_default=True, type=int, help="Trace seed.")
def gen_trace(workload: str, out: str, duration: float, rate: float, seed: int) -> None:
    """Generate a synthetic trace covering WORKLOAD's sensors."""
    from .simulator import StreamConfig, generate_trace

    w = _load_workload(workload)
    cfg = StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=seed)
    try:
        trace = generate_trace(cfg, w.sensors)
    except ValueError as exc:
        _fail(str(exc))
    _save(save_trace, out, trace)
    click.echo(f"wrote {out}: {len(trace.samples)} sensors x {duration}s @ {rate}Hz")


@main.command("simulate")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.argument("profile", type=click.Path(dir_okay=False))
@click.option("--assignment", "assignment_path", required=True,
              type=click.Path(dir_okay=False),
              help="JSON file with a per-operator gamma map (solve report works).")
@click.option("--trace", "trace_path", default=None,
              type=click.Path(dir_okay=False),
              help="Binary trace file; omitted -> generate one.")
@click.option("--duration", default=600.0, show_default=True, type=float,
              help="Simulated seconds when generating the trace.")
@click.option("--seed", default=0, show_default=True, type=int, help="Trace seed.")
@click.option("--rate", default=REFERENCE_SAMPLE_RATE_HZ, show_default=True,
              type=float, help="Sample rate when generating the trace, Hz.")
@click.option("--force", is_flag=True, help="Run even if the placement is infeasible.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write a JSON report here.")
def simulate(workload: str, profile: str, assignment_path: str,
             trace_path: str | None, duration: float, seed: int, rate: float,
             force: bool, out: str | None) -> None:
    """Replay a trace through a placed workload and count every byte."""
    from .simulator import StreamConfig, generate_trace, run_sim

    w, p = _load_inputs(workload, profile)
    try:
        with open(assignment_path, "r", encoding="utf-8") as fh:
            record = json.load(fh, object_pairs_hook=unique_keys)
        a = Assignment.from_op_gamma(w, parse_gamma(record))
        orientation = recorded_orientation(record)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(f"assignment {assignment_path}: {exc}")
    # A placement is feasible or not in the orientation it was solved in.
    violations = check_assignment(w, p, a, orientation)
    if violations and not force:
        for v in violations:
            click.echo(f"infeasible: {v.constraint}: {v.detail}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    if trace_path:
        try:
            trace = load_trace(trace_path)
        except (OSError, ValueError) as exc:
            _fail(f"trace {trace_path}: {exc}")
        missing = sorted(set(w.sensors) - set(trace.samples))
        if missing:
            _fail(f"trace {trace_path}: no samples for workload sensors {missing}")
    else:
        cfg = StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=seed)
        try:
            trace = generate_trace(cfg, w.sensors)
        except ValueError as exc:
            _fail(str(exc))
    started = time.perf_counter()
    report = run_sim(w, p, a, trace)
    click.echo(f"simulated in {time.perf_counter() - started:.2f}s", err=True)

    click.echo(
        f"simulate: {trace.duration_s}s @ {trace.sample_rate_hz}Hz, "
        f"payload {report.total_payload_bytes} B, wire {report.total_wire_bytes} B"
    )
    click.echo(
        f"raw/int/res payload: {report.raw_payload_bytes} / "
        f"{report.int_payload_bytes} / {report.res_payload_bytes} B"
    )
    total_viol = sum(s.t_req_violations for s in report.per_op.values())
    click.echo(f"deadline violations: {total_viol}")
    for message in report.warnings:
        click.echo(f"warning: {message}", err=True)

    if out:
        manifest = _manifest(
            "simulate",
            {
                "workload": workload,
                "profile": profile,
                "assignment": assignment_path,
                **({"trace": trace_path} if trace_path else {}),
            },
            {
                "duration_s": trace.duration_s,
                "sample_rate_hz": trace.sample_rate_hz,
                "seed": None if trace_path else seed,
            },
        )
        record = {
            "manifest": manifest,
            "duration_s": trace.duration_s,
            "sample_rate_hz": trace.sample_rate_hz,
            "total_payload_bytes": report.total_payload_bytes,
            "total_wire_bytes": report.total_wire_bytes,
            "raw_payload_bytes": report.raw_payload_bytes,
            "raw_wire_bytes": report.raw_wire_bytes,
            "int_payload_bytes": report.int_payload_bytes,
            "int_wire_bytes": report.int_wire_bytes,
            "res_payload_bytes": report.res_payload_bytes,
            "res_wire_bytes": report.res_wire_bytes,
            "t_req_violations": total_viol,
            "per_operator": {
                str(op): {
                    "gamma": round(s.gamma, 12),
                    "windows": s.windows,
                    "emissions": s.emissions,
                    "int_payload_bytes": s.int_payload_bytes,
                    "res_payload_bytes": s.res_payload_bytes,
                    "latency_mean_s": s.latency_mean_s,
                    "latency_p50_s": s.latency_p50_s,
                    "latency_p95_s": s.latency_p95_s,
                    "latency_max_s": s.latency_max_s,
                    "t_req_s": s.t_req_s,
                    "t_req_violations": s.t_req_violations,
                }
                for op, s in sorted(report.per_op.items())
            },
            "per_sensor_raw": {
                str(sid): {
                    "node": r.node,
                    "share": round(r.share, 12),
                    "samples_sent": r.samples_sent,
                    "frames": r.frames,
                    "payload_bytes": r.payload_bytes,
                    "wire_bytes": r.wire_bytes,
                }
                for sid, r in sorted(report.per_sensor_raw.items())
            },
            "warnings": report.warnings,
        }
        _save(save_report, out, record)
        click.echo(f"report: {out}")
    sys.exit(EXIT_OK)


@main.command("compare")
@click.argument("reports", nargs=-1, required=True,
                type=click.Path(dir_okay=False))
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write a JSON comparison here.")
def compare(reports: tuple[str, ...], out: str | None) -> None:
    """Compare report files; percentages are relative to the first one."""
    if len(reports) < 2:
        _fail("need at least two reports to compare")
    records, kinds, totals, per_ops = [], set(), [], []
    for path in reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                records.append(json.load(fh, object_pairs_hook=unique_keys))
            command, total, per_op = report_bytes(records[-1])
        except (OSError, ValueError, KeyError) as exc:
            _fail(f"report {path}: {exc}")
        kinds.add(command)
        totals.append(total)
        per_ops.append(per_op)
    # A solve or baseline objective is bytes per window set; a simulate
    # total is bytes over the whole trace.
    if kinds & {"solve", "baseline"} and "simulate" in kinds:
        _fail("cannot compare solve or baseline reports (bytes per window set) "
              "with simulate reports (bytes over the trace)")
    durations = [r["duration_s"] for r in records if "duration_s" in r]
    others = [d for d in durations if d != durations[0]]
    if others:
        _fail(f"cannot compare simulate reports over traces of {durations[0]} s "
              f"and {others[0]} s")
    labels = list(reports)
    if totals[0] in (None, 0.0):
        _fail(f"report {reports[0]} carries no byte total to compare against")
    reductions = [
        None if t is None else 100.0 * (1.0 - t / totals[0]) for t in totals
    ]
    if any(r is not None and not math.isfinite(r) for r in reductions):
        _fail(f"the byte totals are too far apart to compare with {reports[0]}")
    click.echo("report                                bytes      vs first")
    for label, total, red in zip(labels, totals, reductions):
        total_text = f"{total:.0f}" if total is not None else "-"
        red_text = f"{red:+.2f}%" if red is not None else "-"
        click.echo(f"{label:<36} {total_text:>12} {red_text:>12}")

    all_ops = sorted({op for per_op in per_ops for op in per_op}, key=int)
    per_operator = {op: {"bytes": [per_op.get(op) for per_op in per_ops]} for op in all_ops}

    if out:
        record = {
            "manifest": _manifest(
                "compare", {f"report_{i}": p for i, p in enumerate(reports)}, {}
            ),
            "labels": labels,
            "total_bytes": totals,
            "reduction_pct_vs_first": reductions,
            "per_operator": per_operator,
        }
        _save(save_report, out, record)
        click.echo(f"report: {out}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
