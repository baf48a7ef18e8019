"""Command-line surface.

Every command prints a human summary to stdout and, with --out, writes a
machine-readable JSON report. Reports embed a manifest (command, input
digests, configuration, tool version) and contain no wall-clock timestamps,
so equal inputs reproduce byte-identical files. Timing chatter goes to
stderr only.

Exit codes: 0 success, 2 infeasible placement, 1 bad input (a usage error
among it).

Only gen-trace and simulate import the replay engine (and numpy), inside
the commands, so the planning commands start without it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time

import click

from . import __version__
from .baselines import cloud_only, edge_only
from .costs import OBJECTIVE_MODES, Assignment, validate_profile
from .feasibility import check_assignment
from .fileio import (
    COST_MODEL,
    gamma_record,
    load_profile,
    load_trace,
    load_workload,
    parse_gamma,
    parse_json,
    report_bytes,
    save_profile,
    save_report,
    save_trace,
    save_workload,
    sha256_file,
)
from .model import validate_workload
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
    """Write `data` to `out` with `save`; an unwritable path, or data its
    format cannot hold, exits 1."""
    try:
        save(out, data)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror or exc}")
    except ValueError as exc:
        _fail(f"cannot write {out}: {exc}")


def _report(out: str, record: dict) -> None:
    """Write a JSON report to `out` and say so."""
    _save(save_report, out, record)
    click.echo(f"report: {out}")


def _fields(row, *skip: str) -> dict:
    """A replay record's fields but `skip`, its ratio rounded to 12 places."""
    fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(row) if f.name not in skip}
    for name in fields.keys() & {"gamma", "share"}:
        fields[name] = round(fields[name], 12)
    return fields


def _generate_trace(w, duration: float, rate: float, seed: int, *, replay: bool = False):
    """A synthetic trace of `w`'s sensors; bad settings exit 1, and so, for a
    `replay`, does a replay run_sim would refuse, before the trace is built."""
    from .simulator import StreamConfig, check_replay_size, generate_trace, trace_shape

    config = StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=seed)
    try:
        if replay:
            trace_shape(config, w.sensors)
            check_replay_size(w, duration)
        return generate_trace(config, w.sensors)
    except ValueError as exc:
        _fail(str(exc))


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


def _solution_record(manifest: dict, w, sol: Solution) -> dict:
    """A solve or baseline report. Without a cost report (no feasible
    placement) its figures are null and its tables empty."""
    rep = sol.report
    return {
        "manifest": manifest,
        "feasible": sol.feasible,
        "objective_bytes": sol.objective_bytes,
        "latency_sum_s": None if rep is None else rep.latency_sum,
        "gamma": None if rep is None else gamma_record(w, sol.assignment),
        "per_operator": {
            str(i): {
                "gamma": round(cost.gamma, 12),
                "t_edge_s": cost.t_edge,
                "t_trans_s": cost.t_trans,
                "t_wait_s": cost.t_wait,
                "t_cloud_s": cost.t_cloud,
                "t_total_s": cost.t_total,
                "t_req_s": cost.t_req,
                "data_bytes": cost.data_bytes,
            }
            for i, cost in (rep.per_operator.items() if rep else ())
        },
        "per_node": {
            str(k): {"cpu_cycles": u.cpu_cycles, "mem_bytes": u.mem_bytes}
            for k, u in (rep.per_node.items() if rep else ())
        },
        "stats": sol.stats,
    }


def _print_solution(title: str, w, sol: Solution) -> None:
    click.echo(f"{title}: {'feasible' if sol.feasible else 'INFEASIBLE'}")
    if sol.report is None:
        click.echo("no feasible placement on the searched grid")
        return
    click.echo(f"objective: {sol.objective_bytes:.0f} bytes/window-set")
    click.echo(f"latency sum: {sol.report.latency_sum:.6f} s")
    click.echo("  op  gamma    t_total_s      t_req_s  bytes")
    for op in w.operators:
        cost = sol.report.per_operator[op.id]
        treq_text = f"{cost.t_req:.6f}" if cost.t_req is not None else "-"
        click.echo(
            f"  {op.id:>3} {cost.gamma:>6.3f} {cost.t_total:>12.6f} {treq_text:>12} "
            f"{cost.data_bytes:>10.0f}"
        )
    if sol.stats.get("violations"):
        click.echo(f"violations: {sol.stats['violations']}")


def _usage_error(exc: click.UsageError) -> None:
    hint = f" (see '{exc.ctx.command_path} --help')" if exc.ctx else ""
    _fail(" ".join(exc.format_message().split()) + hint)


class _Main(click.Group):
    """The command group. A usage error, such as an unknown option, a bad
    option value or a missing argument, is bad input like any other: it
    exits 1 with one error: line instead of click's usage block and exit 2,
    the code for an infeasible placement."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _usage_error(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _usage_error(exc)


@click.group(cls=_Main, no_args_is_help=False)
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
    w = _load_workload(workload)
    click.echo(
        f"ok: {len(w.operators)} operators, {len(w.sensors)} sensors, "
        f"{len(w.topology.nodes)} nodes"
    )


@main.command("solve")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.argument("profile", type=click.Path(dir_okay=False))
@click.option("--delta", default=0.05, show_default=True, type=float,
              help="Offload ratio grid step.")
@click.option("--time-budget", default=None, type=float,
              help="Optional solve budget in seconds.")
@click.option("--objective-mode", default="paper", show_default=True,
              type=click.Choice(OBJECTIVE_MODES), help="Byte objective form.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write a JSON report here.")
def solve_cmd(workload: str, profile: str, delta: float, time_budget: float | None,
              objective_mode: str, out: str | None) -> None:
    """Search the ratio grid for the cheapest feasible placement."""
    w, p = _load_inputs(workload, profile)
    try:
        cfg = SolverConfig(delta=delta, objective_mode=objective_mode, time_budget_s=time_budget)
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
            "cost_orientation": COST_MODEL,
            "time_budget_s": time_budget,
        },
    )
    _print_solution("solve", w, sol)
    click.echo(f"stats: {json.dumps(sol.stats, sort_keys=True)}")
    if out:
        _report(out, _solution_record(manifest, w, sol))
    sys.exit(EXIT_OK if sol.feasible else EXIT_INFEASIBLE)


@main.command("baseline")
@click.argument("workload", type=click.Path(dir_okay=False))
@click.argument("profile", type=click.Path(dir_okay=False))
@click.option("--strategy", required=True, type=click.Choice(["co", "eo"]),
              help="co = all cloud, eo = edge wherever allowed.")
@click.option("--objective-mode", default="paper", show_default=True,
              type=click.Choice(OBJECTIVE_MODES), help="Byte objective form.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="Write a JSON report here.")
def baseline(workload: str, profile: str, strategy: str,
             objective_mode: str, out: str | None) -> None:
    """Price the all-cloud or all-edge reference placement."""
    w, p = _load_inputs(workload, profile)
    runner = cloud_only if strategy == "co" else edge_only
    sol = runner(w, p, mode=objective_mode)
    manifest = _manifest(
        "baseline",
        {"workload": workload, "profile": profile},
        {
            "strategy": strategy,
            "objective_mode": objective_mode,
            "cost_orientation": COST_MODEL,
        },
    )
    _print_solution(f"baseline {strategy}", w, sol)
    if out:
        _report(out, _solution_record(manifest, w, sol))
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
    trace = _generate_trace(_load_workload(workload), duration, rate, seed)
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
    from .simulator import run_sim

    ctx = click.get_current_context()
    given = [f"--{name}" for name in ("duration", "seed", "rate")
             if ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT]
    if trace_path and given:
        _fail(f"{given[0]} sets the generated trace and cannot be given with --trace")
    w, p = _load_inputs(workload, profile)
    try:
        with open(assignment_path, "r", encoding="utf-8") as fh:
            record = parse_json(fh.read())
        a = Assignment.from_op_gamma(w, parse_gamma(record))
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"assignment {assignment_path}: {exc}")
    violations = check_assignment(w, p, a)
    if violations and not force:
        for v in violations:
            click.echo(f"infeasible: {v.constraint}: {v.detail}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    if trace_path:
        try:
            trace = load_trace(trace_path)
        except (OSError, ValueError) as exc:
            _fail(f"trace {trace_path}: {exc}")
    else:
        trace = _generate_trace(w, duration, rate, seed, replay=True)
    started = time.perf_counter()
    try:
        report = run_sim(w, p, a, trace)
    except ValueError as exc:
        _fail(str(exc))
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
            **_fields(report, "per_op", "per_sensor_raw", "frames"),
            "total_payload_bytes": report.total_payload_bytes,
            "total_wire_bytes": report.total_wire_bytes,
            "t_req_violations": total_viol,
            "per_operator": {
                str(op): _fields(s, "op_id", "int_frames", "res_frames")
                for op, s in sorted(report.per_op.items())
            },
            "per_sensor_raw": {
                str(sid): _fields(r, "sensor_id") for sid, r in sorted(report.per_sensor_raw.items())
            },
        }
        _report(out, record)
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
    first, totals, per_ops = None, [], []  # first: (path, measure) of the first measured
    for path in reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                measure, total, per_op = report_bytes(parse_json(fh.read()))
        except (OSError, ValueError, KeyError) as exc:
            _fail(f"report {path}: {exc}")
        # Figures are set side by side only when they measure the same thing.
        if measure is not None:
            first = first or (path, measure)
            if measure != first[1]:
                _fail(f"cannot compare {first[0]} ({first[1]}) with {path} ({measure})")
        totals.append(total)
        per_ops.append(per_op)
    if totals[0] in (None, 0.0):
        _fail(f"report {reports[0]} carries no byte total to compare against")
    reductions = [
        None if t is None else 100.0 * (1.0 - t / totals[0]) for t in totals
    ]
    if any(r is not None and not math.isfinite(r) for r in reductions):
        _fail(f"the byte totals are too far apart to compare with {reports[0]}")
    click.echo("report                                bytes      vs first")
    for label, total, red in zip(reports, totals, reductions):
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
            "labels": list(reports),
            "total_bytes": totals,
            "reduction_pct_vs_first": reductions,
            "per_operator": per_operator,
        }
        _report(out, record)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
