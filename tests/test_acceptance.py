"""Acceptance suite: one test per shipping criterion.

Each test pins its tolerance and time budget inline. Oracles are computed
in-test (longhand formulas, exhaustive enumeration) rather than trusting the
code under test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from splitstream import (
    Assignment,
    FunctionKind,
    Profile,
    SolverConfig,
    Topology,
    Workload,
    brute_force,
    check_assignment,
    cloud_only,
    cost_report,
    dumps_workload,
    edge_only,
    effective_t_req,
    eval_function,
    generate_profile,
    generate_reference_workload,
    generate_trace,
    le_with_tol,
    merge,
    operator_domain,
    partial_eval,
    propagate_composite_gamma,
    run_sim,
    solve,
    total_objective,
    transitive_sensors,
    windows_in_horizon,
)
from splitstream.cli import main as cli_main
from splitstream.costs import int_res_bytes
from splitstream.functions import SPLITTABLE
from splitstream.model import OperatorSpec
from splitstream.simulator import StreamConfig

from conftest import build_workload, random_instance

F = FunctionKind


# --------------------------------------------------------------------------
# 1. Oracle equivalence: solve == brute_force on 200 random instances.


def test_criterion_1_solver_matches_exhaustive_oracle():
    start = time.monotonic()
    feasible_seen = infeasible_seen = 0
    for seed in range(200):
        w, p = random_instance(seed)
        cfg = SolverConfig(delta=0.25 if seed % 2 == 0 else 0.5)
        got = solve(w, p, cfg)
        want = brute_force(w, p, cfg)
        assert got.feasible == want.feasible, f"seed {seed}: feasibility differs"
        if not want.feasible:
            infeasible_seen += 1
            continue
        feasible_seen += 1
        assert got.objective_bytes == want.objective_bytes, (
            f"seed {seed}: {got.objective_bytes} != {want.objective_bytes}"
        )
        for op in w.operators:
            assert got.assignment.op_gamma(w, op.id) == want.assignment.op_gamma(
                w, op.id
            ), f"seed {seed}: tie-break differs on operator {op.id}"
    elapsed = time.monotonic() - start
    assert feasible_seen > 0 and infeasible_seen > 0  # both regimes exercised
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. Constraint suite: every id individually triggerable, none spurious.


def _bare_profile(w: Workload, **kw) -> Profile:
    nodes = sorted(w.topology.nodes)
    base = dict(
        cpu_edge={}, cpu_cloud={}, cpu_res={}, mem_edge={},
        data_raw={}, data_int={}, data_res={},
        cpu_unit_edge={k: 1e9 for k in nodes}, cpu_unit_cloud=1e9,
        bandwidth={k: 1e6 for k in nodes}, cpu_cap={}, mem_cap={}, t_req_s={},
    )
    base.update(kw)
    return Profile(**base)


def _crafted_cases():
    # C1: splittable ratio outside [0, 1].
    w = build_workload([(1, (1,), (), F.MEAN, True, 4, 4, 4)], {1: 1})
    yield "C1", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 1.5})

    # C2: non-splittable ratio strictly between 0 and 1.
    w = build_workload([(1, (1,), (), F.MEAN, False, 4, 4, 4)], {1: 1})
    yield "C2", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 0.5})

    # C3: an operator has no ratio.
    w = build_workload([(1, (1, 2), (), F.MEAN, True, 4, 4, 4)], {1: 1, 2: 1})
    a = Assignment(gamma={}, gamma_sensor={1: 0.0, 2: 0.0})
    yield "C3", w, _bare_profile(w), a

    # C4: sensor wired to a node outside the topology.
    ops = [OperatorSpec(1, (1,), (), F.MEAN, True, 4.0, 4.0, 4.0)]
    w = Workload.build(ops, Topology(sensor_node={1: 7}, nodes=frozenset({1})))
    p = _bare_profile(w, cpu_unit_edge={1: 1e9, 7: 1e9})
    yield "C4", w, p, Assignment.from_op_gamma(w, {1: 1.0})

    # C5: referenced sensor not wired at all.
    w = build_workload([(1, (9,), (), F.MEAN, True, 4, 4, 4)], {1: 1})
    yield "C5", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 1.0})

    # C6: own sensors span two nodes but the operator is not in the cloud.
    w = build_workload([(1, (1, 2), (), F.MEAN, False, 4, 4, 4)], {1: 1, 2: 2})
    yield "C6", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 0.0})

    # C7: transitive sensors span two nodes but the composite stays local.
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, False, 4, 4, 4),
            (2, (2,), (), F.MEAN, False, 4, 4, 4),
            (3, (), (1, 2), F.LAST, False, 4, 4, 4),
        ],
        {1: 1, 2: 2},
    )
    yield "C7", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 0.0, 2: 0.0, 3: 0.0})

    # C8: fractional dependency but the composite is not in the cloud.
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, True, 4, 4, 4),
            (2, (), (1,), F.LAST, False, 4, 4, 4),
        ],
        {1: 1},
    )
    yield "C8", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 0.5, 2: 0.0})

    # C9: composite ratio differs from the min over dependencies.
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, False, 4, 4, 4),
            (2, (2,), (), F.MEAN, False, 4, 4, 4),
            (3, (), (1, 2), F.LAST, False, 4, 4, 4),
        ],
        {1: 1, 2: 1},
    )
    yield "C9", w, _bare_profile(w), Assignment.from_op_gamma(w, {1: 0.0, 2: 1.0, 3: 1.0})

    # C10: deadline below the achievable latency.
    w = build_workload([(1, (1,), (), F.MEAN, False, 4, 4, 4)], {1: 1})
    p = _bare_profile(w, cpu_cloud={(1, 1): 1e9}, t_req_s={1: 1e-12})
    yield "C10", w, p, Assignment.from_op_gamma(w, {1: 1.0})

    # C11: per-node CPU at/above capacity (strict bound).
    w = build_workload([(1, (1,), (), F.MEAN, False, 4, 4, 4)], {1: 1})
    p = _bare_profile(w, cpu_edge={(1, 1, 1): 100.0}, cpu_cap={1: 100.0})
    yield "C11", w, p, Assignment.from_op_gamma(w, {1: 0.0})

    # C12: per-node memory at/above capacity (strict bound).
    w = build_workload([(1, (1,), (), F.MEAN, False, 4, 4, 4)], {1: 1})
    p = _bare_profile(w, mem_edge={(1, 1, 1): 100.0}, mem_cap={1: 50.0})
    yield "C12", w, p, Assignment.from_op_gamma(w, {1: 0.0})


def test_criterion_2_constraint_suite():
    expected_ids = [f"C{n}" for n in range(1, 13)]
    seen = []
    for want_id, w, p, a in _crafted_cases():
        got = [v.constraint for v in check_assignment(w, p, a)]
        assert got == [want_id], f"{want_id}: checker returned {got}"
        seen.append(want_id)
    assert seen == expected_ids

    # A crafted satisfying assignment yields no violations.
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, True, 4, 4, 4),
            (2, (2,), (), F.STD, False, 4, 4, 4),
            (3, (), (1, 2), F.LAST, False, 4, 4, 4),
        ],
        {1: 1, 2: 1},
    )
    good = Assignment.from_op_gamma(w, {1: 0.0, 2: 0.0, 3: 0.0})
    assert check_assignment(w, _bare_profile(w), good) == []

    # Full offload is structurally clean on 100 random workloads.
    structural = {f"C{n}" for n in range(1, 10)}
    for seed in range(100):
        w, p = random_instance(seed + 10_000)
        sol = cloud_only(w, p)
        bad = [
            v.constraint
            for v in check_assignment(w, p, sol.assignment)
            if v.constraint in structural
        ]
        assert bad == [], f"seed {seed}: cloud-only violates {bad}"


# --------------------------------------------------------------------------
# 3. Cost-model identities on 1000 random draws.


def _oracle_data_volume(w, p, a, i, k):
    """Longhand piecewise per-window volume (raw share, one partial aggregate
    while fractional, one result while fully edge; aggregate terms at home
    nodes only)."""
    op = w.operator(i)
    total = 0.0
    for s in op.sensors:
        if w.topology.sensor_node.get(s) == k:
            total += p.data_raw.get((i, s, k), 0.0) * a.gamma_sensor.get(s, 0.0)
    source = op.sensors if op.sensors else transitive_sensors(w, i)
    homes = {
        w.topology.sensor_node[s] for s in source if s in w.topology.sensor_node
    }
    if k in homes:
        g = a.op_gamma(w, i)
        total += (math.ceil(g) - math.floor(g)) * p.data_int.get(i, 0.0)
        total += math.floor(1.0 - g) * p.data_res.get(i, 0.0)
    return total


def test_criterion_3_cost_model_identities():
    from splitstream import data_volume, node_cpu, node_mem

    draws = 0
    seed = 0
    rng_gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
    import random as _random

    while draws < 1000:
        w, p = random_instance(seed % 300)
        rng = _random.Random(77_000 + seed)
        per_op = {
            op.id: rng.choice(rng_gammas) for op in w.operators if op.atomic
        }
        per_op = propagate_composite_gamma(w, per_op)
        a = Assignment.from_op_gamma(w, per_op)
        rep = cost_report(w, p, a)
        for op in w.operators:
            g = a.op_gamma(w, op.id)
            for k in sorted(w.topology.nodes):
                got = data_volume(op.id, k, a, p, w)
                want = _oracle_data_volume(w, p, a, op.id, k)
                assert got == want, (seed, op.id, k)  # byte arithmetic is exact
                draws += 1

            row = rep.per_operator[op.id]
            total = row.t_edge + row.t_trans + row.t_wait + row.t_cloud
            assert row.t_total == total  # identical fold, bitwise equal
            if op.atomic:
                assert row.t_wait == 0.0
            if g == 1.0:
                assert row.t_edge == 0.0
                for k in sorted(w.topology.nodes):
                    assert node_cpu(op.id, k, a, p, w) == 0.0
                    assert node_mem(op.id, k, a, p, w) == 0.0
            if g == 0.0:
                assert row.t_cloud == 0.0
        seed += 1
    assert draws >= 1000


# --------------------------------------------------------------------------
# 4. Split-merge equivalence for every splittable function.


def test_criterion_4_split_merge_equivalence():
    start = time.monotonic()
    gammas = [round(0.1 * i, 1) for i in range(11)]
    rng = np.random.default_rng(20_240_817)
    funcs = sorted(SPLITTABLE, key=lambda f: f.value)
    assert len(funcs) == 14
    for func in funcs:
        for trial in range(100):
            n = int(rng.integers(2, 140))
            n_channels = 1 + trial % 3
            offset = float(rng.uniform(0.0, 50.0))
            chans, ts = [], []
            for _ in range(n_channels):
                chans.append(rng.normal(loc=3.0, scale=2.0, size=n))
                ts.append(offset + np.arange(n) / 10.0)
            whole = eval_function(func, chans, ts)
            for gamma in gammas:
                cut = round((1.0 - gamma) * n)
                state = partial_eval(
                    func, [c[:cut] for c in chans], [t[:cut] for t in ts]
                )
                merged = merge(
                    func, state, [c[cut:] for c in chans], [t[cut:] for t in ts]
                )
                np.testing.assert_allclose(
                    merged, whole, rtol=1e-9, atol=1e-12,
                    err_msg=f"{func.value} n={n} gamma={gamma}",
                )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 5-7. Reference workload: dominance, simulator cross-check, scale.


@pytest.fixture(scope="module")
def reference_solution():
    w = generate_reference_workload()
    p = generate_profile(w)
    start = time.monotonic()
    sol = solve(w, p, SolverConfig(delta=0.05))
    elapsed = time.monotonic() - start
    return w, p, sol, elapsed


def test_criterion_5_solution_dominates_baselines(reference_solution):
    w, p, sol, _ = reference_solution
    assert sol.feasible
    co = cloud_only(w, p)
    eo = edge_only(w, p)
    assert sol.objective_bytes <= co.objective_bytes
    assert sol.objective_bytes <= eo.objective_bytes
    for op in w.operators:
        t_req = effective_t_req(op, p)
        row = sol.report.per_operator[op.id]
        assert t_req is not None
        assert le_with_tol(row.t_total, t_req), f"operator {op.id} misses deadline"
    reduction = 1.0 - sol.objective_bytes / co.objective_bytes
    assert reduction >= 0.50, f"only {100 * reduction:.1f}% below full offload"


@pytest.fixture(scope="module")
def replayed_placements(reference_solution):
    """Label -> (profile, placement) for criterion 6: the two baselines on
    the reference profile, and the fractional optimum of the contended
    reference (caps at 0.9x the all-edge usage) at delta 0.1 on its own
    profile. The reference's own optimum is the all-edge placement."""
    w, p, _, _ = reference_solution
    p90 = generate_profile(w, headroom=0.9)
    a90 = solve(w, p90, SolverConfig(delta=0.1)).assignment
    assert any(0.0 < g < 1.0 for g in a90.gamma.values())
    return {
        "full-offload": (p, cloud_only(w, p).assignment),
        "edge-resident": (p, edge_only(w, p).assignment),
        "cap90-optimum": (p90, a90),
    }


def test_criterion_6_simulator_matches_analytic_bytes(reference_solution, replayed_placements):
    w = reference_solution[0]
    horizon = 3600.0
    trace = generate_trace(
        StreamConfig(duration_s=horizon, sample_rate_hz=10.0, seed=11),
        sorted(w.topology.sensor_node),
    )
    for label, (p, a) in replayed_placements.items():
        analytic = total_objective(a, p, w, mode="dedup", horizon_s=horizon)
        simulated = run_sim(w, p, a, trace).total_payload_bytes
        assert simulated == analytic, f"{label}: sim {simulated} vs analytic {analytic}"


def test_criterion_6_daily_operators_over_a_day(reference_solution, replayed_placements):
    # The 13 one-day operators close no window in the hour above. Over a day
    # at 1 Hz each closes every window the analytic model counts and uploads
    # exactly its aggregate/result bytes per close.
    w = reference_solution[0]
    horizon = 86_400.0
    trace = generate_trace(
        StreamConfig(duration_s=horizon, sample_rate_hz=1.0, seed=11),
        sorted(w.topology.sensor_node),
    )
    daily = [op for op in w.operators if op.window_s == horizon]
    assert len(daily) == 13
    _, a90 = replayed_placements["cap90-optimum"]
    assert any(0.0 < a90.gamma[op.id] < 1.0 for op in daily)  # the INT path
    for label, (p, a) in replayed_placements.items():
        per_op = run_sim(w, p, a, trace).per_op
        for op in daily:
            closes = windows_in_horizon(op.window_s, op.step_s, horizon)
            assert closes >= 1
            got = per_op[op.id]
            assert got.windows == closes, (label, op.id)
            want = int_res_bytes(a.gamma[op.id], p.data_int[op.id], p.data_res[op.id]) * closes
            assert got.int_payload_bytes + got.res_payload_bytes == want, (label, op.id)


def test_criterion_7_full_catalog_solves_quickly(reference_solution):
    w, p, sol, elapsed = reference_solution
    assert sol.feasible
    assert elapsed < 300.0, f"solve took {elapsed:.1f}s"
    assert sol.stats["nodes_explored"] > 0
    assert set(sol.stats["prunes"]) == {"resource", "bound", "latency"}
    for count in sol.stats["prunes"].values():
        assert count >= 0
    assert sol.stats["clusters"] == 14
    assert sol.stats["grid_points"] == 21


# --------------------------------------------------------------------------
# 8. Determinism: identical commands produce byte-identical reports.


def test_criterion_8_reports_are_byte_identical(tmp_path):
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, True, 5, 5, 5),
            (2, (2,), (), F.COV, True, 5, 5, 5),
        ],
        {1: 1, 2: 1},
    )
    wpath = str(tmp_path / "w.txt")
    open(wpath, "w").write(dumps_workload(w))
    runner = CliRunner()

    result = runner.invoke(cli_main, ["gen-profile", wpath, "--out", str(tmp_path / "p.json")])
    assert result.exit_code == 0
    ppath = str(tmp_path / "p.json")

    def run_twice(args, out_name):
        blobs = []
        for attempt in (1, 2):
            out = str(tmp_path / f"{out_name}-{attempt}.json")
            res = runner.invoke(cli_main, args + ["--out", out])
            assert res.exit_code == 0, res.output
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1], f"{out_name}: reports differ between runs"
        return str(tmp_path / f"{out_name}-1.json")

    solve_report = run_twice(["solve", wpath, ppath, "--delta", "0.25"], "solve")
    run_twice(["baseline", wpath, ppath, "--strategy", "co"], "baseline")
    sim_args = [
        "simulate", wpath, ppath, "--assignment", solve_report,
        "--duration", "10", "--seed", "5",
    ]
    sim_report = run_twice(sim_args, "sim")
    co_report = run_twice(["baseline", wpath, ppath, "--strategy", "eo"], "baseline-eo")
    run_twice(["compare", sim_report, sim_report], "compare")

    # Trace generation is part of the same guarantee.
    t1, t2 = str(tmp_path / "t1.bin"), str(tmp_path / "t2.bin")
    for out in (t1, t2):
        res = runner.invoke(
            cli_main, ["gen-trace", wpath, "--out", out, "--duration", "5", "--seed", "1"]
        )
        assert res.exit_code == 0
    assert open(t1, "rb").read() == open(t2, "rb").read()
