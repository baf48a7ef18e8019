"""Reference strategies: full offload and edge-resident."""

from splitstream import (
    FunctionKind,
    check_assignment,
    cloud_only,
    edge_only,
    generate_profile,
    total_objective,
)

from conftest import build_workload, random_instance

F = FunctionKind


def spanning_workload():
    return build_workload(
        [
            (1, (1,), (), F.MEAN, True, 600, 600, 600),
            (2, (2,), (), F.STD, True, 600, 600, 600),
            (3, (1, 2), (), F.COV, True, 600, 600, 600),
            (4, (), (1, 2), F.LAST, False, 600, 600, 600),
        ],
        {1: 1, 2: 2},
    )


def test_cloud_only_offloads_everything():
    w = spanning_workload()
    p = generate_profile(w)
    sol = cloud_only(w, p)
    assert sol.feasible
    for op in w.operators:
        assert sol.assignment.op_gamma(w, op.id) == 1.0
    assert sol.objective_bytes == total_objective(sol.assignment, p, w)
    assert sol.stats["strategy"] == "co"


def test_edge_only_keeps_local_work_on_the_edge():
    w = spanning_workload()
    p = generate_profile(w)
    sol = edge_only(w, p)
    a = sol.assignment
    assert a.op_gamma(w, 1) == 0.0
    assert a.op_gamma(w, 2) == 0.0
    # Sensors span two nodes: both the covariance and the composite are
    # forced to the cloud even under the edge-first policy.
    assert a.op_gamma(w, 3) == 1.0
    assert a.op_gamma(w, 4) == 1.0
    assert sol.stats["strategy"] == "eo"


def test_edge_only_objective_is_smaller_on_reduction_workloads():
    w = build_workload(
        [(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1}
    )
    p = generate_profile(w)
    co, eo = cloud_only(w, p), edge_only(w, p)
    assert eo.objective_bytes < co.objective_bytes


def test_baselines_report_violations_when_infeasible():
    import dataclasses

    w = build_workload([(1, (1,), (), F.MEAN, True, 600, 600, 600)], {1: 1})
    p = dataclasses.replace(generate_profile(w), t_req_s={1: 1e-15})
    sol = cloud_only(w, p)
    assert not sol.feasible
    assert sol.objective_bytes is not None  # still evaluated for comparison
    assert any(v["constraint"] == "C10" for v in sol.stats["violations"])


def test_cloud_only_passes_structural_constraints_randomly():
    for seed in range(25):
        w, p = random_instance(seed + 300)
        sol = cloud_only(w, p)
        structural = {
            v.constraint
            for v in check_assignment(w, p, sol.assignment)
            if v.constraint in {f"C{n}" for n in range(1, 10)}
        }
        assert structural == set()

