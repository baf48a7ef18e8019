"""Workload structure: validation, ordering, clustering, sensor closures."""

import ast
import math
import random
from pathlib import Path

import pytest

from splitstream import model
from splitstream import (
    FunctionKind,
    OperatorSpec,
    Topology,
    Workload,
    sensor_clusters,
    topological_order,
    transitive_sensors,
    validate_workload,
)
from splitstream.model import (
    GAMMA_TOL,
    V_CYCLE,
    V_DANGLING,
    V_NONPOSITIVE,
    V_UNWIRED,
    ratio_in_range,
)

from conftest import build_workload, random_workload

F = FunctionKind


def chain_workload():
    return build_workload(
        [
            (1, (1,), (), F.MEAN, True, 4, 4, 4),
            (2, (2,), (), F.STD, True, 4, 4, 4),
            (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            (4, (3,), (3,), F.MEAN, True, 4, 4, 4),
        ],
        {1: 1, 2: 1, 3: 2},
    )


def test_validate_ok_on_well_formed():
    assert validate_workload(chain_workload()).ok


def test_topological_order_puts_dependencies_first():
    w = chain_workload()
    order = topological_order(w)
    assert sorted(order) == [1, 2, 3, 4]
    pos = {i: n for n, i in enumerate(order)}
    for op in w.operators:
        for d in op.deps:
            assert pos[d] < pos[op.id]


def test_topological_order_random_workloads():
    for seed in range(30):
        w = random_workload(random.Random(seed))
        pos = {i: n for n, i in enumerate(topological_order(w))}
        assert len(pos) == len(w.operators)
        for op in w.operators:
            for d in op.deps:
                assert pos[d] < pos[op.id]


def test_duplicate_operator_id_flagged():
    ops = [
        OperatorSpec(1, (1,), (), F.MEAN, True, 4, 4, 4),
        OperatorSpec(1, (1,), (), F.MAX, False, 4, 4, 4),
    ]
    w = Workload.build(ops, Topology.build({1: 1}))
    report = validate_workload(w)
    assert not report.ok
    assert any(v.category == V_DANGLING for v in report.violations)


def test_repeated_sensor_and_dep_flagged():
    # Listed twice, a sensor or dep would be priced twice by the cost model.
    w = build_workload(
        [(1, (1, 1), (), F.MEAN, True, 60, 60, 60), (2, (), (1, 1), F.LAST, False, 60, 60, 60)],
        {1: 1},
    )
    assert [(v.category, v.subject, v.detail) for v in validate_workload(w).violations] == [
        (V_DANGLING, 1, "op 1 lists sensor 1 more than once"),
        (V_DANGLING, 2, "op 2 lists dep 1 more than once"),
    ]


def test_dangling_dependency_flagged():
    w = build_workload([(1, (1,), (9,), F.MEAN, True, 4, 4, 4)], {1: 1})
    cats = {v.category for v in validate_workload(w).violations}
    assert V_DANGLING in cats


def test_unwired_sensor_flagged():
    w = build_workload([(1, (7,), (), F.MEAN, True, 4, 4, 4)], {1: 1})
    cats = {v.category for v in validate_workload(w).violations}
    assert V_UNWIRED in cats


def test_nonpositive_durations_flagged():
    w = build_workload([(1, (1,), (), F.MEAN, True, 0, 4, 4)], {1: 1})
    cats = {v.category for v in validate_workload(w).violations}
    assert V_NONPOSITIVE in cats
    w = build_workload([(1, (1,), (), F.MEAN, True, 4, -1, 4)], {1: 1})
    assert V_NONPOSITIVE in {v.category for v in validate_workload(w).violations}
    w = build_workload([(1, (1,), (), F.MEAN, True, 4, 4, 4, -2.0)], {1: 1})
    assert V_NONPOSITIVE in {v.category for v in validate_workload(w).violations}
    # Non-finite window, step, frequency and deadline values.
    for field in (5, 6, 7, 8):
        for value in (math.nan, math.inf, -math.inf):
            row = [1, (1,), (), F.MEAN, True, 4, 4, 4, 2.0]
            row[field] = value
            report = validate_workload(build_workload([tuple(row)], {1: 1}))
            assert [v.category for v in report.violations] == [V_NONPOSITIVE], (field, value)


def test_dependency_cycle_flagged():
    w = build_workload(
        [
            (1, (1,), (2,), F.MEAN, True, 4, 4, 4),
            (2, (1,), (1,), F.MEAN, True, 4, 4, 4),
        ],
        {1: 1},
    )
    cats = {v.category for v in validate_workload(w).violations}
    assert V_CYCLE in cats


@pytest.mark.parametrize(
    "deps, needle",
    [(((9,), ()), "operator 1 depends on unknown operator 9"),
     (((2,), (1,)), "dependency cycle involving operators [1, 2]")],
    ids=["unknown-dep", "cycle"],
)
def test_topological_order_refuses_an_unordered_graph(deps, needle):
    w = build_workload(
        [(1, (1,), deps[0], F.MEAN, True, 4, 4, 4), (2, (1,), deps[1], F.MEAN, True, 4, 4, 4)],
        {1: 1},
    )
    with pytest.raises(ValueError) as err:
        topological_order(w)
    assert str(err.value) == needle


def test_a_long_chain_declared_backwards_validates():
    # Each operator is declared before the one it depends on, so the cycle
    # search walks the whole chain in one descent.
    n = 3000
    w = build_workload(
        [(i, (1,) if i == 1 else (), (i - 1,) if i > 1 else (), F.MEAN, True, 4, 4, 4)
         for i in range(n, 0, -1)],
        {1: 1},
    )
    assert validate_workload(w).ok


def test_a_long_cycle_is_reported_once():
    n = 3000
    w = build_workload(
        [(i, (1,), (i - 1 if i > 1 else n,), F.MEAN, True, 4, 4, 4) for i in range(n, 0, -1)],
        {1: 1},
    )
    violations = validate_workload(w).violations
    assert [(v.category, v.subject) for v in violations] == [(V_CYCLE, 1)]
    assert violations[0].detail == "cycle through " + ",".join(map(str, range(1, n + 1)))


def test_unknown_operator_lookup_raises():
    w = chain_workload()
    with pytest.raises(KeyError):
        w.operator(99)


def test_transitive_sensors_walks_dependencies():
    w = chain_workload()
    assert transitive_sensors(w, 1) == frozenset({1})
    assert transitive_sensors(w, 3) == frozenset({1, 2})
    assert transitive_sensors(w, 4) == frozenset({1, 2, 3})


def test_sensor_clusters_split_disjoint_groups():
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, True, 4, 4, 4),
            (2, (2,), (), F.MEAN, True, 4, 4, 4),
        ],
        {1: 1, 2: 2},
    )
    clusters = sensor_clusters(w)
    assert sorted(tuple(sorted(c)) for c in clusters) == [(1,), (2,)]


def test_sensor_clusters_merge_on_shared_sensor_and_deps():
    w = build_workload(
        [
            (1, (1,), (), F.MEAN, True, 4, 4, 4),
            (2, (1, 2), (), F.STD, True, 4, 4, 4),
            (3, (3,), (), F.MAX, False, 4, 4, 4),
            (4, (), (3,), F.LAST, False, 4, 4, 4),
        ],
        {1: 1, 2: 1, 3: 2},
    )
    clusters = {tuple(sorted(c)) for c in sensor_clusters(w)}
    assert clusters == {(1, 2), (3, 4)}


def test_sensor_clusters_cover_every_operator():
    for seed in range(30):
        w = random_workload(random.Random(seed))
        seen = [i for c in sensor_clusters(w) for i in c]
        assert sorted(seen) == sorted(op.id for op in w.operators)


@pytest.mark.parametrize(
    "g, ok",
    [
        (-GAMMA_TOL, True), (0.0, True), (0.5, True), (1.0 + GAMMA_TOL, True),
        (math.nextafter(-GAMMA_TOL, -1.0), False), (math.nextafter(1.0 + GAMMA_TOL, 2.0), False),
        (-0.5, False), (1.5, False), (math.nan, False), (math.inf, False), (-math.inf, False),
    ],
)
def test_ratio_range_is_closed_within_the_tolerance(g, ok):
    assert ratio_in_range(g) is ok


def test_only_may_split_and_the_workload_writer_read_the_iterative_flag():
    # Whether the planner may split an operator is one rule,
    # OperatorSpec.may_split; the writer keeps the flag as declared. A
    # module reading `.iterative` anywhere else is a second rule.
    reads = set()
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node.name if isinstance(node, ast.FunctionDef) else owner.get(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "iterative":
                reads.add((path.name, owner.get(node)))
    assert reads == {("fileio.py", "dumps_workload"), ("model.py", "may_split")}
