"""Workload structure: validation, ordering, clustering, sensor closures."""

import math
import random

import pytest

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
from splitstream.model import V_CYCLE, V_DANGLING, V_NONPOSITIVE, V_UNWIRED

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
