"""Assignment checking: one crafted violation per constraint id, satisfying
counterparts, and the propagation rules the solver leans on."""

import math
import random

import pytest

from splitstream import (
    Assignment,
    FunctionKind,
    Profile,
    Topology,
    Workload,
    check_assignment,
    forced_cloud,
    gamma_grid,
    operator_domain,
    propagate_composite_gamma,
)
from splitstream.model import SPLITTABLE, OperatorSpec

from conftest import build_workload, random_instance

F = FunctionKind


def bare_profile(w, **kw):
    nodes = sorted(w.topology.nodes)
    base = dict(
        cpu_edge={},
        cpu_cloud={},
        cpu_res={},
        mem_edge={},
        data_raw={},
        data_int={},
        data_res={},
        cpu_unit_edge={k: 1e9 for k in nodes},
        cpu_unit_cloud=1e9,
        bandwidth={k: 1e6 for k in nodes},
        cpu_cap={},
        mem_cap={},
        t_req_s={},
    )
    base.update(kw)
    return Profile(**base)


def ids(violations):
    return [v.constraint for v in violations]


def one_op(iterative=True, sensors=(1,), wiring={1: 1}):
    return build_workload([(1, sensors, (), F.MEAN, iterative, 4, 4, 4)], wiring)


class TestEachConstraint:
    def test_c1_fractional_ratio_out_of_range(self):
        w = one_op(iterative=True)
        a = Assignment.from_op_gamma(w, {1: 1.5})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C1"]

    def test_c2_non_splittable_ratio_not_binary(self):
        w = one_op(iterative=False)
        a = Assignment.from_op_gamma(w, {1: 0.5})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C2"]

    @pytest.mark.parametrize("iterative", [True, False])
    @pytest.mark.parametrize("func", list(F))
    def test_the_search_and_the_checks_read_one_split_rule(self, func, iterative):
        # An operator may split when the workload declares it iterative and
        # its function has a partial form: the grid is its domain and 0.5
        # passes C2 then, and only then.
        w = build_workload([(1, (1,), (), func, iterative, 4, 4, 4)], {1: 1})
        op = w.operator(1)
        assert op.may_split == (iterative and func in SPLITTABLE)
        grid = gamma_grid(0.25)
        assert operator_domain(w, 1, grid) == (grid if op.may_split else (0.0, 1.0))
        a = Assignment.from_op_gamma(w, {1: 0.5})
        assert ids(check_assignment(w, bare_profile(w), a)) == ([] if op.may_split else ["C2"])

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("iterative, want", [(True, "C1"), (False, "C2")])
    def test_non_finite_ratio_is_out_of_range(self, g, iterative, want):
        # C10 to C12 cannot price it, so they are skipped.
        w = one_op(iterative=iterative)
        a = Assignment.from_op_gamma(w, {1: g})
        assert ids(check_assignment(w, bare_profile(w), a)) == [want]

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_on_random_instances(self, g):
        # Composites and deadlines included: every operator, set to g in
        # turn, gets its C1 or C2 without raising.
        for seed in range(60):
            w, p = random_instance(seed)
            base = propagate_composite_gamma(w, {op.id: 1.0 for op in w.operators if op.atomic})
            for op in w.operators:
                a = Assignment.from_op_gamma(w, {**base, op.id: g})
                want = ("C1" if op.may_split else "C2", op.id)
                assert want in {(v.constraint, v.op) for v in check_assignment(w, p, a)}

    def test_c3_every_operator_needs_a_ratio(self):
        w = one_op(sensors=(1, 2), wiring={1: 1, 2: 1})
        a = Assignment(gamma={}, gamma_sensor={1: 0.0, 2: 0.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C3"]

    def test_c4_sensor_wired_to_unknown_node(self):
        ops = [OperatorSpec(1, (1,), (), F.MEAN, True, 4.0, 4.0, 4.0)]
        topo = Topology(sensor_node={1: 7}, nodes=frozenset({1}))
        w = Workload.build(ops, topo)
        p = bare_profile(w, cpu_unit_edge={1: 1e9, 7: 1e9})
        a = Assignment.from_op_gamma(w, {1: 1.0})
        assert ids(check_assignment(w, p, a)) == ["C4"]

    def test_c5_referenced_sensor_not_wired(self):
        w = build_workload([(1, (9,), (), F.MEAN, True, 4, 4, 4)], {1: 1})
        a = Assignment.from_op_gamma(w, {1: 1.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C5"]

    def test_c6_own_sensor_span_requires_cloud(self):
        w = one_op(iterative=False, sensors=(1, 2), wiring={1: 1, 2: 2})
        a = Assignment.from_op_gamma(w, {1: 0.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C6"]

    def test_c7_transitive_span_requires_cloud(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 4, 4, 4),
                (2, (2,), (), F.MEAN, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 2},
        )
        a = Assignment.from_op_gamma(w, {1: 0.0, 2: 0.0, 3: 0.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C7"]

    @pytest.mark.parametrize(
        "wiring, g3, want",
        [
            ({1: 1, 2: 1}, 0.0, [("C3", 1)]),
            ({1: 1, 2: 1}, 1.0, [("C3", 1)]),
            ({1: 1, 2: 2}, 0.0, [("C3", 1), ("C7", 3)]),
            ({1: 1, 2: 2}, 1.0, [("C3", 1)]),
        ],
        ids=["one-node-at-0", "one-node-at-1", "two-nodes-at-0", "two-nodes-at-1"],
    )
    def test_a_composite_over_a_dependency_without_a_ratio(self, wiring, g3, want):
        # An unforced composite has no min over its deps to compare with, so
        # only C3 is reported; a forced one must be at 1 whatever its deps.
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 4, 4, 4),
                (2, (2,), (), F.MEAN, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            wiring,
        )
        a = Assignment(gamma={2: 0.0, 3: g3}, gamma_sensor={1: 0.0, 2: 0.0})
        found = [(v.constraint, v.op) for v in check_assignment(w, bare_profile(w), a)]
        assert found == want

    def test_c8_fractional_dependency_requires_cloud(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 4, 4, 4),
                (2, (), (1,), F.LAST, False, 4, 4, 4),
            ],
            {1: 1},
        )
        a = Assignment.from_op_gamma(w, {1: 0.5, 2: 0.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C8"]

    def test_c9_composite_ratio_is_min_over_deps(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 4, 4, 4),
                (2, (2,), (), F.MEAN, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 1},
        )
        a = Assignment.from_op_gamma(w, {1: 0.0, 2: 1.0, 3: 1.0})
        assert ids(check_assignment(w, bare_profile(w), a)) == ["C9"]

    def test_c10_deadline_missed(self):
        w = one_op(iterative=False)
        p = bare_profile(w, cpu_cloud={(1, 1): 1e9}, t_req_s={1: 1e-12})
        a = Assignment.from_op_gamma(w, {1: 1.0})
        assert ids(check_assignment(w, p, a)) == ["C10"]

    def test_c11_cpu_capacity_is_strict(self):
        w = one_op(iterative=False)
        a = Assignment.from_op_gamma(w, {1: 0.0})
        p = bare_profile(w, cpu_edge={(1, 1, 1): 100.0}, cpu_cap={1: 50.0})
        assert ids(check_assignment(w, p, a)) == ["C11"]
        # Exactly at capacity also fails: the bound is strict.
        p = bare_profile(w, cpu_edge={(1, 1, 1): 100.0}, cpu_cap={1: 100.0})
        assert ids(check_assignment(w, p, a)) == ["C11"]

    def test_c12_memory_capacity_is_strict(self):
        w = one_op(iterative=False)
        a = Assignment.from_op_gamma(w, {1: 0.0})
        p = bare_profile(w, mem_edge={(1, 1, 1): 100.0}, mem_cap={1: 50.0})
        assert ids(check_assignment(w, p, a)) == ["C12"]

    def test_satisfying_assignments_pass(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 4, 4, 4),
                (2, (2,), (), F.STD, False, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 1},
        )
        p = bare_profile(w)
        for g in (0.0, 1.0):
            per_op = propagate_composite_gamma(w, {1: g, 2: g})
            a = Assignment.from_op_gamma(w, per_op)
            assert check_assignment(w, p, a) == []


class TestForcedCloud:
    def test_own_span(self):
        w = one_op(sensors=(1, 2), wiring={1: 1, 2: 2})
        assert forced_cloud(w, 1)

    def test_single_node_not_forced(self):
        w = one_op(sensors=(1, 2), wiring={1: 1, 2: 1})
        assert not forced_cloud(w, 1)

    def test_transitive_span(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 4, 4, 4),
                (2, (2,), (), F.MEAN, True, 4, 4, 4),
                (3, (), (1, 2), F.LAST, False, 4, 4, 4),
            ],
            {1: 1, 2: 2},
        )
        assert not forced_cloud(w, 1)
        assert forced_cloud(w, 3)

    def test_domains_reflect_forcing_and_iter_flag(self):
        w = build_workload(
            [
                (1, (1, 2), (), F.MEAN, True, 4, 4, 4),
                (2, (1,), (), F.MAX, False, 4, 4, 4),
                (3, (1,), (), F.STD, True, 4, 4, 4),
            ],
            {1: 1, 2: 2},
        )
        grid = gamma_grid(0.5)
        assert operator_domain(w, 1, grid) == (1.0,)
        assert operator_domain(w, 2, grid) == (0.0, 1.0)
        assert operator_domain(w, 3, grid) == grid


class TestPropagatedAssignmentsAreConsistent:
    def test_no_placement_violations_after_propagation(self):
        # The solver never enumerates composite ratios; whatever it derives
        # must satisfy the placement rules by construction.
        for seed in range(50):
            w, p = random_instance(seed)
            rng = random.Random(2000 + seed)
            grid = gamma_grid(0.25)
            per_op = {
                op.id: rng.choice(operator_domain(w, op.id, grid))
                for op in w.operators
                if op.atomic
            }
            per_op = propagate_composite_gamma(w, per_op)
            a = Assignment.from_op_gamma(w, per_op)
            bad = {
                v.constraint
                for v in check_assignment(w, p, a)
                if v.constraint in {"C1", "C2", "C3", "C6", "C7", "C8", "C9"}
            }
            assert bad == set()
