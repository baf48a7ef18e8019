"""Shared builders: tiny hand-sized workloads, randomized instances and
hand-packed trace files.

The random generator keeps every cost integral (cycles, bytes) so objective
comparisons can assert exact equality.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from splitstream import (
    FunctionKind,
    OperatorSpec,
    Profile,
    Topology,
    Workload,
    cloud_only,
    edge_only,
    generate_profile,
    generate_reference_workload,
)
from splitstream.fileio import _TRACE_HEADER, _TRACE_SENSOR, TRACE_MAGIC

F = FunctionKind

# Mix of splittable and monolithic, single- and multi-channel shapes.
ATOMIC_FUNCS = (F.MEAN, F.STD, F.MAX, F.RANGE, F.COV, F.SURGE)
COMPOSITE_FUNCS = (F.MEAN, F.LAST, F.TI, F.AOA)


def build_workload(rows, wiring) -> Workload:
    """rows: (id, sensors, deps, func, iterative, window, step, freq[, t_req])."""
    ops = []
    for r in rows:
        ops.append(
            OperatorSpec(
                id=r[0],
                sensors=tuple(r[1]),
                deps=tuple(r[2]),
                func=r[3],
                iterative=r[4],
                window_s=float(r[5]),
                step_s=float(r[6]),
                freq_s=float(r[7]),
                t_req_s=float(r[8]) if len(r) > 8 and r[8] is not None else None,
            )
        )
    return Workload.build(ops, Topology.build(dict(wiring)))


def random_workload(rng: random.Random, *, max_ops: int = 4) -> Workload:
    """Small random DAG over 1..3 sensors on 1..2 nodes."""
    n_sensors = rng.randint(1, 3)
    n_nodes = rng.randint(1, 2)
    wiring = {s: rng.randint(1, n_nodes) for s in range(1, n_sensors + 1)}
    sensor_ids = sorted(wiring)
    rows = []
    n_ops = rng.randint(1, max_ops)
    for i in range(1, n_ops + 1):
        window = rng.choice((2.0, 4.0, 8.0))
        step = rng.choice((window, window / 2))
        if i > 1 and rng.random() < 0.4:
            deps = tuple(sorted(rng.sample(range(1, i), rng.randint(1, min(2, i - 1)))))
            sensors = tuple(rng.sample(sensor_ids, rng.randint(0, 1)))
            func = rng.choice(COMPOSITE_FUNCS)
        else:
            deps = ()
            sensors = tuple(sorted(rng.sample(sensor_ids, rng.randint(1, n_sensors))))
            func = rng.choice(ATOMIC_FUNCS)
        rows.append((i, sensors, deps, func, rng.random() < 0.6, window, step, step))
    return build_workload(rows, wiring)


def random_profile(w: Workload, rng: random.Random) -> Profile:
    """Integral per-operator costs with units matching the reference platform."""
    nodes = sorted(w.topology.nodes)
    cpu_edge, cpu_cloud, mem_edge, data_raw = {}, {}, {}, {}
    cpu_res, data_int, data_res = {}, {}, {}
    for op in w.operators:
        for s in op.sensors:
            k = w.topology.sensor_node[s]
            cpu_edge[(op.id, s, k)] = float(rng.randrange(1_000_000, 50_000_000))
            cpu_cloud[(op.id, s)] = float(rng.randrange(1_000_000, 50_000_000))
            mem_edge[(op.id, s, k)] = float(rng.randrange(1_000, 1_000_000))
            data_raw[(op.id, s, k)] = float(rng.randrange(100, 100_000))
        cpu_res[op.id] = float(rng.randrange(0, 1_000_000))
        data_int[op.id] = float(rng.randrange(16, 10_000))
        data_res[op.id] = float(rng.randrange(8, 1_000))
    return Profile(
        cpu_edge=cpu_edge,
        cpu_cloud=cpu_cloud,
        cpu_res=cpu_res,
        mem_edge=mem_edge,
        data_raw=data_raw,
        data_int=data_int,
        data_res=data_res,
        cpu_unit_edge={k: 1.5e9 for k in nodes},
        cpu_unit_cloud=3.2e9,
        bandwidth={k: float(rng.randrange(100_000, 10_000_000)) for k in nodes},
        cpu_cap={},
        mem_cap={},
    )


def random_instance(seed: int, *, max_ops: int = 4) -> tuple[Workload, Profile]:
    """Random (workload, profile) pair; caps and deadlines are sampled around
    the baseline operating points so some instances are edge-tight, some
    deadline-tight, and a few infeasible outright."""
    rng = random.Random(seed)
    w = random_workload(rng, max_ops=max_ops)
    p = random_profile(w, rng)

    eo = edge_only(w, p)
    cpu_cap, mem_cap = {}, {}
    for k in sorted(w.topology.nodes):
        used = eo.report.per_node[k]
        cpu_cap[k] = round(max(used.cpu_cycles, 1.0) * rng.uniform(0.8, 3.0))
        mem_cap[k] = round(max(used.mem_bytes, 1.0) * rng.uniform(0.8, 3.0))

    co = cloud_only(w, p)
    t_req = {}
    for op in w.operators:
        if rng.random() < 0.5:
            t_req[op.id] = co.report.per_operator[op.id].t_total * rng.uniform(0.6, 2.0)

    return w, dataclasses.replace(p, cpu_cap=cpu_cap, mem_cap=mem_cap, t_req_s=t_req)


def capped_reference(factor: float) -> tuple[Workload, Profile]:
    """The bundled workload with its profile's cpu_cap and mem_cap at
    `factor` times each node's all-edge usage (`gen-profile --headroom`)."""
    w = generate_reference_workload()
    return w, generate_profile(w, headroom=factor)


def pack_trace(path, duration: float, rate: float, blocks) -> None:
    """Write a trace file by hand in save_trace's layout, without its checks,
    so a test can build a file load_trace must refuse: a header of `duration`
    and `rate`, then one block per (sensor, samples) pair, in the order given."""
    data = _TRACE_HEADER.pack(TRACE_MAGIC, len(blocks), rate, duration)
    for sensor, samples in blocks:
        x = np.asarray(samples, dtype="<f8")
        data += _TRACE_SENSOR.pack(sensor, len(x)) + x.tobytes()
    Path(path).write_bytes(data)


@pytest.fixture
def tiny_workload() -> Workload:
    return build_workload(
        [(1, (1, 2), (), F.MEAN, True, 600.0, 600.0, 600.0)],
        {1: 1, 2: 1},
    )


@pytest.fixture
def tiny_profile(tiny_workload) -> Profile:
    return generate_profile(tiny_workload)
