"""Bundled reference inputs: a 63-operator bridge-monitoring catalog and a
synthetic cost profile shaped like a measured one.

The catalog covers 24 window functions over 170 logical sensors. Sensor
columns name physical channel types (humidity, temperature, anemometer,
displacement, weigh-in-motion, vibration, video, strain, hydraulic pressure,
GPS, flux); each operator family gets its own logical sensor per listed type
so families only couple through explicit dependencies.

The profile generator derives every coefficient from first principles
instead of measurement: raw bytes from window length and sample rate, cycle
counts from a per-function cost table, partial-aggregate sizes from the
actual serialized state layout, and per-operator deadlines from a slack
factor over the all-cloud latency estimate.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .costs import Assignment, Instance, Profile, check_profile, latency_rows
from .model import (
    GF_SUBWINDOW_S,
    REFERENCE_SAMPLE_RATE_HZ,
    SPLITTABLE,
    FunctionKind,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Topology,
    Workload,
    check_positive,
    output_arity,
    sensor_clusters,
    state_length,
    topological_order,
)

F = FunctionKind

# Physical channel types per operator family, in catalog column order.
STAT_TYPES = ("rhs", "tmp", "uan", "ult", "wim", "vib", "vic", "rsg", "hpt", "dpm", "gps")
PAIR_TYPES = ("hpt", "vib", "vic", "rsg", "rhs", "uan", "tmp", "dpm", "gps", "ult", "flx")
MOTION_TYPES = ("gps", "hpt", "dpm")
WIND_TYPES = ("uan",)

_LADDER = (60.0, 600.0, 3600.0, 86400.0)

# (first id, func, sensor types, dep rule): four operators on the
# 60/600/3600/86400 s ladder with window = step = freq; the k-th one's deps
# are dep_rule(k), or none when the rule is None.
_QUAD_FAMILIES = (
    (1, F.MEAN, STAT_TYPES, None),
    (5, F.MSQRT, STAT_TYPES, None),
    (9, F.MAX, STAT_TYPES, None),
    (13, F.MIN, STAT_TYPES, None),
    (17, F.FIRST, STAT_TYPES, None),
    (21, F.LAST, STAT_TYPES, None),
    (25, F.RANGE, STAT_TYPES, None),
    (29, F.STD, STAT_TYPES, None),
    (33, F.VAR, STAT_TYPES, None),
    (37, F.COV, PAIR_TYPES, None),
    (41, F.SPEED, MOTION_TYPES, lambda k: (49 + k,)),
    (45, F.ACC, MOTION_TYPES, lambda k: (41 + k,)),
    (49, F.DISP, MOTION_TYPES, None),
)

# (id, func, sensor types, (window, step, freq), deps)
_SINGLE_FAMILIES = (
    (53, F.CC, PAIR_TYPES, (900.0, 300.0, 100.0), ()),
    (54, F.FILTER, PAIR_TYPES, (10.0, 10.0, 10.0), ()),
    (55, F.TREND, PAIR_TYPES, (600.0, 60.0, 60.0), (2,)),
    (56, F.SURGE, PAIR_TYPES, (10.0, 1.0, 1.0), ()),
    (57, F.AVGWS, WIND_TYPES, (600.0, 600.0, 600.0), (2,)),
    (58, F.AVGWA, WIND_TYPES, (600.0, 600.0, 600.0), (2, 57)),
    (59, F.GF, WIND_TYPES, (3.0, 1.0, 1.0), (2,)),
    (60, F.FWS, WIND_TYPES, (1.0, 1.0, 1.0), (57, 58)),
    (61, F.TI, WIND_TYPES, (600.0, 600.0, 600.0), (57, 60)),
    (62, F.AOA, WIND_TYPES, (600.0, 600.0, 600.0), (2, 57)),
    (63, F.AWD, WIND_TYPES, (600.0, 600.0, 600.0), (2,)),
)

# Rough per-sample cycle costs per function, used for both edge and cloud
# compute coefficients (the platforms differ through their clock units).
CYCLES_PER_SAMPLE = {
    F.MEAN: 4.0, F.MSQRT: 6.0, F.MAX: 3.0, F.MIN: 3.0, F.FIRST: 1.0,
    F.LAST: 1.0, F.RANGE: 5.0, F.STD: 10.0, F.VAR: 9.0, F.COV: 12.0,
    F.SPEED: 2.0, F.ACC: 2.0, F.DISP: 5.0, F.CC: 25.0, F.FILTER: 6.0,
    F.TREND: 14.0, F.SURGE: 5.0, F.AVGWS: 8.0, F.AVGWA: 8.0, F.GF: 12.0,
    F.FWS: 4.0, F.TI: 10.0, F.AOA: 8.0, F.AWD: 6.0,
}

REFERENCE_BANDWIDTH_BPS = 1_560_000.0
REFERENCE_EDGE_HZ = 1.5e9
REFERENCE_CLOUD_HZ = 3.2e9
REFERENCE_MEM_OVERHEAD_BYTES = 1024.0


def _catalog() -> tuple[list[OperatorSpec], dict[SensorId, str]]:
    """All 63 operators plus a sensor-id -> channel-type legend. Sensors are
    numbered family by family in catalog order."""
    ops: list[OperatorSpec] = []
    legend: dict[SensorId, str] = {}
    next_sensor = 1

    def allocate(types: tuple[str, ...]) -> tuple[SensorId, ...]:
        nonlocal next_sensor
        ids = tuple(range(next_sensor, next_sensor + len(types)))
        for sid, kind in zip(ids, types):
            legend[sid] = kind
        next_sensor += len(types)
        return ids

    def add(op_id: OperatorId, func: FunctionKind, sensors: tuple[SensorId, ...],
            deps: tuple[OperatorId, ...], timing: tuple[float, float, float]) -> None:
        # Every function with a partial form is declared iterative.
        ops.append(OperatorSpec(op_id, sensors, deps, func, func in SPLITTABLE, *timing))

    for first, func, types, dep_rule in _QUAD_FAMILIES:
        sensors = allocate(types)
        for k, span in enumerate(_LADDER):
            add(first + k, func, sensors, dep_rule(k) if dep_rule else (), (span,) * 3)
    for op_id, func, types, timing, deps in _SINGLE_FAMILIES:
        add(op_id, func, allocate(types), deps, timing)
    return ops, legend


def generate_reference_workload() -> Workload:
    """The bundled catalog wired one edge node per operator cluster.

    Operators that couple (shared sensors or dependencies) land on the same
    node so nothing is forced cloudward by wiring alone; the placement
    decision stays with the solver.
    """
    ops, _legend = _catalog()
    provisional = Topology.build(
        {s: 1 for op in ops for s in op.sensors}
    )
    w0 = Workload.build(ops, provisional)
    sensor_node: dict[SensorId, NodeId] = {}
    for node, cluster in enumerate(sensor_clusters(w0), start=1):
        for op_id in cluster:
            for s in w0.operator(op_id).sensors:
                sensor_node[s] = node
    return Workload.build(ops, Topology.build(sensor_node))


def sensor_legend() -> dict[SensorId, str]:
    """Channel type per reference sensor id."""
    _ops, legend = _catalog()
    return legend


def _channel_count(op: OperatorSpec, arity: dict[OperatorId, int]) -> int:
    return len(op.sensors) + sum(arity[d] for d in op.deps)


def generate_profile(
    w: Workload,
    *,
    sample_rate_hz: float = REFERENCE_SAMPLE_RATE_HZ,
    bandwidth_bps: float = REFERENCE_BANDWIDTH_BPS,
    cloud_speedup: float = 1.0,
    headroom: float = 2.0,
    treq_slack: float = 0.10,
) -> Profile:
    """Synthesize a profile for any workload.

    Raw bytes per window are window_s x rate x 8. Cycle counts scale with
    samples per window through CYCLES_PER_SAMPLE. Partial-aggregate sizes
    come from the serialized state layout of the operator's function over
    its actual channel count. Node capacities are the all-edge usage times
    `headroom`, and deadlines are (1 + treq_slack) times the all-cloud
    latency estimate. Raises ValueError naming the first figure that is
    not finite, or that breaks another value rule of a profile.
    """
    # Caps are headroom x the all-edge usage: above 1 all-edge fits, below 1
    # the instance is contended. Deadlines are (1 + treq_slack) x positive
    # latencies.
    check_positive("headroom", headroom)
    check_positive("1 + treq_slack", 1.0 + treq_slack)
    check_positive("sample rate", sample_rate_hz)
    check_positive("bandwidth", bandwidth_bps)
    check_positive("cloud_speedup", cloud_speedup)
    check_positive("samples per GF sub-window", GF_SUBWINDOW_S * sample_rate_hz)

    cpu_edge: dict[tuple[OperatorId, SensorId, NodeId], float] = {}
    cpu_cloud: dict[tuple[OperatorId, SensorId], float] = {}
    cpu_res: dict[OperatorId, float] = {}
    mem_edge: dict[tuple[OperatorId, SensorId, NodeId], float] = {}
    data_raw: dict[tuple[OperatorId, SensorId, NodeId], float] = {}
    data_int: dict[OperatorId, float] = {}
    data_res: dict[OperatorId, float] = {}

    arity: dict[OperatorId, int] = {}
    for op_id in topological_order(w):
        op = w.operator(op_id)
        channels = _channel_count(op, arity)
        arity[op_id] = output_arity(op.func, channels)
        samples = op.window_s * sample_rate_hz
        coeff = CYCLES_PER_SAMPLE[op.func]
        for j in op.sensors:
            k = w.topology.sensor_node[j]
            cpu_edge[(op_id, j, k)] = coeff * samples
            cpu_cloud[(op_id, j)] = coeff * samples
            mem_edge[(op_id, j, k)] = 8.0 * samples + REFERENCE_MEM_OVERHEAD_BYTES
            data_raw[(op_id, j, k)] = 8.0 * samples
        cpu_res[op_id] = 400.0 + 100.0 * arity[op_id]
        try:
            data_int[op_id] = 8.0 * state_length(op.func, channels, sample_rate_hz)
        except OverflowError:  # a GF state too large for a float; check_profile refuses it
            data_int[op_id] = math.inf
        data_res[op_id] = 8.0 * arity[op_id]

    nodes = sorted(w.topology.nodes)
    cpu_unit_edge = {k: REFERENCE_EDGE_HZ for k in nodes}
    bandwidth = {k: bandwidth_bps for k in nodes}
    profile = Profile(
        cpu_edge=cpu_edge,
        cpu_cloud=cpu_cloud,
        cpu_res=cpu_res,
        mem_edge=mem_edge,
        data_raw=data_raw,
        data_int=data_int,
        data_res=data_res,
        cpu_unit_edge=cpu_unit_edge,
        cpu_unit_cloud=REFERENCE_CLOUD_HZ * cloud_speedup,
        bandwidth=bandwidth,
        cpu_cap={k: 1.0 for k in nodes},
        mem_cap={k: 1.0 for k in nodes},
        t_req_s={},
    )

    # Capacities: the all-edge placement is the heaviest the platform must
    # carry; give each node that load times the headroom factor. Caps feed
    # no OpFacts field, so one Instance serves caps and deadlines.
    inst = Instance.build(w, profile)
    all_edge = Assignment.from_op_gamma(w, {op.id: 0.0 for op in w.operators})
    usage = inst.usage(all_edge)
    profile = replace(
        profile,
        cpu_cap={k: headroom * max(u.cpu_cycles, 1.0) for k, u in usage.items()},
        mem_cap={k: headroom * max(u.mem_bytes, 1.0) for k, u in usage.items()},
    )

    # Deadlines: slack over the all-cloud latency estimate per operator.
    all_cloud = Assignment.from_op_gamma(w, {op.id: 1.0 for op in w.operators})
    rows = latency_rows(inst, all_cloud, inst.order)
    t_req = {i: (1.0 + treq_slack) * t for i, _te, _tt, _tw, _tc, t in rows}
    return check_profile(replace(profile, t_req_s=t_req))
