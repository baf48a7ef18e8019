"""On-disk formats: workload text, profile JSON, binary traces, reports.

Workload grammar (line oriented, '#' comments, blank lines ignored):

    [operators]
    # id | sensor_ids | dep_ids | func | iter | window_s | step_s | freq_s | t_req_s
    1 | 1,2,3 | - | mean | 1 | 600 | 600 | 600 | -
    2 | -     | 1 | last | 0 | 600 | 600 | 600 | 2.5
    [topology]
    1 -> 1
    2 -> 1
    3 -> 2

'-' stands for an empty id list or an absent deadline. Operator order in the
file is the workload's declaration order. Unknown function names are
rejected at parse time.

Profile JSON is a single object: platform maps keyed by node id, a
`per_sensor` array keyed (op, sensor, node) for edge-side quantities, and a
`per_operator` array for the rest. Byte and cycle quantities are written as
non-negative integers.

Trace files are little-endian binary: magic 'SSTR', u32 sensor count,
f64 sample rate, f64 duration, then per sensor u32 id, u64 sample count,
and the samples as f64.

Reports are canonical JSON (sorted keys, fixed indentation, trailing
newline) so byte-identical output is reproducible from equal inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Iterable

import numpy as np

from .costs import Assignment, Profile
from .model import (
    FunctionKind,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Topology,
    Workload,
)
from .simulator import Trace

# ---------------------------------------------------------------------------
# Workload text format.


def _ids_field(ids: Iterable[int]) -> str:
    ids = tuple(ids)
    return ",".join(str(i) for i in ids) if ids else "-"


def _num_field(x: float) -> str:
    return f"{x:.12g}"


def dumps_workload(w: Workload) -> str:
    lines = [
        "[operators]",
        "# id | sensor_ids | dep_ids | func | iter | window_s | step_s | freq_s | t_req_s",
    ]
    for op in w.operators:
        lines.append(
            " | ".join(
                (
                    str(op.id),
                    _ids_field(op.sensors),
                    _ids_field(op.deps),
                    op.func.value,
                    "1" if op.iterative else "0",
                    _num_field(op.window_s),
                    _num_field(op.step_s),
                    _num_field(op.freq_s),
                    _num_field(op.t_req_s) if op.t_req_s is not None else "-",
                )
            )
        )
    lines.append("")
    lines.append("[topology]")
    for sensor in sorted(w.topology.sensor_node):
        lines.append(f"{sensor} -> {w.topology.sensor_node[sensor]}")
    return "\n".join(lines) + "\n"


def _parse_ids(field: str, where: str) -> tuple[int, ...]:
    field = field.strip()
    if field == "-" or not field:
        return ()
    try:
        return tuple(int(part) for part in field.split(","))
    except ValueError:
        raise ValueError(f"{where}: bad id list {field!r}") from None


def parse_workload(text: str) -> Workload:
    operators: list[OperatorSpec] = []
    sensor_node: dict[SensorId, NodeId] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if line not in ("[operators]", "[topology]"):
                raise ValueError(f"{where}: unknown section {line}")
            section = line
            continue
        if section == "[operators]":
            fields = [f.strip() for f in line.split("|")]
            if len(fields) != 9:
                raise ValueError(
                    f"{where}: expected 9 '|'-separated fields, got {len(fields)}"
                )
            try:
                op_id = int(fields[0])
            except ValueError:
                raise ValueError(f"{where}: bad operator id {fields[0]!r}") from None
            try:
                func = FunctionKind(fields[3])
            except ValueError:
                raise ValueError(f"{where}: unknown function {fields[3]!r}") from None
            if fields[4] not in ("0", "1"):
                raise ValueError(f"{where}: iter flag must be 0 or 1, got {fields[4]!r}")
            try:
                window_s = float(fields[5])
                step_s = float(fields[6])
                freq_s = float(fields[7])
                t_req_s = None if fields[8] == "-" else float(fields[8])
            except ValueError:
                raise ValueError(f"{where}: bad numeric field") from None
            operators.append(
                OperatorSpec(
                    id=op_id,
                    sensors=_parse_ids(fields[1], where),
                    deps=_parse_ids(fields[2], where),
                    func=func,
                    iterative=fields[4] == "1",
                    window_s=window_s,
                    step_s=step_s,
                    freq_s=freq_s,
                    t_req_s=t_req_s,
                )
            )
        elif section == "[topology]":
            parts = line.split("->")
            if len(parts) != 2:
                raise ValueError(f"{where}: expected 'sensor -> node'")
            try:
                sensor = int(parts[0])
                node = int(parts[1])
            except ValueError:
                raise ValueError(f"{where}: bad sensor/node id") from None
            if sensor in sensor_node:
                raise ValueError(f"{where}: sensor {sensor} wired twice")
            sensor_node[sensor] = node
        else:
            raise ValueError(f"{where}: content before any section header")
    return Workload.build(operators, Topology.build(sensor_node))


def save_workload(path: str, w: Workload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_workload(w))


def load_workload(path: str) -> Workload:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workload(fh.read())


# ---------------------------------------------------------------------------
# Profile JSON.


def _int_or_fail(x: float, what: str) -> int:
    v = int(round(x))
    if v < 0:
        raise ValueError(f"{what} must be non-negative, got {x}")
    if abs(v - x) > 1e-6:
        raise ValueError(f"{what} must be integral, got {x}")
    return v


def dumps_profile(p: Profile) -> str:
    per_sensor = []
    for (op, sensor, node) in sorted(p.cpu_edge):
        per_sensor.append(
            {
                "op": op,
                "sensor": sensor,
                "node": node,
                "cpu_edge": _int_or_fail(p.cpu_edge[(op, sensor, node)], "cpu_edge"),
                "cpu_cloud": _int_or_fail(p.cpu_cloud[(op, sensor)], "cpu_cloud"),
                "mem_edge": _int_or_fail(p.mem_edge[(op, sensor, node)], "mem_edge"),
                "data_raw": _int_or_fail(p.data_raw[(op, sensor, node)], "data_raw"),
            }
        )
    per_operator = []
    for op in sorted(p.cpu_res):
        row = {
            "op": op,
            "cpu_res": _int_or_fail(p.cpu_res[op], "cpu_res"),
            "data_int": _int_or_fail(p.data_int.get(op, 0.0), "data_int"),
            "data_res": _int_or_fail(p.data_res.get(op, 0.0), "data_res"),
        }
        if op in p.t_req_s:
            row["t_req_s"] = p.t_req_s[op]
        per_operator.append(row)
    record = {
        "cpu_unit_edge": {str(k): p.cpu_unit_edge[k] for k in sorted(p.cpu_unit_edge)},
        "cpu_unit_cloud": p.cpu_unit_cloud,
        "bandwidth": {str(k): p.bandwidth[k] for k in sorted(p.bandwidth)},
        "cpu_cap": {str(k): p.cpu_cap[k] for k in sorted(p.cpu_cap)},
        "mem_cap": {str(k): p.mem_cap[k] for k in sorted(p.mem_cap)},
        "per_sensor": per_sensor,
        "per_operator": per_operator,
    }
    return canonical_json(record)


def parse_profile(text: str) -> Profile:
    record = json.loads(text)
    cpu_edge = {}
    cpu_cloud = {}
    mem_edge = {}
    data_raw = {}
    for row in record["per_sensor"]:
        key = (row["op"], row["sensor"], row["node"])
        for name in ("cpu_edge", "cpu_cloud", "mem_edge", "data_raw"):
            if row[name] < 0:
                raise ValueError(f"{name} must be non-negative for {key}")
        cpu_edge[key] = float(row["cpu_edge"])
        cpu_cloud[(row["op"], row["sensor"])] = float(row["cpu_cloud"])
        mem_edge[key] = float(row["mem_edge"])
        data_raw[key] = float(row["data_raw"])
    cpu_res = {}
    data_int = {}
    data_res = {}
    t_req_s = {}
    for row in record["per_operator"]:
        op = row["op"]
        cpu_res[op] = float(row["cpu_res"])
        data_int[op] = float(row["data_int"])
        data_res[op] = float(row["data_res"])
        if "t_req_s" in row and row["t_req_s"] is not None:
            t_req_s[op] = float(row["t_req_s"])
    return Profile(
        cpu_edge=cpu_edge,
        cpu_cloud=cpu_cloud,
        cpu_res=cpu_res,
        mem_edge=mem_edge,
        data_raw=data_raw,
        data_int=data_int,
        data_res=data_res,
        cpu_unit_edge={int(k): float(v) for k, v in record["cpu_unit_edge"].items()},
        cpu_unit_cloud=float(record["cpu_unit_cloud"]),
        bandwidth={int(k): float(v) for k, v in record["bandwidth"].items()},
        cpu_cap={int(k): float(v) for k, v in record["cpu_cap"].items()},
        mem_cap={int(k): float(v) for k, v in record["mem_cap"].items()},
        t_req_s=t_req_s,
    )


def save_profile(path: str, p: Profile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_profile(p))


def load_profile(path: str) -> Profile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


# ---------------------------------------------------------------------------
# Trace binary format.

TRACE_MAGIC = b"SSTR"
_TRACE_HEADER = struct.Struct("<4sIdd")
_TRACE_SENSOR = struct.Struct("<IQ")


def save_trace(path: str, trace: Trace) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _TRACE_HEADER.pack(
                TRACE_MAGIC, len(trace.samples), trace.sample_rate_hz, trace.duration_s
            )
        )
        for sensor in sorted(trace.samples):
            x = np.asarray(trace.samples[sensor], dtype="<f8")
            fh.write(_TRACE_SENSOR.pack(sensor, len(x)))
            fh.write(x.tobytes())


def load_trace(path: str) -> Trace:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _TRACE_HEADER.size:
        raise ValueError("truncated trace header")
    magic, count, rate, duration = _TRACE_HEADER.unpack_from(buf, 0)
    if magic != TRACE_MAGIC:
        raise ValueError("not a trace file")
    offset = _TRACE_HEADER.size
    samples: dict[SensorId, np.ndarray] = {}
    for _ in range(count):
        if offset + _TRACE_SENSOR.size > len(buf):
            raise ValueError("truncated sensor header")
        sensor, n = _TRACE_SENSOR.unpack_from(buf, offset)
        offset += _TRACE_SENSOR.size
        end = offset + 8 * n
        if end > len(buf):
            raise ValueError(f"truncated samples for sensor {sensor}")
        samples[sensor] = np.frombuffer(buf, dtype="<f8", count=n, offset=offset).copy()
        offset = end
    return Trace(duration_s=duration, sample_rate_hz=rate, samples=samples)


# ---------------------------------------------------------------------------
# Reports and digests.


def canonical_json(record) -> str:
    """Stable serialization: sorted keys, fixed separators, one trailing
    newline. Equal records give byte-identical text."""
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_report(path: str, record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(record))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Assignment records (solve reports embed these; simulate reads them back).


def gamma_record(w: Workload, a: Assignment) -> dict[str, float]:
    """Per-operator ratios as a JSON-friendly map keyed by operator id."""
    return {str(op.id): a.op_gamma(w, op.id) for op in w.operators}


def parse_gamma(record: dict) -> dict[OperatorId, float]:
    """Per-operator ratios from a record's "gamma" member, or from the record
    itself when it has none. Raises ValueError unless they map operator ids
    to finite numbers."""
    gamma = record.get("gamma", record) if isinstance(record, dict) else record
    if not isinstance(gamma, dict):
        raise ValueError(f"gamma must map operator ids to ratios, got {gamma!r}")
    out: dict[OperatorId, float] = {}
    for key, value in gamma.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ValueError(f"ratio of operator {key} is not a finite number: {value!r}")
        out[int(key)] = float(value)
    return out


def load_gamma(path: str) -> dict[OperatorId, float]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gamma(json.load(fh))
