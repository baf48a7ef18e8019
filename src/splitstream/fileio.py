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
import mmap
import os
import struct
from typing import TYPE_CHECKING, Iterable

from .costs import (
    PER_NODE,
    PER_OPERATOR,
    PER_SENSOR,
    Assignment,
    Profile,
    check_profile,
    table_key,
)
from .model import (
    FunctionKind,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Topology,
    Workload,
    check_cost,
)

if TYPE_CHECKING:
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


def _replace_with(path: str, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file next to `path`, then move it
    into place, so a failed write leaves no half-written target behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_workload(path: str, w: Workload) -> None:
    _replace_with(path, [dumps_workload(w).encode("utf-8")])


def load_workload(path: str) -> Workload:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workload(fh.read())


# ---------------------------------------------------------------------------
# Profile JSON.


def _int_or_fail(x: float, what: str) -> int:
    v = int(round(x))
    if abs(v - x) > 1e-6:
        raise ValueError(f"{what} must be integral, got {x}")
    if v == 0 and x != 0:
        raise ValueError(f"{what} rounds to 0 from {x}; the file would price it free")
    return v


def dumps_profile(p: Profile) -> str:
    """The profile as canonical JSON, once check_profile has passed it, so
    every figure written is a finite non-negative cost from a row present."""
    check_profile(p)
    per_sensor = []
    for key in sorted(p.cpu_edge):
        row = dict(zip(("op", "sensor", "node"), key))
        for name in PER_SENSOR:
            row[name] = _int_or_fail(getattr(p, name)[table_key(name, key)], name)
        per_sensor.append(row)
    per_operator = []
    for op in sorted(p.cpu_res):
        row = {"op": op}
        for name in PER_OPERATOR:
            row[name] = _int_or_fail(getattr(p, name)[op], name)
        if op in p.t_req_s:
            row["t_req_s"] = p.t_req_s[op]
        per_operator.append(row)
    record = {
        **{name: {str(k): v for k, v in sorted(getattr(p, name).items())} for name in PER_NODE},
        "cpu_unit_cloud": p.cpu_unit_cloud,
        "per_sensor": per_sensor,
        "per_operator": per_operator,
    }
    return canonical_json(record)


def json_shaped(value, kind: type, what: str):
    """value, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "an array"
        raise ValueError(f"{what} must be {noun}, got {value!r:.60}")
    return value


def json_number(value, name: str, key: object) -> float:
    """value as a float, if it is a JSON number (a bool is not); an integer
    too large for a float reads as inf."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number for {key}, got {value!r:.60}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def json_member(record: dict, name: str, where: object):
    """record[name], or ValueError naming the member and where it is missing."""
    if name not in record:
        raise ValueError(f"no {name} for {where}")
    return record[name]


def json_cost(row: dict, name: str, key: object) -> float:
    """row[name] as a float, if it is a finite non-negative JSON number."""
    return check_cost(name, key, json_figure(row, name, key))


def json_figure(row: dict, name: str, key: object) -> float:
    """row[name] as a float, if it is a JSON number."""
    return json_number(json_member(row, name, key), name, key)


def json_id(row: dict, name: str, table: str) -> int:
    """row[name], if it is a JSON integer (a bool is not)."""
    value = json_member(row, name, f"a {table} row")
    if type(value) is not int:
        raise ValueError(f"{name} of a {table} row must be an integer id, got {value!r:.60}")
    return value


def json_key(key: str, what: str) -> int:
    """An object key as an id, if it spells one in canonical decimal: "01",
    " 1", "+1" and "1_0" are refused, so that no two keys name one id."""
    digits = key[1:] if key.startswith("-") else key
    if not (digits.isdecimal() and str(int(key)) == key):
        raise ValueError(f"{what} key must be an id in canonical decimal, got {key!r:.60}")
    return int(key)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The members of one JSON object, refusing a key named twice, which
    json would otherwise read last-wins. The object_pairs_hook of
    parse_json."""
    record = {}
    for key, value in pairs:
        if key in record:
            raise ValueError(f"key {key!r:.60} appears twice in one object")
        record[key] = value
    return record


def parse_json(text: str):
    """JSON text read with unique_keys: the one JSON reader here. Nesting
    deeper than json can recurse is a ValueError, not a RecursionError."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def parse_profile(text: str) -> Profile:
    record = json_shaped(parse_json(text), dict, "a profile")
    tables = {name: {} for name in (*PER_SENSOR, *PER_OPERATOR, "t_req_s")}

    def member(name: str):
        return json_member(record, name, "the profile")

    for row in json_shaped(member("per_sensor"), list, "per_sensor"):
        row = json_shaped(row, dict, "a per_sensor row")
        key = tuple(json_id(row, name, "per_sensor") for name in ("op", "sensor", "node"))
        # cpu_cloud is keyed (op, sensor): a second row for the pair, even at
        # another node, would replace the operator's cloud cycles.
        if table_key("cpu_cloud", key) in tables["cpu_cloud"]:
            raise ValueError(f"per_sensor lists op {key[0]}, sensor {key[1]} twice")
        for name in PER_SENSOR:
            tables[name][table_key(name, key)] = json_figure(row, name, key)
    for row in json_shaped(member("per_operator"), list, "per_operator"):
        row = json_shaped(row, dict, "a per_operator row")
        op = json_id(row, "op", "per_operator")
        if op in tables["cpu_res"]:
            raise ValueError(f"per_operator lists op {op} twice")
        for name in PER_OPERATOR:
            tables[name][op] = json_figure(row, name, f"op {op}")
        if row.get("t_req_s") is not None:
            tables["t_req_s"][op] = json_number(row["t_req_s"], "t_req_s", f"op {op}")
    for name in PER_NODE:
        tables[name] = {
            json_key(k, name): json_number(v, name, f"node {k}")
            for k, v in json_shaped(member(name), dict, name).items()
        }
    cpu_unit_cloud = json_number(member("cpu_unit_cloud"), "cpu_unit_cloud", "the cloud")
    return check_profile(Profile(**tables, cpu_unit_cloud=cpu_unit_cloud))


def save_profile(path: str, p: Profile) -> None:
    _replace_with(path, [dumps_profile(p).encode("utf-8")])


def load_profile(path: str) -> Profile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


# ---------------------------------------------------------------------------
# Trace binary format. The trace functions import numpy and the simulator
# when called, so that commands which never touch a trace start without them.

TRACE_MAGIC = b"SSTR"
_TRACE_HEADER = struct.Struct("<4sIdd")
_TRACE_SENSOR = struct.Struct("<IQ")


def check_trace_sensor(sensor: SensorId) -> None:
    """Raise ValueError for a sensor id the u32 id field cannot hold."""
    if not 0 <= sensor < 2**32:
        raise ValueError(f"sensor {sensor} is outside a trace's id range 0 to {2**32 - 1}")


def save_trace(path: str, trace: Trace) -> None:
    """Write the trace; a sensor id outside the id field raises ValueError
    before anything is written."""
    import numpy as np

    for sensor in sorted(trace.samples):
        check_trace_sensor(sensor)

    def chunks():
        yield _TRACE_HEADER.pack(
            TRACE_MAGIC, len(trace.samples), trace.sample_rate_hz, trace.duration_s
        )
        for sensor in sorted(trace.samples):
            x = np.asarray(trace.samples[sensor], dtype="<f8")
            yield _TRACE_SENSOR.pack(sensor, len(x))
            yield x.tobytes()

    _replace_with(path, chunks())


def load_trace(path: str) -> Trace:
    """Read a trace; its rate and duration must be positive and finite,
    every sensor must hold round(duration x rate) samples, and no sensor may
    appear twice. The file is mapped read-only, and each sensor's samples
    are a read-only view of the mapping, so a replay holds in memory only
    the samples it reads. Replace a loaded file, as save_trace does; never
    rewrite it in place: the views would change under the reader, and
    reading past a shortened file ends the process with SIGBUS. Bytes after
    the last sensor are ignored."""
    import numpy as np

    from .simulator import Trace, check_sensor_samples, sample_count

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_TRACE_HEADER.size)
        if len(head) < _TRACE_HEADER.size:
            raise ValueError("truncated trace header")
        magic, count, rate, duration = _TRACE_HEADER.unpack(head)
        if magic != TRACE_MAGIC:
            raise ValueError("not a trace file")
        expected = sample_count(duration, rate)
        # The sensor headers are read through the file, not the mapping, so
        # that no page of samples is touched on the way.
        offsets: dict[SensorId, int] = {}
        for _ in range(count):
            block = fh.read(_TRACE_SENSOR.size)
            if len(block) < _TRACE_SENSOR.size:
                raise ValueError("truncated sensor header")
            sensor, n = _TRACE_SENSOR.unpack(block)
            # Checked against the file size before anything is mapped.
            if fh.tell() + 8 * n > size:
                raise ValueError(f"truncated samples for sensor {sensor}")
            check_sensor_samples(sensor, n, expected, duration, rate)
            if sensor in offsets:
                raise ValueError(f"sensor {sensor} appears twice")
            offsets[sensor] = fh.tell()
            fh.seek(8 * n, os.SEEK_CUR)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    samples = {
        sensor: np.frombuffer(mapped, dtype="<f8", count=expected, offset=offset)
        for sensor, offset in offsets.items()
    }
    return Trace(duration_s=duration, sample_rate_hz=rate, samples=samples)


# ---------------------------------------------------------------------------
# Reports and digests.


def report_bytes(record) -> tuple[str | None, float | None, dict[str, float]]:
    """A solve, baseline or simulate report's manifest command, its byte
    total (None if absent or null) and its per-operator bytes. Raises
    ValueError unless the report is an object, the command a string and
    every byte figure a non-negative finite number."""
    record = json_shaped(record, dict, "a report")
    manifest = record.get("manifest")
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command is not None and not isinstance(command, str):
        raise ValueError(f"manifest command must be a string, got {command!r:.60}")
    total = None
    for key in ("objective_bytes", "total_payload_bytes"):
        if record.get(key) is not None:
            total = json_cost(record, key, "the report")
            break
    per_op: dict[str, float] = {}
    rows = json_shaped(record.get("per_operator", {}), dict, "per_operator")
    for op, row in rows.items():
        json_key(op, "a per_operator")
        row = json_shaped(row, dict, f"per_operator row {op}")
        if "data_bytes" in row:
            per_op[op] = json_cost(row, "data_bytes", f"op {op}")
        elif "int_payload_bytes" in row:
            per_op[op] = json_cost(row, "int_payload_bytes", f"op {op}") + json_cost(
                row, "res_payload_bytes", f"op {op}"
            )
    return command, total, per_op


def canonical_json(record) -> str:
    """Stable serialization: sorted keys, fixed separators, one trailing
    newline. Equal records give byte-identical text."""
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_report(path: str, record) -> None:
    _replace_with(path, [canonical_json(record).encode("utf-8")])


# Bytes of a file mapped at a time while it is hashed: a multiple of every
# platform's mapping granularity. Mapping the whole file would leave all of
# it resident in the process until the map closes.
_HASH_WINDOW = 1 << 20


def sha256_file(path: str) -> str:
    """Hex sha256 of a file, hashed through read-only maps of it, one window
    at a time, without copying. An empty file maps nothing and hashes as
    b"" (a map of length 0 is refused)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for offset in range(0, size, _HASH_WINDOW):
            length = min(_HASH_WINDOW, size - offset)
            with mmap.mmap(fh.fileno(), length, offset=offset, access=mmap.ACCESS_READ) as window:
                h.update(window)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Assignment records (solve reports embed these; simulate reads them back).

# The cost model that solve and baseline manifests record as
# "cost_orientation": the one the planner and the replay share.
COST_MODEL = "corrected"


def gamma_record(w: Workload, a: Assignment) -> dict[str, float]:
    """Per-operator ratios as a JSON-friendly map keyed by operator id."""
    return {str(op.id): a.gamma[op.id] for op in w.operators}


def parse_gamma(record: dict) -> dict[OperatorId, float]:
    """Per-operator ratios from a record's "gamma" member, or from the record
    itself when it has none. Raises ValueError unless they map operator ids
    (keys in canonical decimal) to finite numbers, and for a report whose
    manifest records a cost model other than COST_MODEL."""
    manifest = record.get("manifest") if isinstance(record, dict) else None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    model = config.get("cost_orientation", COST_MODEL) if isinstance(config, dict) else COST_MODEL
    if model != COST_MODEL:
        raise ValueError(f"priced in the {model!r:.60} cost model; only {COST_MODEL!r} replays")
    gamma = record.get("gamma", record) if isinstance(record, dict) else record
    if not isinstance(gamma, dict):
        raise ValueError(f"gamma must map operator ids to ratios, got {gamma!r}")
    out: dict[OperatorId, float] = {}
    for key, value in gamma.items():
        op_id = json_key(key, "gamma")
        ratio = json_number(value, "ratio", f"operator {key}")
        if not math.isfinite(ratio):
            raise ValueError(f"ratio of operator {key} is not a finite number: {value!r:.60}")
        out[op_id] = ratio
    return out
