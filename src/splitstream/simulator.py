"""Trace-driven simulator for a placed operator graph.

The simulator replays synthetic sensor streams against an assignment and
accounts for every byte that crosses an edge uplink, so the analytic data
volumes can be cross-checked against a concrete packet trace. Three frame
kinds exist on the wire: RAW carries sensor samples streamed to the cloud
(the shared fraction of each sensor's stream, deduplicated across the
operators that consume it), INTERMEDIATE carries a serialized partial state
when an operator's window is split between edge and cloud, and RESULT
carries finished window values for operators that complete at the edge.

Modeling choices, kept deliberately simple and aligned with the analytic
cost model:

* Raw uplink is batched per second with a credit accumulator, so the number
  of samples shipped over the whole run is exact to within one sample of
  the configured fraction.
* Links have latency = bytes / bandwidth and no queueing; compute runs
  unqueued at each site. Cloud-to-edge delivery of finished values is not
  charged, mirroring the cost model's uplink-only accounting.
* Each window is timed as an edge share and a cloud share. The edge share
  runs from the window's close, or from its inputs' arrival if later, and
  uplinks one frame: the result when the edge finishes the window, its
  partial state when the cloud does. The cloud share starts once that
  frame (or the close, when the edge has no share), its inputs and its
  sensors' raw batches have landed.
* Split windows are evaluated as a prefix/suffix split of the window's
  samples (edge aggregates the prefix share, the cloud folds in the rest),
  while the uplink traffic for the cloud share is modeled as the streamed
  sample fraction. Byte accounting follows the stream; values follow the
  split contract.
* Derived operators consume the emission series of their dependencies
  (latest closed window, held between closes). Their own compute is charged
  through the cloud-side result coefficient when any share runs in the
  cloud; edge-side compute on emission streams is treated as negligible.
* Every report figure (bytes, counts, latencies, deadline misses) follows
  from window times, arities and state lengths alone. Window values reach
  only frame payloads, so they are evaluated only when frames are
  collected, and a report never carries them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .costs import Assignment, Profile, effective_t_req, windows_in_horizon
from .fileio import check_trace_sensor
from .functions import Channel, eval_windows, split_windows
from .model import (
    GAMMA_TOL,
    REL_TOL,
    FunctionContext,
    FunctionKind,
    NodeId,
    OperatorId,
    SensorId,
    Workload,
    check_positive,
    fold_sum,
    is_splittable,
    output_arity,
    state_length,
    topological_order,
    transitive_sensors,
)

# ---------------------------------------------------------------------------
# Synthetic traces.


@dataclass(frozen=True)
class SignalSpec:
    """Sinusoid-plus-noise generator parameters for one sensor."""

    offset: float = 0.0
    amplitude: float = 1.0
    period_s: float = 120.0
    phase: float = 0.0
    noise_std: float = 0.1


@dataclass(frozen=True)
class StreamConfig:
    duration_s: float = 600.0
    sample_rate_hz: float = 10.0
    seed: int = 0
    signals: dict[SensorId, SignalSpec] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    """Aligned sample arrays per sensor; sample m lands at m / rate."""

    duration_s: float
    sample_rate_hz: float
    samples: dict[SensorId, np.ndarray]

    def times(self, sensor: SensorId) -> np.ndarray:
        n = len(self.samples[sensor])
        return np.arange(n, dtype=np.float64) / self.sample_rate_hz


def sample_count(duration_s: float, sample_rate_hz: float) -> int:
    """Samples per sensor in a trace, round(duration x rate). Raises
    ValueError unless the duration and the rate are positive and finite."""
    check_positive("duration", duration_s)
    check_positive("sample rate", sample_rate_hz)
    if not math.isfinite(duration_s * sample_rate_hz):
        raise ValueError(f"{duration_s} s at {sample_rate_hz} Hz is too many samples")
    return round(duration_s * sample_rate_hz)


def generate_trace(config: StreamConfig, sensors) -> Trace:
    """Deterministic per-sensor streams; each sensor is seeded independently
    so traces are stable under any sensor ordering. Raises ValueError for a
    sensor id that a trace file's unsigned 32-bit id field cannot hold."""
    n = sample_count(config.duration_s, config.sample_rate_hz)
    t = np.arange(n, dtype=np.float64) / config.sample_rate_hz
    samples: dict[SensorId, np.ndarray] = {}
    for sid in sorted(sensors):
        check_trace_sensor(sid)
        rng = np.random.default_rng([config.seed, sid])
        spec = config.signals.get(sid)
        if spec is None:
            spec = SignalSpec(
                offset=rng.uniform(-5.0, 5.0),
                amplitude=rng.uniform(0.5, 3.0),
                period_s=rng.uniform(30.0, 900.0),
                phase=rng.uniform(0.0, 2.0 * math.pi),
                noise_std=rng.uniform(0.01, 0.3),
            )
        wave = spec.offset + spec.amplitude * np.sin(
            2.0 * math.pi * t / spec.period_s + spec.phase
        )
        samples[sid] = wave + rng.normal(0.0, spec.noise_std, n)
    return Trace(config.duration_s, config.sample_rate_hz, samples)


# ---------------------------------------------------------------------------
# Wire frames.

FRAME_HEADER = struct.Struct("<BIIII")
KIND_RAW = 0
KIND_INTERMEDIATE = 1
KIND_RESULT = 2
RAW_OP_SENTINEL = 0  # RAW frames carry no operator; kind disambiguates


@dataclass(frozen=True)
class Frame:
    kind: int
    op_id: int
    sensor_id: int
    window_idx: int
    payload: np.ndarray

    @property
    def wire_size(self) -> int:
        return FRAME_HEADER.size + 8 * len(self.payload)


def encode_frame(frame: Frame) -> bytes:
    payload = np.asarray(frame.payload, dtype="<f8")
    header = FRAME_HEADER.pack(
        frame.kind, frame.op_id, frame.sensor_id, frame.window_idx, len(payload)
    )
    return header + payload.tobytes()


def decode_frame(buf: bytes, offset: int = 0) -> tuple[Frame, int]:
    if offset + FRAME_HEADER.size > len(buf):
        raise ValueError("truncated frame header")
    kind, op_id, sensor_id, window_idx, count = FRAME_HEADER.unpack_from(buf, offset)
    start = offset + FRAME_HEADER.size
    end = start + 8 * count
    if end > len(buf):
        raise ValueError("truncated frame payload")
    payload = np.frombuffer(buf, dtype="<f8", count=count, offset=start).copy()
    return Frame(kind, op_id, sensor_id, window_idx, payload), end


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class RawUplinkStats:
    sensor_id: SensorId
    node: NodeId
    share: float
    samples_sent: int = 0
    frames: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0


@dataclass
class OpSimStats:
    op_id: OperatorId
    gamma: float
    windows: int = 0
    emissions: int = 0
    int_frames: int = 0
    int_payload_bytes: int = 0
    res_frames: int = 0
    res_payload_bytes: int = 0
    latency_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_max_s: float = 0.0
    t_req_s: float | None = None
    t_req_violations: int = 0


@dataclass
class SimReport:
    duration_s: float
    sample_rate_hz: float
    per_op: dict[OperatorId, OpSimStats]
    per_sensor_raw: dict[SensorId, RawUplinkStats]
    raw_payload_bytes: int
    raw_wire_bytes: int
    int_payload_bytes: int
    int_wire_bytes: int
    res_payload_bytes: int
    res_wire_bytes: int
    warnings: list[str]
    frames: list[Frame] | None = None

    @property
    def total_payload_bytes(self) -> int:
        return self.raw_payload_bytes + self.int_payload_bytes + self.res_payload_bytes

    @property
    def total_wire_bytes(self) -> int:
        return self.raw_wire_bytes + self.int_wire_bytes + self.res_wire_bytes


# ---------------------------------------------------------------------------
# Simulation internals.


@dataclass
class _OpSeries:
    """Per-operator emission series exposed to downstream consumers."""

    times: np.ndarray
    values: np.ndarray | None  # (n_emissions, arity) when frames are collected
    avail_edge: np.ndarray
    avail_cloud: np.ndarray
    arity: int


def _raw_schedule(
    n: int, share: float, bandwidth: float, rate: float, n_seconds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Stream `share` of n samples cloudward in per-second batches over a
    link of `bandwidth`. Returns the cumulative samples and the samples sent
    per second, a prefix-max arrival time per whole second (index s =
    batches 1..s landed), and the samples sent, frames and wire bytes."""
    seconds = np.arange(1, n_seconds + 1, dtype=np.float64)
    cum_samples = np.minimum(n, np.ceil(seconds * rate - 1e-9)).astype(np.int64)
    cum_sent = np.floor(share * cum_samples + 1e-9).astype(np.int64)
    sends = np.diff(np.concatenate(([0], cum_sent)))
    wire = np.where(sends > 0, FRAME_HEADER.size + 8 * sends, 0)
    arrivals = np.where(sends > 0, seconds + wire / bandwidth, 0.0)
    ready = np.zeros(n_seconds + 1, dtype=np.float64)
    ready[1:] = np.maximum.accumulate(arrivals)
    ready.flags.writeable = False
    counts = int(cum_sent[-1]), int(np.count_nonzero(sends)), int(np.sum(wire))
    return cum_samples, sends, ready, counts


def _percentiles(latencies: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, p50, p95 and max. The percentiles follow np.percentile's
    "linear" rule operation for operation: virtual index (n - 1) * q, both
    neighbours at the top index from n - 1 on, the weight's upper branch
    from 0.5, and a NaN result when a NaN sorts last. The neighbours come
    from one partition with np.percentile's own indices, so even the signs
    of tied zeros match."""
    n = len(latencies)
    if not n:
        return 0.0, 0.0, 0.0, 0.0
    v = [(n - 1) * q for q in (0.5, 0.95)]
    lo = [-1 if vq >= n - 1 else math.floor(vq) for vq in v]
    near = [i for j in lo for i in (j, -1 if j < 0 else j + 1)]
    x = np.partition(latencies, sorted({0, -1, *near}))
    ab = x[near].tolist()
    p = []
    for vq, j, a, b in zip(v, lo, ab[::2], ab[1::2]):
        t = vq - j
        diff = b - a
        p.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    if math.isnan(x[-1]):
        p = [float(x[-1])] * 2
    return float(latencies.mean()), p[0], p[1], float(latencies.max())


def _deadline_misses(latency: np.ndarray, bound: float) -> int:
    """Windows whose latency fails le_with_tol(latency, bound), counted
    elementwise with math.isclose's symmetric test (not np.isclose)."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(bound - latency)
    close = np.isfinite(latency) & math.isfinite(bound) & (
        (diff <= abs(REL_TOL * bound)) | (diff <= np.abs(REL_TOL * latency))
    )
    return int(np.count_nonzero(~(close | (latency <= bound))))


def _window_closes(window_s: float, step_s: float, duration: float) -> np.ndarray:
    """Close times window_s + m * step_s of the windows inside the trace."""
    count = max(0, math.floor((duration - window_s) / step_s) + 3)
    closes = window_s + np.arange(count) * step_s
    return closes[closes <= duration + 1e-9]


def run_sim(
    workload: Workload,
    profile: Profile,
    assignment: Assignment,
    trace: Trace,
    *,
    collect_frames: bool = False,
) -> SimReport:
    """Replay the trace through the placed operator graph. Each operator's
    windows are timed together, as arrays; their values are evaluated only
    for the frames, when collect_frames is set."""
    ctx = FunctionContext(sample_rate_hz=trace.sample_rate_hz)
    missing = [j for j in workload.sensors if j not in trace.samples]
    if missing:
        raise ValueError(f"trace lacks sensors {sorted(missing)}")

    rate = trace.sample_rate_hz
    duration = trace.duration_s
    n_seconds = int(math.ceil(duration - 1e-9))
    warnings: list[str] = []
    frames: list[Frame] = [] if collect_frames else None

    # Shared raw uplink, one stream per sensor regardless of consumer count.
    # Sensors with the same sample count, share and link bandwidth share one
    # read-only schedule; idle sensors share one array of zeros.
    idle = np.zeros(n_seconds + 1, dtype=np.float64)
    idle.flags.writeable = False
    schedules: dict[tuple[int, float, float], tuple] = {}
    raw_stats: dict[SensorId, RawUplinkStats] = {}
    raw_ready: dict[SensorId, np.ndarray] = {}
    sensor_node = workload.topology.sensor_node
    for sid in sorted(workload.sensors):
        node = sensor_node[sid]
        share = assignment.gamma_sensor.get(sid, 0.0)
        x = trace.samples[sid]
        stats = raw_stats[sid] = RawUplinkStats(sid, node, share)
        if share <= GAMMA_TOL or len(x) == 0 or n_seconds == 0:
            raw_ready[sid] = idle
            continue
        key = (len(x), share, profile.bandwidth[node])
        if key not in schedules:
            schedules[key] = _raw_schedule(*key, rate, n_seconds)
        cum_samples, sends, raw_ready[sid], counts = schedules[key]
        stats.samples_sent, stats.frames, stats.wire_bytes = counts
        stats.payload_bytes = 8 * stats.samples_sent
        if frames is not None:
            frames.extend(
                Frame(KIND_RAW, RAW_OP_SENTINEL, sid, s, x[hi - sent:hi])
                for s, (sent, hi) in enumerate(zip(sends.tolist(), cum_samples.tolist()))
                if sent
            )

    per_op: dict[OperatorId, OpSimStats] = {}
    series: dict[OperatorId, _OpSeries] = {}

    for op_id in topological_order(workload):
        op = workload.operator(op_id)
        gamma = assignment.gamma[op_id]
        at_edge = gamma <= GAMMA_TOL
        at_cloud = gamma >= 1.0 - GAMMA_TOL
        stats = per_op[op_id] = OpSimStats(op_id, gamma, t_req_s=effective_t_req(op, profile))

        if op.window_s > duration + 1e-9:
            warnings.append(
                f"operator {op_id}: window {op.window_s}s exceeds the trace "
                f"({duration}s); no windows close"
            )

        if at_edge and any(assignment.gamma[d] >= 1.0 - GAMMA_TOL for d in op.deps):
            warnings.append(
                f"operator {op_id} computes at the edge from cloud-resident "
                "inputs; the downlink is not charged"
            )

        dep_series = [series[d] for d in op.deps]
        n_channels = len(op.sensors) + sum(s.arity for s in dep_series)
        arity = output_arity(op.func, n_channels)

        t_close = _window_closes(op.window_s, op.step_s, duration)
        t_open = t_close - op.window_s
        n_windows = len(t_close)

        # Input channels, own sensors first, then dependency outputs; window
        # m of a channel is samples lo[m]:hi[m] of its source. Only frames
        # carry window values, so channels are built only for them.
        channels: list[Channel] = []
        if frames is not None:
            lo = np.rint(t_open * rate).astype(np.int64)
            hi = np.rint(t_close * rate).astype(np.int64)
            for j in op.sensors:
                x = trace.samples[j]
                start = np.minimum(lo, len(x))
                channels.append(Channel(x, start, np.clip(hi, start, len(x)), rate=rate))
        input_edge = np.zeros(n_windows)
        input_cloud = np.zeros(n_windows)
        for s in dep_series:
            dep_lo = np.searchsorted(s.times, t_open + 1e-9, side="left")
            dep_hi = np.searchsorted(s.times, t_close + 1e-9, side="left")
            if frames is not None:
                channels.extend(Channel(s.values[:, c], dep_lo, dep_hi, times=s.times)
                                for c in range(s.arity))
            for avail, latest in ((s.avail_edge, input_edge), (s.avail_cloud, input_cloud)):
                window_max = eval_windows(FunctionKind.MAX, [Channel(avail, dep_lo, dep_hi)], ctx)[:, 0]
                np.maximum(latest, window_max, out=latest)

        values = states = None
        if frames is not None and (at_edge or at_cloud or not is_splittable(op.func)):
            values, states = eval_windows(op.func, channels, ctx), np.zeros((n_windows, 0))
        elif frames is not None:
            values, states = split_windows(op.func, channels, 1.0 - gamma, ctx)

        # The edge share runs from the close once its inputs are in, then
        # uplinks one frame per window from the operator's home node: the
        # result when the edge finishes the window, else its partial state.
        arrival = t_close
        if not at_cloud:
            edge_time = fold_sum(
                profile.cpu_edge[(op_id, j, sensor_node[j])] / profile.cpu_unit_edge[sensor_node[j]]
                for j in op.sensors
            ) * (1.0 - gamma)
            home = {sensor_node[j] for j in transitive_sensors(workload, op_id)}
            uplink_bw = (profile.bandwidth[min(home)] if home
                         else max(profile.bandwidth.values(), default=1.0))
            payload_len = arity if at_edge else state_length(op.func, n_channels, ctx)
            avail_edge = np.maximum(t_close, input_edge) + edge_time
            arrival = avail_cloud = avail_edge + (FRAME_HEADER.size + 8 * payload_len) / uplink_bw
            counts = n_windows, 8 * payload_len * n_windows
            if at_edge:
                stats.res_frames, stats.res_payload_bytes = counts
            else:
                stats.int_frames, stats.int_payload_bytes = counts
            if frames is not None:
                kind, payload = (KIND_RESULT, values) if at_edge else (KIND_INTERMEDIATE, states)
                frames.extend(Frame(kind, op_id, 0, m, payload[m]) for m in range(n_windows))

        # The cloud share starts once the edge's frame, the inputs and the
        # raw batches of the operator's sensors (once per distinct schedule,
        # as sensors may share one) have landed.
        if not at_edge:
            second = np.minimum(n_seconds, np.ceil(t_close - 1e-9).astype(np.int64))
            raw_in = np.zeros(n_windows)
            for ready in {id(r): r for r in (raw_ready[j] for j in op.sensors)}.values():
                np.maximum(raw_in, ready[second], out=raw_in)
            cloud_cycles = gamma * fold_sum(
                profile.cpu_cloud[(op_id, j)] for j in op.sensors
            ) + profile.cpu_res[op_id]
            start = np.maximum(np.maximum(arrival, input_cloud), raw_in)
            avail_cloud = avail_edge = start + cloud_cycles / profile.cpu_unit_cloud

        latency = avail_cloud - t_close
        if stats.t_req_s is not None:
            stats.t_req_violations = _deadline_misses(latency, stats.t_req_s)

        stats.windows = n_windows
        expected = windows_in_horizon(op.window_s, op.step_s, duration)
        if stats.windows != expected:
            warnings.append(
                f"operator {op_id}: closed {stats.windows} windows, expected {expected}"
            )
        (stats.latency_mean_s, stats.latency_p50_s,
         stats.latency_p95_s, stats.latency_max_s) = _percentiles(latency)

        # Emission series: every freq_s, repeating the latest closed window.
        emits = np.arange(1, max(0, math.floor(duration / op.freq_s) + 3)) * op.freq_s
        emits = emits[emits <= duration + 1e-9]
        w_idx = np.searchsorted(t_close, emits + 1e-9, side="left") - 1
        emits, w_idx = emits[w_idx >= 0], w_idx[w_idx >= 0]
        stats.emissions = len(emits)
        series[op_id] = _OpSeries(
            times=emits,
            values=None if values is None else values[w_idx],
            avail_edge=np.maximum(emits, avail_edge[w_idx]),
            avail_cloud=np.maximum(emits, avail_cloud[w_idx]),
            arity=arity,
        )

    ops = per_op.values()
    return SimReport(
        duration_s=duration,
        sample_rate_hz=rate,
        per_op=per_op,
        per_sensor_raw=raw_stats,
        raw_payload_bytes=sum(s.payload_bytes for s in raw_stats.values()),
        raw_wire_bytes=sum(s.wire_bytes for s in raw_stats.values()),
        int_payload_bytes=sum(s.int_payload_bytes for s in ops),
        int_wire_bytes=sum(s.int_payload_bytes + FRAME_HEADER.size * s.int_frames for s in ops),
        res_payload_bytes=sum(s.res_payload_bytes for s in ops),
        res_wire_bytes=sum(s.res_payload_bytes + FRAME_HEADER.size * s.res_frames for s in ops),
        warnings=warnings,
        frames=frames,
    )
