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
* A window's inputs have arrived at the site once the latest availability
  there among the dependency emissions the window holds has passed (at the
  close when it holds none). That is an exact windowed max of the dependency's
  availability series, which need not rise from one emission to the next.
* The close, open and emission times, the second by which each close's raw
  batches must land, and the emissions of a dependency that each window of
  its consumer holds depend on window shapes alone, so a replay computes
  them once per distinct shape and shares them read-only between operators.
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
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .costs import Assignment, Profile, effective_t_req, windows_in_horizon
from .fileio import check_trace_sensor
from .functions import Channel, eval_windows, split_windows
from .model import (
    REFERENCE_SAMPLE_RATE_HZ,
    REL_TOL,
    NodeId,
    OperatorId,
    OperatorSpec,
    SensorId,
    Workload,
    check_positive,
    fold_sum,
    is_splittable,
    output_arity,
    ratio_in_range,
    runs_at_edge,
    runs_in_cloud,
    state_length,
    topological_order,
)

# ---------------------------------------------------------------------------
# Synthetic traces.

# The most samples a generated trace may hold over all sensors (2 GiB), and
# the most entries a replay array may hold.
TRACE_SAMPLE_CAP = 2**28


@dataclass(frozen=True)
class StreamConfig:
    duration_s: float = 600.0
    sample_rate_hz: float = REFERENCE_SAMPLE_RATE_HZ
    seed: int = 0


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


def check_sensor_samples(
    sensor: SensorId, n: int, expected: int, duration_s: float, sample_rate_hz: float
) -> None:
    """Raise ValueError unless the sensor's n samples are the `expected`
    sample_count(duration_s, sample_rate_hz)."""
    if n != expected:
        raise ValueError(
            f"sensor {sensor} has {n} samples; {duration_s} s at {sample_rate_hz} Hz is {expected}"
        )


def trace_shape(config: StreamConfig, sensors) -> tuple[int, int, list[SensorId]]:
    """The seed, the samples per sensor and the sorted sensors of the trace
    generate_trace would build; raises its ValueErrors."""
    try:
        if isinstance(config.seed, bool):
            raise TypeError
        seed = operator.index(config.seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {config.seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    n = sample_count(config.duration_s, config.sample_rate_hz)
    sensors = sorted(sensors)
    for sid in sensors:
        check_trace_sensor(sid)
    if n * len(sensors) > TRACE_SAMPLE_CAP:
        raise ValueError(f"{len(sensors)} sensors x {n} samples is over the trace cap of "
                         f"{TRACE_SAMPLE_CAP} samples")
    return seed, n, sensors


def generate_trace(config: StreamConfig, sensors) -> Trace:
    """Deterministic per-sensor streams, each a sinusoid plus Gaussian noise
    whose offset, amplitude, period, phase and noise level are drawn from
    the sensor's own seed, so traces are stable under any sensor ordering.
    Sample m is written m = q * block + r with block > sqrt(n), and its sine
    is taken by angle addition, sin(a_q + b_r) = sin(a_q) cos(b_r) +
    cos(a_q) sin(b_r), so a sensor takes 4 * block sines and cosines. The
    angle 2 pi m / (rate x period) is at most 2 pi duration / 30, so every
    sample is finite at every timebase sample_count accepts.
    Raises ValueError, before allocating or drawing, for a trace over
    TRACE_SAMPLE_CAP samples, for a sensor id that a trace file's unsigned
    32-bit id field cannot hold, and for a seed that is a bool, not an
    integer (as operator.index takes it) or negative."""
    seed, n, sensors = trace_shape(config, sensors)
    block = math.isqrt(n) + 1
    tails = np.arange(block, dtype=np.float64)
    heads = tails * block
    cross = np.empty((block, block))
    samples: dict[SensorId, np.ndarray] = {}
    for sid in sensors:
        rng = np.random.default_rng([seed, sid])
        offset = rng.uniform(-5.0, 5.0)
        amplitude = rng.uniform(0.5, 3.0)
        period_s = rng.uniform(30.0, 900.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        noise_std = rng.uniform(0.01, 0.3)
        # m / (samples per period) is finite for every m formed: the
        # product is subnormal only when n is 0, where m is 0 alone.
        per_period = config.sample_rate_hz * period_s
        a = 2.0 * math.pi * (heads / per_period) + phase
        b = 2.0 * math.pi * (tails / per_period)
        wave = np.empty(block * block)
        grid = wave.reshape(block, block)
        np.multiply.outer(amplitude * np.sin(a), np.cos(b), out=grid)
        np.multiply.outer(amplitude * np.cos(a), np.sin(b), out=cross)
        grid += cross
        wave = wave[:n]
        wave += rng.normal(offset, noise_std, n)
        samples[sid] = wave
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


def _percentiles(latencies: np.ndarray) -> np.ndarray:
    """Mean, p50, p95 and max of each row of latencies (rows x values), one
    row of four per row; a 1-D array is the one-row case and gives four
    values. The percentiles follow np.percentile's "linear" rule operation
    for operation: virtual index (n - 1) * q, both neighbours at the top
    index from n - 1 on, the weight's upper branch from 0.5, and a NaN
    result when a NaN sorts last. The neighbours come from one partition
    with np.percentile's own indices, so even the signs of tied zeros match."""
    rows = np.atleast_2d(latencies)
    n = rows.shape[1]
    out = np.zeros((len(rows), 4))
    if n:
        v = [(n - 1) * q for q in (0.5, 0.95)]
        lo = [-1 if vq >= n - 1 else math.floor(vq) for vq in v]
        near = [i for j in lo for i in (j, -1 if j < 0 else j + 1)]
        x = np.partition(rows, sorted({0, -1, *near}), axis=1)
        ab = x[:, near].T
        out[:, 0], out[:, 3] = rows.mean(axis=1), rows.max(axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            for c, vq, j, a, b in zip((1, 2), v, lo, ab[::2], ab[1::2]):
                t = vq - j
                diff = b - a
                out[:, c] = b - diff * (1 - t) if t >= 0.5 else a + diff * t
        out[np.isnan(x[:, -1]), 1:3] = np.nan
    return out.reshape(latencies.shape[:-1] + (4,))


def _deadline_misses(latency: np.ndarray, bound: float) -> int:
    """Windows whose latency fails le_with_tol(latency, bound), counted
    elementwise with math.isclose's symmetric test (not np.isclose)."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(bound - latency)
    close = np.isfinite(latency) & math.isfinite(bound) & (
        (diff <= abs(REL_TOL * bound)) | (diff <= np.abs(REL_TOL * latency))
    )
    return int(np.count_nonzero(~(close | (latency <= bound))))


def _latency_figures(rows: list[tuple[OpSimStats, np.ndarray]]) -> None:
    """Set each operator's four latency figures, and its deadline misses,
    from its window latencies; the rows are of one length and are stacked
    for _percentiles. Only a row whose max fails its deadline is counted."""
    figures = _percentiles(np.stack([latency for _, latency in rows]))
    for (stats, latency), fig in zip(rows, figures.tolist()):
        (stats.latency_mean_s, stats.latency_p50_s,
         stats.latency_p95_s, stats.latency_max_s) = fig
        if stats.t_req_s is not None and not fig[3] <= stats.t_req_s:
            stats.t_req_violations = _deadline_misses(latency, stats.t_req_s)


def _window_max(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(x[lo[m]:hi[m]]) for each window m, or 0 for an empty window, as
    eval_windows(MAX, [Channel(x, lo, hi)]) returns. Row k of a table of
    doubling maxima holds the max of each x[i:i + 2**k], so a window of n
    samples is the larger of the two row-k entries at its ends, for
    k = floor(log2 n). max never rounds, so this is exact for any series.
    np.maximum keeps its second argument of two equal values, so each
    window keeps its first maximum, as Python's max does."""
    n = hi - lo
    out = np.zeros(len(n))
    full = n > 0
    if not full.any():
        return out
    n, lo, hi = n[full], lo[full], hi[full]
    k = np.frexp(n)[1].astype(np.int64) - 1
    table = np.zeros((int(k.max()) + 1, len(x)))
    table[0] = x
    for j in range(1, len(table)):
        half = 1 << (j - 1)
        size = len(x) - 2 * half + 1
        np.maximum(table[j - 1, half:half + size], table[j - 1, :size], out=table[j, :size])
    out[full] = np.maximum(table[k, hi - (1 << k)], table[k, lo])
    return out


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only so that operators can share them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Schedules:
    """The times of a replay that depend only on window shapes, computed once
    per distinct shape and shared read-only by every operator that has it:
    window closes and opens, and the whole second by which a close's raw
    batches must land, per (window_s, step_s); emission times and the window
    each repeats, per (window_s, step_s, freq_s); and the emissions of a
    dependency inside each window of its consumer, per pair of those."""

    def __init__(self, duration: float, n_seconds: int):
        self.duration = duration
        self.n_seconds = n_seconds
        self._windows: dict[tuple[float, ...], tuple[np.ndarray, ...]] = {}
        self._emissions: dict[tuple[float, ...], tuple[np.ndarray, ...]] = {}
        self._spans: dict[tuple[float, ...], tuple[np.ndarray, ...]] = {}

    def windows(self, op: OperatorSpec) -> tuple[np.ndarray, ...]:
        """Close times window_s + m * step_s of the windows inside the trace
        (windows_in_horizon of them, as the cost model counts), their open
        times, and for each close the whole second whose raw batches must
        have landed."""
        key = op.window_s, op.step_s
        if key not in self._windows:
            count = windows_in_horizon(op.window_s, op.step_s, self.duration)
            t_close = op.window_s + np.arange(count) * op.step_s
            second = np.minimum(self.n_seconds, np.ceil(t_close - 1e-9).astype(np.int64))
            self._windows[key] = _frozen(t_close, t_close - op.window_s, second)
        return self._windows[key]

    def emissions(self, op: OperatorSpec) -> tuple[np.ndarray, ...]:
        """Emission times, every freq_s from the first close on, and the
        index of the latest closed window each repeats."""
        key = op.window_s, op.step_s, op.freq_s
        if key not in self._emissions:
            t_close = self.windows(op)[0]
            emits = np.arange(1, max(0, math.floor(self.duration / op.freq_s) + 3)) * op.freq_s
            emits = emits[emits <= self.duration + 1e-9]
            w_idx = np.searchsorted(t_close, emits + 1e-9, side="left") - 1
            self._emissions[key] = _frozen(emits[w_idx >= 0], w_idx[w_idx >= 0])
        return self._emissions[key]

    def span(self, dep: OperatorSpec, op: OperatorSpec) -> tuple[np.ndarray, ...]:
        """Window m of op holds emissions dep_lo[m]:dep_hi[m] of dep."""
        key = dep.window_s, dep.step_s, dep.freq_s, op.window_s, op.step_s
        if key not in self._spans:
            times = self.emissions(dep)[0]
            t_close, t_open, _ = self.windows(op)
            self._spans[key] = _frozen(
                np.searchsorted(times, t_open + 1e-9, side="left"),
                np.searchsorted(times, t_close + 1e-9, side="left"),
            )
        return self._spans[key]


def check_replay_size(w: Workload, duration: float) -> int:
    """The whole seconds a replay of `duration` s takes. Raise ValueError when
    they, or an operator's window closes or emissions, exceed TRACE_SAMPLE_CAP;
    a quotient past the floats is inf."""
    n_seconds = int(math.ceil(duration - 1e-9))
    counts = [(n_seconds, "whole seconds", None)]
    for op in w.operators:
        closes, emits = (duration - op.window_s) / op.step_s, duration / op.freq_s
        if math.isfinite(closes):
            closes = windows_in_horizon(op.window_s, op.step_s, duration)
        if math.isfinite(emits):
            emits = math.floor(emits)
        counts += [(closes, "window closes", op.id), (emits, "emissions", op.id)]
    for n, what, op_id in counts:
        if n > TRACE_SAMPLE_CAP:
            of = "" if op_id is None else f" of operator {op_id}"
            raise ValueError(f"{n:.6g} {what}{of} are over the replay cap of {TRACE_SAMPLE_CAP}")
    return n_seconds


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
    for the frames, when collect_frames is set. A trace missing a workload
    sensor or breaking load_trace's rules (sample_count, then
    check_sensor_samples for each workload sensor), an operator or sensor
    ratio outside model.ratio_in_range, or a replay check_replay_size
    refuses, raises ValueError before any array is built."""
    missing = [j for j in workload.sensors if j not in trace.samples]
    if missing:
        raise ValueError(f"trace lacks sensors {sorted(missing)}")

    rate = trace.sample_rate_hz
    duration = trace.duration_s
    n_samples = sample_count(duration, rate)
    for j in sorted(workload.sensors):
        check_sensor_samples(j, len(trace.samples[j]), n_samples, duration, rate)
    ratios = {f"operator {op.id}": assignment.gamma[op.id] for op in workload.operators}
    for j in sorted(workload.sensors):
        ratios[f"sensor {j}"] = assignment.gamma_sensor.get(j, 0.0)
    for who, g in ratios.items():
        if not ratio_in_range(g):
            raise ValueError(f"ratio {g} of {who} is outside [0, 1]; the replay cannot run it")
    n_seconds = check_replay_size(workload, duration)
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
        if runs_at_edge(share) or len(x) == 0 or n_seconds == 0:
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
    home: dict[OperatorId, set[NodeId]] = {}
    times = _Schedules(duration, n_seconds)
    latencies: dict[int, list[tuple[OpSimStats, np.ndarray]]] = {}

    for op_id in topological_order(workload):
        op = workload.operator(op_id)
        gamma = assignment.gamma[op_id]
        at_edge = runs_at_edge(gamma)
        at_cloud = runs_in_cloud(gamma)
        stats = per_op[op_id] = OpSimStats(op_id, gamma, t_req_s=effective_t_req(op, profile))
        # The nodes of the operator's sensors and its dependencies' sensors.
        home[op_id] = {sensor_node[j] for j in op.sensors}.union(*(home[d] for d in op.deps))

        t_close, t_open, second = times.windows(op)
        n_windows = len(t_close)
        if n_windows == 0:
            warnings.append(
                f"operator {op_id}: window {op.window_s}s exceeds the trace "
                f"({duration}s); no windows close"
            )

        if at_edge and any(runs_in_cloud(assignment.gamma[d]) for d in op.deps):
            warnings.append(
                f"operator {op_id} computes at the edge from cloud-resident "
                "inputs; the downlink is not charged"
            )

        dep_series = [series[d] for d in op.deps]
        n_channels = len(op.sensors) + sum(s.arity for s in dep_series)
        arity = output_arity(op.func, n_channels)

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
        # A window's inputs are in at its close, or once the latest of the
        # dependency emissions it holds is available if that is later.
        input_edge = input_cloud = t_close
        for d, s in zip(op.deps, dep_series):
            dep_lo, dep_hi = times.span(workload.operator(d), op)
            if frames is not None:
                channels.extend(Channel(s.values[:, c], dep_lo, dep_hi, times=s.times)
                                for c in range(s.arity))
            latest = _window_max(s.avail_edge, dep_lo, dep_hi)
            input_edge = np.maximum(input_edge, latest)
            if s.avail_cloud is not s.avail_edge:
                latest = _window_max(s.avail_cloud, dep_lo, dep_hi)
            input_cloud = np.maximum(input_cloud, latest)

        values = states = None
        if frames is not None and (at_edge or at_cloud or not is_splittable(op.func)):
            values, states = eval_windows(op.func, channels, rate), np.zeros((n_windows, 0))
        elif frames is not None:
            values, states = split_windows(op.func, channels, 1.0 - gamma, rate)

        # The edge share runs from the close once its inputs are in, then
        # uplinks one frame per window from the operator's home node: the
        # result when the edge finishes the window, else its partial state.
        arrival = t_close
        if not at_cloud:
            edge_time = fold_sum(
                profile.cpu_edge[(op_id, j, sensor_node[j])] / profile.cpu_unit_edge[sensor_node[j]]
                for j in op.sensors
            ) * (1.0 - gamma)
            uplink_bw = (profile.bandwidth[min(home[op_id])] if home[op_id]
                         else max(profile.bandwidth.values(), default=1.0))
            payload_len = arity if at_edge else state_length(op.func, n_channels, rate)
            avail_edge = input_edge + edge_time
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
            raw_in = np.zeros(n_windows)
            for ready in {id(r): r for r in (raw_ready[j] for j in op.sensors)}.values():
                np.maximum(raw_in, ready[second], out=raw_in)
            cloud_cycles = gamma * fold_sum(
                profile.cpu_cloud[(op_id, j)] for j in op.sensors
            ) + profile.cpu_res[op_id]
            start = np.maximum(np.maximum(arrival, input_cloud), raw_in)
            avail_cloud = avail_edge = start + cloud_cycles / profile.cpu_unit_cloud

        latencies.setdefault(n_windows, []).append((stats, avail_cloud - t_close))
        stats.windows = n_windows

        # Emission series: every freq_s, repeating the latest closed window.
        # Where one share finishes the window last, the edge and the cloud
        # get it at once and share one series.
        emits, w_idx = times.emissions(op)
        stats.emissions = len(emits)
        edge_series = np.maximum(emits, avail_edge[w_idx])
        series[op_id] = _OpSeries(
            times=emits,
            values=None if values is None else values[w_idx],
            avail_edge=edge_series,
            avail_cloud=(edge_series if avail_cloud is avail_edge
                         else np.maximum(emits, avail_cloud[w_idx])),
            arity=arity,
        )

    for rows in latencies.values():
        _latency_figures(rows)
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
