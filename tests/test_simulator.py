"""Trace-driven execution: frozen byte counts, framing, determinism.

The frozen numbers were derived by hand: one 10 Hz sensor over 10 s is 100
samples (800 payload bytes when fully uploaded, one 17-byte frame header per
second); a 5 s tumbling mean closes 2 windows (one 8-byte result each when
edge-resident, one 16-byte two-number partial aggregate each when split).
"""

import ast
import dataclasses
import json
import math
import random
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitstream import (
    Assignment,
    Frame,
    FunctionKind,
    SolverConfig,
    StreamConfig,
    cloud_only,
    decode_frame,
    edge_only,
    encode_frame,
    generate_profile,
    generate_reference_workload,
    generate_trace,
    le_with_tol,
    load_trace,
    run_sim,
    save_trace,
    solve,
)
from splitstream import simulator
from splitstream.costs import Instance
from splitstream.functions import Channel, eval_windows
from splitstream.model import runs_at_edge
from splitstream.simulator import (
    KIND_INTERMEDIATE,
    KIND_RAW,
    KIND_RESULT,
    _deadline_misses,
    _latency_figures,
    _percentiles,
    _window_max,
)

from conftest import (
    build_workload,
    capped_reference,
    random_instance,
    random_profile,
    random_workload,
)

F = FunctionKind


def tiny_setup(gamma, *, iterative=True):
    w = build_workload(
        [(1, (1,), (), F.MEAN, iterative, 5, 5, 5)], {1: 1}
    )
    p = generate_profile(w)
    a = Assignment.from_op_gamma(w, {1: gamma})
    trace = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=1), [1])
    return w, p, a, trace


class TestFrozenByteCounts:
    def test_full_offload(self):
        w, p, a, trace = tiny_setup(1.0)
        rep = run_sim(w, p, a, trace)
        assert rep.raw_payload_bytes == 800
        assert rep.int_payload_bytes == 0
        assert rep.res_payload_bytes == 0
        assert rep.total_payload_bytes == 800
        assert rep.total_wire_bytes == 970
        assert rep.per_sensor_raw[1].samples_sent == 100
        assert rep.per_sensor_raw[1].frames == 10
        assert rep.per_op[1].windows == 2

    def test_fully_edge(self):
        w, p, a, trace = tiny_setup(0.0)
        rep = run_sim(w, p, a, trace)
        assert rep.raw_payload_bytes == 0
        assert rep.res_payload_bytes == 16
        assert rep.per_op[1].res_frames == 2
        assert rep.total_payload_bytes == 16
        assert rep.total_wire_bytes == 50

    def test_even_split(self):
        w, p, a, trace = tiny_setup(0.5)
        rep = run_sim(w, p, a, trace)
        assert rep.raw_payload_bytes == 400
        assert rep.int_payload_bytes == 32
        assert rep.res_payload_bytes == 0
        assert rep.total_payload_bytes == 432
        assert rep.total_wire_bytes == 636
        assert rep.per_op[1].int_frames == 2
        assert rep.per_sensor_raw[1].samples_sent == 50

    def test_frame_byte_conservation(self):
        for gamma in (0.0, 0.5, 1.0):
            w, p, a, trace = tiny_setup(gamma)
            rep = run_sim(w, p, a, trace, collect_frames=True)
            assert sum(f.wire_size for f in rep.frames) == rep.total_wire_bytes
            assert sum(len(f.payload) * 8 for f in rep.frames) == rep.total_payload_bytes


class TestValues:
    def test_edge_resident_results_match_direct_evaluation(self):
        w, p, a, trace = tiny_setup(0.0)
        rep = run_sim(w, p, a, trace, collect_frames=True)
        res = [f for f in rep.frames if f.kind == KIND_RESULT]
        assert len(res) == 2
        x = trace.samples[1]
        for idx, frame in enumerate(sorted(res, key=lambda f: f.window_idx)):
            window = x[idx * 50 : (idx + 1) * 50]
            assert frame.payload[0] == pytest.approx(np.mean(window), rel=1e-12)

    def test_split_and_monolithic_agree(self):
        # Same trace, same operator: the merged result equals the edge-only
        # result, so placement never changes the answer.
        w, p, a0, trace = tiny_setup(0.0)
        a5 = Assignment.from_op_gamma(w, {1: 0.5})
        r0 = run_sim(w, p, a0, trace, collect_frames=True)
        r5 = run_sim(w, p, a5, trace, collect_frames=True)
        v0 = [f for f in r0.frames if f.kind == KIND_RESULT]
        # At gamma=0.5 results stay in the cloud; recover them via emissions.
        assert r5.per_op[1].windows == len(v0) == 2


class TestLatencyAndDeadlines:
    def test_latencies_are_positive_and_ordered(self):
        w, p, a, trace = tiny_setup(1.0)
        s = run_sim(w, p, a, trace).per_op[1]
        assert 0 < s.latency_p50_s <= s.latency_p95_s <= s.latency_max_s
        assert s.t_req_violations == 0

    def test_a_trace_without_a_workload_sensor_is_refused(self):
        w, p, a, trace = tiny_setup(0.5)
        other = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=1), [2])
        with pytest.raises(ValueError, match=r"^trace lacks sensors \[1\]$"):
            run_sim(w, p, a, other)

    @pytest.mark.parametrize(
        "duration, rate, n, message",
        [
            (math.inf, 10.0, 100, "duration must be positive and finite, got inf"),
            (math.nan, 10.0, 100, "duration must be positive and finite, got nan"),
            (-5.0, 10.0, 100, "duration must be positive and finite, got -5.0"),
            (10.0, -10.0, 100, "sample rate must be positive and finite, got -10.0"),
            (10.0, math.nan, 100, "sample rate must be positive and finite, got nan"),
            (10.0, 10.0, 5, "sensor 1 has 5 samples; 10.0 s at 10.0 Hz is 100"),
        ],
    )
    def test_a_trace_load_trace_refuses_is_refused(self, monkeypatch, duration, rate, n, message):
        # load_trace's rules, checked before the replay sizes anything.
        def refuse(*args):
            raise AssertionError("the replay was sized")

        monkeypatch.setattr(simulator, "check_replay_size", refuse)
        w, p, a, _ = tiny_setup(0.5)
        trace = simulator.Trace(duration, rate, {1: np.zeros(n)})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sim(w, p, a, trace)

    @pytest.mark.parametrize(
        "gamma, gamma_sensor, message",
        [
            (1.5, 1.5, "ratio 1.5 of operator 1 is outside"),
            (-0.5, 0.0, "ratio -0.5 of operator 1 is outside"),
            (math.nan, 0.0, "ratio nan of operator 1 is outside"),
            (0.5, 1.5, "ratio 1.5 of sensor 1 is outside"),
            (0.5, math.nan, "ratio nan of sensor 1 is outside"),
        ],
    )
    def test_a_ratio_out_of_range_is_refused(self, monkeypatch, gamma, gamma_sensor, message):
        # At 1.5 the replay would report more samples sent than the sensor
        # has, and at NaN NaN latencies; it refuses before sizing anything.
        def refuse(*args):
            raise AssertionError("the replay was sized")

        monkeypatch.setattr(simulator, "check_replay_size", refuse)
        w, p, _, trace = tiny_setup(0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)} "):
            run_sim(w, p, Assignment({1: gamma}, {1: gamma_sensor}), trace, collect_frames=True)

    def test_deadline_violations_counted_per_window(self):
        w, p, a, trace = tiny_setup(1.0)
        p = dataclasses.replace(p, t_req_s={1: 1e-12})
        s = run_sim(w, p, a, trace).per_op[1]
        assert s.t_req_violations == s.windows == 2


class TestDeadlineCount:
    @settings(deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    def test_counts_what_le_with_tol_rejects(self, latencies, bound):
        # Values within a few ulps of the bound exercise the tolerance.
        near = [bound * (1.0 + e) for e in (-1e-12, 1e-10, 1e-9, 2e-9, -1e-9)]
        values = np.array(latencies + [v for v in near if math.isfinite(v)])
        want = sum(not le_with_tol(v, bound) for v in values.tolist())
        assert _deadline_misses(values, bound) == want

    def test_an_overflowing_difference_is_not_close(self):
        # bound - latency overflows for -1.7e308 and is NaN for inf.
        assert _deadline_misses(np.array([0.1, -1.7e308, np.inf]), 1.7e308) == 1


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, 1.7e308, -1.7e308,
                  math.inf, -math.inf, math.nan)


def spread(seed, n, scale, specials):
    """n exponential draws at `scale`, a few replaced by special floats."""
    rng = np.random.default_rng(seed)
    x = rng.exponential(scale, n)
    x[rng.integers(0, n, len(specials))] = specials
    return x


def packed(values):
    """Each float's bytes, every NaN alike."""
    return [b"nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


class TestPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        arrays(np.float64, st.integers(1, 4000), elements=st.one_of(
            st.sampled_from(SPECIAL_FLOATS), st.floats(), st.floats(-1e-300, 1e-300),
            st.sampled_from((1e-4, 2e-4, 3e-4)),
        )),
        st.builds(
            spread, st.integers(0, 2**32), st.integers(1, 4000),
            st.sampled_from((1e-4, 1.0, 1e300)), st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=3),
        ),
    ))
    @example(np.array([-0.0, 0.0] + [-0.0] * 8))
    @example(np.array([0.0, -5e-324, -5e-324, -0.0, 0.0, 2.0, -5e-324, -5e-324, -5e-324, -5e-324,
                       -0.0, 0.0, -0.0, -5e-324, 1.0, 0.0, 0.0, -5e-324, -5e-324, -5e-324]))
    def test_match_numpy_bit_for_bit(self, x):
        with np.errstate(all="ignore"):
            want = (x.mean(), *np.percentile(x, (50, 95)), x.max())
            got = _percentiles(x)
        assert packed(got) == packed(float(v) for v in want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stacked_rows_match_numpy_and_count_misses(self, data):
        # Rows of one length, as run_sim stacks the operators that close as
        # many windows; a deadline drawn from a row's own values sits on it.
        n = data.draw(st.integers(1, 500))
        row = st.one_of(
            arrays(np.float64, n, elements=st.sampled_from(SPECIAL_FLOATS)),
            st.builds(spread, st.integers(0, 2**32), st.just(n), st.sampled_from((1e-4, 1.0, 1e300)),
                      st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=3)),
        )
        xs = data.draw(st.lists(row, min_size=1, max_size=6))
        bounds = [data.draw(st.one_of(
            st.none(), st.floats(allow_nan=False), st.sampled_from(x[~np.isnan(x)].tolist() or [1.0]),
        )) for x in xs]
        rows = [(simulator.OpSimStats(i, 0.0, t_req_s=b), x) for i, (x, b) in enumerate(zip(xs, bounds))]
        with np.errstate(all="ignore"):
            _latency_figures(rows)
            for (stats, x), bound in zip(rows, bounds):
                want = (x.mean(), *np.percentile(x, (50, 95)), x.max())
                got = (stats.latency_mean_s, stats.latency_p50_s, stats.latency_p95_s,
                       stats.latency_max_s)
                assert packed(got) == packed(float(v) for v in want)
                misses = 0 if bound is None else sum(not le_with_tol(v, bound) for v in x.tolist())
                assert stats.t_req_violations == misses


@st.composite
def series_and_windows(draw):
    """A float series with ties, zeros of both signs and descents, and
    windows lo[m]:hi[m] of it with lo and hi non-decreasing, some empty."""
    x = draw(st.lists(st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, -1.0, math.inf, -math.inf)),
        st.floats(allow_nan=False),
    ), max_size=70))
    bound = st.integers(0, len(x))
    pairs = draw(st.lists(st.tuples(bound, bound), max_size=40))
    # Sorting the lower and the upper ends apart keeps each lo[m] <= hi[m].
    lo = sorted(min(pair) for pair in pairs)
    hi = sorted(max(pair) for pair in pairs)
    return (np.array(x, dtype=np.float64), np.array(lo, dtype=np.int64),
            np.array(hi, dtype=np.int64))


class TestWindowMax:
    """The latest input time of each window is an exact windowed max."""

    @settings(max_examples=400, deadline=None)
    @given(series_and_windows())
    @example((np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25]),
              np.array([0, 0, 1, 2, 3, 7]), np.array([0, 3, 5, 7, 7, 7])))
    @example((np.array([-0.0, 0.0, -0.0, 0.0, 0.0]), np.array([0, 1, 1, 2]), np.array([2, 3, 5, 5])))
    @example((np.array([]), np.array([0, 0]), np.array([0, 0])))
    def test_matches_python_max_and_eval_windows(self, case):
        x, lo, hi = case
        got = _window_max(x, lo, hi)
        want = [max(x[a:b].tolist()) if b > a else 0.0 for a, b in zip(lo.tolist(), hi.tolist())]
        assert packed(got.tolist()) == packed(want)
        # numpy's max reduction may return either zero of a tie between
        # -0.0 and 0.0, so eval_windows is matched by value.
        assert np.array_equal(got, eval_windows(F.MAX, [Channel(x, lo, hi)])[:, 0])


class TestReplayPin:
    """Per-operator figures of a 600 s replay (seed 11) of the reference,
    pinned from the per-window replay loop the batched one replaced. Counts,
    bytes and latencies must match exactly."""

    @pytest.fixture(scope="class")
    def replays(self):
        w = generate_reference_workload()
        p = generate_profile(w)
        wq, q = capped_reference(0.9)
        trace = generate_trace(
            StreamConfig(duration_s=600.0, sample_rate_hz=10.0, seed=11),
            sorted(w.topology.sensor_node),
        )
        placements = {
            "co": (p, cloud_only(w, p).assignment),
            "eo": (p, edge_only(w, p).assignment),
            "ref05": (p, solve(w, p, SolverConfig(delta=0.05)).assignment),
            "cap90": (q, solve(wq, q, SolverConfig(delta=0.25)).assignment),
        }
        return {name: run_sim(w, pp, a, trace) for name, (pp, a) in placements.items()}

    @pytest.mark.parametrize("placement", ["co", "eo", "ref05", "cap90"])
    def test_matches_the_pinned_figures(self, replays, placement):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "replay_600s_seed11.json").read_text()
        )
        want = pinned["placements"][placement]
        rep = replays[placement]
        for name, value in want["totals"].items():
            assert getattr(rep, name) == value, name
        assert set(rep.per_op) == {int(op) for op in want["per_op"]}
        for op, row in want["per_op"].items():
            stats = rep.per_op[int(op)]
            got = [getattr(stats, field) for field in pinned["fields"]]
            assert got == row, f"operator {op}"


class TestMixedLinkPin:
    """Replays of 20 random instances whose nodes draw their bandwidth from
    three values, so some links coincide and some differ, at ratios from
    {0, 0.35, 0.5, 1}. Pinned before the raw schedules were shared between
    sensors: a schedule keyed on anything less than (sample count, share,
    bandwidth) changes a byte count or a latency here."""

    CASES = json.loads(
        (Path(__file__).parent / "data" / "replay_mixed_links.json").read_text()
    )["cases"]

    def test_links_coincide_and_differ(self):
        pairs = [set(c["bandwidth"].values()) for c in self.CASES if len(c["bandwidth"]) == 2]
        assert any(len(b) == 1 for b in pairs) and any(len(b) == 2 for b in pairs)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c['seed']}")
    def test_matches_the_pinned_figures(self, case):
        w, p = random_instance(case["seed"], max_ops=6)
        p = dataclasses.replace(p, bandwidth={int(k): v for k, v in case["bandwidth"].items()})
        a = Assignment.from_op_gamma(w, {int(i): g for i, g in case["gamma"].items()})
        trace = generate_trace(
            StreamConfig(duration_s=case["duration_s"], sample_rate_hz=case["sample_rate_hz"],
                         seed=case["seed"]),
            w.sensors,
        )
        rep = run_sim(w, p, a, trace)
        assert {str(s): dataclasses.asdict(r) for s, r in rep.per_sensor_raw.items()} == (
            case["per_sensor_raw"]
        )
        assert {str(i): dataclasses.asdict(s) for i, s in rep.per_op.items()} == case["per_op"]
        assert {f: getattr(rep, f) for f in case["totals"]} == case["totals"]
        assert rep.warnings == case["warnings"]


def report_fields(rep):
    """Every SimReport field but the frames."""
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "frames"}


def frame_fields(rep):
    """Every frame of a report as plain values, payload bits included."""
    return [(f.kind, f.op_id, f.sensor_id, f.window_idx, f.payload.dtype.str, f.payload.tobytes())
            for f in rep.frames]


class TestFramesLeaveTheReport:
    """Window values reach only frames: collecting frames adds them and
    changes no stat, total or warning of the report. A trace read back from
    its file gives the same frames as the arrays it was written from,
    although half of its sensors' samples are unaligned views of the file."""

    @pytest.fixture(scope="class")
    def reference(self):
        w = generate_reference_workload()
        p = generate_profile(w)
        wq, q = capped_reference(0.9)
        trace = generate_trace(
            StreamConfig(duration_s=600.0, sample_rate_hz=10.0, seed=11),
            sorted(w.topology.sensor_node),
        )
        return w, trace, {
            "co": (p, cloud_only(w, p).assignment),
            "eo": (p, edge_only(w, p).assignment),
            "ref05": (p, solve(w, p, SolverConfig(delta=0.05)).assignment),
            "cap90": (q, solve(wq, q, SolverConfig(delta=0.25)).assignment),
            "all035": (p, Assignment.from_op_gamma(w, dict.fromkeys(w.by_id, 0.35))),
        }

    @pytest.fixture(scope="class")
    def loaded(self, reference, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "t.bin")
        save_trace(path, reference[1])
        return load_trace(path)

    @pytest.mark.parametrize("placement", ["co", "eo", "ref05", "cap90", "all035"])
    def test_a_loaded_trace_gives_the_same_frames(self, reference, loaded, placement):
        w, trace, placements = reference
        p, a = placements[placement]
        assert not any(x.flags.aligned for x in list(loaded.samples.values())[::2])
        kept = run_sim(w, p, a, trace, collect_frames=True)
        read = run_sim(w, p, a, loaded, collect_frames=True)
        assert read.frames
        assert frame_fields(read) == frame_fields(kept)
        assert report_fields(read) == report_fields(kept)

    @pytest.mark.parametrize("placement", ["co", "eo", "ref05", "cap90", "all035"])
    def test_totals_are_the_frames(self, reference, placement):
        # The report's per-operator counts and its byte totals agree with the
        # frames themselves, kind by kind.
        w, trace, placements = reference
        p, a = placements[placement]
        rep = run_sim(w, p, a, trace, collect_frames=True)
        for kind, frames, payload, wire in (
            (KIND_RESULT, "res_frames", rep.res_payload_bytes, rep.res_wire_bytes),
            (KIND_INTERMEDIATE, "int_frames", rep.int_payload_bytes, rep.int_wire_bytes),
            (KIND_RAW, None, rep.raw_payload_bytes, rep.raw_wire_bytes),
        ):
            sent = [f for f in rep.frames if f.kind == kind]
            if frames is not None:
                per_op = dict.fromkeys(rep.per_op, 0)
                for f in sent:
                    per_op[f.op_id] += 1
                assert per_op == {i: getattr(s, frames) for i, s in rep.per_op.items()}
            assert sum(8 * len(f.payload) for f in sent) == payload
            assert sum(f.wire_size for f in sent) == wire
        assert rep.total_wire_bytes == sum(f.wire_size for f in rep.frames)

    @pytest.mark.parametrize("placement", ["co", "eo", "ref05", "cap90"])
    def test_reference(self, reference, placement):
        w, trace, placements = reference
        p, a = placements[placement]
        bare = run_sim(w, p, a, trace)
        framed = run_sim(w, p, a, trace, collect_frames=True)
        assert bare.frames is None and framed.frames
        assert report_fields(framed) == report_fields(bare)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        ratios=st.lists(
            st.one_of(st.sampled_from([0.0, 0.35, 0.5, 1.0]), st.floats(0.0, 1.0)),
            min_size=6, max_size=6,
        ),
        duration=st.sampled_from([7.0, 13.7, 30.0]),
        rate=st.sampled_from([3.0, 7.5, 10.0]),
    )
    def test_random_workloads(self, seed, ratios, duration, rate):
        rng = random.Random(seed)
        w = random_workload(rng, max_ops=6)
        p = random_profile(w, rng)
        a = Assignment.from_op_gamma(w, {op.id: ratios[i] for i, op in enumerate(w.operators)})
        trace = generate_trace(StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=seed), w.sensors)
        bare = run_sim(w, p, a, trace)
        framed = run_sim(w, p, a, trace, collect_frames=True)
        assert report_fields(framed) == report_fields(bare)


class TestAnalyticBytesOnRandomWorkloads:
    """Criterion 6 beyond the reference: the replay's payload bytes equal the
    dedup objective over the trace, on random workloads and placements. The
    two count the same raw samples only where every sensor's ratio times its
    samples per trace is a whole number: the replay floors each sensor's
    streamed sample count, the model prices ratio x rate x horizon. Every
    ratio here is a multiple of 0.05, over 1,200 or 600 samples a sensor, so
    at 120 s and 10 Hz and at 600 s and 1 Hz the two are equal. At the other
    timebases they differ by at most 12 B per streaming sensor: 1.5 samples
    of 8 B, half a sample from round(duration x rate) and one from the
    replay's floor."""

    RATIOS = (0.0, 0.05, 0.25, 0.35, 0.5, 0.65, 0.9, 0.95, 1.0)

    @pytest.mark.parametrize("duration, rate, slack", [
        (120.0, 10.0, 0), (600.0, 1.0, 0), (37.0, 10.0, 12), (41.3, 3.3, 12), (19.9, 7.7, 12),
    ])
    def test_replayed_bytes_equal_the_analytic_bytes(self, duration, rate, slack):
        config = StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=0)
        for seed in range(60):
            rng = random.Random(seed)
            w = random_workload(rng, max_ops=6)
            p = generate_profile(w, sample_rate_hz=rate)
            inst, trace = Instance.build(w, p), generate_trace(config, w.sensors)
            for _ in range(3):
                a = Assignment.from_op_gamma(
                    w, {op.id: rng.choice(self.RATIOS) for op in w.operators}
                )
                simulated = run_sim(w, p, a, trace).total_payload_bytes
                streaming = sum(not runs_at_edge(g) for g in a.gamma_sensor.values())
                gap = abs(simulated - inst.objective(a, "dedup", duration))
                assert gap <= slack * streaming, (seed, a.gamma)


class TestDecreasingAvailability:
    """An input whose availability falls from one emission to the next. Op 2
    takes the last of op 1's 7 s emissions each second, and its 15 B/s link
    makes op 1 late, so op 2's windows that hold an emission of op 1 are
    available seconds after those that hold none. Op 3's inputs are in at the
    latest availability among the emissions in its window, not at the last
    emission's: taking the last gives op 3 a mean latency of 0.862 s. Pinned
    at the replay that took that maximum through eval_windows(MAX)."""

    FIELDS = ("windows", "emissions", "latency_mean_s", "latency_p50_s", "latency_p95_s",
              "latency_max_s", "t_req_s", "t_req_violations")
    PINNED = {
        1: (42, 42, 6.466666910416664, 6.46666691041667, 6.466666910416677,
            6.466666910416677, 41.06666693479168, 0),
        2: (300, 300, 0.9053335237083301, 1.56249996052793e-07, 6.466667066666673,
            6.466667066666673, 1.7187500000000002e-07, 42),
        3: (30, 30, 3.366667222916658, 3.4666672229166604, 6.466667222916663,
            6.466667222916669, 1.7187500000000002e-07, 30),
    }

    def test_matches_the_pinned_figures(self):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, True, 7, 7, 7),
                (2, (), (1,), F.LAST, True, 1, 1, 1),
                (3, (), (2,), F.MAX, True, 10, 10, 10),
            ],
            {1: 1},
        )
        p = generate_profile(w, bandwidth_bps=15.0)
        a = Assignment.from_op_gamma(w, {1: 1.0, 2: 1.0, 3: 1.0})
        trace = generate_trace(StreamConfig(duration_s=300.0, sample_rate_hz=10.0, seed=1), [1])
        rep = run_sim(w, p, a, trace)
        for op, row in self.PINNED.items():
            stats = rep.per_op[op]
            assert tuple(getattr(stats, f) for f in self.FIELDS) == row, f"operator {op}"
            assert (stats.int_frames, stats.res_frames) == (0, 0)
        assert (rep.raw_payload_bytes, rep.total_wire_bytes, rep.warnings) == (24000, 29100, [])


class TestNoWindowValuesWithoutFrames:
    """Window values reach only frame payloads: a replay that collects no
    frames evaluates no window function."""

    @pytest.fixture
    def refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a window function ran without frames")

        monkeypatch.setattr(simulator, "eval_windows", refuse)
        monkeypatch.setattr(simulator, "split_windows", refuse)

    def test_reference(self, refused):
        w = generate_reference_workload()
        p = generate_profile(w)
        wq, q = capped_reference(0.9)
        trace = generate_trace(
            StreamConfig(duration_s=600.0, sample_rate_hz=10.0, seed=11), w.sensors
        )
        placements = {
            "co": (p, cloud_only(w, p).assignment),
            "eo": (p, edge_only(w, p).assignment),
            "cap90": (q, solve(wq, q, SolverConfig(delta=0.25)).assignment),
        }
        for pp, a in placements.values():
            assert run_sim(w, pp, a, trace).frames is None
        # The refusal is in place: collecting frames reaches it.
        with pytest.raises(AssertionError, match="without frames"):
            run_sim(w, p, placements["co"][1], trace, collect_frames=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads(self, refused, seed):
        rng = random.Random(seed)
        w = random_workload(rng, max_ops=6)
        p = random_profile(w, rng)
        a = Assignment.from_op_gamma(
            w, {op.id: rng.choice((0.0, 0.35, 1.0, rng.random())) for op in w.operators}
        )
        trace = generate_trace(StreamConfig(duration_s=30.0, sample_rate_hz=7.5, seed=seed), w.sensors)
        assert run_sim(w, p, a, trace).frames is None


class TestEmissions:
    def test_sample_and_hold_emissions(self):
        w = build_workload([(1, (1,), (), F.MEAN, True, 4, 2, 1)], {1: 1})
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: 0.0})
        trace = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=2), [1])
        s = run_sim(w, p, a, trace).per_op[1]
        assert s.windows == 4  # closes at 4, 6, 8, 10
        assert s.emissions == 7  # every second from t=4 on

    def test_a_window_just_past_the_trace_warns_and_closes_none(self):
        # 10 s windows every 1e-12 s over a 10 s - 5e-10 s trace: the window
        # is inside the 1e-9 slack yet longer than the trace, so no window
        # closes; the warning reads that count and the model prices nothing.
        w = build_workload([(1, (1,), (), F.MEAN, True, 10, 1e-12, 10)], {1: 1})
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: 0.0})
        duration = 10.0 - 5e-10
        trace = generate_trace(StreamConfig(duration_s=duration, sample_rate_hz=10, seed=2), [1])
        rep = run_sim(w, p, a, trace)
        assert rep.warnings == [
            f"operator 1: window 10.0s exceeds the trace ({duration}s); no windows close"
        ]
        assert (rep.per_op[1].windows, rep.total_payload_bytes) == (0, 0)
        assert Instance.build(w, p).objective(a, "dedup", duration) == 0


class TestComposite:
    def composite_setup(self, g_atomic, g_comp):
        w = build_workload(
            [
                (1, (1,), (), F.MEAN, False, 5, 5, 5),
                (2, (), (1,), F.LAST, False, 5, 5, 5),
            ],
            {1: 1},
        )
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: g_atomic, 2: g_comp})
        trace = generate_trace(StreamConfig(duration_s=10, sample_rate_hz=10, seed=3), [1])
        return w, p, a, trace

    def test_composite_consumes_dependency_emissions(self):
        w, p, a, trace = self.composite_setup(0.0, 0.0)
        rep = run_sim(w, p, a, trace)
        assert rep.per_op[2].windows == 2
        assert rep.warnings == []

    def test_cross_placement_warning(self):
        w, p, a, trace = self.composite_setup(1.0, 0.0)
        rep = run_sim(w, p, a, trace)
        assert any("cloud" in msg for msg in rep.warnings)


class TestFraming:
    def test_round_trip_all_kinds(self):
        payloads = {
            KIND_RAW: np.arange(5, dtype=np.float64),
            KIND_INTERMEDIATE: np.array([1.5, float("inf"), -0.0]),
            KIND_RESULT: np.zeros(1),
        }
        buf = b""
        frames = []
        for kind, payload in payloads.items():
            f = Frame(kind=kind, op_id=3, sensor_id=7, window_idx=11, payload=payload)
            frames.append(f)
            buf += encode_frame(f)
        offset = 0
        for want in frames:
            got, offset = decode_frame(buf, offset)
            assert (got.kind, got.op_id, got.sensor_id, got.window_idx) == (
                want.kind, want.op_id, want.sensor_id, want.window_idx,
            )
            assert np.array_equal(got.payload, want.payload)
            assert got.wire_size == 17 + 8 * len(want.payload)
        assert offset == len(buf)

    def test_truncated_buffers_rejected(self):
        f = Frame(kind=KIND_RAW, op_id=0, sensor_id=1, window_idx=0,
                  payload=np.arange(4, dtype=np.float64))
        buf = encode_frame(f)
        with pytest.raises(ValueError):
            decode_frame(buf[:10])
        with pytest.raises(ValueError):
            decode_frame(buf[:-3])


class TestDeterminism:
    def test_identical_runs_produce_identical_reports(self):
        w, p, a, trace = tiny_setup(0.5)
        r1 = run_sim(w, p, a, trace)
        r2 = run_sim(w, p, a, trace)
        assert r1 == r2

    def test_trace_generation_is_seeded(self):
        cfg = StreamConfig(duration_s=5, sample_rate_hz=10, seed=42)
        t1 = generate_trace(cfg, [1, 2])
        t2 = generate_trace(cfg, [1, 2])
        for s in (1, 2):
            assert np.array_equal(t1.samples[s], t2.samples[s])
        t3 = generate_trace(dataclasses.replace(cfg, seed=43), [1, 2])
        assert not np.array_equal(t1.samples[1], t3.samples[1])

    def test_sensor_streams_are_independent_of_listing_order(self):
        cfg = StreamConfig(duration_s=5, sample_rate_hz=10, seed=42)
        t1 = generate_trace(cfg, [1, 2])
        t2 = generate_trace(cfg, [2, 1])
        assert np.array_equal(t1.samples[1], t2.samples[1])

    def test_trace_cap_counts_every_sensor(self, monkeypatch):
        # 5 s at 10 Hz on two sensors is 100 samples: at the cap it is made,
        # one under it it is refused before any array is built.
        cfg = StreamConfig(duration_s=5, sample_rate_hz=10, seed=42)
        monkeypatch.setattr(simulator, "TRACE_SAMPLE_CAP", 100)
        assert [len(x) for x in generate_trace(cfg, [1, 2]).samples.values()] == [50, 50]
        monkeypatch.setattr(simulator, "TRACE_SAMPLE_CAP", 99)
        monkeypatch.setattr(simulator.np, "arange", None)
        with pytest.raises(ValueError, match="2 sensors x 50 samples is over the trace cap of 99"):
            generate_trace(cfg, [1, 2])

    def test_a_bad_sensor_id_is_refused_before_drawing(self, monkeypatch):
        # Every id is checked before the first sensor's stream is drawn.
        def spy(*args):
            raise AssertionError("drew a stream before the ids were checked")

        monkeypatch.setattr(simulator.np.random, "default_rng", spy)
        with pytest.raises(ValueError, match=f"^sensor {2**32} is outside a trace's id range"):
            generate_trace(StreamConfig(duration_s=5, sample_rate_hz=10, seed=1), [1, 2, 3, 2**32])

    def test_a_negative_seed_is_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(simulator.np.random, "default_rng", None)
        with pytest.raises(ValueError, match="^seed must not be negative, got -1$"):
            generate_trace(StreamConfig(duration_s=5, sample_rate_hz=10, seed=-1), [1])

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), None, "3", True, False],
                             ids=["float", "numpy-float", "none", "str", "true", "false"])
    def test_a_seed_that_is_not_an_integer_is_refused_before_drawing(self, monkeypatch, seed):
        monkeypatch.setattr(simulator.np.random, "default_rng", None)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            generate_trace(StreamConfig(duration_s=5, sample_rate_hz=10, seed=seed), [1])

    @pytest.mark.parametrize("seed, same_as", [(np.int64(3), 3), (np.uint64(2**64 - 1), 2**64 - 1),
                                               (2**64 + 5, None)],
                             ids=["int64", "uint64", "over-2**64"])
    def test_integer_seeds_of_any_type_and_size_are_taken(self, seed, same_as):
        cfg = StreamConfig(duration_s=5, sample_rate_hz=10, seed=seed)
        got = generate_trace(cfg, [1, 2]).samples
        assert all(len(x) == 50 for x in got.values())
        if same_as is not None:
            want = generate_trace(dataclasses.replace(cfg, seed=same_as), [1, 2]).samples
            assert all(np.array_equal(got[s], want[s]) for s in (1, 2))

    @pytest.mark.parametrize(
        "duration, step, freq, over",
        [
            (10.0, 1.0, 1.0, None),
            (10.5, 1.0, 1.0, "11 whole seconds"),
            (10.0, 0.9, 1.0, "11 window closes of operator 1"),
            (10.0, 1.0, 0.9, "11 emissions of operator 1"),
        ],
        ids=["at-the-cap", "seconds", "closes", "emissions"],
    )
    def test_replay_cap_counts_seconds_closes_and_emissions(self, monkeypatch, duration,
                                                            step, freq, over):
        # With the cap at 10, a 1 s mean over 10 s closes 10 windows and
        # emits 10 times: it runs. A trace 0.5 s longer has 11 whole seconds,
        # a 0.9 s step 11 closes and a 0.9 s freq 11 emissions; each of those
        # alone is refused before any array is built.
        w = build_workload([(1, (1,), (), F.MEAN, True, 1, step, freq)], {1: 1})
        p = generate_profile(w)
        a = Assignment.from_op_gamma(w, {1: 0.5})
        trace = generate_trace(StreamConfig(duration_s=duration, sample_rate_hz=1), [1])
        monkeypatch.setattr(simulator, "TRACE_SAMPLE_CAP", 10)
        if over is None:
            rep = run_sim(w, p, a, trace)
            assert (rep.per_op[1].windows, rep.per_op[1].emissions) == (10, 10)
            return
        monkeypatch.setattr(simulator.np, "zeros", None)
        monkeypatch.setattr(simulator.np, "arange", None)
        with pytest.raises(ValueError, match=f"^{over} are over the replay cap of 10$"):
            run_sim(w, p, a, trace)


def direct_trace(config, sid):
    """Sensor `sid`'s stream of `config` by the direct formula, with its
    parameters and noise drawn as generate_trace draws them."""
    rng = np.random.default_rng([config.seed, sid])
    offset, amplitude, period_s, phase, noise_std = (
        rng.uniform(lo, hi)
        for lo, hi in [(-5.0, 5.0), (0.5, 3.0), (30.0, 900.0), (0.0, 2.0 * math.pi), (0.01, 0.3)]
    )
    n = round(config.duration_s * config.sample_rate_hz)
    t = np.arange(n) / config.sample_rate_hz
    wave = offset + amplitude * np.sin(2.0 * math.pi * t / period_s + phase)
    return wave + rng.normal(0.0, noise_std, n)


class TestSinusoids:
    """generate_trace takes each sine by angle addition over a block grid;
    it must agree with the direct formula to rounding."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64), duration=st.floats(1e-3, 86400.0),
           rate=st.floats(1e-3, 10.0),
           sensors=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))
    def test_matches_the_direct_formula(self, seed, duration, rate, sensors):
        config = StreamConfig(duration_s=duration, sample_rate_hz=rate, seed=seed)
        samples = generate_trace(config, sensors).samples
        for sid in sensors:
            want = direct_trace(config, sid)
            assert samples[sid].shape == want.shape
            assert np.abs(samples[sid] - want).max(initial=0.0) <= 1e-9

    def test_matches_the_direct_formula_at_the_reference_scale(self):
        # One hour at 10 Hz on 170 sensors, as the benchmark's trace.
        config = StreamConfig(duration_s=3600.0, sample_rate_hz=10.0, seed=1)
        samples = generate_trace(config, range(1, 171)).samples
        assert len(samples) == 170
        for sid, x in samples.items():
            assert np.abs(x - direct_trace(config, sid)).max() <= 1e-9


class TestIndependence:
    def test_shares_only_the_input_types_with_the_cost_model(self):
        # The replay checks the cost model only while it prices nothing
        # through it: from costs it takes the input types, the deadline and
        # the close count, and it imports no search or check.
        tree = ast.parse(Path(simulator.__file__).read_text(encoding="utf-8"))
        imported: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                imported.setdefault(module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    imported.setdefault(a.name, set())
        costs = imported.get(".costs", set()) | imported.get("splitstream.costs", set())
        assert costs <= {"Assignment", "Profile", "effective_t_req", "windows_in_horizon"}
        for name in ("solver", "feasibility", "baselines"):
            assert not {m for m in imported if m.rsplit(".", 1)[-1] == name}, name
            assert all(name not in names for names in imported.values()), name

    def test_only_the_model_and_the_range_checks_name_the_ratio_tolerance(self):
        # Where a window runs (edge, split or cloud) is one rule in model;
        # feasibility keeps GAMMA_TOL only for its C1/C2 range test and its
        # C9 equality test. Any other module naming it is a second home.
        package = Path(simulator.__file__).parent
        named = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update((node.name, node.asname))
            if "GAMMA_TOL" in names:
                named.append(path.name)
        assert named == ["feasibility.py", "model.py"]
