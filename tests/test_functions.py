"""Window functions: monolithic definitions, split-merge algebra, state sizes.

Oracles are written out longhand from each function's definition rather than
calling back into the library.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream import (
    REFERENCE_SAMPLE_RATE_HZ,
    FunctionKind,
    eval_function,
    is_splittable,
    merge,
    merge_states,
    output_arity,
    partial_eval,
    state_length,
    state_to_vector,
)
from splitstream import functions
from splitstream.functions import (
    CROSS_CHANNEL,
    PER_CHANNEL,
    SPLITTABLE,
    Channel,
    eval_windows,
    split_windows,
)

F = FunctionKind
RATE = REFERENCE_SAMPLE_RATE_HZ


def make_window(rng, n, offset=0.0):
    x = rng.normal(loc=3.0, scale=2.0, size=n)
    t = offset + np.arange(n) / RATE
    return x, t


def oracle_channel(func, x, t, rate=RATE):
    n = len(x)
    if n == 0:
        return 0.0
    if func is F.MEAN:
        return np.mean(x)
    if func is F.MSQRT:
        return math.sqrt(np.mean(x * x))
    if func is F.MAX:
        return np.max(x)
    if func is F.MIN:
        return np.min(x)
    if func is F.FIRST:
        return x[0]
    if func is F.LAST:
        return x[-1]
    if func is F.RANGE:
        return np.max(x) - np.min(x)
    if func is F.STD:
        return np.std(x)
    if func is F.VAR:
        return np.var(x)
    if func is F.DISP:  # displacement from a zero baseline
        return np.mean(x)
    if func is F.FILTER:  # the last five samples
        return np.mean(x[-min(5, n):])
    if func is F.SURGE:
        m = np.mean(x)
        return x[-1] / m if m != 0 else 0.0
    if func is F.GF:
        k = max(1, round(3.0 * rate))  # a 3 s sub-window
        m = np.mean(x)
        if m == 0:
            return 0.0
        if n < k:
            return 1.0
        rolling = np.convolve(x, np.ones(k), mode="valid") / k
        return np.max(rolling) / m
    if func in (F.SPEED, F.ACC):
        if n < 2:
            return 0.0
        dt = t[-1] - t[-2]
        return (x[-1] - x[-2]) / dt if dt != 0 else 0.0
    if func is F.TREND:
        tc = t - t.mean()
        denom = np.dot(tc, tc)
        return np.dot(tc, x - x.mean()) / denom if denom != 0 else 0.0
    raise AssertionError(func)


def oracle_cross(func, x, y):
    if len(x) == 0:
        return 0.0
    if func is F.COV:
        return np.mean((x - x.mean()) * (y - y.mean()))
    if func is F.CC:
        dx, dy = x - x.mean(), y - y.mean()
        denom = math.sqrt(np.dot(dx, dx) * np.dot(dy, dy))
        return np.dot(dx, dy) / denom if denom != 0 else 0.0
    if func is F.AVGWS:
        return np.mean(np.hypot(x, y))
    if func is F.AVGWA:
        return math.degrees(math.atan2(y.mean(), x.mean())) % 360.0
    if func is F.AOA:
        return math.atan2(y.mean(), x.mean())
    if func is F.AWD:
        mx, my = x.mean(), y.mean()
        if mx == 0:
            return math.copysign(math.pi / 2, my) if my != 0 else 0.0
        return math.atan(my / mx)
    if func is F.FWS:
        return x[-1] - np.mean(x)
    if func is F.TI:
        m = np.mean(x)
        return np.std(y) / m if m != 0 else 0.0
    raise AssertionError(func)


class TestCatalogShape:
    def test_every_function_is_classified(self):
        assert PER_CHANNEL | CROSS_CHANNEL == set(F)
        assert not PER_CHANNEL & CROSS_CHANNEL

    def test_splittable_set_is_pinned(self):
        expect = {
            F.MEAN, F.MSQRT, F.STD, F.VAR, F.COV, F.SPEED, F.ACC, F.DISP,
            F.TREND, F.SURGE, F.AVGWS, F.GF, F.AOA, F.AWD,
        }
        assert SPLITTABLE == expect
        assert len(SPLITTABLE) == 14
        for func in F:
            assert is_splittable(func) == (func in expect)

    def test_output_arity(self):
        assert output_arity(F.MEAN, 3) == 3
        assert output_arity(F.COV, 2) == 1
        assert output_arity(F.TI, 5) == 1
        assert output_arity(F.MEAN, 0) == 0


class TestMonolithic:
    @pytest.mark.parametrize("func", sorted(PER_CHANNEL, key=lambda f: f.value))
    def test_per_channel_matches_oracle(self, func):
        rng = np.random.default_rng(sum(ord(c) for c in func.value))
        for n in (1, 2, 5, 40, 200):
            chans, ts = [], []
            for _ in range(2):
                x, t = make_window(rng, n)
                chans.append(x)
                ts.append(t)
            got = eval_function(func, chans, ts)
            assert got.shape == (2,)
            for c in range(2):
                want = oracle_channel(func, chans[c], ts[c])
                assert got[c] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("func", sorted(CROSS_CHANNEL, key=lambda f: f.value))
    def test_cross_channel_matches_oracle(self, func):
        rng = np.random.default_rng(sum(ord(c) for c in func.value) + 1)
        for n in (1, 3, 50):
            x, t = make_window(rng, n)
            y, _ = make_window(rng, n)
            got = eval_function(func, [x, y], [t, t])
            assert got.shape == (1,)
            assert got[0] == pytest.approx(oracle_cross(func, x, y), rel=1e-12, abs=1e-12)

    def test_cross_single_channel_pairs_with_itself(self):
        rng = np.random.default_rng(5)
        x, t = make_window(rng, 30)
        got = eval_function(F.COV, [x], [t])
        assert got[0] == pytest.approx(np.var(x), rel=1e-12)

    def test_cross_unequal_lengths_align_on_tail(self):
        rng = np.random.default_rng(6)
        x, _ = make_window(rng, 30)
        y, _ = make_window(rng, 20)
        got = eval_function(F.COV, [x, y])
        assert got[0] == pytest.approx(oracle_cross(F.COV, x[-20:], y), rel=1e-12)

    def test_empty_window_yields_zeros(self):
        empty = np.zeros(0)
        assert eval_function(F.MEAN, [empty]).tolist() == [0.0]
        assert eval_function(F.COV, [empty, empty]).tolist() == [0.0]
        assert eval_function(F.MEAN, []).shape == (0,)

    def test_extremes_keep_the_first_of_tied_zeros(self):
        # Python's max and min keep the first of equal values, so a window
        # whose extreme ties -0.0 and 0.0 has one answer, sign included.
        rng = np.random.default_rng(3)
        zeros = np.where(rng.random((2_000, 9)) < 0.5, -0.0, 0.0)
        zeros[:, 4] = rng.choice([-1.0, 1.0, 0.0], size=len(zeros))
        rows = np.concatenate([zeros, rng.normal(size=(500, 9))])
        rows[-20:, 3] = np.nan
        lo = np.arange(len(rows)) * rows.shape[1]
        channel = Channel(rows.ravel(), lo, lo + rows.shape[1])
        got = {f: eval_windows(f, [channel])[:, 0] for f in (F.MAX, F.MIN, F.RANGE)}
        for r, row in enumerate(rows[:len(zeros)].tolist()):
            for f, want in ((F.MAX, max(row)), (F.MIN, min(row)), (F.RANGE, max(row) - min(row))):
                assert got[f][r] == want and math.copysign(1.0, got[f][r]) == math.copysign(1.0, want)
        # By value, NaN included: the first NaN, as numpy's reductions give.
        np.testing.assert_array_equal(got[F.MAX], rows.max(axis=1))
        np.testing.assert_array_equal(got[F.MIN], rows.min(axis=1))
        np.testing.assert_array_equal(got[F.RANGE], rows.max(axis=1) - rows.min(axis=1))

    def test_filter_averages_five_samples_and_disp_has_no_baseline(self):
        x = np.arange(10, dtype=float)
        assert eval_function(F.FILTER, [x])[0] == pytest.approx(7.0)
        assert eval_function(F.DISP, [x])[0] == pytest.approx(4.5)

    def test_default_times_use_sample_rate(self):
        x = np.array([0.0, 1.0, 3.0])
        got = eval_function(F.SPEED, [x])  # dt = 1/rate
        assert got[0] == pytest.approx(2.0 * RATE, rel=1e-12)
        assert eval_function(F.SPEED, [x], rate=4.0)[0] == pytest.approx(8.0, rel=1e-12)


class TestSplitMerge:
    @pytest.mark.parametrize("func", sorted(SPLITTABLE, key=lambda f: f.value))
    def test_prefix_plus_suffix_equals_whole(self, func):
        rng = np.random.default_rng(sum(ord(c) for c in func.value) + 2)
        n_channels = 2
        for n in (4, 37, 120):
            chans, ts = [], []
            for _ in range(n_channels):
                x, t = make_window(rng, n, offset=17.0)
                chans.append(x)
                ts.append(t)
            whole = eval_function(func, chans, ts)
            for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
                cut = round(frac * n)
                state = partial_eval(
                    func, [c[:cut] for c in chans], [t[:cut] for t in ts]
                )
                got = merge(
                    func, state, [c[cut:] for c in chans], [t[cut:] for t in ts]
                )
                np.testing.assert_allclose(got, whole, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("func", sorted(SPLITTABLE, key=lambda f: f.value))
    def test_three_way_state_merge(self, func):
        rng = np.random.default_rng(sum(ord(c) for c in func.value) + 3)
        n = 60
        x, t = make_window(rng, n)
        whole = eval_function(func, [x], [t])
        s1 = partial_eval(func, [x[:20]], [t[:20]])
        s2 = partial_eval(func, [x[20:45]], [t[20:45]])
        s3 = partial_eval(func, [x[45:]], [t[45:]])
        combined = merge_states(merge_states(s1, s2), s3)
        got = merge(func, combined, [np.zeros(0)], [np.zeros(0)])
        np.testing.assert_allclose(got, whole, rtol=1e-9, atol=1e-12)

    def test_gf_peak_straddling_the_cut_is_found(self):
        # The best sub-window overlaps the split point; the boundary buffers
        # must reconstruct it exactly. k = 30 samples at 10 Hz.
        x = np.full(100, 1.0)
        x[40:60] = 9.0
        t = np.arange(100) / 10.0
        whole = eval_function(F.GF, [x], [t])
        for cut in (35, 50, 65):
            state = partial_eval(F.GF, [x[:cut]], [t[:cut]])
            got = merge(F.GF, state, [x[cut:]], [t[cut:]])
            np.testing.assert_allclose(got, whole, rtol=1e-12)

    def test_speed_uses_last_two_points_across_the_cut(self):
        x = np.array([0.0, 1.0, 4.0, 9.0])
        t = np.array([0.0, 0.1, 0.2, 0.4])
        whole = eval_function(F.SPEED, [x], [t])
        state = partial_eval(F.SPEED, [x[:3]], [t[:3]])
        got = merge(F.SPEED, state, [x[3:]], [t[3:]])
        np.testing.assert_allclose(got, whole, rtol=1e-12)
        assert whole[0] == pytest.approx((9.0 - 4.0) / 0.2, rel=1e-12)


class TestStateVectors:
    @pytest.mark.parametrize("func", sorted(SPLITTABLE, key=lambda f: f.value))
    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    def test_vector_length_matches_declared_size(self, func, n_channels):
        rng = np.random.default_rng(9)
        chans, ts = [], []
        for _ in range(n_channels):
            x, t = make_window(rng, 25)
            chans.append(x)
            ts.append(t)
        state = partial_eval(func, chans, ts)
        vec = state_to_vector(state)
        assert len(vec) == state_length(func, n_channels)

    def test_non_splittable_have_no_state(self):
        for func in F:
            if func not in SPLITTABLE:
                assert state_length(func, 2) == 0

    def test_merging_different_functions_rejected(self):
        rng = np.random.default_rng(10)
        x, t = make_window(rng, 10)
        a = partial_eval(F.MEAN, [x], [t])
        b = partial_eval(F.VAR, [x], [t])
        with pytest.raises(ValueError):
            merge_states(a, b)

    def test_merging_states_of_different_channel_counts_rejected(self):
        x = np.arange(20, dtype=float)
        one, two = partial_eval(F.MEAN, [x]), partial_eval(F.MEAN, [x, x])
        for a, b in ((one, two), (two, one)):
            with pytest.raises(ValueError, match="different channel counts"):
                merge_states(a, b)

    def test_merging_gf_states_of_different_sub_windows_rejected(self):
        # A GF state carries its sub-window: 30 samples at 10 Hz, 4 at 4/3 Hz.
        x = np.arange(40, dtype=float)
        a = partial_eval(F.GF, [x[:20]], rate=10.0)
        b = partial_eval(F.GF, [x[20:]], rate=4.0 / 3.0)
        with pytest.raises(ValueError, match="sub-windows"):
            merge_states(a, b)
        with pytest.raises(ValueError, match="sub-windows"):
            merge(F.GF, a, [x[20:]], rate=4.0 / 3.0)
        np.testing.assert_allclose(
            merge(F.GF, a, [x[20:]], rate=10.0), eval_function(F.GF, [x], rate=10.0), rtol=1e-12
        )


class TestBatchEqualsRows:
    """eval_windows and split_windows over a ragged window set against one
    eval_function / partial_eval + merge call per window."""

    @staticmethod
    def ragged(seed, spans, timed, rate):
        rng = np.random.default_rng(seed)
        channels = []
        for c, windows in enumerate(spans):
            lo = np.array([start for start, _ in windows], dtype=np.int64)
            hi = lo + np.array([n for _, n in windows], dtype=np.int64)
            size = int(hi.max(initial=0))
            values = rng.normal(loc=3.0, scale=2.0, size=size)
            if timed[c]:
                times = 17.0 + np.cumsum(rng.uniform(0.05, 0.2, size=size))
                channels.append(Channel(values, lo, hi, times=times))
            else:
                channels.append(Channel(values, lo, hi, rate=rate))
        return channels

    @staticmethod
    def window(ch, i):
        lo, hi = int(ch.lo[i]), int(ch.hi[i])
        times = ch.times[lo:hi] if ch.times is not None else np.arange(lo, hi) / ch.rate
        return ch.values[lo:hi], times

    @settings(max_examples=300, deadline=None)
    @given(
        func=st.sampled_from(sorted(F, key=lambda f: f.value)),
        n_windows=st.integers(0, 8),
        n_channels=st.integers(1, 3),
        data=st.data(),
        rate=st.sampled_from([RATE, 4.0 / 3.0]),  # GF's k is 30, then 4
        edge_share=st.sampled_from([0.0, 0.3, 0.5, 0.77, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([functions._BLOCK_SAMPLES, 7]),
    )
    def test_one_batch_call_matches_per_row_calls(
        self, func, n_windows, n_channels, data, rate, edge_share, seed, block
    ):
        # A small block splits a length group over several matrices.
        with mock.patch.object(functions, "_BLOCK_SAMPLES", block):
            self.check(func, n_windows, n_channels, data, rate, edge_share, seed)

    def check(self, func, n_windows, n_channels, data, rate, edge_share, seed):
        # Lengths run from empty through shorter than k to several k, and
        # differ between channels so cross-channel tails are aligned.
        window = st.tuples(st.integers(0, 30), st.integers(0, 40))
        spans = [
            data.draw(st.lists(window, min_size=n_windows, max_size=n_windows))
            for _ in range(n_channels)
        ]
        timed = data.draw(st.lists(st.booleans(), min_size=n_channels, max_size=n_channels))
        channels = self.ragged(seed, spans, timed, rate)
        whole = eval_windows(func, channels, rate)
        assert whole.shape == (n_windows, output_arity(func, n_channels))
        for i in range(n_windows):
            chans, ts = zip(*(self.window(ch, i) for ch in channels))
            np.testing.assert_allclose(
                whole[i], eval_function(func, chans, ts, rate), rtol=1e-9, atol=1e-12
            )
        if func not in SPLITTABLE:
            with pytest.raises(ValueError):
                split_windows(func, channels, edge_share, rate)
            return
        split, states = split_windows(func, channels, edge_share, rate)
        assert states.shape == (n_windows, state_length(func, n_channels, rate))
        for i in range(n_windows):
            chans, ts = zip(*(self.window(ch, i) for ch in channels))
            cuts = [int(round(edge_share * len(x))) for x in chans]
            state = partial_eval(
                func, [x[:c] for x, c in zip(chans, cuts)], [t[:c] for t, c in zip(ts, cuts)], rate
            )
            merged = merge(
                func, state, [x[c:] for x, c in zip(chans, cuts)],
                [t[c:] for t, c in zip(ts, cuts)], rate,
            )
            np.testing.assert_allclose(split[i], merged, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                states[i], state_to_vector(state), rtol=1e-9, atol=1e-12
            )
