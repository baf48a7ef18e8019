"""Window-function registry: evaluation, partial aggregation, merging.

Functions fall into two shapes. Per-channel functions map independently over
every input channel (output arity = channel count). Cross-channel functions
combine the first two channels into one value; a single channel is paired
with itself. Composite operators feed dependency outputs in as channels, so
the same registry serves raw windows and derived series.

Splittable functions (the catalog's iterative ones) additionally support
partial_eval/merge: the edge evaluates a prefix into a PartialState, the
cloud folds in the remaining samples, and the merged result must match a
monolithic evaluation to 1e-9 relative. Each has one partial form, one
merge and one finalize, whatever channel shape feeds it. Partial states
carry moments shifted to a per-part reference where naive running sums
would lose precision (std/var/cov/trend at large sample magnitudes).

Every kernel works on a batch: a (windows x samples) matrix whose rows are
windows of one length. eval_windows and split_windows take each channel's
windows as index ranges into a sample source, group the windows by length
and evaluate each group as one matrix; eval_function, partial_eval and
merge run the same driver on one window. Only evaluating samples takes the
sample rate (GF's sub-window is GF_SUBWINDOW_S long); a GF state carries
its sub-window, so merging and finalizing states needs no rate. A batch
partial state is a tuple whose first item is the sample count its rows
share and whose other items hold one value (or, for GF's boundary buffers,
one NaN-padded row) per window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The function metadata lives in the numpy-free model; CROSS_CHANNEL and
# is_splittable are imported for callers that read them from here.
from .model import (
    CROSS_CHANNEL,
    FILTER_LEN,
    PER_CHANNEL,
    REFERENCE_SAMPLE_RATE_HZ,
    SPLITTABLE,
    FunctionKind,
    gf_k,
    is_splittable,
    output_arity,
    state_length,
)

F = FunctionKind

# The functions that read sample times; the others never gather them.
TIMED = {F.SPEED, F.ACC, F.TREND}


@dataclass(frozen=True)
class PartialState:
    """Mergeable aggregate of a sample prefix for one splittable function:
    one batch state per channel (per-channel functions) or a single one
    (cross-channel functions)."""

    func: FunctionKind
    n_channels: int
    parts: tuple


@dataclass(frozen=True)
class Channel:
    """One input channel cut into windows: window i is samples lo[i]:hi[i]
    of `values`. Sample j was taken at times[j], or at j / rate when times
    is None."""

    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    times: np.ndarray | None = None
    rate: float = 1.0

    def take(self, start: np.ndarray, n: int, timed: bool):
        """Samples start[r] .. start[r] + n - 1 for each row r as a matrix,
        and their times when `timed` (else None)."""
        x = sliding_window_view(self.values, n)[start]
        if not timed:
            return x, None
        if self.times is not None:
            return x, sliding_window_view(self.times, n)[start]
        return x, (start[:, None] + np.arange(n)) / self.rate


def _one_window(channels: Sequence[np.ndarray], times: Sequence[np.ndarray] | None,
                rate: float) -> list[Channel]:
    """Each channel's samples as its one window."""
    xs = [np.asarray(c, dtype=np.float64) for c in channels]
    ts = [None] * len(xs) if times is None else [np.asarray(t, dtype=np.float64) for t in times]
    return [Channel(x, np.zeros(1, dtype=np.int64), np.full(1, len(x)), t, rate)
            for x, t in zip(xs, ts)]


def _pair_channels(channels: Sequence):
    """The two channels a cross-channel function pairs; one pairs with itself."""
    return channels[0], channels[1] if len(channels) > 1 else channels[0]


# Samples gathered into one matrix at most. Overlapping windows are copied
# once per window, so without a bound a long trace's sliding windows would
# take many times the trace's own memory.
_BLOCK_SAMPLES = 1 << 19


def _groups(*lengths: np.ndarray) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """The windows whose channels have the same lengths, a block at a time:
    (the lengths, the window indices in ascending order)."""
    keys = lengths[0]
    for more in lengths[1:]:
        keys = keys * (int(more.max(initial=0)) + 1) + more
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        key = tuple(int(n[rows[0]]) for n in lengths)
        block = max(1, _BLOCK_SAMPLES // max(1, *key))
        for start in range(0, len(rows), block):
            yield key, rows[start:start + block]


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 where den is 0."""
    out = np.zeros(np.broadcast(num, den).shape)
    return np.divide(num, den, out=out, where=den != 0.0)


# Row sums below go through matmul, which runs the same dot product as
# np.dot and np.convolve on a single window and gathers no copies.


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rolling_max(x: np.ndarray, k: int) -> np.ndarray:
    """Largest mean of k consecutive samples in each row (needs k <= n)."""
    return (sliding_window_view(x, k, axis=1) @ np.ones(k)).max(axis=1) / k


def _awd(mx: np.ndarray, my: np.ndarray) -> np.ndarray:
    """atan(my / mx); on the vertical axis +-pi/2, or 0 at the origin."""
    vertical = np.where(my != 0.0, np.copysign(math.pi / 2.0, my), 0.0)
    return np.where(mx == 0.0, vertical, np.arctan(_safe_div(my, mx)))


# ---------------------------------------------------------------------------
# Monolithic evaluation (independent of the partial/merge machinery).


def _first_at(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[r, idx[r]] for each row r. With argmax or argmin this is the row's
    first extreme, as Python's max and min keep, so a tie of -0.0 and 0.0
    gives the first zero, where numpy's max and min reductions may give
    either; a row with NaN gives its first NaN, as they do."""
    return np.take_along_axis(x, idx[:, None], axis=1)[:, 0]


def _eval_channel(func: FunctionKind, x: np.ndarray, t: np.ndarray | None,
                  rate: float) -> np.ndarray:
    """Value of each row of x (windows x samples); t holds the sample times
    of the TIMED functions."""
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows)
    if func in (F.MEAN, F.DISP):
        return x.mean(axis=1)
    if func is F.MSQRT:
        return np.sqrt(np.square(x).mean(axis=1))
    if func is F.MAX:
        return _first_at(x, x.argmax(axis=1))
    if func is F.MIN:
        return _first_at(x, x.argmin(axis=1))
    if func is F.FIRST:
        return x[:, 0]
    if func is F.LAST:
        return x[:, -1]
    if func is F.RANGE:
        return _first_at(x, x.argmax(axis=1)) - _first_at(x, x.argmin(axis=1))
    if func is F.STD:
        return x.std(axis=1)
    if func is F.VAR:
        return x.var(axis=1)
    if func is F.FILTER:
        m = min(FILTER_LEN, n)
        return x[:, n - m:].mean(axis=1)
    if func is F.SURGE:
        return _safe_div(x[:, -1], x.mean(axis=1))
    if func is F.GF:
        k = gf_k(rate)
        mean = x.mean(axis=1)
        if n < k:
            return np.where(mean != 0.0, 1.0, 0.0)
        return _safe_div(_rolling_max(x, k), mean)
    if func in (F.SPEED, F.ACC):
        if n < 2:
            return np.zeros(rows)
        return _safe_div(x[:, -1] - x[:, -2], t[:, -1] - t[:, -2])
    if func is F.TREND:
        tc = t - t.mean(axis=1, keepdims=True)
        return _safe_div(_rowdot(tc, x - x.mean(axis=1, keepdims=True)), _rowdot(tc, tc))
    raise ValueError(f"{func.value} is not a per-channel function")


def _eval_cross(func: FunctionKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Value of each row pair of x and y (windows x samples, tail-aligned)."""
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows)
    if func is F.COV:
        return ((x - x.mean(axis=1, keepdims=True)) * (y - y.mean(axis=1, keepdims=True))).mean(axis=1)
    if func is F.CC:
        dx = x - x.mean(axis=1, keepdims=True)
        dy = y - y.mean(axis=1, keepdims=True)
        return _safe_div(_rowdot(dx, dy), np.sqrt(_rowdot(dx, dx) * _rowdot(dy, dy)))
    if func is F.AVGWS:
        return np.hypot(x, y).mean(axis=1)
    if func is F.AVGWA:
        return np.degrees(np.arctan2(y.mean(axis=1), x.mean(axis=1))) % 360.0
    if func is F.AOA:
        return np.arctan2(y.mean(axis=1), x.mean(axis=1))
    if func is F.AWD:
        return _awd(x.mean(axis=1), y.mean(axis=1))
    if func is F.FWS:
        return x[:, -1] - x.mean(axis=1)
    if func is F.TI:
        return _safe_div(y.std(axis=1), x.mean(axis=1))
    raise ValueError(f"{func.value} is not a cross-channel function")


def eval_function(
    func: FunctionKind,
    channels: Sequence[np.ndarray],
    times: Sequence[np.ndarray] | None = None,
    rate: float = REFERENCE_SAMPLE_RATE_HZ,
) -> np.ndarray:
    """Evaluate one window; returns one value per channel (per-channel
    functions) or a single value (cross-channel functions). Sample j is
    taken at times[c][j], or at j / rate when times is None."""
    # The one window's row; no channels make no window and no values.
    return eval_windows(func, _one_window(channels, times, rate), rate).reshape(-1)


# ---------------------------------------------------------------------------
# Partial states. Absent values (no sample yet) are NaN.

_NAN = float("nan")


def _padded(x: np.ndarray, width: int) -> np.ndarray:
    """The rows of x, each padded with NaN to `width` values."""
    out = np.full((x.shape[0], width), _NAN)
    out[:, :x.shape[1]] = x
    return out


def _partial(func: FunctionKind, x: np.ndarray, y: np.ndarray | None, rate: float) -> tuple:
    """The batch state of the rows of x (windows x samples). y holds the
    paired channel's rows for a cross-channel function, and the sample
    times of x for a per-channel one (None if it reads no times)."""
    rows, n = x.shape
    if func in (F.MEAN, F.DISP):
        return (n, x.sum(axis=1))
    if func is F.MSQRT:
        return (n, np.square(x).sum(axis=1))
    if func is F.AVGWS:
        return (n, np.hypot(x, y).sum(axis=1))
    if func in (F.AOA, F.AWD):
        return (n, x.sum(axis=1), y.sum(axis=1))
    if func in (F.STD, F.VAR):
        if n == 0:
            return (0, np.zeros(rows), np.zeros(rows), np.zeros(rows))
        x0 = x[:, 0]
        d = x - x0[:, None]
        return (n, d.sum(axis=1), _rowdot(d, d), x0)
    if func is F.COV:
        if n == 0:
            return (0, *(np.zeros(rows) for _ in range(5)))
        x0, y0 = x[:, 0], y[:, 0]
        dx = x - x0[:, None]
        dy = y - y0[:, None]
        return (n, dx.sum(axis=1), dy.sum(axis=1), _rowdot(dx, dy), x0, y0)
    if func is F.SURGE:
        if n == 0:
            return (0, np.zeros(rows), np.full(rows, _NAN))
        return (n, x.sum(axis=1), x[:, -1])
    # SPEED, ACC and TREND read the sample times in y.
    if func in (F.SPEED, F.ACC):
        if n == 0:
            return (0, *(np.full(rows, _NAN) for _ in range(4)))
        if n == 1:
            return (1, np.full(rows, _NAN), np.full(rows, _NAN), y[:, 0], x[:, 0])
        return (n, y[:, -2], x[:, -2], y[:, -1], x[:, -1])
    if func is F.TREND:
        if n == 0:
            return (0, *(np.zeros(rows) for _ in range(5)))
        t0 = y[:, 0]
        dt = y - t0[:, None]
        return (n, t0, dt.sum(axis=1), x.sum(axis=1), _rowdot(dt, dt), _rowdot(dt, x))
    if func is F.GF:
        k = gf_k(rate)
        keep = k - 1
        best = _rolling_max(x, k) if n >= k else np.full(rows, _NAN)
        head = _padded(x[:, :keep], keep)
        tail = _padded(x[:, max(0, n - keep):], keep)
        return (n, x.sum(axis=1), best, head, tail)
    raise ValueError(f"{func.value} has no partial form")


def partial_eval(
    func: FunctionKind,
    channels: Sequence[np.ndarray],
    times: Sequence[np.ndarray] | None = None,
    rate: float = REFERENCE_SAMPLE_RATE_HZ,
) -> PartialState:
    """Aggregate a sample prefix; rejected for non-splittable functions."""
    chans = _one_window(channels, times, rate)
    parts = tuple(edge for _c, _rows, edge, _cloud in _split(func, chans, 1.0, rate))
    return PartialState(func, len(chans), parts)


def _merge(func: FunctionKind, a: tuple, b: tuple) -> tuple:
    """The batch state of each row's samples in a followed by those in b."""
    if a[0] == 0:
        return b
    if b[0] == 0:
        return a
    if func in (F.MEAN, F.DISP, F.MSQRT, F.AVGWS, F.AOA, F.AWD):
        # Every field is a sample count or a sum over the samples.
        return tuple(u + v for u, v in zip(a, b))
    if func in (F.STD, F.VAR):
        na, da, d2a, x0a = a
        nb, db, d2b, x0b = b
        shift = x0b - x0a
        db2 = db + nb * shift
        d2b2 = d2b + 2.0 * shift * db + nb * shift * shift
        return (na + nb, da + db2, d2a + d2b2, x0a)
    if func is F.COV:
        na, dxa, dya, dxya, x0a, y0a = a
        nb, dxb, dyb, dxyb, x0b, y0b = b
        sx = x0b - x0a
        sy = y0b - y0a
        dxb2 = dxb + nb * sx
        dyb2 = dyb + nb * sy
        dxyb2 = dxyb + sx * dyb + sy * dxb + nb * sx * sy
        return (na + nb, dxa + dxb2, dya + dyb2, dxya + dxyb2, x0a, y0a)
    if func is F.SURGE:
        return (a[0] + b[0], a[1] + b[1], b[2])
    if func in (F.SPEED, F.ACC):
        n = a[0] + b[0]
        if b[0] >= 2:
            return (n, b[1], b[2], b[3], b[4])
        # b has exactly one sample: previous point comes from a's last
        return (n, a[3], a[4], b[3], b[4])
    if func is F.TREND:
        na, t0a, sta, sya, stta, stya = a
        nb, t0b, stb, syb, sttb, styb = b
        shift = t0b - t0a
        stb2 = stb + nb * shift
        sttb2 = sttb + 2.0 * shift * stb + nb * shift * shift
        styb2 = styb + shift * syb
        return (na + nb, t0a, sta + stb2, sya + syb, stta + sttb2, stya + styb2)
    if func is F.GF:
        # Head and tail hold the first and last min(n, k - 1) samples.
        keep = a[3].shape[1]
        k = keep + 1
        na, sa, besta, heada, taila = a
        nb, sb, bestb, headb, tailb = b
        best = np.fmax(besta, bestb)
        boundary = np.concatenate([taila[:, :min(na, keep)], headb[:, :min(nb, keep)]], axis=1)
        if boundary.shape[1] >= k:
            best = np.fmax(best, _rolling_max(boundary, k))
        heads = np.concatenate([heada[:, :min(na, keep)], headb[:, :min(nb, keep)]], axis=1)
        tails = np.concatenate([taila[:, :min(na, keep)], tailb[:, :min(nb, keep)]], axis=1)
        head = _padded(heads[:, :keep], keep)
        tail = _padded(tails[:, max(0, tails.shape[1] - keep):], keep)
        return (na + nb, sa + sb, best, head, tail)
    raise ValueError(f"{func.value} has no merge")


def merge_states(a: PartialState, b: PartialState) -> PartialState:
    if a.func is not b.func:
        raise ValueError(f"cannot merge {a.func.value} with {b.func.value}")
    if a.n_channels == 0:
        return b
    if b.n_channels == 0:
        return a
    if len(a.parts) != len(b.parts):
        raise ValueError("partial states cover different channel counts")
    if a.func is F.GF and a.parts[0][3].shape[1] != b.parts[0][3].shape[1]:
        raise ValueError("GF states cover different sub-windows")
    parts = tuple(_merge(a.func, pa, pb) for pa, pb in zip(a.parts, b.parts))
    return PartialState(a.func, a.n_channels, parts)


def _finalize(func: FunctionKind, s: tuple) -> np.ndarray:
    """The value of each row of a batch state."""
    n = s[0]
    if n == 0:
        return np.zeros(len(s[1]))
    if func in (F.MEAN, F.DISP, F.AVGWS):
        return s[1] / n
    if func is F.MSQRT:
        return np.sqrt(s[1] / n)
    if func in (F.STD, F.VAR):
        _n, d, d2, _x0 = s
        var = np.maximum((d2 - d * d / n) / n, 0.0)
        return np.sqrt(var) if func is F.STD else var
    if func is F.COV:
        _n, dx, dy, dxy, _x0, _y0 = s
        return (dxy - dx * dy / n) / n
    if func is F.SURGE:
        return _safe_div(s[2], s[1] / n)
    if func in (F.SPEED, F.ACC):
        _n, tp, yp, tl, yl = s
        if n < 2:
            return np.zeros(len(tl))
        return _safe_div(yl - yp, tl - tp)
    if func is F.TREND:
        _n, _t0, st, sy, stt, sty = s
        return _safe_div(n * sty - st * sy, n * stt - st * st)
    if func is F.GF:
        _n, total, best, _head, _tail = s
        mean = total / n
        ratio = np.where(np.isnan(best), 1.0, _safe_div(best, mean))
        return np.where(mean != 0.0, ratio, 0.0)
    if func is F.AOA:
        return np.arctan2(s[2] / n, s[1] / n)
    if func is F.AWD:
        return _awd(s[1] / n, s[2] / n)
    raise ValueError(f"{func.value} has no finalize")


def finalize(state: PartialState) -> np.ndarray:
    if state.n_channels == 0:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([_finalize(state.func, s) for s in state.parts])


def merge(
    func: FunctionKind,
    edge_state: PartialState,
    cloud: Sequence[np.ndarray],
    times: Sequence[np.ndarray] | None = None,
    rate: float = REFERENCE_SAMPLE_RATE_HZ,
) -> np.ndarray:
    """Fold the cloud-side samples into the edge state and finalize to the
    window's value(s)."""
    return finalize(merge_states(edge_state, partial_eval(func, cloud, times, rate)))


# ---------------------------------------------------------------------------
# Serialized partial states.


def _state_rows(func: FunctionKind, s: tuple) -> np.ndarray:
    """One batch state in the fixed-size f64 layout, one row per window. GF
    writes its head and tail as a length followed by the values, NaN-padded
    to k - 1."""
    n, *fields = s
    rows = len(fields[0])
    if func is F.GF:
        total, best, head, tail = fields
        used = np.full(rows, float(min(n, head.shape[1])))
        return np.column_stack([np.full(rows, float(n)), total, best, used, head, used, tail])
    return np.column_stack([np.full(rows, float(n)), *fields])


def state_to_vector(state: PartialState) -> np.ndarray:
    """Flatten a partial state into the fixed-size f64 layout."""
    if not state.parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([_state_rows(state.func, part)[0] for part in state.parts])


# ---------------------------------------------------------------------------
# Every window of an operator at once.


def eval_windows(
    func: FunctionKind, channels: Sequence[Channel], rate: float = REFERENCE_SAMPLE_RATE_HZ
) -> np.ndarray:
    """Evaluate every window of the channels whole; row i holds what
    eval_function returns for window i."""
    n_windows = len(channels[0].lo) if channels else 0
    out = np.zeros((n_windows, output_arity(func, len(channels))))
    timed = func in TIMED
    if func in PER_CHANNEL:
        for c, ch in enumerate(channels):
            for (n,), rows in _groups(ch.hi - ch.lo):
                x, t = ch.take(ch.lo[rows], n, timed)
                out[rows, c] = _eval_channel(func, x, t, rate)
    elif channels:
        cx, cy = _pair_channels(channels)
        for (m,), rows in _groups(np.minimum(cx.hi - cx.lo, cy.hi - cy.lo)):
            x, _ = cx.take(cx.hi[rows] - m, m, False)
            y, _ = cy.take(cy.hi[rows] - m, m, False)
            out[rows, 0] = _eval_cross(func, x, y)
    return out


def _split(func: FunctionKind, channels: Sequence[Channel], edge_share: float,
           rate: float) -> Iterator[tuple[int, np.ndarray, tuple, tuple]]:
    """(channel, window rows, edge state, cloud state) for each group of
    windows, cut as split_windows describes. A cross-channel function
    yields channel 0 and pairs each part's channels on their last samples."""
    if func not in SPLITTABLE:
        raise ValueError(f"{func.value} is not splittable")
    timed = func in TIMED
    if func in PER_CHANNEL:
        for c, ch in enumerate(channels):
            for (n,), rows in _groups(ch.hi - ch.lo):
                cut = int(round(edge_share * n))
                x, t = ch.take(ch.lo[rows], n, timed)
                edge = _partial(func, x[:, :cut], None if t is None else t[:, :cut], rate)
                cloud = _partial(func, x[:, cut:], None if t is None else t[:, cut:], rate)
                yield c, rows, edge, cloud
    elif channels:
        cx, cy = _pair_channels(channels)
        for (nx, ny), rows in _groups(cx.hi - cx.lo, cy.hi - cy.lo):
            cut_x, cut_y = int(round(edge_share * nx)), int(round(edge_share * ny))
            m = min(cut_x, cut_y)
            x, _ = cx.take(cx.lo[rows] + cut_x - m, m, False)
            y, _ = cy.take(cy.lo[rows] + cut_y - m, m, False)
            edge = _partial(func, x, y, rate)
            m = min(nx - cut_x, ny - cut_y)
            x, _ = cx.take(cx.hi[rows] - m, m, False)
            y, _ = cy.take(cy.hi[rows] - m, m, False)
            yield 0, rows, edge, _partial(func, x, y, rate)


def split_windows(
    func: FunctionKind,
    channels: Sequence[Channel],
    edge_share: float,
    rate: float = REFERENCE_SAMPLE_RATE_HZ,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every window split between edge and cloud: in each channel
    the edge aggregates the first round(edge_share * n) samples into a
    partial state and the cloud merges in the rest. Returns the values, as
    eval_windows does, and the edge states, one state_to_vector row per
    window."""
    n_windows = len(channels[0].lo) if channels else 0
    out = np.zeros((n_windows, output_arity(func, len(channels))))
    states = np.zeros((n_windows, state_length(func, len(channels), rate)))
    width = state_length(func, 1, rate)
    for c, rows, edge, cloud in _split(func, channels, edge_share, rate):
        out[rows, c] = _finalize(func, _merge(func, edge, cloud))
        states[rows, c * width:(c + 1) * width] = _state_rows(func, edge)
    return out, states
