"""Timing, tracing, checking and subprocess helpers for the workloads.

A run is made of segments: each set-up and each timed repetition of a
workload's job is one segment with its own Recorder. The Recorder times every
call into splitstream it is handed. With tracing on it also keeps a span per
call (name, start, end, parent span, trace id) in memory; the spans are
written out when the run ends.

Every time is CPU time (`cpu_clock`): this process's user and system time
plus that of its waited-for children, so that a CLI subprocess is timed by
the CPU it used. The calls behind the end-to-end metrics are also
calibrated: a fixed loop (`calibration_s`) runs right before and right after
the call, and the call's time is scaled by the loop's nominal time over the
mean of the two readings. On a shared host the cores change speed by 30-40%
within seconds, and the loop slows down with the call; see README.md.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layers are named after the splitstream modules. Spans whose first name part
# is not one of them belong to the harness itself (job, step, setup).
LAYERS = (
    "cli", "fileio", "model", "reference", "costs", "feasibility", "solver",
    "baselines", "functions", "simulator",
)

# A CLI call takes a second or two; a hung one must not stall the run.
CLI_TIMEOUT_S = 60

# CPU seconds of one calibration_s() loop on an unloaded core (Intel Xeon,
# Python 3.11, numpy 2.4). Calibrated times are in seconds at that speed.
CALIBRATION_NOMINAL_S = 0.060


def cpu_clock() -> float:
    """CPU seconds used by this process and its terminated, waited-for
    children. The harness is single-threaded and waits for every child it
    starts, so a difference of two readings is the CPU the code between
    them used, in this process or in a subprocess it ran."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_s() -> float:
    """CPU seconds of a fixed mix of interpreter work (dict updates and float
    arithmetic, as in the search) and numpy work (reversing, scaling and
    sorting an array, as in the replay)."""
    import numpy as np  # not at import time: numpy starts after thread pinning

    start = time.process_time()
    sums: dict[int, float] = {}
    for i in range(150_000):
        sums[i & 1023] = sums.get(i & 1023, 0.0) + i * 0.5
    values = np.arange(200_000, dtype=float)
    for _ in range(20):
        values = np.sort(values[::-1] * 1.0000001)
    return time.process_time() - start


class Recorder:
    """Collects timings, counters, checks and (if traced) spans of a segment."""

    def __init__(self, traced: bool, trace_id: str):
        self.traced = traced
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.times: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.last_s = 0.0  # time of the span that closed last

    @contextmanager
    def span(self, name: str, calibrated: bool = False):
        """Time the block under `name`; with tracing on, also record a span.
        A calibrated block's time is scaled to the nominal core speed; its
        span keeps the raw clock readings."""
        before = calibration_s() if calibrated else None
        index = None
        start = cpu_clock()
        if self.traced:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                {"trace": self.trace_id, "name": name, "start": start,
                 "end": None, "parent": parent}
            )
            self._stack.append(index)
        try:
            yield
        finally:
            end = cpu_clock()
            elapsed = end - start
            if calibrated:
                elapsed *= 2 * CALIBRATION_NOMINAL_S / (before + calibration_s())
            self.times[name] = self.times.get(name, 0.0) + elapsed
            self.last_s = elapsed
            if index is not None:
                self.spans[index]["end"] = end
                self._stack.pop()

    def call(self, name: str, fn, *args, calibrated: bool = False, **kwargs):
        with self.span(name, calibrated):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), "" if ok else detail))
        return bool(ok)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span time minus the time its child spans cover.

        Children of one span never overlap (the harness is single-threaded),
        so the covered time is the sum of the children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            key = f"self.{layer if layer in LAYERS else 'harness'}_s"
            out[key] = out.get(key, 0.0) + (s["end"] - s["start"] - covered)
        return out


def metric_samples(setups: list[Recorder], reps: list[Recorder]) -> dict[str, list[float]]:
    """Per-layer samples: span times as `<name>_s` and counters from every
    segment (a name missing from a segment gives no sample), and each layer's
    self time over one set-up plus one repetition, as medians."""
    samples: dict[str, list[float]] = {}
    for rec in setups + reps:
        values = {f"{name}_s": t for name, t in rec.times.items()}
        values.update(rec.counts)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    for group in (setups, reps):
        self_times = [rec.self_times() for rec in group]
        for key in set().union(*self_times):
            total = samples.setdefault(key, [0.0])
            total[0] += median([s.get(key, 0.0) for s in self_times])
    return samples


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# The splitstream CLI as a subprocess.


class Cli:
    """Runs `splitstream <args>` the way the installed console script would,
    one call at a time, from a fixed working directory so that the paths the
    reports' manifests record are the same on every run."""

    def __init__(self, src_dir: Path, cwd: Path):
        self.cwd = cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src_dir)

    def run(self, rec: Recorder, args: list[str]) -> float:
        """Run one command, check its exit code and return its calibrated
        CPU time."""
        cmd = [sys.executable, "-c", "from splitstream.cli import main; main()", *args]
        with rec.span(f"cli.{args[0]}", calibrated=True):
            proc = subprocess.run(
                cmd, cwd=self.cwd, env=self.env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S,
            )
        elapsed = rec.last_s
        rec.check(
            f"cli {' '.join(args)} exits 0",
            proc.returncode == 0,
            f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
        )
        return elapsed

    def report(self, name: str) -> dict:
        return json.loads((self.cwd / name).read_bytes())
