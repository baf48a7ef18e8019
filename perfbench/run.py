"""splitstream benchmark: one workload per call, or every workload in turn.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's inputs are built from
--seed. Repetitions of the workload's job run until the next one would
overrun --seconds (at least one; with --trace 1 at least one untraced and one
traced, alternating). Every metric is printed by name and unit; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics plus the tracing overhead. Raw samples,
environment and spans go to .perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from harness import Recorder, median, metric_samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
WORKLOADS = ("reference", "contended", "replay")
SETUP_REPEATS = 5

# All load comes from this single-threaded process and its CLI children.
PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
    }


def forked(fn):
    """Run fn() in a forked child and return what it returns.

    Set-up runs this way, so that the memory it takes (the trace is built in
    memory before it is written) does not count toward the peak resident
    memory of this process, which then measures the job alone."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as src:
        payload = src.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("set-up process ended without a result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"set-up failed in its own process:\n{value}")
    return value


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    # Imported here so that numpy starts after the thread pinning.
    from workloads import BENCHES

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = BENCHES[name](workdir, seed, SRC, trace)
        setups, setup_s = [], []

        def timed_setup():
            rec = Recorder(trace, f"setup{len(setups)}")
            gc.collect()
            with rec.span("setup", calibrated=True):
                inputs = bench.setup(rec)
            return inputs, rec

        def set_up():
            inputs, rec = forked(timed_setup)
            setups.append(rec)
            setup_s.append(rec.times["setup"])
            return inputs

        # Set-ups after the first one run between repetitions, so that their
        # median samples the host across the run, not one moment of it.
        inputs = set_up()
        reps = []  # (recorder, end-to-end samples, wall seconds)
        started = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            rec = Recorder(traced, f"rep{len(reps)}")
            # Each repetition starts from the same heap: no garbage left over.
            gc.collect()
            start = time.perf_counter()
            e2e = bench.run_job(inputs, rec)
            reps.append((rec, e2e, time.perf_counter() - start))
            if len(reps) == 1:
                # Later repetitions only add allocator fragmentation, and how
                # many run depends on the host's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(setups) < SETUP_REPEATS:
                inputs = set_up()
            if trace and len(reps) < 2:
                continue
            # The run's length is wall time: --seconds bounds how long it takes.
            elapsed = time.perf_counter() - started
            if elapsed + median([wall for _, _, wall in reps]) > seconds:
                break
        while len(setups) < SETUP_REPEATS:
            set_up()

        # Every CLI call runs once more, untimed, to compare its reports.
        recheck = Recorder(False, "recheck")
        bench.cli_steps(recheck)
        segments = setups + [rec for rec, _, _ in reps] + [recheck]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()

    checks = [c for rec in segments for c in rec.checks]
    untraced = [(rec, e2e) for rec, e2e, _ in reps if not rec.traced]
    samples = {key: [e2e[key] for _, e2e in untraced] for key in untraced[0][1]}
    samples["setup_s"] = setup_s
    samples["peak_rss_mb"] = [peak_rss_mb]
    if trace:
        traced = [rec for rec, _, _ in reps if rec.traced]
        samples = metric_samples([rec for rec in setups if rec.traced], traced)
        traced_job = median([rec.times["job"] for rec in traced])
        untraced_job = median([rec.times["job"] for rec, _ in untraced])
        samples["trace.overhead_s"] = [traced_job - untraced_job]
        samples["trace.overhead_frac"] = [(traced_job - untraced_job) / untraced_job]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # A layer a workload never calls did no work on it and reads 0.
    metrics = {m["name"]: {"value": median(samples.get(m["name"], [0.0])), "unit": m["unit"]}
               for m in wanted}
    spans = [s for rec in segments for s in rec.spans]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "repetitions": len(reps),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "samples": samples,
        "metrics": metrics,
        "spans": spans,
    }


def report(result: dict) -> dict:
    """Print the run for a reader; return the result line's object."""
    checks = result["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    env = result["environment"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['repetitions']} repetitions")
    print(f"environment: python {env['python']} numpy {env['numpy']} click {env['click']} "
          f"nproc {env['nproc']} {' '.join(f'{k}={v}' for k, v in env['threads'].items())}")
    print(f"checks: {len(checks)} attempted, {failed} failed, "
          f"failed_frac {failed / len(checks):.4f}")
    for c in checks:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    print("samples " + json.dumps(result["samples"]))
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": result["metrics"]}


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "splitstream" / "__init__.py").is_file():
        print(f"error: run from a splitstream checkout; {spec_path.name} or "
              "src/splitstream is missing", file=sys.stderr)
        return 2
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
