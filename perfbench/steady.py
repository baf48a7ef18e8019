"""Steadiness check: repeat run.py over seeds and report quartile spreads.

    python3 perfbench/steady.py --seeds 10 --sets 2 --out perfbench/results/steadiness.json

Runs `run.py --trace 0` on every workload of BENCHMARK.json for seeds 1 to
--seeds, once per set, one run at a time. The sets take turns run by run and
use the same seeds, so they sample the same stretches of the host's load.
For each end-to-end metric it reports the median and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, against the metric's bound; with two sets it also reports how
far the second set's median moved from the first's, either way. Every spread
and shift must stay within its bound. The raw per-run values are kept in
--out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    samples = next(json.loads(x[len("samples "):]) for x in lines if x.startswith("samples "))
    return json.loads(lines[-1]), samples, wall


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": spec["run_seconds"], "runs": [], "summary": {}}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            for set_index in range(args.sets):
                result, samples, wall = one_run(workload, seed, spec["run_seconds"])
                record["runs"].append({
                    "set": set_index, "workload": workload, "seed": seed, "wall_s": wall,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "samples": samples,
                })
                print(f"set {set_index} {workload} seed {seed}: {wall:.1f} s, "
                      f"correct={result['correct']}", flush=True)
                if args.out:
                    args.out.parent.mkdir(parents=True, exist_ok=True)
                    args.out.write_text(json.dumps(record, indent=1) + "\n")

    ok = True
    print(f"{'workload':<10} {'metric':<16} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'shift':>8}")
    for workload in workloads:
        for metric, bound in bounds.items():
            first = None
            for set_index in range(args.sets):
                values = [r["metrics"][metric] for r in record["runs"]
                          if r["workload"] == workload and r["set"] == set_index]
                s = summarize(values)
                shift = None if first is None else s["median"] / first["median"] - 1.0
                first = first or s
                s["shift"] = shift
                record["summary"][f"{workload}/{metric}/{set_index}"] = s
                if s["spread"] > bound or (shift is not None and abs(shift) > bound):
                    ok = False
                shift_text = "" if shift is None else f"{shift:+.3f}"
                flag = " <- above bound/3" if s["spread"] > bound / 3 else ""
                print(f"{workload:<10} {metric:<16} {set_index:>3} {s['median']:>12.4f} "
                      f"{s['spread']:>8.4f} {bound:>6.2f} {shift_text:>8}{flag}")
    ok &= all(r["correct"] for r in record["runs"])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
