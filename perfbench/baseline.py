"""Run every workload over several seeds and record the numbers.

Usage (from the repository root):

    python3 perfbench/baseline.py --label 0001-c04574d --seeds 10 [--write]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json, then one traced run per workload at the
default seed.  Prints, for each end-to-end metric and workload, the median,
the quartiles and the spread (third minus first quartile, as a share of the
median) next to the metric's bound.  With ``--write`` it also stores the
record, with machine information, as perfbench/history/<label>.json.
Records are appended, never rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record name, e.g. 0001-<commit>")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    record = {"label": args.label, "machine": machine(), "run_seconds": seconds,
              "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} commands failed", flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={values[n][-1]:.4f}" for n in bounds), flush=True)
        stats = {name: summarize(vals) for name, vals in values.items()}
        record["end_to_end"][workload] = stats
        for name, s in stats.items():
            print(f"  {workload:12s} {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}"
                  f"  q3 {s['q3']:.4f}  spread {s['spread']:.3f} (bound {bounds[name]})",
                  flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        record["per_layer"][workload] = {
            name: m["value"] for name, m in traced["metrics"].items()}
    if args.write:
        path = HERE / "history" / f"{args.label}.json"
        if path.exists():
            raise SystemExit(f"{path} exists; records are never rewritten")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
