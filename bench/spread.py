"""Run-to-run spread of the benchmark across seeds.

Usage (from the root of a checkout):

    python3 bench/spread.py [--workloads a,b] [--seeds 0-9] [--seconds S]
                            [--trace 0|1] [--out FILE]

Runs bench/run.py once per workload and seed, one run at a time, and prints
for each metric the median of the runs, the first and third quartile
(statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread above a third of
the bound is marked. With --out the raw result lines are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    raw: dict[str, list] = {}
    for workload in args.workloads.split(","):
        runs = raw.setdefault(workload, [])
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = " <-- above bound/3" if bound is not None and share > bound / 3 else ""
            print(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.3f}  bound {bound}{mark}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
