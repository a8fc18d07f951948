"""Steadiness record: repeated untraced runs per workload, one seed each.

For every workload, runs ``run.py --trace 0`` once per seed and records,
for each end-to-end metric, the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A spread at or below a
third of the metric's bound counts as steady.  Results merge into the
output file per workload, with the host metadata of the last run.

Run:  python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
          [--out perfbench/STEADINESS.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in benchmark["workloads"]),
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=HERE / "STEADINESS.json")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            completed = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]),
                    "--trace", "0",
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            wall = time.perf_counter() - start
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if completed.returncode != 0 or not result.get("correct"):
                print(completed.stdout + completed.stderr, file=sys.stderr)
                steady = False
            host = next(
                (json.loads(line[5:]) for line in lines if line.startswith("host ")),
                None,
            )
            runs.append(
                {"seed": seed, "wall_s": wall, "result": result, "host": host}
            )
            print(f"{workload} seed {seed}: {wall:.1f}s", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [
                run["result"]["metrics"][name]["value"]
                for run in runs
                if name in run["result"].get("metrics", {})
            ]
            if len(values) < 2:
                steady = False
                continue
            summary = spread(values)
            summary["bound"] = bound
            summary["steady"] = summary["spread"] <= bound / 3
            if name != "setup_s" and not summary["steady"]:
                steady = False
            metrics[name] = summary
            print(
                f"  {name:18} median {summary['median']:12.6g} "
                f"spread {summary['spread']:.4f} (bound/3 {bound / 3:.4f})"
            )
        record[workload] = {
            "seeds": seeds,
            "run_wall_s": [run["wall_s"] for run in runs],
            "host": runs[-1]["host"],
            "metrics": metrics,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
