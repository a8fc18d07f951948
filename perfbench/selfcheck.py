"""Tiny-input self-check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
on tiny inputs (``run.py --tiny``) and asserts that

* the run exits 0 and its last line is the result object with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* ``correct`` is true and ``attempted`` >= 1;
* the metrics are exactly the declared ``end_to_end`` (untraced) or
  ``per_layer`` (traced) names, each a finite number with its unit;
* every declared metric is also printed in the table, by name and unit.

Finally it copies only ``BENCHMARK.json`` and this directory into a bare
directory and asserts that the benchmark fails there without printing a
result.

Run:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", str(trace),
    ]
    if tiny:
        command.append("--tiny")
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_run(workload: str, trace: int, declared: list[dict]) -> list[str]:
    problems = []
    completed = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if completed.returncode != 0:
        return [f"{where}: exit {completed.returncode}\n{completed.stderr[-2000:]}"]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not correct or nothing attempted: {result}")
    metrics = result.get("metrics", {})
    names = [metric["name"] for metric in declared]
    if sorted(metrics) != sorted(names):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for metric in declared:
        entry = metrics.get(metric["name"], {})
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric['name']} value {value!r}")
        if entry.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {entry.get('unit')!r}")
        row = table.get(metric["name"])
        if row is None or len(row) < 3 or row[2] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} not printed with its unit")
    return problems


def check_bare_directory(benchmark: dict) -> list[str]:
    bare = ROOT / ".perfbench-work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in benchmark["paths"]:
        shutil.copytree(
            ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    workload = benchmark["workloads"][0]["name"]
    completed = run(bare, workload, 0, tiny=False)
    shutil.rmtree(bare)
    problems = []
    if completed.returncode == 0:
        problems.append("bare directory: benchmark exited 0")
    if '"metrics"' in completed.stdout:
        problems.append("bare directory: benchmark printed a result")
    return problems


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in benchmark["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(workload["name"], trace, benchmark[section])
            print(
                f"{workload['name']} trace={trace}: "
                f"{'ok' if not found else 'FAILED'}",
                flush=True,
            )
            problems += found
    found = check_bare_directory(benchmark)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
