"""PG-HIVE end-to-end benchmark: JSONL on disk to schema, checkpoint, recovery.

One run measures one workload for one seed::

    python3 perfbench/run.py --workload stream-insert --seed 1 \
        --seconds 20 --trace 0

The run makes the workload's inputs from the seed (once per input kind
and seed; they are cached under ``.perfbench-work/inputs``), then starts
measured passes, each in a fresh interpreter, until ``--seconds`` have
been spent and at least ``MIN_PASSES`` passes ran.  Every pass is a
closed loop with one caller (see ``workloads.py``) and checks its own
outputs.  The run prints each metric with its unit and sample count and,
as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, each the median over the passes.  With ``--trace 1``
untraced and traced passes alternate; the metrics are the ``per_layer``
list, taken from the traced passes, plus the tracing overhead (median
traced minus median untraced time to schema).  Child processes run with
OpenBLAS/OpenMP pools pinned to one thread, so the benchmark does not
measure the extra CPU the default BLAS pool burns.  The full record,
with host metadata, is written to ``.perfbench-work/results``.

The program under test is the ``repro`` package in ``src/`` beside this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: workload -> input kind (stream-insert and sharded-1 share one file).
WORKLOADS = {
    "stream-insert": "stream",
    "stream-churn": "churn",
    "discover-unlabeled": "ldbc",
    "sharded-1": "stream",
}
#: Passes per run at least (per kind of pass when tracing).
MIN_PASSES = 3
PASS_TIMEOUT_S = 90
#: The speed probe's typical call time on the reference host (2-core
#: Intel Xeon VM at 2.1 GHz; see ``workloads.speed_probe``).  Timed
#: end-to-end metrics are reported at this speed: measured seconds x
#: (PROBE_REFERENCE_S / probe seconds of the same pass) ** PROBE_ELASTICITY.
PROBE_REFERENCE_S = 0.0175
#: How strongly the workloads' time follows the probe's when the host's
#: speed changes (log time against log probe, ten runs per workload on
#: that host): 0.32-0.62 between the passes of one run, a fit that the
#: probe's own noise flattens, and 0.64-1.06 between runs.  Of 0, 0.25,
#: 0.5, 0.75 and 1, 0.75 gave the smallest largest spread over two rounds
#: of ten runs of all three workloads.
PROBE_ELASTICITY = 0.75
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    # Fixed string hashing keeps set/dict layouts, and so timings, alike
    # across the fresh interpreters of one run.
    "PYTHONHASHSEED": "0",
}
#: Latency percentiles: (metric, sample key, quantile).
PERCENTILES = (
    ("session.apply_p50_ms", "apply_ms", 0.50),
    ("session.apply_p95_ms", "apply_ms", 0.95),
    ("session.read_p50_ms", "read_ms", 0.50),
    ("session.read_p90_ms", "read_ms", 0.90),
)
#: Per-layer metrics a plain run also prints (untraced, not gated).
UNTRACED_EXTRAS = (
    "raw.setup_s",
    "raw.time_to_schema_s",
    "host.probe_s",
    "columnar.repeat_share",
    "columnar.distinct_signatures",
    "session.apply_p50_ms",
    "session.apply_p95_ms",
    "session.read_p50_ms",
    "session.read_p90_ms",
    "durability.checkpoint_s",
    "recovery.recover_s",
    "durability.checkpoint_bytes",
    "durability.wal_bytes",
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def ensure_inputs(kind: str, seed: int, tiny: bool) -> tuple[Path, float]:
    """Generate (once) and return the input directory; also the seconds spent."""
    # The generator's own hash is part of the key, so a changed generator
    # never reuses inputs cached by an older one.
    version = hashlib.blake2b((HERE / "inputs.py").read_bytes(), digest_size=4)
    directory = (
        WORK
        / "inputs"
        / f"{kind}-{seed}{'-tiny' if tiny else ''}-{version.hexdigest()}"
    )
    if (directory / "meta.json").is_file():
        return directory, 0.0
    directory.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(HERE / "inputs.py"),
        "--kind", kind,
        "--seed", str(seed),
        "--out", str(directory),
    ]
    if tiny:
        command.append("--tiny")
    start = time.perf_counter()
    subprocess.run(command, check=True, env=child_env(), timeout=PASS_TIMEOUT_S)
    return directory, time.perf_counter() - start


def warm_up() -> None:
    """Import everything a pass imports once, so bytecode is compiled
    before any set-up time is measured."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import repro, repro.eval.clustering_metrics, inputs, spans, workloads"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        check=True,
        env=child_env(),
        timeout=PASS_TIMEOUT_S,
    )


def run_pass(workload: str, inputs: Path, index: int, traced: bool) -> dict:
    work = WORK / "passes" / f"{workload}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--input", str(inputs),
        "--work", str(work),
        "--trace", str(int(traced)),
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        completed = subprocess.run(
            [*command, "--spawned-at", repr(spawned_at)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s and was killed"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return {"error": f"pass exited with status {completed.returncode}"}
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def thin(name: str, count: int) -> str:
    """Flag a percentile with fewer than ten samples beyond it."""
    if count == 0:
        return "(no samples: not on this workload)"
    for metric, _, quantile in PERCENTILES:
        if metric == name and count * (1 - quantile) < 10:
            return "(fewer than 10 samples beyond)"
    return ""


def percentile(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def normalised(records: list[dict], key: str) -> float:
    """Median over passes of ``key`` rescaled to the reference host speed."""
    return statistics.median(
        record[key]
        * (PROBE_REFERENCE_S / statistics.median(record["samples"]["probe_s"]))
        ** PROBE_ELASTICITY
        for record in records
    )


def pooled(records: list[dict], key: str) -> list[float]:
    return [value for record in records for value in record["samples"].get(key, ())]


def summarise(records: list[dict], meta: dict) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count) over ``records``."""
    n = len(records)
    tts = median_of(records, "time_to_schema_s")
    tts_ref = normalised(records, "time_to_schema_s")
    values: dict[str, tuple[float, int]] = {
        "setup_s": (normalised(records, "setup_s"), n),
        "time_to_schema_s": (tts_ref, n),
        "ingest_eps": (meta["elements"] / tts_ref, n),
        "raw.setup_s": (median_of(records, "setup_s"), n),
        "raw.time_to_schema_s": (tts, n),
        "host.probe_s": (statistics.median(pooled(records, "probe_s")), n),
        "peak_rss_mb": (median_of(records, "peak_rss_mb"), n),
        "node_f1": (median_of(records, "node_f1"), n),
        "edge_f1": (median_of(records, "edge_f1"), n),
        "json_io.records": (meta["elements"], n),
        "columnar.distinct_signatures": (
            median_of(records, "distinct_signatures"), n
        ),
        "columnar.repeat_share": (meta["repeat_share"], 1),
        "process.cpu_s": (median_of(records, "process_cpu_s"), n),
        "process.wall_s": (tts, n),
    }
    for name, key, quantile in PERCENTILES:
        samples = pooled(records, key)
        values[name] = (percentile(samples, quantile) if samples else 0.0, len(samples))
    for name, key in (
        ("durability.checkpoint_s", "checkpoint_s"),
        ("recovery.recover_s", "recover_s"),
        ("recovery.restore_s", "restore_s"),
    ):
        samples = pooled(records, key)
        values[name] = (statistics.median(samples) if samples else 0.0, len(samples))
    if values["recovery.restore_s"][1]:
        values["recovery.replay_s"] = (
            values["recovery.recover_s"][0] - values["recovery.restore_s"][0],
            values["recovery.recover_s"][1],
        )
    for name, key in (
        ("durability.checkpoint_bytes", "checkpoint_bytes"),
        ("durability.wal_bytes", "wal_bytes"),
        ("recovery.replay_records", "replay_records"),
    ):
        if key in records[0]:
            values[name] = (median_of(records, key), n)
    layer_names = {name for record in records for name in record["layers"]}
    for name in layer_names:
        values[name] = (
            statistics.median(record["layers"].get(name, 0.0) for record in records),
            n,
        )
    return values


def host_metadata(records: list[dict], meta: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (git not available)"
    host = records[0]["host"] if records else {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": host.get("python"),
        "numpy": host.get("numpy"),
        "git_sha": sha,
        "blas_threads": {key: PINNED_ENV[key] for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "pythonhashseed": PINNED_ENV["PYTHONHASHSEED"],
        "minhash_kernel": host.get("minhash_kernel"),
        "sharded_handoff": records[0].get("handoff") if records else None,
        "input_files": meta["files"],
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="self-check mode: tiny inputs, one pass of each kind",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program under test ({ROOT / 'src' / 'repro'}) "
            "is missing; run from a full source checkout",
            file=sys.stderr,
        )
        return 2
    benchmark = load_benchmark()
    kind = WORKLOADS[args.workload]
    inputs, generate_s = ensure_inputs(kind, args.seed, args.tiny)
    meta = json.loads((inputs / "meta.json").read_text())
    warm_up()

    traced_run = bool(args.trace)
    minimum = 1 if args.tiny else MIN_PASSES
    # A traced run alternates traced and untraced passes, traced first;
    # the untraced ones only give the baseline of the tracing overhead.
    minimum_plain = max(1, minimum - 1) if traced_run else minimum
    seconds = 0.0 if args.tiny else args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        enough = len(plain) >= minimum_plain and (
            not traced_run or len(traced) >= minimum
        )
        if enough and time.perf_counter() - start >= seconds:
            break
        with_trace = traced_run and index % 2 == 0
        record = run_pass(args.workload, inputs, index, with_trace)
        index += 1
        if "error" in record:
            failures.append(record["error"])
            break
        (traced if with_trace else plain).append(record)
    elapsed = time.perf_counter() - start

    measured = plain + traced
    attempted = sum(r["attempted"] for r in measured) + len(failures)
    failed = sum(r["failed"] for r in measured) + len(failures)
    failed_checks = sorted(
        {name for r in measured for name, ok in r["checks"].items() if not ok}
    )
    correct = not failures and not failed and bool(plain)

    section = "per_layer" if traced_run else "end_to_end"
    declared = benchmark[section]
    metrics: dict[str, dict] = {}
    table: list[tuple[str, float, str, int, str]] = []
    if plain and (traced or not traced_run):
        values = summarise(traced if traced_run else plain, meta)
        values["success_rate"] = ((attempted - failed) / attempted, attempted)
        if traced_run:
            overhead = normalised(traced, "time_to_schema_s") - normalised(
                plain, "time_to_schema_s"
            )
            values["trace.overhead_s"] = (overhead, len(traced))
        for metric in declared:
            # A layer the workload never enters reads 0 with no samples;
            # every end-to-end metric must have been measured.
            if traced_run:
                value, count = values.get(metric["name"], (0.0, 0))
            else:
                value, count = values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            table.append(
                (metric["name"], value, metric["unit"], count, thin(metric["name"], count))
            )
        if not traced_run:
            units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
            units.update({"raw.setup_s": "s", "raw.time_to_schema_s": "s"})
            for name in UNTRACED_EXTRAS:
                if name in values and values[name][1]:
                    value, count = values[name]
                    note = ("not gated " + thin(name, count)).rstrip()
                    table.append((name, value, units[name], count, note))
    host = host_metadata(measured, meta)

    mode = "traced" if traced_run else "untraced"
    print(
        f"perfbench {args.workload} seed={args.seed} {mode} "
        f"passes={len(plain)}+{len(traced)} traced elapsed={elapsed:.1f}s "
        f"input_generation={generate_s:.1f}s"
    )
    print("host " + json.dumps(host, sort_keys=True))
    print(f"{'metric':34} {'value':>14} {'unit':6} {'n':>6}")
    for name, value, unit, count, note in table:
        print(f"{name:34} {value:14.6g} {unit:6} {count:6} {note}".rstrip())
    if traced:
        print("span self time (s, median over traced passes):")
        names = sorted({name for r in traced for name in r["span_self_s"]})
        for name in names:
            self_s = statistics.median(r["span_self_s"].get(name, 0.0) for r in traced)
            print(f"  {name:32} {self_s:14.6g}")
    checks = sorted({name for r in measured for name in r["checks"]})
    print(
        f"checks: {len(checks)} kinds over {len(measured)} passes, "
        f"failed: {', '.join(failed_checks) or 'none'}"
    )
    for failure in failures:
        print(f"FAILED: {failure}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-{mode}{'-tiny' if args.tiny else ''}"
    (WORK / "results" / f"{label}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "mode": mode,
                "host": host,
                "input": meta,
                "metrics": metrics,
                "passes": measured,
                "failures": failures,
            },
            indent=1,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
