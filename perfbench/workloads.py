"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON record it
prints.  A pass imports the program, builds the session or pipeline (the
end of that is the end of set-up), then runs the workload's closed loop
from the JSONL file on disk to the final schema, and afterwards checks
its outputs.  With ``--trace 1`` the pass also records spans (see
``spans.py``) and adds per-layer figures to its record.

Run:  python3 perfbench/workloads.py --workload stream-insert \
          --input DIR --work DIR --spawned-at MONOTONIC [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: stream-insert reads the schema after every READ_EVERY-th change-set.
READ_EVERY = 2
#: Speed-probe calls right before and right after the timed region.
PROBE_REPEATS = 10


def speed_probe(repeats: int = PROBE_REPEATS) -> list[float]:
    """Seconds per call of a fixed CPU mix that does not touch the program.

    The mix (interpreter loop, string-keyed dict updates, a JSON round
    trip, a NumPy hash pass) resembles the benchmark's own work, so its
    time tracks how fast this host runs such code at the moment.  The
    cyclic collector is off while it runs, so the size of the program's
    heap does not change what it measures.
    """
    import gc

    import numpy as np

    seconds = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            for i in range(40_000):
                total += i * i % 7
            counts: dict[str, int] = {}
            for i in range(20_000):
                key = f"k{i % 997}"
                counts[key] = counts.get(key, 0) + 1
            json.loads(json.dumps([{"id": i, "p": [i, str(i)]} for i in range(2_000)]))
            values = np.arange(100_000, dtype=np.uint64)
            int((values * np.uint64(2654435761) % np.uint64(4294967291)).min())
            seconds.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return seconds


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Pass:
    """Measurements and checks of one pass, plus its optional tracer."""

    def __init__(self, args) -> None:
        self.input = args.input
        self.work = args.work
        self.meta = json.loads((args.input / "meta.json").read_text())
        self.tracer = None
        if args.trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.spawned_at = args.spawned_at
        self.record: dict = {"samples": {}, "layers": {}, "checks": {}}
        self.attempted = 0
        self.failed = 0

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def feed(self, iterable, session):
        """The change-set iterator, timed per ``next()`` when tracing."""
        if self.tracer is None:
            return iterable
        return self.tracer.traced_iter(
            iterable, "json_io.read", lambda: session.sequence + 1
        )

    def ready(self) -> None:
        """End of set-up: probe host speed, install wrappers when tracing."""
        self.record["setup_s"] = monotonic() - self.spawned_at
        self.sample("probe_s", speed_probe())
        if self.tracer is not None:
            from spans import install_program_wrappers

            install_program_wrappers(self.tracer)

    def schema_reached(self, seconds: float, cpu_seconds: float) -> None:
        """End of the timed region: record it, then probe host speed again."""
        self.record["time_to_schema_s"] = seconds
        self.record["process_cpu_s"] = cpu_seconds
        self.sample("probe_s", speed_probe())

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.record["checks"][name] = bool(ok)

    def ops(self, count: int) -> None:
        """``count`` program calls that returned."""
        self.attempted += count

    def sample(self, name: str, values) -> None:
        self.record["samples"].setdefault(name, []).extend(values)

    def quality(self, schema) -> None:
        from repro.eval.clustering_metrics import majority_f1

        truth = json.loads((self.input / "truth.json").read_text())
        self.record["node_f1"] = majority_f1(
            schema.node_assignments(), truth["nodes"]
        ).macro_f1
        self.record["edge_f1"] = majority_f1(
            schema.edge_assignments(), truth["edges"]
        ).macro_f1

    def finish(self, timer=None) -> dict:
        self_usage = resource.getrusage(resource.RUSAGE_SELF)
        child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        # ru_maxrss is in KiB on Linux; children is the largest one reaped.
        self.record["peak_rss_mb"] = (
            self_usage.ru_maxrss + child_usage.ru_maxrss
        ) / 1024.0
        self.record["attempted"] = self.attempted
        self.record["failed"] = self.failed
        self.record["host"] = host_facts()
        if timer is not None:
            for lap in ("preprocess", "clustering", "extraction", "postprocess"):
                self.record["layers"][f"pipeline.{lap}_s"] = timer.lap(lap)
        if self.tracer is not None:
            self.tracer.unwrap_all()
            self.record["layers"].update(self._span_layers(timer))
            self.record["span_self_s"] = {
                name: self_seconds
                for name, (_, _, self_seconds) in self.tracer.totals().items()
            }
            trace_dir = self.work.parent / "traces"
            self.tracer.dump(trace_dir / f"{self.work.name}.jsonl")
        return self.record

    def _span_layers(self, timer) -> dict:
        tracer = self.tracer
        totals = tracer.totals()

        def total(name: str) -> float:
            return totals.get(name, (0, 0.0, 0.0))[1]

        def count(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        laps = 0.0
        if timer is not None:
            laps = sum(
                timer.lap(lap) for lap in ("preprocess", "clustering", "extraction")
            )
        apply_s = total("session.apply")
        wal_in_apply = tracer.total(
            "durability.wal_append", under="session.apply"
        ) + tracer.total("durability.wal_sync", under="session.apply")
        return {
            "json_io.read_s": total("json_io.read"),
            "preprocess.fit_s": total("preprocess.fit"),
            "session.apply_s": apply_s,
            "session.apply_self_s": (
                apply_s - laps - wal_in_apply if count("session.apply") else 0.0
            ),
            "session.schema_s": total("session.schema"),
            "session.schema_calls": count("session.schema"),
            "durability.wal_append_s": total("durability.wal_append"),
            "durability.wal_appends": count("durability.wal_append"),
            "durability.wal_sync_s": total("durability.wal_sync"),
            "durability.wal_syncs": count("durability.wal_sync"),
            "durability.artifact_write_s": total("durability.artifact_write"),
            "sharding.partition_s": total("sharding.partition"),
            "sharding.encode_s": total("sharding.encode"),
            "sharding.merge_s": total("sharding.merge"),
        }


def host_facts() -> dict:
    import numpy

    from repro.lsh.minhash import active_minhash_kernel

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "minhash_kernel": active_minhash_kernel(),
    }


def timed_ms(values: list, start: float) -> None:
    values.append((time.perf_counter() - start) * 1000.0)


def read_schema(run: Pass, session, latencies: list):
    with run.span("session.schema"):
        start = time.perf_counter()
        schema = session.schema()
        timed_ms(latencies, start)
    return schema


def apply_change(run: Pass, session, change_set, latencies: list) -> None:
    if run.tracer is not None:
        run.tracer.change_id = session.sequence + 1
    with run.span("session.apply"):
        start = time.perf_counter()
        session.apply(change_set)
        timed_ms(latencies, start)


def take_checkpoint(run: Pass, session) -> float:
    """One checkpoint at the current position; returns the seconds spent.

    A run makes at least three passes, so its median is over at least
    three calls.
    """
    with run.span("durability.checkpoint"):
        start = time.perf_counter()
        path = session.checkpoint()
        seconds = time.perf_counter() - start
    run.sample("checkpoint_s", [seconds])
    run.ops(1)
    run.record["checkpoint_bytes"] = path.stat().st_size
    return seconds


def close_and_recover(run: Pass, session, fingerprint: str) -> None:
    """Close the durable session, then recover a copy of its directory."""
    from inputs import fingerprint_digest

    from repro.core.recovery import DurableSchemaSession

    directory = session.directory
    checkpoint_sequence = max(
        int(path.stem.split("-")[1]) for path in directory.glob("checkpoint-*.ckpt")
    )
    session.close()
    run.record["wal_bytes"] = sum(
        path.stat().st_size for path in (directory / "wal").glob("*.seg")
    )
    copy = directory.with_name(f"{directory.name}-recovered")
    shutil.copytree(directory, copy)
    first_span = 0 if run.tracer is None else len(run.tracer.spans)
    with run.span("recovery.recover"):
        start = time.perf_counter()
        recovered = DurableSchemaSession.recover(copy)
        schema = recovered.schema()
        run.sample("recover_s", [time.perf_counter() - start])
    if run.tracer is not None:
        run.sample(
            "restore_s",
            [
                sum(
                    end - begin
                    for name, begin, end, _, _ in run.tracer.spans[first_span:]
                    if name == "recovery.restore"
                )
            ],
        )
    run.ops(1)
    run.check("recovered_equals_uncrashed", fingerprint_digest(schema) == fingerprint)
    run.record["replay_records"] = recovered.sequence - checkpoint_sequence
    recovered.close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def stream_insert(run: Pass) -> dict:
    """Durable columnar insert stream, a read every 2nd change-set."""
    from inputs import fingerprint_digest, stream_config

    from repro.core.recovery import DurableSchemaSession
    from repro.graph.json_io import iter_columnar_changesets_jsonl

    session = DurableSchemaSession(
        run.work / "durable", stream_config(), schema_name="perfbench", fsync="batch"
    )
    run.ready()
    batch = run.meta["batch_size"]
    change_sets = math.ceil(run.meta["elements"] / batch)
    checkpoint_at = (3 * change_sets) // 4
    applies: list[float] = []
    reads: list[float] = []
    paused = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    feed = iter_columnar_changesets_jsonl(run.input / "input.jsonl", batch)
    for index, change_set in enumerate(run.feed(feed, session), start=1):
        apply_change(run, session, change_set, applies)
        if index % READ_EVERY == 0:
            read_schema(run, session, reads)
        if index == checkpoint_at:
            paused += take_checkpoint(run, session)
    schema = read_schema(run, session, [])
    seconds = time.perf_counter() - start - paused
    run.schema_reached(seconds, time.process_time() - cpu0)
    run.ops(len(applies) + len(reads) + 1)
    run.sample("apply_ms", applies)
    run.sample("read_ms", reads)
    fingerprint = fingerprint_digest(schema)
    run.check(
        "durable_equals_reference",
        fingerprint == run.meta["reference_fingerprint"],
    )
    run.check("change_sets_applied", session.sequence == change_sets)
    run.quality(schema)
    run.record["distinct_signatures"] = len(session.discovery_state.signatures)
    timer = session.timer
    close_and_recover(run, session, fingerprint)
    if run.tracer is not None:
        # The sharded path has no steady workload of its own on a 2-core
        # host (its wall time follows the second core's availability), so
        # traced passes measure its layers here, after the timed region,
        # on the same file.
        from repro.core.sharding import ShardedSchemaSession

        with ShardedSchemaSession(
            stream_config(), schema_name="perfbench", n_shards=1, parallel=True
        ) as sharded:
            sharded_ingest(run, sharded)
    return run.finish(timer)


def stream_churn(run: Pass) -> dict:
    """Durable insert+delete rounds over a sliding window of live nodes."""
    from inputs import fingerprint_digest, stream_config

    from repro.core.recovery import DurableSchemaSession
    from repro.graph.changes import ChangeSet
    from repro.graph.json_io import iter_columnar_changesets_jsonl

    session = DurableSchemaSession(
        run.work / "durable",
        stream_config(),
        schema_name="perfbench",
        fsync="batch",
        retain_union=True,
    )
    run.ready()
    meta = run.meta
    window = meta["window"]
    checkpoint_at = (3 * meta["rounds"]) // 4
    live: deque[list[str]] = deque()
    applies: list[float] = []
    reads: list[float] = []
    paused = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    feed = iter_columnar_changesets_jsonl(
        run.input / "input.jsonl", meta["batch_size"]
    )
    for index, change_set in enumerate(run.feed(feed, session), start=1):
        stubs = change_set.stub_node_ids
        live.append([i for i in change_set.columnar.nodes.ids if i not in stubs])
        apply_change(run, session, change_set, applies)
        schema = read_schema(run, session, reads)
        if len(live) == window:
            doomed = ChangeSet.deletions(nodes=live.popleft())
            apply_change(run, session, doomed, applies)
            schema = read_schema(run, session, reads)
        if index == checkpoint_at:
            paused += take_checkpoint(run, session)
    seconds = time.perf_counter() - start - paused
    run.schema_reached(seconds, time.process_time() - cpu0)
    run.ops(len(applies) + len(reads))
    run.sample("apply_ms", applies)
    run.sample("read_ms", reads)
    run.check("rounds_applied", index == meta["rounds"])
    run.check(
        "live_nodes_counted",
        sum(t.instance_count for t in schema.node_types())
        == sum(len(ids) for ids in live),
    )
    fingerprint = fingerprint_digest(schema)
    run.quality(schema)
    run.record["distinct_signatures"] = len(session.discovery_state.signatures)
    timer = session.timer
    close_and_recover(run, session, fingerprint)
    return run.finish(timer)


def discover_unlabeled(run: Pass) -> dict:
    """Static ELSH discovery over the label-free LDBC file."""
    from repro.core.config import ClusteringMethod, PGHiveConfig
    from repro.core.pipeline import PGHive
    from repro.graph.json_io import read_graph_jsonl

    pipeline = PGHive(PGHiveConfig(method=ClusteringMethod.ELSH))
    run.ready()
    cpu0 = time.process_time()
    start = time.perf_counter()
    with run.span("json_io.read"):
        graph = read_graph_jsonl(run.input / "input.jsonl")
    with run.span("pipeline.discover"):
        result = pipeline.discover(graph)
    seconds = time.perf_counter() - start
    run.schema_reached(seconds, time.process_time() - cpu0)
    run.ops(2)
    schema = result.schema
    run.check(
        "every_node_typed", len(schema.node_assignments()) == graph.node_count
    )
    run.check(
        "every_edge_typed", len(schema.edge_assignments()) == graph.edge_count
    )
    run.quality(schema)
    # The element-wise path never interns element signatures.
    run.record["distinct_signatures"] = 0
    return run.finish(result.timer)


def sharded_ingest(run: Pass, session) -> tuple[float, float, object]:
    """Pipelined ingest of the stream file, then the merged read.

    Returns (wall seconds, coordinator CPU seconds, merged schema), records
    the sharding layers and checks the merged schema against the
    single-session reference.
    """
    from inputs import fingerprint_digest

    from repro.graph.json_io import iter_columnar_changesets_jsonl

    cpu0 = time.process_time()
    start = time.perf_counter()
    feed = iter_columnar_changesets_jsonl(
        run.input / "input.jsonl", run.meta["batch_size"]
    )
    with run.span("sharding.ingest_stream"):
        reports = session.ingest_stream(run.feed(feed, session))
    with run.span("sharding.merge"):
        schema = session.schema()
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    run.record["layers"].update(
        {
            "sharding.worker_apply_s": sum(
                report.seconds
                for sharded in reports
                for _, report in sharded.shard_reports
            ),
            "sharding.coordinator_cpu_s": cpu,
            "sharding.coordinator_wait_s": seconds - cpu,
        }
    )
    run.ops(len(reports) + 1)
    run.check(
        "sharded_equals_single_session",
        fingerprint_digest(schema) == run.meta["reference_fingerprint"],
    )
    run.record["handoff"] = session.handoff
    return seconds, cpu, schema


def sharded_1(run: Pass) -> dict:
    """One parallel shard worker fed through pipelined ingest_stream."""
    from inputs import stream_config

    from repro.core.sharding import ShardedSchemaSession

    session = ShardedSchemaSession(
        stream_config(), schema_name="perfbench", n_shards=1, parallel=True
    )
    run.ready()
    with session:
        seconds, cpu, schema = sharded_ingest(run, session)
        run.schema_reached(seconds, cpu)
        run.quality(schema)
        run.record["distinct_signatures"] = len(session.discovery_state.signatures)
    return run.finish()


WORKLOADS = {
    "stream-insert": stream_insert,
    "stream-churn": stream_churn,
    "discover-unlabeled": discover_unlabeled,
    "sharded-1": sharded_1,
}


def resolved_handoff() -> str:
    from inputs import stream_config

    from repro.core.sharding import ShardedSchemaSession

    probe = ShardedSchemaSession(stream_config(), n_shards=1, parallel=True)
    probe.close()
    return probe.handoff


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import repro  # noqa: F401  -- part of set-up for every workload

    run = Pass(args)
    wall0 = time.perf_counter()
    record = WORKLOADS[args.workload](run)
    record["pass_wall_s"] = time.perf_counter() - wall0
    record.setdefault("handoff", resolved_handoff())
    shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
