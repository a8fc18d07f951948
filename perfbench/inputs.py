"""Seeded benchmark inputs, written once per (input kind, seed) and reused.

Three input kinds feed the four workloads:

* ``stream`` -- a zipfian insert stream (``stream-insert`` and
  ``sharded-1`` read the same file).  Structures repeat from a small hot
  pool with ``1/rank**1.1`` weights; fresh elements walk new key-set
  combinations over a bounded key pool, so the realised structural repeat
  ratio is close to the target.  Nodes come first, then edges between
  random nodes, so edge change-sets ship endpoint stubs.
* ``churn`` -- the same structure generator emitted in rounds: each round
  is one change-set of nodes plus edges among the nodes of the last
  ``window`` rounds, so the workload loop can delete the oldest round's nodes
  after every insert and no later edge ever references a deleted node.
* ``ldbc`` -- ``load_dataset("LDBC")`` with 10% property noise and every
  node label removed, plus its ground-truth types.

Generation runs in its own interpreter, outside every timed region and
outside set-up time.  Each kind's directory holds the JSONL file, a
``meta.json`` (sizes, realised repeat share, ground truth location, file
hashes) and, for ``stream``, the fingerprint digest of a plain
``SchemaSession`` over the file, which the output checks compare against.

Run:  python3 perfbench/inputs.py --kind stream --seed 1 --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Full-size and self-check sizes per input kind.
SIZES = {
    "stream": {"full": {"elements": 40_000}, "tiny": {"elements": 3_000}},
    "churn": {
        "full": {"rounds": 48, "round_nodes": 240, "round_edges": 160, "window": 6},
        "tiny": {"rounds": 8, "round_nodes": 60, "round_edges": 40, "window": 3},
    },
    "ldbc": {"full": {"nodes": 10_000}, "tiny": {"nodes": 600}},
}
#: Elements per change-set on the stream path.
STREAM_BATCH = 500
REPEAT_RATIO = 0.9
NODE_SHARE = 0.6
ZIPF_EXPONENT = 1.1
PROPERTY_NOISE = 0.1
#: Offsets so the three kinds never share a random stream for one seed.
SEED_OFFSET = {"stream": 0, "churn": 7919, "ldbc": 104_729}

NODE_LABEL_SETS = (
    ("Person",),
    ("Person", "Student"),
    ("City",),
    ("Company",),
    ("Org",),
    ("Post",),
)
EDGE_LABEL_SETS = (("KNOWS",), ("WORKS_AT",), ("LIKES",))
KEY_POOL = [f"p{index:02d}" for index in range(36)]
INT_KEYS = set(KEY_POOL[::3])
FLOAT_KEYS = set(KEY_POOL[1::5])
BOOL_KEYS = set(KEY_POOL[2::7])


def file_digest(path: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fingerprint_digest(schema) -> str:
    """Stable digest of ``schema_fingerprint`` (sorted content, repr-safe)."""
    from repro.schema.model import schema_fingerprint

    return hashlib.blake2b(
        repr(schema_fingerprint(schema)).encode(), digest_size=16
    ).hexdigest()


class StructureSource:
    """Zipfian (labels, keys) draws: a hot pool plus endless fresh combos."""

    def __init__(self, rng) -> None:
        import numpy as np

        self.rng = rng
        self.hot_nodes = [
            (labels, KEY_POOL[: 1 + rank % 4])
            for rank, labels in enumerate(NODE_LABEL_SETS)
        ]
        self.hot_edges = [
            (labels, [KEY_POOL[10 + rank]])
            for rank, labels in enumerate(EDGE_LABEL_SETS)
        ]
        weights = 1.0 / np.arange(1, len(self.hot_nodes) + 1) ** ZIPF_EXPONENT
        self.weights = weights / weights.sum()
        self.fresh_nodes = (
            (labels, list(combo))
            for size in itertools.count(2)
            for combo in itertools.combinations(KEY_POOL, min(size, 6))
            for labels in NODE_LABEL_SETS
        )
        self.fresh_edges = (
            (labels, list(combo))
            for combo in itertools.combinations(KEY_POOL, 3)
            for labels in EDGE_LABEL_SETS
        )

    def node(self, fresh: bool):
        if fresh:
            return next(self.fresh_nodes)
        return self.hot_nodes[self.rng.choice(len(self.hot_nodes), p=self.weights)]

    def edge(self, fresh: bool):
        if fresh:
            return next(self.fresh_edges)
        return self.hot_edges[int(self.rng.integers(len(self.hot_edges)))]

    def properties(self, keys, index: int) -> dict:
        rng = self.rng
        values = {}
        for key in keys:
            if key in INT_KEYS:
                values[key] = int(rng.integers(0, 90))
            elif key in FLOAT_KEYS:
                values[key] = float(rng.random())
            elif key in BOOL_KEYS:
                values[key] = bool(rng.random() < 0.5)
            else:
                values[key] = f"v{index % 97}"
        return values


def fresh_mask(rng, count: int):
    """Exactly round((1 - REPEAT_RATIO) * count) fresh positions, shuffled,
    so every seed gets the same number of new structures."""
    import numpy as np

    mask = np.zeros(count, dtype=bool)
    mask[: round((1 - REPEAT_RATIO) * count)] = True
    rng.shuffle(mask)
    return mask


def _node(source, node_id: str, index: int, fresh: bool) -> dict:
    labels, keys = source.node(fresh)
    return {
        "kind": "node",
        "id": node_id,
        "labels": list(labels),
        "properties": source.properties(keys, index),
    }


def _edge(source, edge_id: str, src: str, dst: str, index: int, fresh: bool) -> dict:
    labels, keys = source.edge(fresh)
    return {
        "kind": "edge",
        "id": edge_id,
        "source": src,
        "target": dst,
        "labels": list(labels),
        "properties": source.properties(keys, index),
    }


def repeat_share(records: list[dict]) -> float:
    """Share of records whose (kind, labels, key set) appeared earlier."""
    seen: set[tuple] = set()
    repeats = 0
    for record in records:
        structure = (
            record["kind"],
            tuple(record["labels"]),
            tuple(sorted(record["properties"])),
        )
        if structure in seen:
            repeats += 1
        else:
            seen.add(structure)
    return repeats / len(records)


def stream_records(seed: int, elements: int) -> list[dict]:
    import numpy as np

    rng = np.random.default_rng(seed)
    source = StructureSource(rng)
    fresh = fresh_mask(rng, elements)
    node_count = int(elements * NODE_SHARE)
    records = [_node(source, f"n{i}", i, fresh[i]) for i in range(node_count)]
    for index in range(node_count, elements):
        src, dst = rng.integers(0, node_count, size=2)
        records.append(
            _edge(source, f"e{index}", f"n{src}", f"n{dst}", index, fresh[index])
        )
    return records


def churn_records(
    seed: int, rounds: int, round_nodes: int, round_edges: int, window: int
) -> list[dict]:
    """Rounds of nodes, then edges among the live window's nodes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    source = StructureSource(rng)
    fresh = fresh_mask(rng, rounds * (round_nodes + round_edges))
    records: list[dict] = []
    index = 0
    for round_index in range(rounds):
        first_live = max(0, round_index - window + 1) * round_nodes
        for offset in range(round_nodes):
            node_number = round_index * round_nodes + offset
            records.append(_node(source, f"n{node_number}", index, fresh[index]))
            index += 1
        live_end = (round_index + 1) * round_nodes
        for _ in range(round_edges):
            src, dst = rng.integers(first_live, live_end, size=2)
            records.append(
                _edge(source, f"e{index}", f"n{src}", f"n{dst}", index, fresh[index])
            )
            index += 1
    return records


def _write_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _stream_reference(path: Path) -> str:
    """Fingerprint digest of a plain in-process session over ``path``."""
    from repro.core.session import SchemaSession
    from repro.graph.json_io import iter_columnar_changesets_jsonl

    session = SchemaSession(stream_config(), schema_name="perfbench")
    for change_set in iter_columnar_changesets_jsonl(path, STREAM_BATCH):
        session.apply(change_set)
    return fingerprint_digest(session.schema())


def stream_config():
    """The discovery config of every stream workload (dedup engages)."""
    from repro.core.config import ClusteringMethod, PGHiveConfig

    return PGHiveConfig(method=ClusteringMethod.MINHASH, seed=7)


def generate(kind: str, seed: int, out: Path, tiny: bool) -> dict:
    size = SIZES[kind]["tiny" if tiny else "full"]
    sub_seed = seed + SEED_OFFSET[kind]
    out.mkdir(parents=True, exist_ok=True)
    data = out / "input.jsonl"
    meta: dict = {"kind": kind, "seed": seed, "tiny": tiny, **size}
    if kind == "ldbc":
        from repro.datasets import load_dataset
        from repro.datasets.noise import (
            reduce_label_availability,
            remove_properties,
        )
        from repro.graph.json_io import write_graph_jsonl

        dataset = load_dataset("LDBC", nodes=size["nodes"], seed=sub_seed)
        graph = remove_properties(dataset.graph, PROPERTY_NOISE, seed=sub_seed)
        graph = reduce_label_availability(graph, 0.0, seed=sub_seed + 1)
        write_graph_jsonl(graph, data)
        truth = {"nodes": dataset.node_truth, "edges": dataset.edge_truth}
        meta["elements"] = graph.node_count + graph.edge_count
        with data.open() as handle:
            meta["repeat_share"] = repeat_share([json.loads(line) for line in handle])
    else:
        if kind == "stream":
            records = stream_records(sub_seed, size["elements"])
        else:
            records = churn_records(sub_seed, **size)
        _write_jsonl(records, data)
        truth = {
            "nodes": {
                r["id"]: "|".join(sorted(r["labels"]))
                for r in records
                if r["kind"] == "node"
            },
            "edges": {
                r["id"]: "|".join(sorted(r["labels"]))
                for r in records
                if r["kind"] == "edge"
            },
        }
        meta["elements"] = len(records)
        meta["repeat_share"] = repeat_share(records)
        meta["batch_size"] = (
            STREAM_BATCH
            if kind == "stream"
            else size["round_nodes"] + size["round_edges"]
        )
    truth_path = out / "truth.json"
    truth_path.write_text(json.dumps(truth))
    if kind == "stream":
        meta["reference_fingerprint"] = _stream_reference(data)
    meta["files"] = {
        path.name: file_digest(path) for path in (data, truth_path)
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1))
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    temporary = args.out.with_name(args.out.name + f".tmp{os.getpid()}")
    generate(args.kind, args.seed, temporary, args.tiny)
    # Publish atomically: a cut-short generation never looks cached.
    os.replace(temporary, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
