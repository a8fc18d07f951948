"""Property-based equivalence: columnar ingest vs the element-wise reference.

The columnar pipeline must be schema-fingerprint-identical to the
element-wise reference of steps (b)-(d) (``tests/reference.py``) for
every feed: same clusters, same types, same specs, datatypes,
cardinalities, and candidate keys.  These tests drive interleaved
insert/delete scripts through two sessions -- a reference session fed
:class:`ChangeSet` element inserts, a :class:`SchemaSession` fed the same
content as :class:`ElementBatch` payloads -- and compare fingerprints
after every applied change-set, for both LSH families.  Round-trip and
interner persistence tests pin the converter boundary and the checkpoint
story.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.columnar as columnar_module
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.changes import ChangeSet
from repro.graph.columnar import ElementBatch, Interner
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint
from tests.reference import ReferenceSession

LABELS = ["Person", "Org", ""]
KEYS = ["name", "age", "score", "flag"]
VALUES = {
    "name": lambda serial: f"name-{serial}",
    "age": lambda serial: serial % 7,
    "score": lambda serial: serial * 0.5,
    "flag": lambda serial: serial % 2 == 0,
}


@st.composite
def operation_scripts(draw):
    """Insert/delete scripts over a shared element universe."""
    ops = []
    serial = 0
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["insert", "insert", "del_nodes", "del_edges"]))
        if kind == "insert":
            nodes = []
            for _ in range(draw(st.integers(1, 4))):
                serial += 1
                label = draw(st.sampled_from(LABELS))
                keys = draw(st.frozensets(st.sampled_from(KEYS), max_size=3))
                nodes.append((f"v{serial}", label, sorted(keys), serial))
            edge_picks = [
                (
                    draw(st.integers(0, 10_000)),
                    draw(st.integers(0, 10_000)),
                    draw(st.sampled_from(["REL", ""])),
                )
                for _ in range(draw(st.integers(0, 2)))
            ]
            ops.append(("insert", nodes, edge_picks))
        else:
            ops.append((kind, draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=2))))
    return ops


def interpret(ops):
    """Resolve a script into endpoint-complete change-set payloads.

    Mirrors the batch-stream convention every reader follows: an edge
    referencing a node from an earlier change-set ships a stub copy of
    it, marked in ``stub_node_ids``, so identical change-sets feed both
    the reference and the columnar session.
    """
    inserted_edges: list[str] = []
    live: dict[str, Node] = {}
    serial = 0
    resolved = []
    for op in ops:
        if op[0] == "insert":
            _, node_specs, edge_picks = op
            nodes = []
            fresh_ids = set()
            for node_id, label, keys, value_seed in node_specs:
                labels = frozenset({label}) if label else frozenset()
                node = Node(
                    node_id,
                    labels,
                    {key: VALUES[key](value_seed) for key in keys},
                )
                nodes.append(node)
                live[node_id] = node
                fresh_ids.add(node_id)
            pool = list(live)
            edges = []
            stub_ids = set()
            shipped = set(fresh_ids)
            for left, right, label in edge_picks:
                if len(pool) < 2:
                    break
                serial += 1
                edge_id = f"r{serial}"
                source = pool[left % len(pool)]
                target = pool[right % len(pool)]
                for endpoint in (source, target):
                    if endpoint not in shipped:
                        shipped.add(endpoint)
                        stub_ids.add(endpoint)
                        nodes.append(live[endpoint])
                edges.append(
                    Edge(
                        edge_id,
                        source,
                        target,
                        frozenset({label}) if label else frozenset(),
                        {"since": 2000 + serial % 9},
                    )
                )
                inserted_edges.append(edge_id)
            resolved.append(("insert", nodes, edges, frozenset(stub_ids)))
        elif op[0] == "del_nodes":
            if not live:
                continue
            pool = list(live)
            targets = sorted({pool[i % len(pool)] for i in op[1]})
            for node_id in targets:
                live.pop(node_id, None)
            resolved.append(("del_nodes", targets))
        else:
            if not inserted_edges:
                continue
            targets = sorted({inserted_edges[i % len(inserted_edges)] for i in op[1]})
            resolved.append(("del_edges", targets))
    return resolved


def run_oracle(resolved, config):
    """Drive reference and columnar sessions; compare every snapshot."""
    element = ReferenceSession(config, schema_name="oracle", retain_union=True)
    columnar = SchemaSession(config, schema_name="oracle", retain_union=True)
    for op in resolved:
        if op[0] == "insert":
            _, nodes, edges, stub_ids = op
            element.apply(
                ChangeSet(nodes=nodes, edges=edges, stub_node_ids=stub_ids)
            )
            columnar.apply(
                ChangeSet(
                    columnar=ElementBatch.from_elements(nodes, edges),
                    stub_node_ids=stub_ids,
                )
            )
        elif op[0] == "del_nodes":
            element.apply(ChangeSet.deletions(nodes=op[1]))
            columnar.apply(ChangeSet.deletions(nodes=op[1]))
        else:
            element.apply(ChangeSet.deletions(edges=op[1]))
            columnar.apply(ChangeSet.deletions(edges=op[1]))
        assert schema_fingerprint(element.schema()) == schema_fingerprint(
            columnar.schema()
        )


class TestColumnarMatchesElementOracle:
    @given(ops=operation_scripts())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_minhash_interleaved_feed(self, ops):
        config = PGHiveConfig(
            method=ClusteringMethod.MINHASH, seed=5, infer_keys=True
        )
        run_oracle(interpret(ops), config)

    @given(ops=operation_scripts())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_elsh_interleaved_feed(self, ops):
        config = PGHiveConfig(method=ClusteringMethod.ELSH, seed=5)
        run_oracle(interpret(ops), config)


def sample_elements():
    nodes = [
        Node("a", frozenset({"P"}), {"x": 1, "y": "v", "z": [1, 2]}),
        Node("b", frozenset(), {"x": 2.5, "flag": True}),
        Node("c", frozenset({"P", "Q"}), {}),
    ]
    edges = [
        Edge("e1", "a", "b", frozenset({"R"}), {"w": 1.5}),
        Edge("e2", "b", "c", frozenset(), {}),
    ]
    return nodes, edges


class TestElementBatchRoundTrip:
    def test_from_elements_to_elements(self):
        nodes, edges = sample_elements()
        batch = ElementBatch.from_elements(nodes, edges)
        back_nodes, back_edges = batch.to_elements()
        assert back_nodes == nodes
        assert back_edges == edges

    def test_from_graph_to_property_graph(self):
        nodes, edges = sample_elements()
        graph = PropertyGraph("g")
        for node in nodes:
            graph.add_node(node)
        for edge in edges:
            graph.add_edge(edge)
        batch = ElementBatch.from_graph(graph)
        rebuilt = batch.to_property_graph("g")
        assert list(rebuilt.nodes()) == nodes
        assert list(rebuilt.edges()) == edges

    def test_value_columns_preserve_scalar_types(self):
        nodes, edges = sample_elements()
        batch = ElementBatch.from_elements(nodes, edges)
        back_a, back_b, _ = batch.to_elements()[0]
        assert isinstance(back_a.properties["x"], int)
        assert isinstance(back_b.properties["x"], float)
        assert back_b.properties["flag"] is True
        assert back_a.properties["z"] == [1, 2]

    def test_duplicate_edge_rows_keep_first(self):
        nodes, _ = sample_elements()
        edges = [
            Edge("e1", "a", "b", frozenset({"R"}), {"w": 1}),
            Edge("e1", "a", "c", frozenset({"S"}), {"w": 2}),
        ]
        batch = ElementBatch.from_elements(nodes, edges)
        assert batch.edge_count == 1
        _, back = batch.to_elements()
        assert back[0].target_id == "b"

    def test_ambiguous_label_tokens_stay_distinct(self):
        # {"A+B"} and {"A", "B"} share the token string "A+B" but must
        # keep their distinct label sets through the columnar path.
        nodes = [
            Node("a", frozenset({"A+B"}), {"x": 1}),
            Node("b", frozenset({"A", "B"}), {"x": 2}),
        ]
        batch = ElementBatch.from_elements(nodes, [])
        back, _ = batch.to_elements()
        assert back[0].labels == frozenset({"A+B"})
        assert back[1].labels == frozenset({"A", "B"})

    def test_dangling_columnar_edge_raises(self):
        from repro.errors import DanglingEdgeError

        with pytest.raises(DanglingEdgeError):
            ElementBatch.from_elements(
                [Node("a", frozenset({"P"}))],
                [Edge("e", "a", "missing", frozenset({"R"}))],
            )


class TestInternerPersistence:
    def test_checkpoint_restore_rewarms_fresh_interner(self, tmp_path, monkeypatch):
        nodes, edges = sample_elements()
        config = PGHiveConfig(method=ClusteringMethod.MINHASH)
        session = SchemaSession(config, schema_name="ck")
        session.apply(
            ChangeSet.inserts_columnar(ElementBatch.from_elements(nodes, edges))
        )
        before = schema_fingerprint(session.schema())
        path = session.checkpoint(tmp_path / "session.ckpt")

        fresh = Interner()
        monkeypatch.setattr(columnar_module, "_GLOBAL", fresh)
        restored = SchemaSession.restore(path)
        assert schema_fingerprint(restored.schema()) == before
        # The fresh process-wide interner was re-warmed from the snapshot.
        assert fresh.string_count > 0
        assert fresh.labelset_count > 0
        assert fresh.keyset_count > 0
        assert restored.discovery_state.interner is fresh

        # Continued columnar feeding through the restored session matches
        # the donor session continuing in-process.
        more_nodes = [Node("d", frozenset({"P"}), {"x": 9, "y": "w"})]
        restored.apply(
            ChangeSet.inserts_columnar(
                ElementBatch.from_elements(more_nodes, [], fresh)
            )
        )
        session.apply(
            ChangeSet.inserts_columnar(ElementBatch.from_elements(more_nodes, []))
        )
        assert schema_fingerprint(restored.schema()) == schema_fingerprint(
            session.schema()
        )

    def test_snapshot_merge_is_idempotent(self):
        interner = Interner()
        interner.intern_labels({"A", "B"})
        interner.intern_keys(["x", "y"])
        snapshot = interner.snapshot()
        other = Interner().merge_snapshot(snapshot)
        counts = (other.string_count, other.labelset_count, other.keyset_count)
        other.merge_snapshot(snapshot)
        assert counts == (
            other.string_count,
            other.labelset_count,
            other.keyset_count,
        )

    def test_minhash_ids_are_content_derived(self):
        from repro.lsh.minhash import token_content_id

        interner = Interner()
        sid = interner.intern_string("label:Person")
        assert interner.string_minhash_id(sid) == token_content_id("label:Person")


class TestColumnarPatternSignatures:
    def test_pattern_ids_match_string_tokenisation(self):
        from repro.lsh.minhash import MinHashLSH

        interner = Interner()
        labelset = interner.labelset(interner.intern_labels({"P"}))
        keyset_id = interner.intern_keys(["x", "y"])
        pattern = interner.node_pattern(labelset.token_sid, keyset_id)
        lsh_a = MinHashLSH(num_tables=8, band_size=2, seed=11)
        lsh_b = MinHashLSH(num_tables=8, band_size=2, seed=11)
        via_strings = lsh_a.signature(pattern.tokens)
        via_ids = lsh_b.signatures_batch(
            [pattern.tokens], token_ids=[pattern.minhash_ids]
        )[0]
        assert np.array_equal(via_strings, via_ids)
