"""WAL wire encoding of change-sets: round trips and version pinning.

The critical property for columnar payloads: interner ids are
process-local and must never survive serialisation, so a batch encoded
in one process decodes correctly against a *different* interner whose id
assignments disagree.
"""

import pickle
import zlib

import pytest

from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, Interner, global_interner
from repro.graph.model import Edge, Node
from repro.errors import WALError


def framed(record) -> bytes:
    """A record in the version-2 wire framing (prefix + deflated pickle)."""
    return b"\x02" + zlib.compress(pickle.dumps(record))


def element_change_set():
    nodes = [
        Node("alice", {"Person"}, {"name": "Alice", "age": 7}),
        Node("acme", {"Org", "Company"}, {"name": "Acme"}),
    ]
    edges = [Edge("e1", "alice", "acme", {"WORKS_AT"}, {"since": 2020})]
    return ChangeSet(
        nodes=nodes,
        edges=edges,
        delete_nodes=["ghost"],
        delete_edges=["old-edge"],
        stub_node_ids=frozenset({"acme"}),
    )


class TestElementWire:
    def test_round_trip(self):
        original = element_change_set()
        decoded = ChangeSet.from_wire(original.to_wire())
        assert [n.node_id for n in decoded.nodes] == ["alice", "acme"]
        assert decoded.nodes[0].labels == {"Person"}
        assert decoded.nodes[0].properties == {"name": "Alice", "age": 7}
        assert [e.edge_id for e in decoded.edges] == ["e1"]
        assert decoded.delete_nodes == ["ghost"]
        assert decoded.delete_edges == ["old-edge"]
        assert decoded.stub_node_ids == frozenset({"acme"})
        assert decoded.columnar is None

    def test_deletion_only(self):
        original = ChangeSet.deletions(nodes=["a"], edges=["b"])
        decoded = ChangeSet.from_wire(original.to_wire())
        assert decoded.delete_nodes == ["a"]
        assert decoded.delete_edges == ["b"]
        assert not decoded.has_inserts


class TestColumnarWire:
    def build(self, interner):
        builder = BatchBuilder(interner)
        person = interner.intern_labels(["Person"])
        org = interner.intern_labels(["Org"])
        keys = interner.intern_keys(["age", "name"])
        builder.add_node("alice", person, keys, ("Alice", 7))
        builder.add_node("acme", org, keys, ("Acme", 99))
        builder.add_edge(
            "e1",
            "alice",
            "acme",
            interner.intern_labels(["WORKS_AT"]),
            interner.intern_keys(["since"]),
            (2020,),
        )
        return ChangeSet(columnar=builder.freeze(), stub_node_ids=frozenset({"acme"}))

    def test_round_trip_across_disagreeing_interners(self):
        writer = Interner()
        # Skew the reader's id space so any leaked id would mis-resolve.
        reader = Interner()
        reader.intern_labels(["Decoy1"])
        reader.intern_labels(["Decoy2"])
        reader.intern_keys(["zz"])

        wire = self.build(writer).to_wire()
        decoded = ChangeSet.from_wire(wire, interner=reader)
        batch = decoded.columnar
        assert batch is not None and batch.interner is reader
        assert list(batch.nodes.ids) == ["alice", "acme"]
        labelset_id, keyset_id, values = batch.node_record(0)
        assert reader.labelset(labelset_id).labels == frozenset({"Person"})
        assert reader.keyset(keyset_id).keys == ("age", "name")
        assert tuple(values) == ("Alice", 7)
        src, tgt, labelset_id, keyset_id, values = batch.edge_record(0)
        assert (src, tgt) == ("alice", "acme")
        assert reader.labelset(labelset_id).labels == frozenset({"WORKS_AT"})
        assert tuple(values) == (2020,)
        assert decoded.stub_node_ids == frozenset({"acme"})

    def test_decodes_against_global_interner_by_default(self):
        wire = self.build(Interner()).to_wire()
        decoded = ChangeSet.from_wire(wire)
        assert decoded.columnar.interner is global_interner()


class TestWireErrors:
    def test_garbage_payload(self):
        with pytest.raises(WALError, match="undecodable"):
            ChangeSet.from_wire(b"\x00\x01 not a pickle")

    def test_wrong_version(self):
        wire = framed({"version": 999})
        with pytest.raises(WALError, match="version"):
            ChangeSet.from_wire(wire)

    def test_non_dict_record(self):
        with pytest.raises(WALError, match="version"):
            ChangeSet.from_wire(framed([1, 2, 3]))

    def test_framed_v1_record_is_rejected(self):
        # Only wire v2 decodes: a v1 record fails even when framed.
        record = {"version": 1, "kind": "columnar", "node_rows": []}
        with pytest.raises(WALError, match="version 1"):
            ChangeSet.from_wire(framed(record))
