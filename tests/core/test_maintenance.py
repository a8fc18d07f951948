"""Unit tests for schema maintenance under deletions (extension).

The paper's incremental step is insert-only; deletions are an extension.
These tests run on the full-scan oracle session of ``tests/reference.py``
(union always retained, post-processing always recomputed), which the
session's own delete path is checked against elsewhere.
"""

from repro.core.config import PGHiveConfig
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node, PropertyGraph
from tests.reference import FullScanSession


def build_maintained(graph, batches=2, seed=0, **kwargs) -> FullScanSession:
    maintained = FullScanSession(PGHiveConfig(seed=seed), **kwargs)
    for batch in split_into_batches(graph, batches, seed=seed):
        maintained.add_batch(batch)
    maintained.refresh()
    return maintained


def delete_nodes(session, node_ids) -> int:
    return session.apply(ChangeSet.deletions(nodes=list(node_ids))).nodes_deleted


def delete_edges(session, edge_ids) -> int:
    return session.apply(ChangeSet.deletions(edges=list(edge_ids))).edges_deleted


class TestDeletionBasics:
    def test_delete_node_removes_instance(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        person = maintained.schema_graph.node_type_by_token("Person")
        before = person.instance_count
        assert delete_nodes(maintained, ["john"]) == 1
        assert person.instance_count == before - 1
        assert "john" not in person.instance_ids
        assert not maintained.union_graph.has_node("john")

    def test_delete_node_cascades_to_edges(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        knows = maintained.schema_graph.edge_type_by_token("KNOWS")
        delete_nodes(maintained, ["john"])  # both KNOWS edges end at john
        assert knows.instance_count == 0 or not any(
            t.token == "KNOWS" for t in maintained.schema_graph.edge_types()
        )

    def test_type_dropped_when_empty(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        delete_nodes(maintained, ["place"])
        assert maintained.schema_graph.node_type_by_token("Place") is None

    def test_delete_unknown_ids_is_noop(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        assert delete_nodes(maintained, ["ghost"]) == 0
        assert delete_edges(maintained, ["ghost"]) == 0

    def test_delete_edges_only(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        assert delete_edges(maintained, ["e3", "e4"]) == 2
        assert maintained.schema_graph.edge_type_by_token("LIKES") is None
        # Endpoint nodes survive.
        assert maintained.union_graph.has_node("post1")


class TestConstraintRecomputation:
    def test_property_can_become_mandatory_after_deletion(self):
        # Three instances; one lacks "x".  After deleting it, x is mandatory.
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"x": 1, "y": 1}))
        graph.add_node(Node("b", {"T"}, {"x": 2, "y": 2}))
        graph.add_node(Node("c", {"T"}, {"y": 3}))
        maintained = build_maintained(graph, batches=1)
        node_type = maintained.schema_graph.node_type_by_token("T")
        assert node_type.properties["x"].mandatory is False
        delete_nodes(maintained, ["c"])
        maintained.refresh()
        assert node_type.properties["x"].mandatory is True

    def test_cardinality_tightens_after_deletion(self):
        graph = PropertyGraph()
        graph.add_node(Node("hub", {"H"}, {"k": 1}))
        for i in range(3):
            graph.add_node(Node(f"s{i}", {"S"}, {"k": i}))
            graph.add_edge(Edge(f"e{i}", f"s{i}", "hub", {"R"}))
        maintained = build_maintained(graph, batches=1)
        edge_type = maintained.schema_graph.edge_type_by_token("R")
        assert str(edge_type.cardinality) == "N:1"
        delete_edges(maintained, ["e1", "e2"])
        maintained.refresh()
        assert str(edge_type.cardinality) == "0:1"

    def test_property_disappears_with_last_holder(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"x": 1}))
        graph.add_node(Node("b", {"T"}, {"x": 2, "extra": 9}))
        maintained = build_maintained(graph, batches=1)
        node_type = maintained.schema_graph.node_type_by_token("T")
        delete_nodes(maintained, ["b"])
        assert node_type.property_counts.get("extra", 0) == 0

    def test_keys_recomputed_when_enabled(self):
        graph = PropertyGraph()
        graph.add_node(Node("a", {"T"}, {"v": 1}))
        graph.add_node(Node("b", {"T"}, {"v": 1}))
        graph.add_node(Node("c", {"T"}, {"v": 2}))
        maintained = build_maintained(
            graph, batches=1, track_keys=True
        )
        node_type = maintained.schema_graph.node_type_by_token("T")
        assert node_type.candidate_keys == []  # duplicate value 1
        delete_nodes(maintained, ["b"])
        maintained.refresh()
        assert node_type.candidate_keys == [("v",)]


class TestInsertAfterDelete:
    def test_reinsertion_recreates_type(self, figure1_graph):
        maintained = build_maintained(figure1_graph)
        delete_nodes(maintained, ["place"])
        assert maintained.schema_graph.node_type_by_token("Place") is None
        addition = PropertyGraph("more")
        addition.add_node(Node("place2", {"Place"}, {"name": "Crete"}))
        maintained.add_batch(addition)
        assert maintained.schema_graph.node_type_by_token("Place") is not None
