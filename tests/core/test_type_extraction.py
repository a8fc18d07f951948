"""Unit tests for Algorithm 2 (type extraction and merging)."""

from repro.core.type_extraction import (
    extract_edge_types,
    extract_node_types,
    extract_types,
)
from repro.schema.model import SchemaGraph
from tests.reference import ReferenceCluster


def node_cluster(member_ids, labels=(), keys=()):
    keys = frozenset(keys)
    return ReferenceCluster(
        member_ids=list(member_ids),
        labels=set(labels),
        property_keys=set(keys),
        member_property_keys=[keys] * len(member_ids),
    )


def edge_cluster(member_ids, labels=(), keys=(), sources=(), targets=()):
    keys = frozenset(keys)
    return ReferenceCluster(
        member_ids=list(member_ids),
        labels=set(labels),
        property_keys=set(keys),
        source_tokens=set(sources),
        target_tokens=set(targets),
        member_property_keys=[keys] * len(member_ids),
    )


class TestLabeledNodeClusters:
    def test_same_label_clusters_merge(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Post"}, {"imgFile"}),
                node_cluster(["b"], {"Post"}, {"content"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        post = schema.node_type_by_token("Post")
        assert post.property_keys == frozenset({"imgFile", "content"})
        assert post.instance_ids == {"a", "b"}

    def test_different_labels_stay_separate(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Person"}, {"name"}),
                node_cluster(["b"], {"Org"}, {"name"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 2

    def test_multilabel_cluster_token(self):
        schema = SchemaGraph()
        extract_node_types(
            schema, [node_cluster(["a"], {"Person", "Student"}, {"x"})], theta=0.9
        )
        assert schema.node_type_by_token("Person+Student") is not None


class TestUnlabeledNodeClusters:
    def test_jaccard_merge_into_labeled(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a", "b"], {"Person"}, {"name", "gender", "bday"}),
                node_cluster(["c"], (), {"name", "gender", "bday"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        person = schema.node_type_by_token("Person")
        assert "c" in person.instance_ids
        assert not person.abstract

    def test_below_threshold_becomes_abstract(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"Person"}, {"name", "gender", "bday"}),
                node_cluster(["c"], (), {"salary"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 2
        assert len(schema.abstract_node_types()) == 1

    def test_unlabeled_pair_merges_together(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], (), {"x", "y"}),
                node_cluster(["b"], (), {"x", "y"}),
            ],
            theta=0.9,
        )
        assert schema.node_type_count == 1
        assert schema.abstract_node_types()[0].instance_ids == {"a", "b"}

    def test_best_jaccard_candidate_wins(self):
        schema = SchemaGraph()
        extract_node_types(
            schema,
            [
                node_cluster(["a"], {"A"}, {"x", "y", "z", "w"}),
                node_cluster(["b"], {"B"}, {"x", "y", "z"}),
                node_cluster(["c"], (), {"x", "y", "z"}),
            ],
            theta=0.9,
        )
        b_type = schema.node_type_by_token("B")
        assert "c" in b_type.instance_ids

    def test_lower_theta_merges_more(self):
        def run(theta):
            schema = SchemaGraph()
            extract_node_types(
                schema,
                [
                    node_cluster(["a"], {"A"}, {"x", "y"}),
                    node_cluster(["b"], (), {"x"}),
                ],
                theta=theta,
            )
            return schema.node_type_count

        assert run(0.9) == 2
        assert run(0.4) == 1


class TestEdgeClusters:
    def test_same_label_compatible_endpoints_merge(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"KNOWS"}, {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e2"], {"KNOWS"}, (), {"Person"}, {"Person"}),
            ],
            theta=0.9,
        )
        assert schema.edge_type_count == 1
        knows = schema.edge_type_by_token("KNOWS")
        assert knows.property_keys == frozenset({"since"})
        assert knows.instance_ids == {"e1", "e2"}

    def test_same_label_disjoint_endpoints_stay_separate(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"ConnectsTo"}, (), {"Neuron"}, {"Neuron"}),
                edge_cluster(["e2"], {"ConnectsTo"}, (), {"Segment"}, {"Segment"}),
            ],
            theta=0.9,
        )
        assert schema.edge_type_count == 2

    def test_endpoint_union_defines_connectivity(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"LOCATED_IN"}, (), {"Org."}, {"Place"}),
                edge_cluster(
                    ["e2"], {"LOCATED_IN"}, {"from"}, {"Org.", "Person"}, {"Place"}
                ),
            ],
            theta=0.9,
        )
        located = schema.edge_type_by_token("LOCATED_IN")
        assert located.source_tokens == {"Org.", "Person"}
        assert located.target_tokens == {"Place"}

    def test_unlabeled_edge_merges_by_jaccard_with_endpoint_guard(self):
        schema = SchemaGraph()
        extract_edge_types(
            schema,
            [
                edge_cluster(["e1"], {"KNOWS"}, {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e2"], (), {"since"}, {"Person"}, {"Person"}),
                edge_cluster(["e3"], (), {"since"}, {"Robot"}, {"Robot"}),
            ],
            theta=0.9,
        )
        knows = schema.edge_type_by_token("KNOWS")
        assert "e2" in knows.instance_ids
        assert "e3" not in knows.instance_ids
        assert schema.edge_type_count == 2


class TestExtractTypesEntryPoint:
    def test_runs_both_kinds(self):
        schema = SchemaGraph()
        extract_types(
            schema,
            [node_cluster(["a"], {"A"}, {"x"})],
            [edge_cluster(["e"], {"R"}, (), {"A"}, {"A"})],
        )
        assert schema.node_type_count == 1
        assert schema.edge_type_count == 1

    def test_incremental_accumulation(self):
        schema = SchemaGraph()
        extract_types(schema, [node_cluster(["a"], {"A"}, {"x"})], [])
        extract_types(schema, [node_cluster(["b"], {"A"}, {"y"})], [])
        assert schema.node_type_count == 1
        assert schema.node_type_by_token("A").property_keys == frozenset({"x", "y"})
