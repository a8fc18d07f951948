"""Unit tests for representation vectors (section 4.1, Example 3)."""

import numpy as np
import pytest

from repro.core.config import PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.graph.columnar import ElementBatch


@pytest.fixture
def batch(figure1_graph) -> ElementBatch:
    return ElementBatch.from_graph(figure1_graph)


@pytest.fixture
def preprocessor(batch) -> Preprocessor:
    return Preprocessor(PGHiveConfig(embedding_dim=8, seed=1)).fit_batch(batch)


def row_of(features, element_id: str) -> int:
    return features.block.ids.index(element_id)


def token_set(features, row: int) -> frozenset[str]:
    """The MinHash token set of one row: the label token and property
    keys, plus role-tagged endpoint tokens for edges."""
    block, interner = features.block, features.interner
    if block.is_edges:
        pattern = interner.edge_pattern(
            int(block.token_sids[row]),
            int(block.src_token_sids[row]),
            int(block.tgt_token_sids[row]),
            int(block.keyset_ids[row]),
        )
    else:
        pattern = interner.node_pattern(
            int(block.token_sids[row]), int(block.keyset_ids[row])
        )
    return pattern.tokens


class TestNodeFeatures:
    def test_vector_dimension_is_d_plus_K(self, preprocessor, batch, figure1_graph):
        features = preprocessor.node_features_columnar(batch)
        distinct_keys = len(figure1_graph.all_node_property_keys())
        assert features.vectors.shape == (7, 8 + distinct_keys)

    def test_binary_block_flags_present_properties(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        keys = sorted(features.block.columns)
        row = row_of(features, "bob")
        binary = features.vectors[row, 8:]
        for position, key in enumerate(keys):
            expected = 1.0 if key in {"name", "gender", "bday"} else 0.0
            assert binary[position] == expected

    def test_unlabeled_node_has_zero_embedding(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        row = row_of(features, "alice")
        assert np.allclose(features.vectors[row, :8], 0.0)

    def test_same_token_same_embedding(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        bob, john = row_of(features, "bob"), row_of(features, "john")
        assert np.allclose(
            features.vectors[bob, :8], features.vectors[john, :8]
        )

    def test_embedding_scaled_to_label_weight(self, batch, figure1_graph):
        config = PGHiveConfig(embedding_dim=8, label_weight=3.0, seed=1)
        features = Preprocessor(config).fit(figure1_graph).node_features_columnar(
            batch
        )
        row = row_of(features, "bob")
        assert np.linalg.norm(features.vectors[row, :8]) == pytest.approx(3.0)

    def test_distinct_tokens_separated(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        post = features.vectors[row_of(features, "post1"), :8]
        org = features.vectors[row_of(features, "org"), :8]
        assert np.linalg.norm(post - org) > 0.5

    def test_token_sets_include_label_and_keys(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        bob_tokens = token_set(features, row_of(features, "bob"))
        assert "label:Person" in bob_tokens
        assert {"name", "gender", "bday"} <= set(bob_tokens)
        alice_tokens = token_set(features, row_of(features, "alice"))
        assert not any(t.startswith("label:") for t in alice_tokens)


class TestEdgeFeatures:
    def test_vector_dimension_is_3d_plus_Q(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        assert features.vectors.shape == (7, 3 * 8 + 2)  # keys: from, since

    def test_three_embedding_blocks(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        row = row_of(features, "e5")  # WORKS_AT bob->org
        edge_block = features.vectors[row, :8]
        source_block = features.vectors[row, 8:16]
        target_block = features.vectors[row, 16:24]
        assert np.linalg.norm(edge_block) > 0
        assert np.linalg.norm(source_block) > 0
        assert np.linalg.norm(target_block) > 0
        assert not np.allclose(source_block, target_block)

    def test_unlabeled_source_zero_block(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        row = row_of(features, "e1")  # KNOWS alice->john, alice unlabeled
        assert np.allclose(features.vectors[row, 8:16], 0.0)

    def test_records_carry_endpoint_tokens(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        block, interner = features.block, features.interner
        row = row_of(features, "e5")
        assert interner.string(int(block.src_token_sids[row])) == "Person"
        assert interner.string(int(block.tgt_token_sids[row])) == "Org."

    def test_edge_token_sets_role_tagged(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        tokens = token_set(features, row_of(features, "e5"))
        assert "label:WORKS_AT" in tokens
        assert "src:Person" in tokens
        assert "tgt:Org." in tokens
        assert "from" in tokens


class TestLifecycle:
    def test_transform_before_fit_raises(self, batch):
        preprocessor = Preprocessor(PGHiveConfig())
        with pytest.raises(RuntimeError):
            preprocessor.node_features_columnar(batch)
