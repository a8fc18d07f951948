"""Element-wise reference for steps (b)-(d) of Algorithm 1.

The library runs one pipeline, over columnar :class:`ElementBatch` rows.
This module is the test suite's independent restatement of section 4,
written the way the paper describes it: each batch is materialised as
``Node``/``Edge`` objects, then

* (b) every element gets its own representation vector -- a label-token
  embedding (three for edges: edge, source, target) concatenated with a
  binary indicator over the batch's property keys -- and its own token
  set (property keys plus role-tagged label tokens);
* (c) LSH clusters those per-element vectors (ELSH) or token sets
  (MinHash) under the same adaptive parameters;
* (d) Algorithm 2 (:func:`extract_types`) folds the clusters into the
  schema, and every member is recorded one by one through the
  accumulators' element-wise ``observe``.

It reuses only building blocks that have their own unit tests: the fitted
Word2Vec model of :class:`Preprocessor`, :func:`adapt_parameters`, the LSH
classes, and :func:`extract_types`.  :class:`ReferenceSession` plugs it
into :class:`SchemaSession`, so the oracle suites and ingest benchmarks
compare whole change feeds against it.

:class:`FullScanSession` is the matching oracle for steps (e)-(g): a
session that keeps the union graph and recomputes post-processing by
full scan over it on every pass, which is what the streaming
accumulators must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulators import SummaryOptions, ensure_summaries
from repro.core.adaptive import adapt_parameters
from repro.core.clustering import ClusteringOutcome
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.core.session import SchemaSession
from repro.core.type_extraction import extract_types
from repro.graph.columnar import ElementBatch
from repro.graph.model import PropertyGraph
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.schema.model import EdgeType
from repro.util import derive_seed


@dataclass
class ReferenceCluster:
    """One candidate type: element members plus their representative pattern."""

    member_ids: list[str]
    labels: set[str] = field(default_factory=set)
    property_keys: set[str] = field(default_factory=set)
    source_tokens: set[str] = field(default_factory=set)
    target_tokens: set[str] = field(default_factory=set)
    #: per-member observed property keys, property maps, and (edges only)
    #: ``(source_id, target_id)`` pairs.
    member_property_keys: list[frozenset[str]] = field(default_factory=list)
    member_properties: list = field(default_factory=list)
    member_endpoints: list = field(default_factory=list)

    @property
    def is_labeled(self) -> bool:
        return bool(self.labels)

    @property
    def size(self) -> int:
        return len(self.member_ids)

    def record_into(self, schema_type, options, exclude_record=frozenset()):
        """Attach members one by one, folding each through ``observe``.

        Clusters without value payloads (or edge clusters without endpoint
        payloads) invalidate the type's summaries instead of silently
        under-counting; a type whose summaries were invalidated stays so.
        """
        is_edge = isinstance(schema_type, EdgeType)
        has_values = (
            options is not None
            and len(self.member_properties) == self.size
            and (not is_edge or len(self.member_endpoints) == self.size)
        )
        summaries = None
        if has_values and (
            schema_type.summaries is not None or schema_type.instance_count == 0
        ):
            summaries = ensure_summaries(schema_type, is_edge, options)
        for index, instance_id in enumerate(self.member_ids):
            if instance_id in exclude_record or not schema_type.record_instance(
                instance_id, self.member_property_keys[index]
            ):
                continue
            if summaries is None:
                schema_type.summaries = None
                continue
            endpoints = self.member_endpoints[index] if is_edge else None
            summaries.observe(
                instance_id, self.member_properties[index], endpoints
            )


def element_features(
    preprocessor: Preprocessor, graph: PropertyGraph, kind: str
) -> tuple[np.ndarray, list[frozenset[str]], list[tuple]]:
    """Step (b): per-element vectors, token sets and member payloads.

    Each payload is ``(element, id, [(role, token), ...])`` with the
    label role first and, for edges, the source and target roles after.
    """
    model = preprocessor.model
    dim = model.dim
    cache = preprocessor._embedding_cache
    edges = kind == "edges"
    elements = list(graph.edges() if edges else graph.nodes())
    keys = graph.all_edge_property_keys() if edges else graph.all_node_property_keys()
    column = {key: position for position, key in enumerate(keys)}
    offset = (3 if edges else 1) * dim
    vectors = np.zeros((len(elements), offset + len(keys)))
    token_sets: list[frozenset[str]] = []
    members: list[tuple] = []
    for row, element in enumerate(elements):
        roles = [("label", element.token)]
        if edges:
            roles.append(("src", graph.node(element.source_id).token))
            roles.append(("tgt", graph.node(element.target_id).token))
        for block, (_, token) in enumerate(roles):
            if token not in cache:
                cache[token] = preprocessor._scaled_embedding(model, token)
            vectors[row, block * dim : (block + 1) * dim] = cache[token]
        for key in element.properties:
            vectors[row, offset + column[key]] = 1.0
        token_sets.append(
            frozenset(element.properties)
            | {f"{role}:{token}" for role, token in roles if token}
        )
        element_id = element.edge_id if edges else element.node_id
        members.append((element, element_id, roles))
    return vectors, token_sets, members


def cluster_elements(
    preprocessor: Preprocessor,
    graph: PropertyGraph,
    config: PGHiveConfig,
    kind: str,
    minhash_cache: dict,
) -> ClusteringOutcome:
    """Steps (b)+(c) for one element kind of ``graph``.

    ``minhash_cache`` keeps one :class:`MinHashLSH` (and its signature
    cache) per parameter set across batches, as the pipeline does.
    """
    vectors, token_sets, members = element_features(preprocessor, graph, kind)
    if not members:
        return ClusteringOutcome([], None)
    labels = set().union(*(element.labels for element, _, _ in members))
    parameters = adapt_parameters(
        vectors,
        label_count=len(labels),
        kind=kind,
        overrides=config.node_lsh if kind == "nodes" else config.edge_lsh,
        seed=derive_seed(config.seed, "adaptive", kind),
    )
    if config.method is ClusteringMethod.ELSH:
        lsh = EuclideanLSH(
            bucket_length=parameters.bucket_length,
            num_tables=parameters.num_tables,
            hashes_per_table=config.hashes_per_table,
            seed=derive_seed(config.seed, "elsh", kind),
        )
        groups = lsh.cluster(vectors, rule=config.grouping_rule)
    else:
        seed = derive_seed(config.seed, "minhash", kind)
        key = (parameters.num_tables, config.minhash_band_size, seed)
        if key not in minhash_cache:
            minhash_cache[key] = MinHashLSH(
                num_tables=key[0], band_size=key[1], seed=seed
            )
        lsh = minhash_cache[key]
        groups = lsh.cluster(token_sets, rule=config.grouping_rule)
    clusters = []
    for rows in groups:
        cluster = ReferenceCluster(member_ids=[])
        for row in rows:
            element, element_id, roles = members[row]
            cluster.member_ids.append(element_id)
            cluster.labels |= element.labels
            cluster.property_keys |= element.property_keys
            cluster.member_property_keys.append(element.property_keys)
            cluster.member_properties.append(element.properties)
            if kind == "edges":
                cluster.source_tokens.add(roles[1][1])
                cluster.target_tokens.add(roles[2][1])
                cluster.member_endpoints.append(element.endpoints())
            else:
                cluster.member_endpoints.append(None)
        clusters.append(cluster)
    return ClusteringOutcome(clusters, parameters)


class ReferenceSession(SchemaSession):
    """A :class:`SchemaSession` whose steps (b)-(d) run the reference.

    Everything else -- change-set validation, stub handling, the union
    graph, deletions, post-processing, checkpoints -- is the session's
    own, so a feed applied to both lands on comparable schemas.
    """

    def _discover_batch(
        self, batch: ElementBatch, exclude_record: frozenset[str]
    ) -> None:
        graph = batch.to_property_graph()
        state = self._state
        if state.preprocessor is None:
            state.preprocessor = Preprocessor(self.config).fit_batch(batch)
        options = None
        if self._streaming_valid and self.config.post_processing:
            options = SummaryOptions(
                track_keys=self._track_keys,
                pair_cap=self.config.key_pair_tracking_cap,
            )
        node_outcome, edge_outcome = (
            cluster_elements(
                state.preprocessor, graph, self.config, kind, state.minhash_cache
            )
            for kind in ("nodes", "edges")
        )
        extract_types(
            self._schema,
            node_outcome.clusters,
            edge_outcome.clusters,
            theta=self.config.theta,
            summary_options=options,
            exclude_record=exclude_record,
        )


class FullScanSession(SchemaSession):
    """A :class:`SchemaSession` that post-processes by full scan only.

    The union graph is always retained and no streaming accumulators are
    built; every post-processing pass re-reads the surviving data through
    :meth:`PGHive.post_process`.  Deletions are therefore exact by
    recomputation -- a property can become mandatory again, bounds can
    tighten -- which is the semantics the session's own accumulator path
    and its post-deletion re-scan must reproduce.
    """

    def __init__(
        self,
        config: PGHiveConfig | None = None,
        schema_name: str = "full-scan-schema",
        *,
        track_keys: bool | None = None,
    ) -> None:
        super().__init__(
            config, schema_name, retain_union=True, track_keys=track_keys
        )
        self._streaming_valid = False

    def _run_post_processing(self) -> None:
        self._pipeline.post_process(
            self._schema, self.union_graph, track_keys=self._track_keys
        )
