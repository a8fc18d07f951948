"""Adaptive LSH parameterization (section 4.2).

Before clustering, a small sample of the representation vectors estimates
the dataset's distance scale ``mu`` (the average pairwise Euclidean
distance).  The bucket length follows

    b_base = 1.2 * mu          # 1.2 avoids overfragmentation
    b      = b_base * alpha    # alpha from the distinct-label count L

with ``alpha = 0.8`` for L <= 3, ``1.0`` for 4 <= L <= 10, and ``1.5`` for
L > 10.  Table counts follow the paper's heuristics

    T_nodes = b_base * max(5, alpha * min(25, log10 N))
    T_edges = b_base * max(3, alpha * min(20, log10 E))

rounded to integers and clamped to [1, 64] so degenerate scales (tiny toy
graphs, near-zero mu) stay usable.  Users can override any of b, T, alpha
through :class:`~repro.core.config.AdaptiveOverrides`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import AdaptiveOverrides

#: Sample at least this many elements when estimating mu ("at least 10k
#: nodes", section 4.2); graphs smaller than the floor are used whole.
SAMPLE_FLOOR = 10_000
SAMPLE_FRACTION = 0.01
#: Cap on sampled distance pairs; the mean converges long before this.
MAX_DISTANCE_PAIRS = 20_000
#: Row pairs per chunk when measuring sampled distances.
PAIR_CHUNK = 2048
#: Clamp for the table count after rounding.
MAX_TABLES = 64
#: Fallback bucket length when every sampled vector coincides (mu = 0).
MIN_BUCKET_LENGTH = 1e-3


@dataclass(frozen=True, slots=True)
class AdaptiveParameters:
    """Resolved LSH parameters plus the statistics that produced them."""

    bucket_length: float
    num_tables: int
    mu: float
    alpha: float
    b_base: float
    label_count: int
    element_count: int

    def describe(self) -> str:
        """One-line summary for logs and bench output."""
        return (
            f"b={self.bucket_length:.3f} T={self.num_tables} "
            f"(mu={self.mu:.3f}, alpha={self.alpha}, L={self.label_count}, "
            f"N={self.element_count})"
        )


def alpha_for_label_count(label_count: int) -> float:
    """The label-diversity multiplier of section 4.2."""
    if label_count <= 3:
        return 0.8
    if label_count <= 10:
        return 1.0
    return 1.5


def estimate_distance_scale(
    vectors: np.ndarray,
    rng: np.random.Generator,
    groups: np.ndarray | None = None,
) -> float:
    """Average pairwise Euclidean distance over a sampled subset.

    ``groups`` optionally labels the rows: rows sharing a label must have
    identical vectors (the columnar pipeline passes its structural
    pattern index).  When there are few distinct labels, each drawn
    label pair is measured once and its distance reused, which returns
    exactly the per-pair mean at a fraction of the cost on repetitive
    batches.
    """
    count = len(vectors)
    if count < 2:
        return 0.0
    sample_size = max(int(count * SAMPLE_FRACTION), SAMPLE_FLOOR)
    sample_size = min(sample_size, count)
    if sample_size == count:
        sample = vectors
    else:
        indices = rng.choice(count, size=sample_size, replace=False)
        sample = vectors[indices]
        if groups is not None:
            groups = groups[indices]

    if sample_size <= 200:
        # Small samples: take every pair exactly.
        left, right = np.triu_indices(sample_size, k=1)
    else:
        pair_budget = min(
            MAX_DISTANCE_PAIRS, sample_size * (sample_size - 1) // 2
        )
        left = rng.integers(0, sample_size, pair_budget)
        right = rng.integers(0, sample_size, pair_budget)
        distinct = left != right
        if not np.any(distinct):
            return 0.0
        left, right = left[distinct], right[distinct]
    if groups is None:
        return float(_pair_distances(sample, left, right).mean())
    width = int(groups.max()) + 1
    if width * width > 4 * len(left):
        return float(_pair_distances(sample, left, right).mean())
    # Rows of one group share their vector: measure each drawn group pair
    # once (from any of its drawn row pairs; a - b and b - a are exact
    # negations, so the pair is unordered) and look the distance up per
    # drawn pair -- the same values in the same order, so the same mean.
    left_groups, right_groups = groups[left], groups[right]
    codes = (
        np.minimum(left_groups, right_groups) * width
        + np.maximum(left_groups, right_groups)
    )
    slot = np.full(width * width, -1, dtype=np.intp)
    slot[codes] = np.arange(len(codes))
    cells = np.flatnonzero(slot >= 0)
    table = np.empty(width * width)
    table[cells] = _pair_distances(
        sample, left[slot[cells]], right[slot[cells]]
    )
    return float(table[codes].mean())


def _pair_distances(
    sample: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Euclidean distance of each (left, right) row pair.

    Computed in chunks, so the transient delta matrix stays small however
    wide the vectors are.
    """
    distances = np.empty(len(left))
    for start in range(0, len(left), PAIR_CHUNK):
        stop = start + PAIR_CHUNK
        deltas = sample[left[start:stop]] - sample[right[start:stop]]
        distances[start:stop] = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    return distances


def _table_count(
    b_base: float,
    alpha: float,
    element_count: int,
    floor: int,
    log_cap: int,
) -> int:
    log_term = math.log10(element_count) if element_count > 1 else 1.0
    raw = b_base * max(floor, alpha * min(log_cap, log_term))
    return int(np.clip(round(raw), 1, MAX_TABLES))


def adapt_parameters(
    vectors: np.ndarray,
    label_count: int,
    kind: str,
    overrides: AdaptiveOverrides | None = None,
    seed: int = 0,
    groups: np.ndarray | None = None,
) -> AdaptiveParameters:
    """Resolve LSH parameters for ``vectors`` per the section 4.2 heuristics.

    ``kind`` selects the node or edge T formula (``"nodes"`` / ``"edges"``).
    Overridden fields short-circuit the corresponding heuristic.
    ``groups`` labels rows with identical vectors (see
    :func:`estimate_distance_scale`); it changes the cost, not the result.
    """
    if kind not in ("nodes", "edges"):
        raise ValueError(f"kind must be 'nodes' or 'edges', got {kind!r}")
    overrides = overrides or AdaptiveOverrides()
    rng = np.random.default_rng(seed)
    element_count = len(vectors)

    mu = estimate_distance_scale(vectors, rng, groups)
    b_base = max(1.2 * mu, MIN_BUCKET_LENGTH)
    alpha = (
        overrides.alpha
        if overrides.alpha is not None
        else alpha_for_label_count(label_count)
    )
    bucket_length = (
        overrides.bucket_length
        if overrides.bucket_length is not None
        else b_base * alpha
    )
    if overrides.num_tables is not None:
        num_tables = overrides.num_tables
    elif kind == "nodes":
        num_tables = _table_count(b_base, alpha, element_count, floor=5, log_cap=25)
    else:
        num_tables = _table_count(b_base, alpha, element_count, floor=3, log_cap=20)
    return AdaptiveParameters(
        bucket_length=float(bucket_length),
        num_tables=int(num_tables),
        mu=mu,
        alpha=float(alpha),
        b_base=float(b_base),
        label_count=label_count,
        element_count=element_count,
    )
