"""Equivalence and caching tests for the vectorized MinHash kernel.

The batched uint64 kernel must be bit-identical to the seed's scalar
object-dtype implementation (kept as ``scalar_signature``), and the
signature/token caches must never change what a signature looks like --
only how often it is computed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.minhash import (
    _EMPTY_SENTINEL,
    _MERSENNE_PRIME,
    _mulmod_p61,
    MinHashLSH,
    active_minhash_kernel,
    exact_jaccard,
    scalar_signature,
)

token_sets = st.sets(
    st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=6),
    min_size=0,
    max_size=24,
)


class TestKernelExactness:
    @given(
        a=st.integers(min_value=0, max_value=_MERSENNE_PRIME - 1),
        x=st.integers(min_value=0, max_value=_MERSENNE_PRIME - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mulmod_matches_bigint_arithmetic(self, a, x):
        got = _mulmod_p61(
            np.array([a], dtype=np.uint64), np.array([x], dtype=np.uint64)
        )
        assert int(got[0]) == (a * x) % _MERSENNE_PRIME

    def test_mulmod_extremes(self):
        top = _MERSENNE_PRIME - 1
        for a in (0, 1, top):
            for x in (0, 1, top):
                got = _mulmod_p61(
                    np.array([a], dtype=np.uint64),
                    np.array([x], dtype=np.uint64),
                )
                assert int(got[0]) == (a * x) % _MERSENNE_PRIME

    def test_single_numpy_kernel(self):
        # Benchmark host metadata records this name.
        assert active_minhash_kernel() == "numpy"


class TestScalarEquivalence:
    @given(tokens=token_sets)
    @settings(max_examples=100, deadline=None)
    def test_signature_bit_identical_to_scalar_path(self, tokens):
        lsh = MinHashLSH(num_tables=12, band_size=2, seed=13)
        assert np.array_equal(lsh.signature(tokens), scalar_signature(lsh, tokens))

    @given(sets=st.lists(token_sets, min_size=0, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_batch_bit_identical_to_scalar_path(self, sets):
        lsh = MinHashLSH(num_tables=8, band_size=1, seed=29)
        batch = lsh.signatures_batch(sets)
        assert batch.shape == (len(sets), lsh.total_hashes)
        for row, tokens in enumerate(sets):
            assert np.array_equal(batch[row], scalar_signature(lsh, tokens))

    def test_chunked_kernel_matches_unchunked(self, monkeypatch):
        # Force the kernel into many tiny chunks; results must not change.
        import repro.lsh.minhash as minhash_module

        sets = [frozenset({f"t{i}", f"u{i % 7}", "shared"}) for i in range(64)]
        reference = MinHashLSH(num_tables=6, seed=3).signatures_batch(sets)
        monkeypatch.setattr(minhash_module, "_CHUNK_BUDGET", 8)
        chunked = MinHashLSH(num_tables=6, seed=3).signatures_batch(sets)
        assert np.array_equal(reference, chunked)


class TestEmptySetEdge:
    def test_empty_sets_sign_as_sentinel_row(self):
        lsh = MinHashLSH(num_tables=5, band_size=2)
        signature = lsh.signature(set())
        assert np.all(signature == _EMPTY_SENTINEL)

    def test_estimate_jaccard_of_two_empty_sets_is_one(self):
        # Regression: must agree with exact_jaccard(set(), set()) == 1.0.
        lsh = MinHashLSH(num_tables=16, seed=4)
        assert lsh.estimate_jaccard(set(), set()) == 1.0
        assert exact_jaccard(set(), set()) == 1.0

    def test_empty_vs_nonempty_estimates_zero(self):
        lsh = MinHashLSH(num_tables=16, seed=4)
        assert lsh.estimate_jaccard(set(), {"a"}) == 0.0

    def test_empty_sets_mixed_into_batch(self):
        lsh = MinHashLSH(num_tables=7, seed=9)
        batch = lsh.signatures_batch([set(), {"a"}, set(), {"b", "c"}])
        assert np.all(batch[0] == _EMPTY_SENTINEL)
        assert np.array_equal(batch[0], batch[2])
        assert not np.all(batch[1] == _EMPTY_SENTINEL)


class TestSignatureCache:
    def test_cache_hit_returns_identical_values(self):
        lsh = MinHashLSH(num_tables=10, seed=2)
        first = lsh.signatures_batch([{"a", "b"}, {"c"}])
        assert len(lsh._signature_cache) == 2
        second = lsh.signatures_batch([{"c"}, {"b", "a"}, {"d"}])
        assert len(lsh._signature_cache) == 3
        assert np.array_equal(first[0], second[1])
        assert np.array_equal(first[1], second[0])

    def test_cached_and_fresh_instances_agree(self):
        sets = [frozenset({"x", "y"}), frozenset({"z"}), frozenset()]
        warm = MinHashLSH(num_tables=9, band_size=2, seed=6)
        warm.signatures_batch(sets)  # warm the cache
        again = warm.signatures(sets)
        cold = MinHashLSH(num_tables=9, band_size=2, seed=6).signatures(sets)
        assert np.array_equal(again, cold)

    def test_token_ids_shared_across_instances(self):
        from repro.lsh.minhash import _TOKEN_ID_CACHE, _token_id

        value = _token_id("cache-probe-token")
        assert _TOKEN_ID_CACHE["cache-probe-token"] == value
        assert _token_id("cache-probe-token") == value


class TestBandedBehaviourPreserved:
    def test_signatures_shape_and_grouping(self):
        lsh = MinHashLSH(num_tables=6, band_size=3, seed=0)
        signatures = lsh.signatures([{"a"}, {"a"}, {"b"}])
        assert signatures.shape == (3, 6)
        assert np.array_equal(signatures[0], signatures[1])
        assert not np.array_equal(signatures[0], signatures[2])

    def test_estimate_tracks_exact_jaccard(self):
        lsh = MinHashLSH(num_tables=256, band_size=1, seed=0)
        left, right = set("abcdefgh"), set("efghijkl")
        estimate = lsh.estimate_jaccard(left, right)
        assert abs(estimate - exact_jaccard(left, right)) < 0.12
