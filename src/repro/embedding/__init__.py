"""Embedding substrate: Word2Vec from scratch plus label-corpus builders."""

from repro.embedding.corpus import build_label_corpus_columnar
from repro.embedding.vocab import Vocabulary
from repro.embedding.word2vec import Word2Vec

__all__ = ["Vocabulary", "Word2Vec", "build_label_corpus_columnar"]
