"""The object batch pipeline, kept as the byte-for-byte reference for
the columnar core (:mod:`repro.columnar`).

It builds a per-node query trie, clones it into fragments and matches
fragment by fragment with BitString arithmetic — the paper's algorithms
written out directly.  No configuration of the shipped package runs
it; :func:`tests.harness.object_pipeline` swaps it in through
:data:`~tests.reference.pipeline.ADAPTERS`, and the parity suites
(``tests/test_columnar.py``, ``tests/test_ordered.py``) require
identical replies, per-module metrics and recovery rounds.
"""

from .hashmatch import deepest_prefix, hash_match_fragment, next_shallower
from .localmatch import match_block_local
from .pipeline import ADAPTERS, ObjectQuery
from .query import (
    PathPos,
    QueryFragment,
    fragment_whole_trie,
    respan_fragments,
    span_fragments,
)

__all__ = [
    "ADAPTERS",
    "ObjectQuery",
    "PathPos",
    "QueryFragment",
    "deepest_prefix",
    "fragment_whole_trie",
    "hash_match_fragment",
    "match_block_local",
    "next_shallower",
    "respan_fragments",
    "span_fragments",
]
