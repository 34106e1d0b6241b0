"""Columnar flat-array query core: the batch pipeline of every PIM-trie.

An object pipeline would build a per-node/per-edge query trie, clone it
into fragments, and match fragment by fragment with BitString
arithmetic (``tests/reference`` keeps exactly that, as the parity
reference).  This package keeps the whole batch in flat numpy arrays
instead:

* :mod:`~repro.columnar.m61` — exact vectorized Mersenne-61 hashing,
  packed-word windows, and fingerprint columns;
* :mod:`~repro.columnar.arena` — :class:`QueryArena`, the
  struct-of-arrays query trie (topology, depths, packed key words,
  per-key fingerprint matrix) built in one vectorized pass;
* :mod:`~repro.columnar.span` — :class:`ColumnarFragment` plus
  span/respan as index arithmetic over arena rows;
* :mod:`~repro.columnar.match` — batched HashMatching (pivots or, for
  ablation E14, the per-bit probe) and the local-match DFS over
  columnar fragments.

Every configuration runs here — either hash family, pivots on or off.
Answers and PIM Model metric deltas must be byte-identical to the
object reference: the columnar parity suite drives both pipelines over
the differential harness and asserts exactly that.
"""

from .arena import ColNodeRef, ColPathPos, QueryArena
from .match import (
    LocalMatchResult,
    hash_match_columnar,
    hash_match_columnar_many,
    local_match_columnar,
    warm_table,
)
from .span import ColumnarFragment, respan_columnar, span_columnar

__all__ = [
    "ColNodeRef",
    "ColPathPos",
    "QueryArena",
    "ColumnarFragment",
    "LocalMatchResult",
    "span_columnar",
    "respan_columnar",
    "hash_match_columnar",
    "hash_match_columnar_many",
    "local_match_columnar",
    "warm_table",
]
