"""Columnar flat-array query core (struct-of-arrays batch pipeline).

The object pipeline builds a per-node/per-edge query trie, clones it
into fragments, and matches fragment by fragment with BitString
arithmetic.  This package keeps the whole batch in flat numpy arrays
instead:

* :mod:`~repro.columnar.m61` — exact vectorized Mersenne-61 hashing,
  packed-word windows, and fingerprint columns;
* :mod:`~repro.columnar.arena` — :class:`QueryArena`, the
  struct-of-arrays query trie (topology, depths, packed key words,
  per-key fingerprint matrix) built in one vectorized pass;
* :mod:`~repro.columnar.span` — :class:`ColumnarFragment` plus
  span/respan as index arithmetic over arena rows;
* :mod:`~repro.columnar.match` — batched pivot HashMatching and the
  local-match DFS over columnar fragments.

The columnar core is the batch pipeline of every trie whose
configuration :func:`repro.core.pimtrie.columnar_applies` accepts: it
must produce answers and PIM Model metric deltas byte-identical to the
object reference — the columnar parity suite drives both pipelines over
the differential harness and asserts exactly that.
"""

from .arena import ColNodeRef, ColPathPos, QueryArena
from .match import (
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
    "span_columnar",
    "respan_columnar",
    "hash_match_columnar",
    "hash_match_columnar_many",
    "local_match_columnar",
    "warm_table",
]
