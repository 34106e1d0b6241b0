"""The object pipeline behind the names ``repro.core.pimtrie`` imports
from ``repro.columnar``.

:data:`ADAPTERS` maps each of those names to a thin adapter over the
object reference (per-node query trie, cloned fragments, BitString
matching).  :func:`tests.harness.object_pipeline` rebinds them in
``repro.core.pimtrie`` — the same seam ``benchmarks/e2e/spans.py``
uses to time the columnar functions — so a PIM-trie driven inside that
block matches every batch with the reference instead of the columnar
core, and the parity suites compare the two byte for byte.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.bits import BitString
from repro.core.hashmatch import CollisionLog
from repro.trie import build_query_trie, partition_weighted, rootfix

from .hashmatch import hash_match_fragment
from .localmatch import match_block_local
from .query import PathPos, respan_fragments, span_fragments

__all__ = ["ADAPTERS", "ObjectQuery"]


class ObjectQuery:
    """The batch's object query trie behind the ``QueryArena`` surface
    ``PIMTrie`` calls (build, partition, node map, fold)."""

    def __init__(self, trie):
        self.trie = trie
        self.root = trie.root
        self.num_keys = trie.num_keys
        self.strings = rootfix(
            trie, BitString(0, 0), lambda acc, n: acc + n.parent_edge.label
        )

    @classmethod
    def build(cls, batch, values=None) -> "ObjectQuery":
        return cls(build_query_trie(list(batch), values))

    def num_nodes(self) -> int:
        return self.trie.num_nodes()

    def word_cost(self) -> int:
        return self.trie.word_cost()

    def node_map(self) -> dict:
        return {n.uid: n for n in self.trie.iter_nodes()}

    def partition(self, bound: int) -> list:
        """Block-root nodes of the weighted partition, in preorder."""
        roots = partition_weighted(self.trie, bound)
        return [n for n in self.trie.iter_nodes() if n.uid in roots]

    def fold(
        self, outcome, root_block_id: Optional[int]
    ) -> dict[BitString, tuple[int, int, bool, Any]]:
        """For every key in the query trie: (LCP depth, owning block,
        exact-key-stored, stored value) via a rootfix (§5.1)."""
        out: dict[BitString, tuple[int, int, bool, Any]] = {}
        root_state = (0, root_block_id or 0, False)
        stack = [(self.root, root_state, BitString(0, 0))]
        while stack:
            node, pstate, s = stack.pop()
            depth, block, diverged = pstate
            entry = outcome.get(node.uid)
            if not diverged and entry is not None:
                depth, block, diverged = entry.depth, entry.block, not entry.full
            if node.is_key:
                exact = (
                    entry is not None
                    and entry.full
                    and entry.depth == len(s)
                    and entry.has_key
                    and not diverged
                )
                value = entry.value if exact and entry is not None else None
                out[s] = (depth, block, exact, value)
            for b in (0, 1):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, (depth, block, diverged), s + e.label))
        return out


def _span(qt: ObjectQuery, positions) -> list:
    return span_fragments(qt.trie, positions, qt.strings)


def _hash_match_many(items, hasher, *, verify, use_pivots) -> list:
    out = []
    for frag, table in items:
        ticks: list[int] = []
        log = CollisionLog()
        cuts = hash_match_fragment(
            frag, table, hasher, use_pivots=use_pivots, verify=verify,
            tick=ticks.append, log=log,
        )
        out.append((cuts, log.checked, log.rejected, sum(ticks)))
    return out


#: name in ``repro.core.pimtrie`` -> its object-pipeline stand-in
ADAPTERS = {
    "QueryArena": ObjectQuery,
    "ColNodeRef": lambda node: node,  # partition already yields nodes
    "ColPathPos": PathPos,
    "span_columnar": _span,
    "respan_columnar": respan_fragments,
    "hash_match_columnar": hash_match_fragment,
    "hash_match_columnar_many": _hash_match_many,
    "local_match_columnar": match_block_local,
    "warm_table": lambda table: None,  # no columnar probe caches
}
