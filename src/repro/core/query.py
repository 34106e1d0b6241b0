"""Query-trie fragments: the unit shipped between CPU and PIM during
trie matching (paper §4.1, §4.3).

A :class:`QueryFragment` is a standalone piece of the query trie
(produced by ``Span``/decomposition) carrying everything a remote
HashMatching or block-matching kernel needs:

* the relative sub-trie (a PatriciaTrie),
* the absolute depth and linear hash of its base (so node hashes of any
  fragment node are derivable by the incremental combine — Definition 2),
* the last ≤ w bits of the base string (``base_tail``), the §4.4.3
  verification payload for matches whose S_last window crosses the base,
* a map from fragment node uids back to original query-trie node uids,
  so match results can be merged on the CPU (Algorithm 2 line 14).

Cut positions inside the query trie are described by :class:`PathPos`:
a node, or an (edge, offset) hidden position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..bits import BitString, HashValue, IncrementalHasher
from ..trie import HiddenNodeRef, PatriciaTrie, TrieEdge, TrieNode

__all__ = ["PathPos", "QueryFragment", "span_fragments", "fragment_whole_trie"]


@dataclass(frozen=True)
class PathPos:
    """A position in a trie: a compressed node, or ``offset`` bits down
    the edge *entering* ``node`` (offset counted back from the node, so
    ``back == 0`` is the node itself)."""

    node: TrieNode
    back: int = 0  # bits above `node` on its parent edge

    @property
    def depth(self) -> int:
        return self.node.depth - self.back

    def __post_init__(self):
        if self.back < 0:
            raise ValueError("back must be >= 0")
        if self.back > 0:
            edge = self.node.parent_edge
            if edge is None or self.back >= len(edge.label):
                raise ValueError("hidden position outside the entering edge")


class QueryFragment:
    """A relative sub-trie of the query trie, ready to ship.

    ``base_pre_hash`` is the hash of the base string's longest w-aligned
    prefix and ``base_rem`` the remaining < w bits — the anchor that
    lets a remote kernel compute the hash of *any* w-aligned pivot at or
    below the base (§4.4.2's data augmentation, mirrored on the query
    side).
    """

    def __init__(
        self,
        trie: PatriciaTrie,
        base_depth: int,
        base_hash: HashValue,
        base_tail: BitString,
        origin: dict[int, int],
        base_pos: Optional[PathPos] = None,
        base_pre_hash: Optional[HashValue] = None,
        base_rem: Optional[BitString] = None,
    ):
        self.trie = trie
        self.base_depth = base_depth
        self.base_hash = base_hash
        self.base_tail = base_tail
        #: fragment node uid -> original query-trie node uid
        self.origin = origin
        #: where this fragment's base sits in the original query trie
        self.base_pos = base_pos
        if base_rem is None:
            base_rem = BitString(0, 0)
        self.base_rem = base_rem
        self.base_pre_hash = (
            base_pre_hash if base_pre_hash is not None else base_hash
        )
        self._wc: Optional[int] = None

    @property
    def aligned_base_depth(self) -> int:
        return self.base_depth - len(self.base_rem)

    def word_cost(self) -> int:
        """Compressed size + O(1) metadata, the cost Algorithm 2 charges.

        The fragment trie is frozen after Span (``_respan`` rebases only
        the ``base_*`` anchor fields, never the trie), so the full-trie
        walk is cached after the first call.
        """
        if self._wc is not None:
            return self._wc
        wc = 3 + self.trie.word_cost()
        self._wc = wc
        return wc

    def size_words(self) -> int:
        return self.word_cost()

    def __repr__(self) -> str:
        return (
            f"QueryFragment(base_depth={self.base_depth}, "
            f"n={self.trie.num_keys}, words={self.word_cost()})"
        )


def fragment_whole_trie(
    query_trie: PatriciaTrie, hasher: IncrementalHasher, w: int
) -> QueryFragment:
    """Wrap the entire query trie as one fragment based at the root."""
    origin: dict[int, int] = {}
    clone, mapping = _clone_from(query_trie.root, 0, None)
    origin.update(mapping)
    return QueryFragment(
        trie=clone,
        base_depth=0,
        base_hash=hasher.empty(),
        base_tail=BitString(0, 0),
        origin=origin,
        base_pos=PathPos(query_trie.root),
        base_pre_hash=hasher.empty(),
        base_rem=BitString(0, 0),
    )


def _clone_from(
    node: TrieNode,
    entry_back: int,
    stop: Optional[dict[int, int]],
) -> tuple[PatriciaTrie, dict[int, int]]:
    """Clone the subtree at a position ``entry_back`` bits above ``node``,
    cutting at positions in ``stop`` ({node_uid: back}).

    Returns the relative trie and the fragment-uid -> original-uid map.
    The base position itself becomes the clone's root.  A stop position
    with ``back > 0`` truncates the entering edge of that node; the
    truncated edge's endpoint is kept as a (non-key) boundary node.
    """
    out = PatriciaTrie()
    mapping: dict[int, int] = {}
    base_depth = node.depth - entry_back

    if entry_back == 0:
        out.root.is_key = node.is_key
        out.root.value = node.value
        out.root.mirror_child = node.mirror_child
        if node.is_key:
            out.num_keys += 1
        mapping[out.root.uid] = node.uid
        stack = [(node, out.root)]
    else:
        edge = node.parent_edge
        assert edge is not None
        tail = edge.label.suffix_from(len(edge.label) - entry_back)
        copy = TrieNode(entry_back, is_key=node.is_key, value=node.value)
        copy.mirror_child = node.mirror_child
        out.root.attach(TrieEdge(tail, copy))
        out.edge_bits += entry_back
        if node.is_key:
            out.num_keys += 1
        mapping[copy.uid] = node.uid
        stack = [(node, copy)]

    while stack:
        src, dst = stack.pop()
        if stop is not None and src.uid in stop and dst is not out.root:
            # stop *at* this node: children are cut away entirely
            continue
        for b in (0, 1):
            edge = src.children[b]
            if edge is None:
                continue
            child = edge.dst
            cut_back = stop.get(child.uid) if stop is not None else None
            if cut_back is not None and cut_back > 0:
                # cut inside this edge: keep the top part, end on a
                # boundary node at the cut position
                keep = len(edge.label) - cut_back
                if keep == 0:
                    continue
                boundary = TrieNode(dst.depth + keep)
                dst.attach(TrieEdge(edge.label.prefix(keep), boundary))
                out.edge_bits += keep
                continue
            copy = TrieNode(
                child.depth - base_depth, is_key=child.is_key, value=child.value
            )
            copy.mirror_child = child.mirror_child
            dst.attach(TrieEdge(edge.label, copy))
            out.edge_bits += len(edge.label)
            if child.is_key:
                out.num_keys += 1
            mapping[copy.uid] = child.uid
            if cut_back == 0:
                # stop at the node itself: keep it, drop its children
                continue
            stack.append((child, copy))
    return out, mapping


def span_fragments(
    query_trie: PatriciaTrie,
    cuts: list[PathPos],
    strings: dict[int, BitString],
    hasher: IncrementalHasher,
    w: int,
) -> list[QueryFragment]:
    """``Span``: split the query trie at ``cuts`` into standalone
    fragments, one per cut position (Algorithm 2 line 2 / Algorithm 5).

    ``strings`` maps node uid -> absolute string (precomputed once per
    batch by a rootfix).  Each fragment runs from its cut position down
    to the next cut positions strictly below (which become boundary
    nodes / are excluded).  Cut positions must be distinct.
    """
    # Two cuts on the same entering edge delimit a pure-edge segment with
    # no compressed node strictly inside — a *non-critical block* (§4.3),
    # which the matching skips.  Keep only the deepest cut per node.
    by_node: dict[int, PathPos] = {}
    for pos in cuts:
        prev = by_node.get(pos.node.uid)
        if prev is None or pos.back < prev.back:
            by_node[pos.node.uid] = pos
    kept = list(by_node.values())
    # The per-fragment stop set is "every other kept cut strictly below
    # this one".  After per-node dedup, depth filtering is redundant for
    # subtree clones: a kept cut q with q.node a strict descendant of
    # pos.node always has q.depth > pos.depth (q.back stays inside
    # q.node's entering edge, so q.depth > q.node.parent.depth >=
    # pos.node.depth >= pos.depth), and uids outside pos's subtree are
    # never consulted by _clone_from.  So one shared stop dict works for
    # all fragments — we only pop the fragment's own entry while cloning
    # (its cut is the clone's base, not a cut inside it); a per-fragment
    # stop dict would be O(k) per fragment and dominate large-batch Span.
    stop_all = {p.node.uid: p.back for p in kept}
    out: list[QueryFragment] = []
    for pos in kept:
        node_string = strings[pos.node.uid]
        base_string = node_string.prefix(len(node_string) - pos.back)
        uid = pos.node.uid
        own_back = stop_all.pop(uid)
        try:
            clone, mapping = _clone_from(pos.node, pos.back, stop_all)
        finally:
            stop_all[uid] = own_back
        pre_len = (len(base_string) // w) * w
        out.append(
            QueryFragment(
                trie=clone,
                base_depth=len(base_string),
                base_hash=hasher.hash(base_string),
                base_tail=base_string.suffix_from(
                    max(0, len(base_string) - w)
                ),
                origin=mapping,
                base_pos=pos,
                base_pre_hash=hasher.hash(base_string.prefix(pre_len)),
                base_rem=base_string.suffix_from(pre_len),
            )
        )
    return out
