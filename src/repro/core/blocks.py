"""Data-trie blocks (paper §4.2).

The data trie is decomposed into blocks of O(K_B) words.  Each block is
a standalone sub-trie whose keys are stored *relative* to the block
root's represented string; the block carries the absolute depth and the
node hash of its root as metadata.  A block root is replicated in its
parent block as a *mirror node* (a leaf marked with the child block id);
there are no remote pointers inside tries — all cross-block structure
lives in mirror nodes and the hash value manager.

Long compressed edges (more than K_B words) are cut by inserting
intermediate one-child compressed nodes so no single edge overflows a
block (§4.2); :func:`cut_long_edges` does this in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..bits import WORD_BITS, BitString, HashValue, IncrementalHasher
from ..trie import (
    PatriciaTrie,
    TrieEdge,
    TrieNode,
    partition_weighted,
    rootfix,
)

__all__ = ["DataBlock", "cut_long_edges", "extract_blocks"]

_block_ids = itertools.count(1)


def next_block_id() -> int:
    return next(_block_ids)


@dataclass
class DataBlock:
    """One decomposed piece of the data trie, resident on one PIM module.

    ``trie`` is rooted at the block root; node depths inside it are
    relative (root depth 0).  ``root_depth`` / ``root_hash`` locate the
    root in the global key space.  Mirror leaves inside ``trie`` carry
    ``mirror_child`` = child block id; the parent link is host data (no
    kernel reads it), returned by :func:`extract_blocks`.
    """

    block_id: int
    root_depth: int
    root_hash: HashValue
    trie: PatriciaTrie
    #: last min(w, depth) bits of the root's represented string — the
    #: S_last verification payload of §4.4.3
    s_last: BitString = field(default_factory=lambda: BitString(0, 0))
    #: cached word cost; anything that mutates ``trie`` in place must
    #: call :meth:`mark_dirty` (the block kernels do)
    _wc: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Invalidate the cached word cost after an in-place trie edit."""
        self._wc = None

    def child_ids(self) -> list[int]:
        return [
            n.mirror_child
            for n in self.trie.iter_nodes()
            if n.mirror_child is not None
        ]

    def word_cost(self) -> int:
        """Words to ship this block CPU<->PIM (its compressed size + O(1))."""
        if self._wc is not None:
            return self._wc
        wc = 3 + self.trie.word_cost()
        self._wc = wc
        return wc

    def check(self, hasher: IncrementalHasher, root_string: BitString) -> None:
        """Assert the root depth, root hash and S_last match the block's
        absolute root string."""
        assert len(root_string) == self.root_depth
        assert hasher.hash(root_string) == self.root_hash
        tail = root_string.suffix_from(max(0, len(root_string) - WORD_BITS))
        assert tail == self.s_last

    def __repr__(self) -> str:
        return (
            f"DataBlock(id={self.block_id}, depth={self.root_depth}, "
            f"keys={self.trie.num_keys}, children={len(self.child_ids())})"
        )


# ----------------------------------------------------------------------
# long-edge cutting (§4.2)
# ----------------------------------------------------------------------
def cut_long_edges(trie: PatriciaTrie, max_words: int) -> int:
    """Split every edge longer than ``max_words`` words in place.

    Introduces one-child compressed nodes every ``max_words * w`` bits;
    returns the number of nodes added (O(L/(w*K_B)) by the paper).
    """
    limit_bits = max_words * WORD_BITS
    added = 0
    stack = [trie.root]
    while stack:
        node = stack.pop()
        for b in (0, 1):
            edge = node.children[b]
            if edge is None:
                continue
            while len(edge.label) > limit_bits:
                mid = trie._split_edge(edge, limit_bits)
                added += 1
                edge = mid.children[0] or mid.children[1]
                assert edge is not None
            stack.append(edge.dst)
    return added


# ----------------------------------------------------------------------
# block extraction (§4.2 blocking algorithm + mirror nodes)
# ----------------------------------------------------------------------
def _clone_subtree(
    root: TrieNode,
    stop_uids: set[int],
    child_block_of: dict[int, int],
) -> PatriciaTrie:
    """Copy ``root``'s subtree, cutting at the block roots below it
    (``stop_uids`` may hold ``root`` itself: only descendants are tested).

    Descendant roots become mirror leaves carrying their block id.  The
    clone's depths are re-based so the new root has depth 0.
    """
    out = PatriciaTrie()
    base = root.depth
    out.root.is_key = root.is_key
    out.root.value = root.value
    if out.root.is_key:
        out.num_keys += 1
    stack: list[tuple[TrieNode, TrieNode]] = [(root, out.root)]
    while stack:
        src, dst = stack.pop()
        for b in (0, 1):
            edge = src.children[b]
            if edge is None:
                continue
            child = edge.dst
            if child.uid in stop_uids:
                mirror = TrieNode(child.depth - base)
                mirror.mirror_child = child_block_of[child.uid]
                new_edge = TrieEdge(edge.label, mirror)
                dst.attach(new_edge)
                out.edge_bits += len(edge.label)
                continue
            copy = TrieNode(child.depth - base, is_key=child.is_key, value=child.value)
            copy.mirror_child = child.mirror_child
            new_edge = TrieEdge(edge.label, copy)
            dst.attach(new_edge)
            out.edge_bits += len(edge.label)
            if child.is_key:
                out.num_keys += 1
            stack.append((child, copy))
    return out


def extract_blocks(
    data_trie: PatriciaTrie,
    block_bound: int,
    hasher: IncrementalHasher,
    base: BitString = BitString(0, 0),
    top: Optional[int] = None,
) -> tuple[list[DataBlock], dict[int, BitString], dict[int, Optional[int]]]:
    """Decompose a data trie rooted at absolute string ``base`` into blocks.

    Runs the §4.2 pipeline: cut long edges, weighted-partition into
    roots of ≤ K_B-word blocks, clone each block with mirror leaves, and
    compute root hashes / depths / S_last from the absolute root
    strings.  The top block takes id ``top`` when given (re-partitioning
    an existing block); it still draws its fresh id, so the id counter
    moves as without ``top``.  Returns the blocks, top block first and
    every other block after its parent, and two maps the caller keeps
    on the host (neither is shipped anywhere): block_id -> absolute
    root string (used to build the hash value manager) and block_id ->
    parent block id (None for the top block).
    """
    cut_long_edges(data_trie, block_bound)
    root_uids = partition_weighted(data_trie, block_bound)
    uid_to_node = {n.uid: n for n in data_trie.iter_nodes()}
    # never root a block at a mirror node: the mirror stands in for a
    # block that already exists elsewhere (relevant when re-partitioning
    # an oversized block that itself contains mirrors)
    root_uids = {
        uid
        for uid in root_uids
        if uid == data_trie.root.uid
        or uid_to_node[uid].mirror_child is None
    }
    root_uids.add(data_trie.root.uid)
    block_of_uid = {uid: next_block_id() for uid in root_uids}
    if top is not None:
        block_of_uid[data_trie.root.uid] = top
    # one walk: each node's absolute string and the block rooted at the
    # node or at its nearest ancestor root
    walk = rootfix(
        data_trie,
        (base, block_of_uid[data_trie.root.uid]),
        lambda acc, node: (
            acc[0] + node.parent_edge.label,
            block_of_uid.get(node.uid, acc[1]),
        ),
    )
    blocks: list[DataBlock] = []
    root_strings: dict[int, BitString] = {}
    parents: dict[int, Optional[int]] = {}
    # the walk reaches a node after its parent, so every block comes
    # after its parent block
    for uid in walk:
        if uid not in root_uids:
            continue
        node = uid_to_node[uid]
        s, bid = walk[uid]
        blocks.append(DataBlock(
            block_id=bid,
            root_depth=len(s),
            root_hash=hasher.hash(s),
            trie=_clone_subtree(node, root_uids, block_of_uid),
            s_last=s.suffix_from(max(0, len(s) - WORD_BITS)),
        ))
        root_strings[bid] = s
        parents[bid] = None if node.parent is None else walk[node.parent.uid][1]
    return blocks, root_strings, parents
