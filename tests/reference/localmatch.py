"""Local trie matching of the object reference pipeline: a query
fragment against a data block (paper §4.3 end / §4.4.2 "Efficient
Local Matching").

Both tries are rooted at the same represented string (the block root).
A simultaneous DFS walks the query fragment against the data block,
comparing edge labels word-wise, and reports:

* ``node_matches`` — for each matched compressed query node, its depth
  and whether it coincides with a data compressed node that is a key
  (needed by Delete and by value-returning lookups);
* ``cutoffs`` — for each query subtree that diverges from the data
  trie, the divergence depth (every key below it has its LCP there);
* per-key LCP depths follow from these on the CPU via a rootfix.

Matching stops at data-side *mirror nodes* (child block roots): deeper
structure is covered by the child block's own match, triggered by hash
matching (§4.2).  Work is metered per 64-bit word compared.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bits import BitString
from repro.columnar import LocalMatchResult
from repro.trie import PatriciaTrie, TrieEdge, TrieNode

from .query import QueryFragment

__all__ = ["match_block_local"]


def match_block_local(
    frag: QueryFragment,
    block_trie: PatriciaTrie,
    block_id: int,
    block_root_depth: int,
    *,
    tick: Callable[[int], None],
) -> LocalMatchResult:
    """Bit-by-bit (word-at-a-time) simultaneous DFS.

    ``frag.base_depth`` may exceed ``block_root_depth`` (the fragment
    can start below the block root when hash matching anchored it at a
    descendant position); the walk then first descends the data block
    alone along the fragment's base... such fragments are produced only
    with base == the block root in this implementation, so we require
    equality and keep the walker simple.
    """
    if frag.base_depth != block_root_depth:
        raise ValueError(
            "fragment base must coincide with the block root "
            f"({frag.base_depth} != {block_root_depth})"
        )
    res = LocalMatchResult(block_id=block_id)
    res.deepest = block_root_depth

    def record_node(qnode: TrieNode, dnode: Optional[TrieNode]) -> None:
        origin = frag.origin.get(qnode.uid)
        if origin is None:
            return
        depth = block_root_depth + qnode.depth
        on_node = dnode is not None
        has_key = dnode is not None and dnode.is_key
        value = dnode.value if has_key else None
        res.node_matches[origin] = (depth, on_node, has_key, value)
        if depth > res.deepest:
            res.deepest = depth

    def record_cutoff(qnode: TrieNode, abs_depth: int) -> None:
        origin = frag.origin.get(qnode.uid)
        if origin is not None:
            res.cutoffs[origin] = abs_depth
        if abs_depth > res.deepest:
            res.deepest = abs_depth

    # stack entries: (qnode, dnode) with equal represented strings
    stack: list[tuple[TrieNode, TrieNode]] = [(frag.trie.root, block_trie.root)]
    record_node(frag.trie.root, block_trie.root)
    while stack:
        qnode, dnode = stack.pop()
        for b in (0, 1):
            qedge = qnode.children[b]
            if qedge is None:
                continue
            _descend(
                qedge,
                dnode,
                block_root_depth,
                record_node,
                record_cutoff,
                stack,
                tick,
            )
    return res


def _descend(
    qedge: TrieEdge,
    dnode: TrieNode,
    base: int,
    record_node,
    record_cutoff,
    stack,
    tick: Callable[[int], None],
) -> None:
    """Walk one query edge label through the data trie from ``dnode``."""
    label = qedge.label
    pos = 0  # consumed bits of `label`
    cur = dnode
    while True:
        if cur.mirror_child is not None:
            # child-block root: deeper matching belongs to that block
            record_cutoff(qedge.dst, base + qedge.src.depth + pos)
            return
        if pos == len(label):
            record_node(qedge.dst, cur)
            stack.append((qedge.dst, cur))
            return
        dedge = cur.children[label.bit(pos)]
        if dedge is None:
            record_cutoff(qedge.dst, base + qedge.src.depth + pos)
            return
        rest = label.suffix_from(pos)
        k = rest.lcp_len(dedge.label)
        tick(max(1, -(-k // 64)))
        if k == len(dedge.label):
            cur = dedge.dst
            pos += k
            continue
        if pos + k == len(label):
            # query node lands inside this data edge (hidden-node match)
            record_node(qedge.dst, None)
            _match_subtree_within_edge(qedge.dst, dedge, k, base, record_node,
                                       record_cutoff, stack, tick)
            return
        # true divergence inside the data edge
        record_cutoff(qedge.dst, base + qedge.src.depth + pos + k)
        return


def _match_subtree_within_edge(
    qnode: TrieNode,
    dedge: TrieEdge,
    offset: int,
    base: int,
    record_node,
    record_cutoff,
    stack,
    tick: Callable[[int], None],
) -> None:
    """The query node sits ``offset`` bits down data edge ``dedge``.

    Its children continue along the single remaining direction of the
    data edge; walk each child edge from this hidden position.
    """
    remaining = dedge.label.suffix_from(offset)
    for b in (0, 1):
        qchild = qnode.children[b]
        if qchild is None:
            continue
        label = qchild.label
        k = label.lcp_len(remaining)
        tick(max(1, -(-max(k, 1) // 64)))
        if k == len(label):
            # child node still inside (or exactly at the end of) the edge
            if k == len(remaining):
                record_node(qchild.dst, dedge.dst)
                stack.append((qchild.dst, dedge.dst))
            else:
                record_node(qchild.dst, None)
                _match_subtree_within_edge(
                    qchild.dst, dedge, offset + k, base,
                    record_node, record_cutoff, stack, tick,
                )
        elif k == len(remaining):
            # consumed the data edge; continue at the data node below
            _descend_from(
                qchild.dst, label, k, dedge.dst, base,
                record_node, record_cutoff, stack, tick,
            )
        else:
            record_cutoff(qchild.dst, base + qnode.depth + k)


def _descend_from(
    qdst: TrieNode,
    label: BitString,
    consumed: int,
    dnode: TrieNode,
    base: int,
    record_node,
    record_cutoff,
    stack,
    tick: Callable[[int], None],
) -> None:
    """Continue walking the tail of a query edge from a data node."""
    pos = consumed
    cur = dnode
    src_depth = qdst.depth - len(label)
    while True:
        if cur.mirror_child is not None:
            record_cutoff(qdst, base + src_depth + pos)
            return
        if pos == len(label):
            record_node(qdst, cur)
            stack.append((qdst, cur))
            return
        dedge = cur.children[label.bit(pos)]
        if dedge is None:
            record_cutoff(qdst, base + src_depth + pos)
            return
        rest = label.suffix_from(pos)
        k = rest.lcp_len(dedge.label)
        tick(max(1, -(-k // 64)))
        if k == len(dedge.label):
            cur = dedge.dst
            pos += k
            continue
        if pos + k == len(label):
            record_node(qdst, None)
            _match_subtree_within_edge(
                qdst, dedge, k, base, record_node, record_cutoff, stack, tick
            )
            return
        record_cutoff(qdst, base + src_depth + pos + k)
        return
