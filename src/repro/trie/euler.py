"""Euler tours, treefix scans, and weighted tree partitioning (paper §4.2).

The blocking algorithm reduces data-trie decomposition to weighted tree
partitioning: assign each compressed node the weight of itself plus its
child edges (in words), lay the nodes on an Euler tour, take prefix sums
of the weights, mark one *base node* each time the running sum crosses a
multiple of the block bound K_B, then close the marked set under lowest
common ancestors.  The marked set is the block-root partition.

The rootfix scan is provided for trie-wide derived values: it pushes an
associative accumulation from the root down (e.g. node hashes via the
incremental hash).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..bits import WORD_BITS
from .nodes import TrieNode
from .patricia import PatriciaTrie

__all__ = [
    "euler_tour",
    "rootfix",
    "node_weight_words",
    "partition_weighted",
    "lca_closure",
]


def euler_tour(trie: PatriciaTrie) -> list[tuple[TrieNode, bool]]:
    """The Euler tour as (node, is_entry) events, preorder entries.

    Each node appears exactly once with ``is_entry=True`` (first visit)
    and once with ``is_entry=False`` (after its subtree).
    """
    tour: list[tuple[TrieNode, bool]] = []
    stack: list[tuple[TrieNode, bool]] = [(trie.root, True)]
    while stack:
        node, entering = stack.pop()
        tour.append((node, entering))
        if entering:
            stack.append((node, False))
            for b in (1, 0):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, True))
    return tour


def rootfix(
    trie: PatriciaTrie,
    init: Any,
    step: Callable[[Any, TrieNode], Any],
) -> dict[int, Any]:
    """Top-down accumulation: value(child) = step(value(parent), child).

    Returns {node.uid: value}.  ``init`` is the root's value.
    """
    out: dict[int, Any] = {trie.root.uid: init}
    stack = [trie.root]
    while stack:
        node = stack.pop()
        acc = out[node.uid]
        for b in (0, 1):
            e = node.children[b]
            if e is not None:
                out[e.dst.uid] = step(acc, e.dst)
                stack.append(e.dst)
    return out


def node_weight_words(node: TrieNode) -> int:
    """Blocking weight of a node: itself plus its (≤2) child edges, in words."""
    weight = node.word_cost()
    for e in node.children:
        if e is not None:
            weight += 1 + max(1, -(-len(e.label) // WORD_BITS))
    return weight


def partition_weighted(
    trie: PatriciaTrie,
    bound: int,
    *,
    weight: Callable[[TrieNode], int] | None = None,
) -> set[int]:
    """Weighted tree partitioning; returns the uid set of block roots.

    Implements §4.2's blocking algorithm: Euler-tour prefix sums of node
    weights select base nodes whenever the sum crosses a multiple of
    ``bound``; the returned set is the LCA closure of the base nodes plus
    the root.  The resulting blocks (subtrees hanging below one root,
    cut at descendant roots) have weight < 2 * bound each and number
    O(total_weight / bound).
    """
    if bound <= 0:
        raise ValueError("partition bound must be positive")
    if weight is None:
        weight = node_weight_words
    base: list[TrieNode] = []
    running = 0
    next_mark = bound
    for node, entering in euler_tour(trie):
        if not entering:
            continue
        running += weight(node)
        if running >= next_mark:
            base.append(node)
            while next_mark <= running:
                next_mark += bound
    roots = lca_closure(base)
    roots.add(trie.root.uid)
    return roots


def lca_closure(nodes: Sequence[TrieNode]) -> set[int]:
    """Close a node set under pairwise lowest common ancestors.

    Exploits that consecutive base nodes in Euler order have their LCA
    on the tree path between them; walking up from the shallower of each
    adjacent pair until the paths meet yields all pairwise LCAs.
    """
    result: set[int] = {n.uid for n in nodes}
    by_uid: dict[int, TrieNode] = {n.uid: n for n in nodes}
    for a, b in zip(nodes, nodes[1:]):
        x, y = a, b
        while x is not y:
            if x.depth >= y.depth:
                p = x.parent
                if p is None:
                    break
                x = p
            else:
                p = y.parent
                if p is None:
                    break
                y = p
        if x is y:
            result.add(x.uid)
            by_uid[x.uid] = x
    return result
