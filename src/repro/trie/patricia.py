"""A sequential binary Patricia trie (compressed binary radix tree).

This is the in-block structure of PIM-trie (each data-trie block is one
of these) and also the correctness oracle against which the distributed
index is tested.  It supports the paper's full operation set on
variable-length bit-string keys: insert, delete, exact lookup, longest
common prefix, subtree (prefix) enumeration, and bit-by-bit trie
matching against another Patricia trie (§4.1's matching semantics,
including hidden-node match points).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..bits import EMPTY, BitString
from .nodes import HiddenNodeRef, NodeRef, TrieEdge, TrieNode

__all__ = ["PatriciaTrie", "MatchResult"]


class MatchResult:
    """Result of walking a key down a trie.

    ``lcp_len`` is the longest common prefix length between the key and
    the whole key set.  ``node`` is the deepest node (compressed or
    hidden) representing that prefix.  ``exact`` is True when the key is
    stored.
    """

    __slots__ = ("lcp_len", "node", "exact")

    def __init__(self, lcp_len: int, node: NodeRef, exact: bool):
        self.lcp_len = lcp_len
        self.node = node
        self.exact = exact

    def __repr__(self) -> str:
        return f"MatchResult(lcp={self.lcp_len}, exact={self.exact})"


class PatriciaTrie:
    """Binary compressed trie over :class:`BitString` keys."""

    def __init__(self):
        self.root = TrieNode(0)
        self.num_keys = 0
        #: aggregate length of all edge labels in bits (L_T in the paper)
        self.edge_bits = 0

    # ------------------------------------------------------------------
    # structural metrics (paper Table 2)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """n_T: number of stored keys."""
        return self.num_keys

    @property
    def L(self) -> int:
        """L_T: aggregate bit-length of compressed edges."""
        return self.edge_bits

    def Q(self, w: int = 64) -> int:
        """Q_T = O(L_T/w + n_T): size of the compressed trie in words."""
        return -(-self.edge_bits // w) + max(1, self.num_nodes())

    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def word_cost(self) -> int:
        """Words to ship this whole trie between CPU and PIM."""
        total = 0
        for node in self.iter_nodes():
            total += node.word_cost()
            for e in node.children:
                if e is not None:
                    total += e.word_cost()
        return max(1, total)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[TrieNode]:
        """All compressed nodes, preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for b in (1, 0):
                e = node.children[b]
                if e is not None:
                    stack.append(e.dst)

    def iter_edges(self) -> Iterator[TrieEdge]:
        for node in self.iter_nodes():
            for e in node.children:
                if e is not None:
                    yield e

    def iter_items(self) -> Iterator[tuple[BitString, Any]]:
        """All (key, value) pairs in lexicographic order."""
        stack: list[tuple[TrieNode, BitString]] = [(self.root, EMPTY)]
        while stack:
            node, prefix = stack.pop()
            if node.is_key:
                yield prefix, node.value
            for b in (1, 0):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, prefix + e.label))

    def keys(self) -> list[BitString]:
        return [k for k, _ in self.iter_items()]

    def key_of(self, node: TrieNode) -> BitString:
        """Reconstruct the prefix represented by ``node`` (O(depth))."""
        parts: list[BitString] = []
        cur: Optional[TrieNode] = node
        while cur is not None and cur.parent_edge is not None:
            parts.append(cur.parent_edge.label)
            cur = cur.parent_edge.src
        out = EMPTY
        for p in reversed(parts):
            out = out + p
        return out

    # ------------------------------------------------------------------
    # core walk
    # ------------------------------------------------------------------
    def walk(self, key: BitString, tick: Callable[[int], None] | None = None) -> MatchResult:
        """Walk ``key`` from the root; find the deepest matching prefix.

        ``tick`` (if given) meters one unit per word of label compared,
        so kernels can charge PIM work faithfully.
        """
        node = self.root
        pos = 0
        n = len(key)
        while True:
            if pos == n:
                return MatchResult(pos, node, node.is_key)
            edge = node.children[key.bit(pos)]
            if edge is None:
                return MatchResult(pos, node, False)
            label = edge.label
            rest = key.substring(pos, n)
            k = rest.lcp_len(label)
            if tick is not None:
                tick(max(1, -(-k // 64)))
            if k < len(label):
                # diverged (or key exhausted) inside the edge
                pos += k
                if k == 0:
                    return MatchResult(pos, node, False)
                return MatchResult(pos, HiddenNodeRef(edge, k), False)
            node = edge.dst
            pos += k

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, key: BitString) -> Optional[Any]:
        """Value stored at ``key``, or None."""
        r = self.walk(key)
        if r.exact and isinstance(r.node, TrieNode):
            return r.node.value
        return None

    def contains(self, key: BitString) -> bool:
        r = self.walk(key)
        return r.exact

    def lcp(self, key: BitString) -> int:
        """Length of the longest common prefix of ``key`` with the key set.

        Matches the paper's LCP semantics: the longest prefix of ``key``
        that is also a prefix of (i.e. a valid trie node on the path to)
        some stored key.
        """
        if self.num_keys == 0:
            return 0
        return self.walk(key).lcp_len

    def subtree_items(self, prefix: BitString) -> list[tuple[BitString, Any]]:
        """All (key, value) pairs whose key has ``prefix`` as a prefix."""
        found = self.subtree_walk(prefix)
        return found[0] if found is not None else []

    def subtree_walk(
        self, prefix: BitString
    ) -> Optional[tuple[list[tuple[BitString, Any]], list[int]]]:
        """``(items, mirrors)`` under ``prefix`` from one walk down from
        its position: the (key, value) pairs whose key has ``prefix`` as
        a prefix, and the ``mirror_child`` ids of the nodes there, both
        in preorder (child 0 first).  None when ``prefix`` is not a
        position of the trie."""
        r = self.walk(prefix)
        if r.lcp_len < len(prefix):
            return None
        items: list[tuple[BitString, Any]] = []
        mirrors: list[int] = []
        if isinstance(r.node, TrieNode):
            start_node, start_prefix = r.node, prefix
        else:
            # hidden node: the only continuation is the rest of the edge
            edge = r.node.edge
            rest = edge.label.suffix_from(r.node.offset)
            start_node, start_prefix = edge.dst, prefix + rest
        stack = [(start_node, start_prefix)]
        while stack:
            node, p = stack.pop()
            if node.is_key:
                items.append((p, node.value))
            if node.mirror_child is not None:
                mirrors.append(node.mirror_child)
            for b in (1, 0):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, p + e.label))
        return items, mirrors

    def subtree(self, prefix: BitString) -> "PatriciaTrie":
        """The result trie of a SubtreeQuery (keys keep their full length)."""
        out = PatriciaTrie()
        for k, v in self.subtree_items(prefix):
            out.insert(k, v)
        return out

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, key: BitString, value: Any = None) -> bool:
        """Insert (key, value); returns True if the key was new."""
        r = self.walk(key)
        pos = r.lcp_len
        if isinstance(r.node, TrieNode):
            node = r.node
            if pos == len(key):
                fresh = not node.is_key
                node.is_key = True
                node.value = value
                if fresh:
                    self.num_keys += 1
                return fresh
            # append the remainder as a fresh edge
            leaf = TrieNode(len(key), is_key=True, value=value)
            edge = TrieEdge(key.suffix_from(pos), leaf)
            node.attach(edge)
            self.edge_bits += len(edge.label)
            self.num_keys += 1
            return True
        # diverged inside an edge: split it at the hidden node
        mid = self._split_edge(r.node.edge, r.node.offset)
        if pos == len(key):
            mid.is_key = True
            mid.value = value
        else:
            leaf = TrieNode(len(key), is_key=True, value=value)
            mid.attach(TrieEdge(key.suffix_from(pos), leaf))
            self.edge_bits += len(key) - pos
        self.num_keys += 1
        return True

    def _split_edge(self, edge: TrieEdge, offset: int) -> TrieNode:
        """Materialize the hidden node at ``offset`` inside ``edge``."""
        if not 0 < offset < len(edge.label):
            raise ValueError("split offset must be strictly inside the edge")
        src = edge.src
        assert src is not None
        b = edge.label.bit(0)
        src.children[b] = None
        mid = TrieNode(src.depth + offset)
        top = TrieEdge(edge.label.prefix(offset), mid)
        src.attach(top)
        bottom = TrieEdge(edge.label.suffix_from(offset), edge.dst)
        mid.attach(bottom)
        return mid

    def delete(self, key: BitString) -> bool:
        """Remove ``key``; returns True if it was present.

        Path-compresses afterwards: a non-key node left with one child
        is merged with its parent edge, so the trie stays canonical.
        """
        r = self.walk(key)
        if not (r.exact and isinstance(r.node, TrieNode)):
            return False
        node = r.node
        node.is_key = False
        node.value = None
        self.num_keys -= 1
        self._compress_up(node)
        return True

    def _compress_up(self, node: TrieNode) -> None:
        """Remove/merge ``node`` if path compression no longer keeps it."""
        while node is not self.root and not node.is_key:
            if node.num_children == 0:
                parent_edge = node.parent_edge
                assert parent_edge is not None
                src = parent_edge.src
                assert src is not None
                src.children[parent_edge.label.bit(0)] = None
                self.edge_bits -= len(parent_edge.label)
                node = src
            elif node.num_children == 1:
                self._merge_through(node)
                return
            else:
                return
        # the root may now also be mergeable-through in a child
        if node is self.root:
            return

    def _merge_through(self, node: TrieNode) -> None:
        """Merge a one-child non-key node into a single longer edge."""
        parent_edge = node.parent_edge
        assert parent_edge is not None
        src = parent_edge.src
        assert src is not None
        child_edge = node.children[0] or node.children[1]
        assert child_edge is not None
        b = parent_edge.label.bit(0)
        src.children[b] = None
        merged = TrieEdge(parent_edge.label + child_edge.label, child_edge.dst)
        src.attach(merged)
        # edge_bits unchanged: |merged| = |parent| + |child|

    # ------------------------------------------------------------------
    # validation (used by tests / hypothesis)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants of a canonical Patricia trie."""
        seen_bits = 0
        for node in self.iter_nodes():
            if node is not self.root:
                assert node.parent_edge is not None
                assert node.parent_edge.dst is node
                # canonical: every non-root compressed node has 2 children
                # or is a key endpoint
                assert node.num_children == 2 or node.is_key, (
                    f"non-canonical node at depth {node.depth}"
                )
            for b in (0, 1):
                e = node.children[b]
                if e is None:
                    continue
                assert e.src is node
                assert e.label.bit(0) == b
                assert e.dst.depth == node.depth + len(e.label)
                seen_bits += len(e.label)
        assert seen_bits == self.edge_bits, (
            f"edge_bits drifted: {seen_bits} != {self.edge_bits}"
        )
        assert self.num_keys == sum(1 for _ in self.iter_items())

    def __len__(self) -> int:
        return self.num_keys

    def __repr__(self) -> str:
        return f"PatriciaTrie(n={self.num_keys}, L={self.edge_bits} bits)"
