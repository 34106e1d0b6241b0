"""z-fast trie: fat binary search over a compressed trie of short strings
(Belazzougui–Boldi–Vigna 2010; paper §3.1 and §4.4.2).

PIM-trie uses bounded-height z-fast tries as *shortcut indexes*: for
every pivot node, a z-fast trie of height ≤ w over the suffixes of its
hosted compressed nodes answers "deepest hosted node on this search
path" in O(log w) probes instead of O(w) bit steps.

Mechanism.  Build the compressed trie over the member set; every trie
node (member or branch point) owns the depth interval
``(parent_depth, depth]``.  The *handle* of an interval is its 2-fattest
element — the depth in the interval divisible by the largest power of
two.  A hash table maps ``(handle, value of the query's handle-length
prefix)`` to the node.  Fat binary search probes O(log h) handles from
coarse to fine; each hit either certifies an ancestor (advance ``lo``)
or pins the divergence depth (finish by a parent walk).

Each node record is augmented with its deepest *member*
ancestor-or-self, so "longest member that prefixes q" falls out of the
exit node in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bits import BitString

__all__ = ["ZFastTrie", "two_fattest"]


def two_fattest(lo: int, hi: int) -> int:
    """The 2-fattest number in (lo, hi]: the element divisible by the
    largest power of two.  Requires ``lo < hi`` (and ``lo >= 0``)."""
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    return hi & (~0 << ((lo ^ hi).bit_length() - 1))


@dataclass
class _Node:
    """A compressed-trie node over the member set."""

    string: BitString
    parent: Optional["_Node"]
    is_member: bool
    #: deepest member on the root path, including this node
    member_anc: Optional[BitString] = None

    @property
    def depth(self) -> int:
        return len(self.string)

    @property
    def parent_depth(self) -> int:
        return self.parent.depth if self.parent is not None else -1


class ZFastTrie:
    """Set of short bit-strings with O(log h) longest-member-prefix search.

    Rebuilt wholesale on updates: PIM-trie only ever instantiates these
    over O(K_B)-sized blocks, where a rebuild is within the PIM-time
    budget of the surrounding algorithm.
    """

    def __init__(self):
        self._values: dict[BitString, Any] = {}
        self._handles: dict[tuple[int, int], _Node] = {}
        self._root: Optional[_Node] = None
        self._probes = 0
        self._max_len = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, s: BitString) -> bool:
        return s in self._values

    def get(self, s: BitString) -> Any:
        return self._values.get(s)

    def members(self) -> list[BitString]:
        return sorted(self._values)

    # ------------------------------------------------------------------
    def insert(self, s: BitString, value: Any = None) -> bool:
        fresh = s not in self._values
        self._values[s] = value
        if fresh:
            self._rebuild()
        return fresh

    def delete(self, s: BitString) -> bool:
        if s not in self._values:
            return False
        del self._values[s]
        self._rebuild()
        return True

    def bulk_build(self, items: dict[BitString, Any]) -> None:
        """Build from scratch over a full member set (the common path)."""
        self._values = dict(items)
        self._rebuild()

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Recompute the compressed-trie skeleton and the handle table.

        Nodes = members plus branch points (pairwise adjacent LCPs of
        the sorted member list), the standard compressed-trie node set.
        """
        self._handles.clear()
        self._root = None
        self._max_len = max((len(x) for x in self._values), default=0)
        if not self._values:
            return
        members = sorted(self._values)
        node_strings: set[BitString] = set(members)
        for a, b in zip(members, members[1:]):
            node_strings.add(a.prefix(a.lcp_len(b)))
        # Parents via a single stack scan over the sorted node strings:
        # in trie order every proper prefix of s precedes s, and the
        # ancestors of s are exactly the stack entries that are prefixes
        # of s after popping non-prefixes.  O(n log n) overall.
        ordered = sorted(node_strings)
        nodes: dict[BitString, _Node] = {}
        spine: list[_Node] = []
        for s in ordered:
            while spine and not spine[-1].string.is_prefix_of(s):
                spine.pop()
            parent = spine[-1] if spine else None
            node = _Node(string=s, parent=parent, is_member=s in self._values)
            anc = parent.member_anc if parent is not None else None
            node.member_anc = s if node.is_member else anc
            nodes[s] = node
            spine.append(node)
            if parent is None and self._root is None:
                self._root = node
        # handle table
        for node in nodes.values():
            lo = max(node.parent_depth, 0)
            hi = node.depth
            if hi == 0:
                continue  # depth-0 node needs no handle (root of search)
            h = two_fattest(lo, hi) if lo < hi else hi
            key = (h, node.string.prefix(h).value)
            assert key not in self._handles, "interval handles must be unique"
            self._handles[key] = node

    # ------------------------------------------------------------------
    def lookup_deepest_prefix(self, q: BitString) -> Optional[BitString]:
        """Longest member that is a prefix of ``q``; O(log h) probes whp."""
        if self._root is None:
            return None
        root = self._root
        if not root.string.is_prefix_of(q):
            # even the skeleton root diverges from q: the only possible
            # member prefixes are ancestors of the divergence point,
            # which for a skeleton root means nothing below it matches
            k = root.string.lcp_len(q)
            return root.member_anc if root.depth <= k else None
        best = root
        lo, hi = root.depth, min(len(q), self._max_len)
        while lo < hi:
            f = two_fattest(lo, hi)
            self._probes += 1
            node = self._handles.get((f, q.prefix(f).value))
            if node is None:
                hi = f - 1
                continue
            k = node.string.lcp_len(q)
            if k == node.depth:
                # full hit: node is an ancestor-or-self of the exit node
                best = node
                lo = node.depth
            else:
                # q diverges from this path at depth k: the exit node is
                # the deepest ancestor of `node` with depth <= k
                cur = node
                while cur.parent is not None and cur.depth > k:
                    cur = cur.parent
                return cur.member_anc if cur.depth <= k else None
        return best.member_anc

    @property
    def probes(self) -> int:
        """Cumulative handle probes (for the O(log w) experiments)."""
        return self._probes

    def __repr__(self) -> str:
        return f"ZFastTrie(n={len(self._values)}, h={self._max_len})"
