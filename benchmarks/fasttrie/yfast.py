"""y-fast trie: x-fast top structure over Θ(w)-sized buckets (paper §3.1).

Restores O(n) space and O(log w) amortized updates by storing keys in
balanced buckets indexed by an x-fast trie over one representative per
bucket.  This is the second-layer index substrate of §4.4.2 (combined
with validity vectors in :mod:`benchmarks.fasttrie.validity`).

Buckets come in two flavours:

* sorted lists (default) — simplest, amortized bounds;
* weight-balanced trees (``deamortized=True``) — the §5.2
  de-amortization: no single update pays a Θ(w) list shuffle, so PIM
  time stays balanced under adversarial update streams.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from .wbtree import WeightBalancedTree
from .xfast import XFastTrie

__all__ = ["YFastTrie"]


class _Bucket:
    """Sorted-list bucket (amortized variant)."""

    __slots__ = ("rep", "keys")

    def __init__(self, rep: int, keys: list[int]):
        self.rep = rep  # representative registered in the x-fast top
        self.keys = keys  # sorted

    def add(self, key: int) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return False
        self.keys.insert(i, key)
        return True

    def remove(self, key: int) -> bool:
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            self.keys.pop(i)
            return True
        return False

    def contains(self, key: int) -> bool:
        i = bisect.bisect_left(self.keys, key)
        return i < len(self.keys) and self.keys[i] == key

    def pred(self, key: int) -> Optional[int]:
        i = bisect.bisect_left(self.keys, key)
        return self.keys[i - 1] if i > 0 else None

    def succ(self, key: int) -> Optional[int]:
        i = bisect.bisect_right(self.keys, key)
        return self.keys[i] if i < len(self.keys) else None

    def size(self) -> int:
        return len(self.keys)

    def all_keys(self) -> list[int]:
        return list(self.keys)


class _WBBucket:
    """Weight-balanced-tree bucket (the §5.2 de-amortized variant)."""

    __slots__ = ("rep", "tree")

    def __init__(self, rep: int, keys: list[int]):
        self.rep = rep
        self.tree = WeightBalancedTree()
        for k in keys:
            self.tree.insert(k)

    def add(self, key: int) -> bool:
        return self.tree.insert(key)

    def remove(self, key: int) -> bool:
        return self.tree.delete(key)

    def contains(self, key: int) -> bool:
        return key in self.tree

    def pred(self, key: int) -> Optional[int]:
        return self.tree.predecessor(key)

    def succ(self, key: int) -> Optional[int]:
        return self.tree.successor(key)

    def size(self) -> int:
        return len(self.tree)

    def all_keys(self) -> list[int]:
        return list(self.tree)


class YFastTrie:
    """y-fast trie over integers in [0, 2^width)."""

    def __init__(self, width: int, *, deamortized: bool = False):
        self.width = width
        self.deamortized = deamortized
        self._top = XFastTrie(width)
        self._buckets: dict[int, _Bucket] = {}  # rep -> bucket
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _bucket_for(self, key: int) -> Optional[_Bucket]:
        """The bucket routing ``key``: the one with the largest
        representative <= key, else the first bucket."""
        if not self._buckets:
            return None
        if key in self._top:
            return self._buckets[key]
        rep = self._top.predecessor(key)
        if rep is None:
            # key is below every representative: route to the first bucket
            rep = self._top.successor(key)
        assert rep is not None
        return self._buckets[rep]

    def __contains__(self, key: int) -> bool:
        b = self._bucket_for(key)
        return b is not None and b.contains(key)

    def _make_bucket(self, rep: int, keys: list[int]):
        cls = _WBBucket if self.deamortized else _Bucket
        return cls(rep, keys)

    # ------------------------------------------------------------------
    def insert(self, key: int) -> bool:
        if not 0 <= key < (1 << self.width):
            raise ValueError(f"key {key} out of range")
        b = self._bucket_for(key)
        if b is None:
            self._buckets[key] = self._make_bucket(key, [key])
            self._top.insert(key)
            self._size += 1
            return True
        if not b.add(key):
            return False
        self._size += 1
        if b.size() > 2 * max(2, self.width):
            self._split(b)
        return True

    def _split(self, b) -> None:
        """Split an oversized bucket into two halves.

        The old registration is removed before the halves register so
        a representative collision (b.rep == the split key) cannot
        silently drop the new right bucket.
        """
        ks = b.all_keys()
        mid = len(ks) // 2
        left_keys, right_keys = ks[:mid], ks[mid:]
        old_rep = b.rep
        new_rep = right_keys[0]
        # the left half keeps a representative <= its smallest key (the
        # old rep can exceed left_keys[0] when keys below it were routed
        # here through the first-bucket fallback)
        left_rep = min(old_rep, left_keys[0])
        del self._buckets[old_rep]
        self._top.delete(old_rep)
        self._buckets[left_rep] = self._make_bucket(left_rep, left_keys)
        self._top.insert(left_rep)
        self._buckets[new_rep] = self._make_bucket(new_rep, right_keys)
        self._top.insert(new_rep)

    def delete(self, key: int) -> bool:
        b = self._bucket_for(key)
        if b is None or not b.remove(key):
            return False
        self._size -= 1
        if b.size() == 0:
            del self._buckets[b.rep]
            self._top.delete(b.rep)
        elif b.size() < max(1, self.width // 4):
            self._merge(b)
        return True

    def _merge(self, b) -> None:
        """Merge an undersized bucket with a neighbor (then maybe re-split)."""
        nxt = self._top.successor(b.rep)
        prv = self._top.predecessor(b.rep)
        other_rep = nxt if nxt is not None else prv
        if other_rep is None:
            return  # only bucket
        other = self._buckets[other_rep]
        merged = sorted(b.all_keys() + other.all_keys())
        del self._buckets[b.rep]
        self._top.delete(b.rep)
        del self._buckets[other.rep]
        self._top.delete(other.rep)
        nb = self._make_bucket(merged[0], merged)
        self._buckets[nb.rep] = nb
        self._top.insert(nb.rep)
        if nb.size() > 2 * max(2, self.width):
            self._split(nb)

    # ------------------------------------------------------------------
    def predecessor(self, key: int) -> Optional[int]:
        """Largest stored key < key; O(log w) whp."""
        b = self._bucket_for(key)
        if b is None:
            return None
        got = b.pred(key)
        if got is not None:
            return got
        prv = self._top.predecessor(b.rep)
        while prv is not None:
            pb = self._buckets[prv]
            got = pb.pred(key)
            if got is not None:
                return got
            prv = self._top.predecessor(prv)
        return None

    def successor(self, key: int) -> Optional[int]:
        """Smallest stored key > key; O(log w) whp."""
        b = self._bucket_for(key)
        if b is None:
            return None
        got = b.succ(key)
        if got is not None:
            return got
        nxt = self._top.successor(b.rep)
        while nxt is not None:
            nb = self._buckets[nxt]
            got = nb.succ(key)
            if got is not None:
                return got
            nxt = self._top.successor(nxt)
        return None

    def keys(self) -> Iterator[int]:
        for rep in sorted(self._buckets):
            yield from self._buckets[rep].all_keys()

    def space_entries(self) -> int:
        """x-fast top entries + bucket cells: O(n) by Θ(w) bucketing."""
        return self._top.space_entries() + self._size

    def __repr__(self) -> str:
        return f"YFastTrie(width={self.width}, n={self._size})"
