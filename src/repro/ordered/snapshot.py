"""Ordered snapshot of the live key set: one sorted key list.

An :class:`OrderedSnapshot` is a *consistent* ordered-index view built
from the host replica log's key/value union
(:meth:`repro.core.PIMTrie.replica_log_items`): at round boundaries the
union equals the stored key set exactly, so a snapshot taken between
batches is a point-in-time image of the index — later mutations build a
new snapshot and never disturb one a caller still holds (snapshot
isolation for reads).

The snapshot keeps the keys sorted in the prefix-first total order of
:class:`~repro.bits.BitString` (the order a trie's leaves are visited
in) and answers every query with ``bisect`` over that list:

* predecessor is a ``bisect_left``, successor a ``bisect_right``,
* a range is two bisects and a slice capped at ``limit`` — it never
  visits past the bound or the limit,
* the keys extending a prefix ``p`` are exactly the contiguous interval
  ``[p, p·111…]`` (padded past the longest stored key), so
  ``prefix_count`` is two bisects and ``top_k`` a slice from the
  interval's left edge.

Snapshots are pure host-side state: building or querying one moves no
PIM words and runs no rounds.  The accounted cost (``tick_cpu``) is
charged by the :class:`~repro.core.PIMTrie` wrappers, which also wrap
every call in ``op.*``/``phase`` spans so the obs span-sum invariant
stays byte-exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional

from ..bits import BitString

__all__ = ["OrderedSnapshot"]


class OrderedSnapshot:
    """A frozen, totally ordered view of ``{key: value}`` at one version.

    ``version`` is the content version of the replica-log union the
    snapshot was built from (the trie's counter); the trie uses it to
    reuse a snapshot until the key set actually changes — placement
    maintenance (split / replicate / merge) preserves the union, so it
    never invalidates a snapshot.
    """

    def __init__(self, items: dict[BitString, Any], *, version: int = 0):
        self.version = version
        self._values: dict[BitString, Any] = dict(items)
        self._keys: list[BitString] = sorted(self._values)
        self._max_len = max((len(k) for k in self._keys), default=0)

    def __len__(self) -> int:
        return len(self._keys)

    def _pairs(self, i: int, j: int) -> list[tuple[BitString, Any]]:
        return [(k, self._values[k]) for k in self._keys[i:j]]

    def items(self) -> list[tuple[BitString, Any]]:
        """Full enumeration in key order (tests' reference walk)."""
        return self._pairs(0, len(self._keys))

    # -- the ordered query surface -------------------------------------
    def predecessor(self, key: BitString) -> Optional[tuple[BitString, Any]]:
        """Largest stored key strictly below ``key`` (with its value)."""
        i = bisect_left(self._keys, key)
        if i == 0:
            return None
        k = self._keys[i - 1]
        return k, self._values[k]

    def successor(self, key: BitString) -> Optional[tuple[BitString, Any]]:
        """Smallest stored key strictly above ``key`` (with its value)."""
        i = bisect_right(self._keys, key)
        if i == len(self._keys):
            return None
        k = self._keys[i]
        return k, self._values[k]

    def range(
        self,
        lo: BitString,
        hi: BitString,
        limit: Optional[int] = None,
    ) -> list[tuple[BitString, Any]]:
        """Stored ``(key, value)`` pairs with ``lo <= key <= hi`` in key
        order, truncated to the first ``limit`` (an inverted interval
        or a ``limit`` of zero or less is empty)."""
        i = bisect_left(self._keys, lo)
        j = bisect_right(self._keys, hi)
        if limit is not None:
            j = min(j, i + max(0, limit))
        return self._pairs(i, j)

    def _prefix_interval(self, prefix: BitString) -> tuple[int, int]:
        """Index interval ``[lo, hi)`` of keys extending ``prefix``: the
        prefix-first total order puts them contiguously between
        ``prefix`` and ``prefix`` padded with 1-bits past the longest
        stored key."""
        upper = prefix.pad_to(max(len(prefix), self._max_len) + 1, 1)
        return bisect_left(self._keys, prefix), bisect_right(self._keys, upper)

    def prefix_count(self, prefix: BitString) -> int:
        """How many stored keys extend ``prefix``; two bisects."""
        lo, hi = self._prefix_interval(prefix)
        return hi - lo

    def top_k(self, prefix: BitString, k: int) -> list[tuple[BitString, Any]]:
        """The ``k`` smallest stored keys extending ``prefix`` (with
        values) — a prefix of the sorted subtree enumeration."""
        lo, hi = self._prefix_interval(prefix)
        return self._pairs(lo, min(hi, lo + max(0, k)))

    def __repr__(self) -> str:
        return f"OrderedSnapshot(n={len(self)}, version={self.version})"
