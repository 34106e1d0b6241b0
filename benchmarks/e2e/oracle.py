"""Bisect-backed reference index: what every reply must equal.

Independent of ``repro``'s data structures: a sorted list of integer
sort keys (plus the parallel ``BitString`` list and a value dict),
answered by ``bisect``.  Replayed one op at a time in arrival order,
which is the semantics the serve layer guarantees (reads never cross
writes; duplicate inserts are last-write-wins).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Sequence

from repro.bits import BitString


class Oracle:
    """The stored key set in the trie's order (a prefix sorts first)."""

    def __init__(self, keys: Sequence[BitString], values: Sequence[Any], length: int):
        self.length = length
        self.values: dict[BitString, Any] = dict(zip(keys, values))
        self.keys: list[BitString] = sorted(self.values, key=self._sort_key)
        self.sort_keys = [self._sort_key(k) for k in self.keys]
        #: inserts that added a key ÷ inserts seen (a trace property the
        #: write path's cost depends on)
        self.inserts = 0
        self.new_inserts = 0

    def _sort_key(self, key: BitString) -> tuple[int, int]:
        # left-aligned value, then length: equal padded values mean one
        # key is the other plus trailing zeros, and the shorter is first
        if len(key) > self.length:
            raise ValueError(f"key longer than {self.length} bits")
        return (key.value << (self.length - len(key)), len(key))

    def _prefix_interval(self, prefix: BitString) -> tuple[int, int]:
        lo = self._sort_key(prefix)
        hi = (lo[0] + (1 << (self.length - len(prefix))), 0)
        return bisect_left(self.sort_keys, lo), bisect_left(self.sort_keys, hi)

    def _items(self, i: int, j: int) -> list[tuple[BitString, Any]]:
        return [(k, self.values[k]) for k in self.keys[i:j]]

    def apply(self, kind: str, key: BitString, value: Any) -> Any:
        """Answer one operation (mutating the key set for writes)."""
        sk = self.sort_keys
        if kind == "lcp":
            # the longest match is with a neighbour in sorted order
            i = bisect_left(sk, self._sort_key(key))
            return max(
                (key.lcp_len(k) for k in self.keys[max(0, i - 1):i + 1]),
                default=0,
            )
        if kind == "insert":
            self.inserts += 1
            if key not in self.values:
                self.new_inserts += 1
                s = self._sort_key(key)
                i = bisect_left(sk, s)
                sk.insert(i, s)
                self.keys.insert(i, key)
            self.values[key] = value
            return True
        if kind == "delete":
            if key in self.values:
                i = bisect_left(sk, self._sort_key(key))
                del sk[i], self.keys[i], self.values[key]
            return True
        if kind == "subtree":
            return self._items(*self._prefix_interval(key))
        if kind == "count":
            i, j = self._prefix_interval(key)
            return j - i
        if kind == "topk":
            i, j = self._prefix_interval(key)
            return self._items(i, min(j, i + max(0, value)))
        if kind == "pred":
            i = bisect_left(sk, self._sort_key(key))
            return self._items(i - 1, i)[0] if i > 0 else None
        if kind == "succ":
            i = bisect_right(sk, self._sort_key(key))
            return self._items(i, i + 1)[0] if i < len(sk) else None
        if kind == "range":
            hi, limit = value
            i = bisect_left(sk, self._sort_key(key))
            j = bisect_right(sk, self._sort_key(hi))
            if limit is not None:
                j = min(j, i + max(0, limit))
            return self._items(i, j)
        raise ValueError(f"unknown op kind {kind!r}")

    def replay(self, ops: Iterable[Any]) -> dict[int, Any]:
        """``seq -> expected reply`` for a trace's operations."""
        return {op.seq: self.apply(op.kind, op.key, op.value) for op in ops}


def _canon(reply: Any) -> str:
    if isinstance(reply, BitString):
        return reply.to_str()
    if isinstance(reply, (list, tuple)):
        return "[" + ",".join(_canon(r) for r in reply) + "]"
    return repr(reply)


def answers_digest(replies: dict[int, Any]) -> str:
    """Order-independent digest of ``seq -> reply``."""
    h = hashlib.sha256()
    for seq in sorted(replies):
        h.update(f"{seq}:{_canon(replies[seq])};".encode())
    return h.hexdigest()[:16]


def same_reply(got: Any, want: Any) -> bool:
    """Equality up to list/tuple container type."""
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(map(same_reply, got, want))
    return got == want
