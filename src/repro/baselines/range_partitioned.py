"""Baseline 3 (§3.2): a range-partitioned PIM index.

The key space is split into disjoint ranges by a small set of separator
keys cached on the host CPU; each range lives wholly on one PIM module
as a local sorted index.  Point operations cost O(1) communication —
the strength the paper credits this family with — but a skewed batch
that targets one key range serializes on a single module, which is the
load-imbalance failure mode PIM-trie is designed to avoid (experiment
E10 measures exactly this contrast).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Optional, Sequence

from ..bits import BitString
from ..pim import ModuleContext, PIMSystem
from ..trie import PatriciaTrie, argsort

__all__ = ["RangePartitionedIndex"]


class RangePartitionedIndex:
    """CPU-cached separators routing to per-module Patricia tries."""

    _COUNTER = 0

    def __init__(
        self,
        system: PIMSystem,
        keys: Optional[Iterable[BitString]] = None,
        values: Optional[Iterable[Any]] = None,
    ):
        self.system = system
        RangePartitionedIndex._COUNTER += 1
        self.name = f"rangeidx{RangePartitionedIndex._COUNTER}"
        self.num_keys = 0
        #: separator keys: queries with key < separators[i] route to
        #: partition i; len == P - 1
        self.separators: list[BitString] = []
        #: per-partition key counts (CPU-cached metadata, like the
        #: separators themselves) — used to skip empty partitions when
        #: probing neighbors for LCP
        self._counts = [0] * system.num_modules

        def kernel(ctx: ModuleContext, reqs: list) -> list:
            trie: PatriciaTrie = ctx.scratch.setdefault(self.name, PatriciaTrie())
            out = []
            for op, key, value in reqs:
                ctx.tick(max(1, len(key) // 64 + 1))
                if op == "lcp":
                    out.append(trie.lcp(key))
                elif op == "get":
                    out.append(trie.lookup(key))
                elif op == "put":
                    out.append(trie.insert(key, value))
                elif op == "del":
                    out.append(trie.delete(key))
                elif op == "subtree":
                    items = trie.subtree_items(key)
                    ctx.tick(len(items))
                    out.append(items)
                else:
                    raise ValueError(op)
            return out

        system.register_kernel(f"{self.name}.kernel", kernel)
        self._kernel = f"{self.name}.kernel"
        if keys is not None:
            keys = list(keys)
            vals = list(values) if values is not None else [None] * len(keys)
            self._bulk_load(keys, vals)

    # ------------------------------------------------------------------
    def _bulk_load(self, keys: list[BitString], vals: list[Any]) -> None:
        """Choose separators by equal-count splits of the initial keys
        (the CPU-side lookup structure of §3.2), then scatter."""
        P = self.system.num_modules
        order = argsort(keys)
        if len(keys) >= P:
            self.separators = [
                keys[order[(i * len(keys)) // P]] for i in range(1, P)
            ]
        self.insert_batch(keys, vals)

    def _route(self, key: BitString) -> int:
        """CPU-local separator search: O(log P) CPU work, no rounds."""
        self.system.tick_cpu(max(1, len(self.separators).bit_length()))
        return bisect.bisect_right(self.separators, key)

    def _batch(self, ops: Sequence[tuple[str, BitString, Any]]) -> list[Any]:
        out: list[Any] = [None] * len(ops)
        for i, r in self.system.exchange(self._kernel, [
            (self._route(op[1]), op, i) for i, op in enumerate(ops)
        ]):
            out[i] = r
        return out

    # ------------------------------------------------------------------
    def lcp_batch(self, keys: Sequence[BitString]) -> list[int]:
        """Two rounds: own partition plus the nearest *non-empty*
        neighbor partition on each side.

        The max-LCP key for q is always its lexicographic predecessor or
        successor in the key set, and those live in q's partition or the
        nearest non-empty partitions around it — the constant-factor fix
        real range-partitioned systems use (empty partitions arise from
        duplicate separators and deletions)."""
        first = self._batch([("lcp", k, None) for k in keys])
        sends = []
        P = self.system.num_modules
        for i, k in enumerate(keys):
            m = self._route(k)
            lo = m - 1
            while lo >= 0 and self._counts[lo] == 0:
                lo -= 1
            hi = m + 1
            while hi < P and self._counts[hi] == 0:
                hi += 1
            sends += [(nb, ("lcp", k, None), i) for nb in (lo, hi) if 0 <= nb < P]
        best = list(first)
        for i, r in self.system.exchange(self._kernel, sends):
            best[i] = max(best[i], r)
        return best

    def lookup_batch(self, keys: Sequence[BitString]) -> list[Any]:
        return self._batch([("get", k, None) for k in keys])

    def insert_batch(
        self, keys: Sequence[BitString], values: Optional[Sequence[Any]] = None
    ) -> int:
        vals = list(values) if values is not None else [None] * len(keys)
        fresh = self._batch(
            [("put", k, v) for k, v in zip(keys, vals)]
        )
        added = 0
        for k, f in zip(keys, fresh):
            if f:
                added += 1
                self._counts[self._route(k)] += 1
        self.num_keys += added
        return added

    def delete_batch(self, keys: Sequence[BitString]) -> int:
        gone = self._batch([("del", k, None) for k in keys])
        removed = 0
        for k, f in zip(keys, gone):
            if f:
                removed += 1
                self._counts[self._route(k)] -= 1
        self.num_keys -= removed
        return removed

    def subtree_batch(
        self, prefixes: Sequence[BitString]
    ) -> list[list[tuple[BitString, Any]]]:
        """A prefix range may span several partitions: query every
        partition whose range intersects [prefix, prefix|111...)."""
        out: list[list[tuple[BitString, Any]]] = [[] for _ in prefixes]
        sends = []
        for i, p in enumerate(prefixes):
            lo = self._route(p)
            # the upper end of the prefix range
            hi_key = p.pad_to(max(len(p), 256), 1)
            hi = self._route(hi_key)
            sends += [(m, ("subtree", p, None), i) for m in range(lo, hi + 1)]
        for i, items in self.system.exchange(self._kernel, sends):
            out[i].extend(items)
        return [sorted(r, key=lambda kv: kv[0]) for r in out]

    def space_words(self) -> int:
        return self.system.total_memory_words()
