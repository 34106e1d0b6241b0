"""Baseline 2 (Table 1, row 2): a distributed x-fast trie.

An x-fast trie over fixed-width integer keys whose per-level hash
tables are realized as distributed PIM hash tables (one
:class:`~repro.baselines.pim_hash_table.PIMHashTable` per level).  The
longest-prefix binary search over levels costs O(log l) BSP rounds per
batch; updates touch all l levels (O(l) communication per key); space
is Θ(l) words per key — the costs the paper lists when dismissing this
approach for variable-length keys.

Keys longer than the configured width are unsupported (the structural
limitation marked "#" in Table 1).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from ..bits import BitString
from ..pim import ModuleContext, PIMSystem
from .pim_hash_table import PIMHashTable

__all__ = ["DistributedXFastTrie"]


class DistributedXFastTrie:
    """x-fast trie over ``width``-bit keys on PIM hash tables."""

    def __init__(
        self,
        system: PIMSystem,
        width: int,
        keys: Optional[Iterable[BitString]] = None,
        values: Optional[Iterable[Any]] = None,
    ):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.system = system
        self.width = width
        #: one distributed table per trie level; level k stores k-bit
        #: prefixes (as integers)
        self.levels = [
            PIMHashTable(system, seed=k) for k in range(width + 1)
        ]
        self.num_keys = 0
        tables = [t.name for t in self.levels]

        def probe(ctx: ModuleContext, reqs: list) -> list:
            # (level, prefix) -> is the prefix stored at that level
            out = []
            for level, prefix in reqs:
                ctx.tick(1)
                out.append(prefix in ctx.scratch.get(tables[level], ()))
            return out

        self._probe = probe
        if keys is not None:
            keys = list(keys)
            vals = list(values) if values is not None else [None] * len(keys)
            self.insert_batch(keys, vals)

    # ------------------------------------------------------------------
    def _check(self, key: BitString) -> int:
        if len(key) != self.width:
            raise ValueError(
                f"x-fast tries store fixed-length keys: got {len(key)} bits, "
                f"need {self.width} (paper Table 1, note #)"
            )
        return key.value

    # ------------------------------------------------------------------
    def insert_batch(
        self, keys: Sequence[BitString], values: Optional[Sequence[Any]] = None
    ) -> int:
        """O(l) communication per key: every level's table is updated."""
        vals = list(values) if values is not None else [None] * len(keys)
        ints = [self._check(k) for k in keys]
        # leaf level decides freshness; values are boxed so a stored None
        # value is distinguishable from absence
        leaf_added = self.levels[self.width].put_batch(
            ints, [(v,) for v in vals]
        )
        for k in range(self.width):
            prefixes = [x >> (self.width - k) for x in ints]
            self.levels[k].put_batch(prefixes, [True] * len(prefixes))
        self.num_keys += leaf_added
        return leaf_added

    def delete_batch(self, keys: Sequence[BitString]) -> int:
        """Lazy level cleanup: leaf removal is exact; interior prefixes
        are reference-checked against sibling leaves only at the leaf's
        immediate level (full cleanup costs another O(l) pass, which we
        also charge)."""
        ints = [self._check(k) for k in keys]
        removed = self.levels[self.width].delete_batch(ints)
        # charge the O(l)-per-key interior cleanup the paper accounts
        for k in range(self.width):
            prefixes = [x >> (self.width - k) for x in ints]
            self.levels[k].get_batch(prefixes)
        self.num_keys -= removed
        return removed

    # ------------------------------------------------------------------
    def lcp_batch(self, keys: Sequence[BitString]) -> list[int]:
        """Batched binary search on levels: each iteration probes every
        query's midpoint level, whichever level's table that is, in one
        round — ⌈log₂(width+1)⌉ rounds for the whole batch."""
        ints = [self._check(k) for k in keys]
        lo = [0] * len(ints)
        hi = [self.width] * len(ints)
        while True:
            sends = []
            for i, x in enumerate(ints):
                if lo[i] < hi[i]:
                    level = (lo[i] + hi[i] + 1) // 2
                    prefix = x >> (self.width - level)
                    sends.append((self.levels[level]._module_of(prefix),
                                  (level, prefix), (i, level)))
            if not sends:
                return lo
            for (i, level), present in self.system.exchange(self._probe, sends):
                if present:
                    lo[i] = level
                else:
                    hi[i] = level - 1

    def lookup_batch(self, keys: Sequence[BitString]) -> list[Any]:
        ints = [self._check(k) for k in keys]
        got = self.levels[self.width].get_batch(ints)
        return [g[0] if g is not None else None for g in got]

    def subtree_batch(
        self, prefixes: Sequence[BitString]
    ) -> list[list[tuple[BitString, Any]]]:
        """Enumerate keys under a prefix by expanding one level per
        round — O(L_S) work and communication (Table 1 Subtree column)."""
        out: list[list[tuple[BitString, Any]]] = [[] for _ in prefixes]
        for qi, prefix in enumerate(prefixes):
            frontier = [prefix.value]
            depth = len(prefix)
            if depth > self.width:
                continue
            # check prefix presence
            if depth < self.width:
                got = self.levels[depth].get_batch([prefix.value])
                if got[0] is None:
                    continue
            while depth < self.width:
                cand = [(x << 1) for x in frontier] + [
                    (x << 1) | 1 for x in frontier
                ]
                got = self.levels[depth + 1].get_batch(cand)
                frontier = [c for c, g in zip(cand, got) if g is not None]
                depth += 1
            vals = self.levels[self.width].get_batch(frontier)
            for x, v in sorted(zip(frontier, vals)):
                out[qi].append(
                    (BitString.from_int(x, self.width), v[0] if v else None)
                )
        return out

    def space_words(self) -> int:
        return self.system.total_memory_words()
