"""Columnar query-trie arena: the batch's Patricia trie as flat arrays.

:class:`QueryArena` is the struct-of-arrays replacement for the object
query trie built by :func:`repro.trie.construction.build_query_trie`.
One arena holds, per *row* (node, numbered in preorder, child-0 first —
the same order ``PatriciaTrie.iter_nodes`` yields):

* topology columns: ``parent``, ``child0``, ``child1``, ``subtree_end``
  (the end of the row's preorder interval, so a subtree is the slice
  ``[r, subtree_end[r])``),
* prefix columns: ``depth`` (bits), ``is_key``, ``key_id`` (an index
  into the deduplicated key list whose prefix the row represents — any
  edge label is a bit-window of that key),
* packed key words: ``key_words`` (n_keys × W uint64, MSB-first) with a
  ``key_lens`` column, plus rolling Mersenne-61 digests of every
  64-bit-aligned key prefix and, per hasher, the fingerprint matrix of
  those prefixes.

Equivalences to the object reference in ``tests/reference`` (each is
exercised by the differential tests):

* ``np.lexsort`` over (words…, length) is exactly trie order
  (``BitString.__lt__``): zero-padded word comparison plus the
  shorter-first tie-break;
* the spine build below replicates ``patricia_from_sorted`` — for
  sorted distinct strings the ``attach_leaf`` prefix-equal branch is
  unreachable (a prefix sorts first), and the split edge is always the
  child on the previous string's bit at the split ancestor's depth;
* partition/fold mirror ``partition_weighted`` (cumsum crossing of
  bound multiples + LCA closure) and the reference's per-key rootfix.

Growth policy: an arena is per-batch and immutable once built, so
columns are allocated exactly once at their final size (2n−1 rows at
most for n distinct keys, +1 for the root).  Digest and fingerprint
matrices are computed lazily and cached per hasher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..bits import BitString, IncrementalHasher
from ..trie.nodes import TrieNode
from .m61 import digest_words, fingerprint_cols, pack_words

__all__ = ["ColNodeRef", "ColPathPos", "QueryArena"]


@dataclass(frozen=True)
class ColNodeRef:
    """A query-trie node in arena coordinates: its preorder row.

    Stands in for :class:`TrieNode` wherever the driver only needs an
    identity (``.uid``) — reply positions, piece routing keys.
    """

    uid: int  # the arena row


@dataclass(frozen=True)
class ColPathPos:
    """A query-trie position in arena coordinates: ``back`` bits up the
    edge entering row ``node.uid`` (``back == 0`` is the node itself)."""

    node: ColNodeRef
    back: int = 0


class _NodeMap:
    """Duck-typed ``{uid: node}`` view over arena rows (read-only)."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def get(self, uid: Any, default: Any = None) -> Optional[ColNodeRef]:
        if isinstance(uid, int) and 0 <= uid < self._n:
            return ColNodeRef(uid)
        return default

    def __contains__(self, uid: Any) -> bool:
        return isinstance(uid, int) and 0 <= uid < self._n

    def __len__(self) -> int:
        return self._n


class QueryArena:
    """The query trie of one batch as flat numpy columns."""

    __slots__ = (
        "keys",
        "values",
        "key_vals",
        "key_lens_list",
        "key_lens",
        "key_words",
        "width",
        "num_keys",
        "n_nodes",
        "parent",
        "depth",
        "child0",
        "child1",
        "is_key",
        "key_id",
        "subtree_end",
        "node_weight",
        "is_key_list",
        "depth_list",
        "key_id_list",
        "parent_list",
        "child0_list",
        "child1_list",
        "_word_cost",
        "_digests",
        "_fp_cache",
        "root",
    )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        batch: Sequence[BitString],
        values: Optional[Sequence[Any]] = None,
    ) -> "QueryArena":
        """Sort + dedup + adjacent-LCP + spine build, all in arrays.

        Duplicate keys collapse to the first value in sorted order,
        exactly as ``build_query_trie`` does.  Consumes the same number
        of :class:`TrieNode` uids the object build would, so data-side
        uid allocation (and thus ``extract_blocks``'s set-iteration
        order) stays in lockstep across the two modes.
        """
        if values is not None and len(values) != len(batch):
            raise ValueError("values must align with batch")
        self = cls.__new__(cls)
        n_in = len(batch)
        vals_in = list(values) if values is not None else [None] * n_in

        lens_in = np.fromiter(
            (len(k) for k in batch), dtype=np.int64, count=n_in
        )
        max_len = int(lens_in.max(initial=0))
        width = max(1, -(-max_len // 64))
        words_in = pack_words(
            [k.value for k in batch], [len(k) for k in batch], width
        )
        if n_in:
            order = np.lexsort(
                tuple(
                    [lens_in]
                    + [words_in[:, j] for j in range(width - 1, -1, -1)]
                )
            )
            sl = lens_in[order]
            sw = words_in[order]
            keep = np.ones(n_in, dtype=bool)
            keep[1:] = (sl[1:] != sl[:-1]) | np.any(
                sw[1:] != sw[:-1], axis=1
            )
            didx = order[keep]
        else:
            didx = np.empty(0, dtype=np.int64)

        self.keys = [batch[int(i)] for i in didx]
        self.values = [vals_in[int(i)] for i in didx]
        self.key_vals = [k.value for k in self.keys]
        self.key_lens_list = [len(k) for k in self.keys]
        self.key_lens = np.asarray(self.key_lens_list, dtype=np.int64)
        self.key_words = (
            words_in[didx] if n_in else np.zeros((0, width), dtype=np.uint64)
        )
        self.width = width
        self.num_keys = len(self.keys)
        self._digests = None
        self._fp_cache = {}

        self._build_spine()
        self._derive_columns()
        # scalar mirrors of the hot columns: python-int indexing beats
        # numpy scalar indexing in the per-fragment fallback paths
        self.is_key_list = self.is_key.tolist()
        self.depth_list = self.depth.tolist()
        self.key_id_list = self.key_id.tolist()
        self.parent_list = self.parent.tolist()
        self.child0_list = self.child0.tolist()
        self.child1_list = self.child1.tolist()
        self.root = ColNodeRef(0)
        # uid lockstep with the object build (one uid per trie node)
        TrieNode._next_uid += self.n_nodes
        return self

    # ------------------------------------------------------------------
    def _build_spine(self) -> None:
        """Right-spine Patricia construction over the sorted dedup keys,
        then a preorder renumbering into the arena columns."""
        keys = self.key_vals
        lens = self.key_lens_list
        m = self.num_keys

        # adjacent LCPs over the left-aligned word matrix: XOR adjacent
        # rows, locate the first differing word, then take bit_length of
        # that single word exactly (float log2 of an XOR is off-by-one
        # near powers of two; int.bit_length is exact).  Zero padding
        # past a key's end is safe: any difference it hides lies at or
        # beyond min(len) and the min() below clamps it.
        lcp = [0] * m
        if m > 1:
            sw2 = self.key_words
            diff = sw2[1:] ^ sw2[:-1]
            nz = diff != 0
            has = nz.any(axis=1)
            widx = np.where(has, np.argmax(nz, axis=1), 0)
            dwords = diff[np.arange(m - 1), widx].tolist()
            woff = (widx * 64).tolist()
            for i in range(1, m):
                la, lb = lens[i - 1], lens[i]
                nmin = la if la < lb else lb
                dw = dwords[i - 1]
                if dw:
                    cut = woff[i - 1] + 64 - dw.bit_length()
                    lcp[i] = cut if cut < nmin else nmin
                else:
                    lcp[i] = nmin

        depth = [0]
        ch = [[-1, -1]]
        key_of = [-1]

        def bit_at(i: int, p: int) -> int:
            return (keys[i] >> (lens[i] - 1 - p)) & 1

        if m:
            if lens[0] == 0:
                key_of[0] = 0
                spine = [0]
            else:
                depth.append(lens[0])
                ch.append([-1, -1])
                key_of.append(0)
                ch[0][bit_at(0, 0)] = 1
                spine = [0, 1]
            for i in range(1, m):
                d = lcp[i]
                while depth[spine[-1]] > d:
                    spine.pop()
                top = spine[-1]
                if depth[top] == d:
                    # sorted distinct strings: d < len(key_i), so this is
                    # always a fresh leaf (a prefix would sort first)
                    leaf = len(depth)
                    depth.append(lens[i])
                    ch.append([-1, -1])
                    key_of.append(i)
                    ch[top][bit_at(i, d)] = leaf
                    spine.append(leaf)
                    continue
                # split the spine edge below `top` at depth d: that edge
                # lies on the path to the previous string, so its slot is
                # the previous string's bit at top's depth, and the kept
                # lower part starts with the previous string's bit at d
                b_top = bit_at(i - 1, depth[top])
                lower = ch[top][b_top]
                mid = len(depth)
                depth.append(d)
                ch.append([-1, -1])
                key_of.append(-1)
                ch[mid][bit_at(i - 1, d)] = lower
                ch[top][b_top] = mid
                leaf = len(depth)
                depth.append(lens[i])
                ch.append([-1, -1])
                key_of.append(i)
                ch[mid][bit_at(i, d)] = leaf
                spine.append(mid)
                spine.append(leaf)

        # preorder renumbering, child-0 first (= PatriciaTrie.iter_nodes)
        total = len(depth)
        pre_order: list[int] = []
        stack = [0]
        while stack:
            u = stack.pop()
            pre_order.append(u)
            c1, c0 = ch[u][1], ch[u][0]
            if c1 >= 0:
                stack.append(c1)
            if c0 >= 0:
                stack.append(c0)
        new_of = [0] * total
        for pos, old in enumerate(pre_order):
            new_of[old] = pos

        self.n_nodes = total
        self.depth = np.array([depth[o] for o in pre_order], dtype=np.int64)
        self.is_key = np.array(
            [key_of[o] >= 0 for o in pre_order], dtype=bool
        )
        key_id = np.array([key_of[o] for o in pre_order], dtype=np.int64)
        child0 = np.array(
            [new_of[ch[o][0]] if ch[o][0] >= 0 else -1 for o in pre_order],
            dtype=np.int64,
        )
        child1 = np.array(
            [new_of[ch[o][1]] if ch[o][1] >= 0 else -1 for o in pre_order],
            dtype=np.int64,
        )
        parent = np.full(total, -1, dtype=np.int64)
        kidx = np.flatnonzero(child0 >= 0)
        parent[child0[kidx]] = kidx
        kidx = np.flatnonzero(child1 >= 0)
        parent[child1[kidx]] = kidx

        # propagate a witness key through key-less rows (any key in the
        # row's subtree shares the row's prefix, so its bits spell every
        # edge label on the way down) and close preorder intervals
        subtree_end = np.arange(1, total + 1, dtype=np.int64)
        for r in range(total - 1, -1, -1):
            c0, c1 = child0[r], child1[r]
            last = c1 if c1 >= 0 else c0
            if last >= 0:
                subtree_end[r] = subtree_end[last]
            if key_id[r] < 0:
                witness = c0 if c0 >= 0 else c1
                key_id[r] = key_id[witness] if witness >= 0 else 0
        self.key_id = key_id
        self.child0 = child0
        self.child1 = child1
        self.parent = parent
        self.subtree_end = subtree_end

    def _derive_columns(self) -> None:
        """Edge-label lengths → blocking weights and the trie word cost,
        matching ``node_weight_words`` / ``PatriciaTrie.word_cost``."""
        total = self.n_nodes
        nc = 2 + self.is_key.astype(np.int64)
        if total > 1:
            lab_len = self.depth[1:] - self.depth[self.parent[1:]]
            w_e = 1 + np.maximum(1, -(-lab_len // 64))
            node_weight = nc.copy()
            np.add.at(node_weight, self.parent[1:], w_e)
            wc = int(nc.sum() + w_e.sum())
        else:
            node_weight = nc
            wc = int(nc.sum())
        self.node_weight = node_weight
        self._word_cost = max(1, wc)

    # ------------------------------------------------------------------
    # PatriciaTrie-compatible surface (what the PIMTrie driver calls)
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        return self.n_nodes

    def word_cost(self) -> int:
        return self._word_cost

    def node_map(self) -> _NodeMap:
        return _NodeMap(self.n_nodes)

    # ------------------------------------------------------------------
    # hashing columns
    # ------------------------------------------------------------------
    def digests(self) -> np.ndarray:
        """(n_keys, W+1) rolling digests; column j covers the 64j-bit
        prefix (columns past a key's word count are padding garbage)."""
        d = self._digests
        if d is None:
            d = digest_words(self.key_words)
            self._digests = d
        return d

    def fp_matrix(self, hasher) -> np.ndarray:
        """(n_keys, W+1) fingerprints of every aligned key prefix under
        ``hasher``; cached per hasher.  The modular hasher's matrix is
        computed column-wise in vectorized Mersenne-61 arithmetic; any
        other hasher (the carry-less family of ablation E14c) fills
        each key's row through its own ``pivot_fingerprints`` — only the
        columns up to a key's length are ever read."""
        fp = self._fp_cache.get(hasher)
        if fp is None:
            if isinstance(hasher, IncrementalHasher):
                d = self.digests()
                lengths = np.broadcast_to(
                    np.arange(d.shape[1], dtype=np.uint64) * np.uint64(64),
                    d.shape,
                )
                fp = fingerprint_cols(
                    d, lengths, hasher._mul, hasher._add, hasher._mask
                )
            else:
                fp = np.zeros((self.num_keys, self.width + 1), np.uint64)
                empty = hasher.empty()
                for i, key in enumerate(self.keys):
                    row = hasher.pivot_fingerprints(
                        empty, key, range(0, len(key) + 1, 64)
                    )
                    fp[i, : len(row)] = row
            self._fp_cache[hasher] = fp
        return fp

    def fp_lists(self, hasher) -> list:
        """:meth:`fp_matrix` as nested python-int lists, for the scalar
        per-fragment matching path (dict probes against ``layer2`` want
        machine ints, not numpy scalars)."""
        fl = self._fp_cache.get((hasher, "lists"))
        if fl is None:
            fl = self.fp_matrix(hasher).tolist()
            self._fp_cache[(hasher, "lists")] = fl
        return fl

    def key_window(self, key_idx: int, start: int, stop: int) -> int:
        """Bits ``[start, stop)`` of dedup key ``key_idx`` as an int."""
        l = self.key_lens_list[key_idx]
        return (self.key_vals[key_idx] >> (l - stop)) & ((1 << (stop - start)) - 1)

    # ------------------------------------------------------------------
    # partitioning (mirrors partition_weighted + lca_closure)
    # ------------------------------------------------------------------
    def partition(self, bound: int) -> list[int]:
        """Rows of the block-root partition, ascending (= preorder)."""
        if bound <= 0:
            raise ValueError("partition bound must be positive")
        cs = np.cumsum(self.node_weight)
        prev = np.concatenate(([0], cs[:-1]))
        base = np.flatnonzero((cs // bound) > (prev // bound))
        roots: set[int] = {int(r) for r in base}
        depth = self.depth
        parent = self.parent
        for a, b in zip(base[:-1], base[1:]):
            x, y = int(a), int(b)
            while x != y:
                if depth[x] >= depth[y]:
                    p = int(parent[x])
                    if p < 0:
                        break
                    x = p
                else:
                    p = int(parent[y])
                    if p < 0:
                        break
                    y = p
            if x == y:
                roots.add(x)
        roots.add(0)
        return sorted(roots)

    # ------------------------------------------------------------------
    # per-key folding (§5.1)
    # ------------------------------------------------------------------
    def fold(
        self, outcome, root_block_id: Optional[int]
    ) -> dict[BitString, tuple[int, int, bool, Any]]:
        """(LCP depth, owning block, exact, value) per stored key."""
        out: dict[BitString, tuple[int, int, bool, Any]] = {}
        child0, child1 = self.child0_list, self.child1_list
        is_key = self.is_key_list
        key_id, depth_col = self.key_id_list, self.depth_list
        keys = self.keys
        root_state = (0, root_block_id or 0, False)
        stack: list[tuple[int, tuple[int, int, bool]]] = [(0, root_state)]
        while stack:
            r, state = stack.pop()
            entry = outcome.get(r)
            if entry is not None and not state[2]:
                depth, block, diverged = (
                    entry.depth, entry.block, not entry.full,
                )
                state = (depth, block, diverged)
            else:
                depth, block, diverged = state
            if is_key[r]:
                exact = (
                    entry is not None
                    and entry.full
                    and entry.depth == depth_col[r]
                    and entry.has_key
                    and not diverged
                )
                value = entry.value if exact and entry is not None else None
                out[keys[key_id[r]]] = (depth, block, exact, value)
            c = child0[r]
            if c >= 0:
                stack.append((c, state))
            c = child1[r]
            if c >= 0:
                stack.append((c, state))
        return out

    def __repr__(self) -> str:
        return (
            f"QueryArena(keys={self.num_keys}, nodes={self.n_nodes}, "
            f"words={self._word_cost})"
        )
