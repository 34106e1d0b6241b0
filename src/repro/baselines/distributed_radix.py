"""Baseline 1 (Table 1, row 1): a distributed radix tree.

A span-``s`` radix tree (fanout ``2^s``) whose nodes are placed on
uniformly random PIM modules.  Queries pointer-chase from the root, one
BSP round per node visited — ``O(l/s)`` rounds and ``O(l/s)`` words for
an l-bit key, exactly the costs the paper lists.  Shared search paths
also concentrate traffic on the modules holding the top of the tree, so
this baseline exhibits the skew problem PIM-trie removes.

Batches are executed level-synchronously: in each round every active
query sends one descend request to the module holding its current node.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Iterable, Optional, Sequence

from ..bits import BitString
from ..pim import ModuleContext, PIMSystem

__all__ = ["DistributedRadixTree"]

_ids = itertools.count(1)


class _Node:
    """A span-s radix node resident in one module's memory."""

    __slots__ = ("node_id", "children", "is_key", "value", "depth")

    def __init__(self, node_id: int, depth: int):
        self.node_id = node_id
        self.depth = depth  # in bits
        #: chunk value -> (module, node_id); sparse
        self.children: dict[int, tuple[int, int]] = {}
        self.is_key = False
        self.value: Any = None


class DistributedRadixTree:
    """Span-``s`` radix tree with random node placement (§3.4)."""

    _COUNTER = 0

    def __init__(
        self,
        system: PIMSystem,
        span: int = 4,
        keys: Optional[Iterable[BitString]] = None,
        values: Optional[Iterable[Any]] = None,
    ):
        if span < 1:
            raise ValueError("span must be >= 1")
        self.system = system
        self.span = span
        DistributedRadixTree._COUNTER += 1
        self.name = f"dradix{DistributedRadixTree._COUNTER}"
        self.num_keys = 0
        self._num_nodes = 0

        def kernel(ctx: ModuleContext, reqs: list) -> list:
            store: dict[int, _Node] = ctx.scratch.setdefault(self.name, {})
            out = []
            for req in reqs:
                op = req[0]
                ctx.tick(1)
                if op == "descend":
                    # (op, node_id, chunk, want_value)
                    _, node_id, chunk, want_value = req
                    node = store[node_id]
                    child = node.children.get(chunk)
                    out.append(
                        (
                            child,
                            node.is_key if want_value else False,
                            node.value if want_value and node.is_key else None,
                            node.depth,
                        )
                    )
                elif op == "make":
                    # (op, node_id, depth)
                    _, node_id, depth = req
                    store[node_id] = _Node(node_id, depth)
                    out.append(node_id)
                elif op == "link":
                    # (op, node_id, chunk, child_module, child_id)
                    _, node_id, chunk, cm, cid = req
                    store[node_id].children[chunk] = (cm, cid)
                    out.append(True)
                elif op == "set_key":
                    # (op, node_id, value, flag)
                    _, node_id, value, flag = req
                    node = store[node_id]
                    was = node.is_key
                    node.is_key = flag
                    node.value = value if flag else None
                    out.append(was)
                elif op == "read":
                    _, node_id = req
                    node = store[node_id]
                    ctx.tick(len(node.children))
                    out.append(
                        (
                            dict(node.children),
                            node.is_key,
                            node.value,
                            node.depth,
                        )
                    )
                else:
                    raise ValueError(op)
            return out

        system.register_kernel(f"{self.name}.kernel", kernel)
        self._kernel = f"{self.name}.kernel"
        self.root = self._make_nodes([0])[0]
        if keys is not None:
            keys = list(keys)
            vals = list(values) if values is not None else [None] * len(keys)
            self.insert_batch(keys, vals)

    # ------------------------------------------------------------------
    def _make_nodes(self, depths: Sequence[int]) -> list[tuple[int, int]]:
        """Allocate nodes at random modules; one round."""
        sends: dict[int, list] = defaultdict(list)
        placed: list[tuple[int, int]] = []
        for d in depths:
            nid = next(_ids)
            m = self.system.random_module()
            sends[m].append(("make", nid, d))
            placed.append((m, nid))
        if sends:
            self.system.round(self._kernel, sends)
        self._num_nodes += len(depths)
        return placed

    def _chunks(self, key: BitString) -> list[int]:
        """The key cut into span-sized chunks (last chunk zero-padded)."""
        out = []
        for start in range(0, len(key), self.span):
            stop = min(start + self.span, len(key))
            piece = key.substring(start, stop)
            out.append((piece.pad_to(self.span, 0).value, stop - start))
        return out

    # ------------------------------------------------------------------
    def lcp_batch(self, keys: Sequence[BitString]) -> list[int]:
        """Per-key LCP by level-synchronous pointer chasing.

        Exact for span=1 (binary trie) and for keys/queries whose
        lengths are multiples of the span (chunk-aligned semantics of a
        fixed-span radix tree) — the Table-1 cost experiments use such
        workloads.  One BSP round per tree level touched.
        """
        results = [0] * len(keys)
        # active: query idx -> (module, node_id, chunk list, pos)
        active = {
            i: (self.root[0], self.root[1], self._chunks(k), 0)
            for i, k in enumerate(keys)
            if len(k) > 0
        }
        while active:
            nxt = {}
            for i, (child, _k, _v, depth) in self._descend(active):
                _m, _nid, chunks, pos = active[i]
                if child is None:
                    results[i] = depth
                    continue
                width = chunks[pos][1]
                results[i] = depth + width
                if pos + 1 < len(chunks):
                    nxt[i] = (child[0], child[1], chunks, pos + 1)
            active = nxt
        return results

    def _descend(self, active: dict) -> list:
        """One round: every active ``i -> (module, node, chunks, pos)``
        steps to its child; returns ``(i, reply)`` pairs."""
        return self.system.exchange(self._kernel, [
            (m, ("descend", nid, chunks[pos][0], False), i)
            for i, (m, nid, chunks, pos) in active.items()
        ])

    def insert_batch(
        self, keys: Sequence[BitString], values: Optional[Sequence[Any]] = None
    ) -> int:
        """Insert keys one level per round (paths shared within a batch)."""
        vals = list(values) if values is not None else [None] * len(keys)
        # walk/extend the tree level-synchronously; create missing nodes
        # per level in a second sub-round
        new_count = 0
        active = [
            (self.root, self._chunks(k), 0, k, v)
            for k, v in zip(keys, vals)
            if len(k) > 0 or not self._mark_root_key(k, v)
        ]
        while active:
            # phase 1: descend
            steps = {
                idx: (m, nid, chunks, pos)
                for idx, ((m, nid), chunks, pos, _key, _v) in enumerate(active)
            }
            child_of = {idx: reply[0] for idx, reply in self._descend(steps)}
            # phase 2: create missing children (dedup by (node, chunk))
            need: dict[tuple[int, int, int], list[int]] = defaultdict(list)
            for idx, ((m, nid), chunks, pos, key, v) in enumerate(active):
                if child_of[idx] is None:
                    need[(m, nid, chunks[pos][0])].append(idx)
            if need:
                made = self._make_nodes(
                    [
                        (active[idxs[0]][2] + 1) * self.span
                        for idxs in need.values()
                    ]
                )
                sends = defaultdict(list)
                for ((m, nid, chunk), idxs), (cm, cid) in zip(
                    need.items(), made
                ):
                    sends[m].append(("link", nid, chunk, cm, cid))
                    for idx in idxs:
                        child_of[idx] = (cm, cid)
                self.system.round(self._kernel, sends)
            # phase 3: advance; finalize keys ending at this level
            nxt = []
            finals: dict[int, list] = defaultdict(list)
            for idx, ((m, nid), chunks, pos, key, v) in enumerate(active):
                child = child_of[idx]
                assert child is not None
                if pos + 1 >= len(chunks):
                    finals[child[0]].append(("set_key", child[1], v, True))
                else:
                    nxt.append((child, chunks, pos + 1, key, v))
            if finals:
                replies = self.system.round(self._kernel, finals)
                for reply in replies.values():
                    new_count += sum(1 for was in reply if not was)
            active = nxt
        self.num_keys += new_count
        return new_count

    def _mark_root_key(self, key: BitString, value: Any) -> bool:
        if len(key) != 0:
            return False
        replies = self.system.round(
            self._kernel, {self.root[0]: [("set_key", self.root[1], value, True)]}
        )
        if not replies[self.root[0]][0]:
            self.num_keys += 1
        return True

    def delete_batch(self, keys: Sequence[BitString]) -> int:
        """Unmark keys (lazy deletion: nodes are not reclaimed, the
        standard trade-off for concurrent radix trees)."""
        removed = 0
        active = {
            i: (self.root[0], self.root[1], self._chunks(k), 0)
            for i, k in enumerate(keys)
            if len(k) > 0
        }
        for i, k in enumerate(keys):
            if len(k) == 0:
                replies = self.system.round(
                    self._kernel,
                    {self.root[0]: [("set_key", self.root[1], None, False)]},
                )
                removed += sum(1 for was in replies[self.root[0]] if was)
        targets: dict[int, tuple[int, int]] = {}
        while active:
            nxt = {}
            for i, (child, _k, _v, _d) in self._descend(active):
                _m, _nid, chunks, pos = active[i]
                if child is None:
                    continue  # key absent
                if pos + 1 >= len(chunks):
                    targets[i] = child
                else:
                    nxt[i] = (child[0], child[1], chunks, pos + 1)
            active = nxt
        if targets:
            sends = defaultdict(list)
            for i, (m, nid) in targets.items():
                sends[m].append(("set_key", nid, None, False))
            replies = self.system.round(self._kernel, sends)
            for reply in replies.values():
                removed += sum(1 for was in reply if was)
        self.num_keys -= removed
        return removed

    def subtree_batch(
        self, prefixes: Sequence[BitString]
    ) -> list[list[tuple[BitString, Any]]]:
        """Collect all keys under each prefix by frontier expansion —
        O(n_S) rounds in the worst case (Table 1's Subtree column)."""
        out: list[list[tuple[BitString, Any]]] = [[] for _ in prefixes]
        for qi, prefix in enumerate(prefixes):
            if len(prefix) % self.span != 0:
                # only chunk-aligned prefixes supported by a span-s tree
                raise ValueError(
                    f"prefix length must be a multiple of span={self.span}"
                )
            # descend to the prefix node
            cur = self.root
            ok = True
            for chunk, width in self._chunks(prefix):
                replies = self.system.round(
                    self._kernel, {cur[0]: [("descend", cur[1], chunk, False)]}
                )
                child = replies[cur[0]][0][0]
                if child is None:
                    ok = False
                    break
                cur = child
            if not ok:
                continue
            frontier = [(cur, prefix)]
            while frontier:
                pairs = self.system.exchange(self._kernel, [
                    (m, ("read", nid), s) for (m, nid), s in frontier
                ])
                frontier = []
                for s, (children, is_key, value, _d) in pairs:
                    if is_key:
                        out[qi].append((s, value))
                    for chunk, child in children.items():
                        cs = s + BitString.from_int(chunk, self.span)
                        frontier.append((child, cs))
            out[qi].sort(key=lambda kv: kv[0])
        return out

    def space_words(self) -> int:
        return self.system.total_memory_words()
