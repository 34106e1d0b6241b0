"""Columnar query fragments: Span/respan over arena rows.

A :class:`ColumnarFragment` is the flat-array form of a query-trie
fragment (paper §4.1, §4.3).  Where an object fragment (the reference
in ``tests/reference/query.py``) clones a sub-trie of per-node
objects, the columnar fragment is a view:
edges are tuples in *global* coordinates (absolute bit depths,
arena rows), so nothing is copied or rebased — ``_respan`` becomes pure
index arithmetic and every hash or bit-window a fragment needs comes
from the arena's packed key words and fingerprint matrix.

Encoding.  An edge's destination ``enc`` is either an arena row
(``>= 0``, a mapped copy of that query node) or ``-(k+1)`` referencing
``stops[k]`` — a *boundary* position ``back`` bits up the edge entering
``stops[k].row``, exactly the unmapped boundary nodes `_clone_from`
creates at cut positions.  Cut positions returned by hash matching are
resolved back to global (row, back) pairs through the same table, which
is what lets respans nest without any coordinate rebasing.

Equivalences to the object reference (asserted by the differential
tests): fragment word costs equal ``3 + PatriciaTrie.word_cost()`` of
the corresponding clone; edge enumeration order equals ``iter_edges``
(preorder, child-0 first); span dedup keeps the first occurrence per
node with the smallest ``back``; fragments come out in kept-cut order
(the master-match RNG draw order depends on it).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from ..trie.nodes import TrieNode
from .arena import ColNodeRef, ColPathPos, QueryArena

__all__ = [
    "ColumnarFragment",
    "span_columnar",
    "respan_columnar",
]


class _ColOrigin:
    """Duck-typed ``origin`` map: row encs are mapped to themselves,
    boundary encs (< 0) to nothing — the composition of `_clone_from`
    mappings over any chain of respans is the identity on rows."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def get(self, enc, default=None):
        if isinstance(enc, int) and 0 <= enc < self._n:
            return enc
        return default


class ColumnarFragment:
    """A piece of the arena's query trie, in global coordinates."""

    __slots__ = (
        "arena",
        "base_row",
        "base_back",
        "base_is_boundary",
        "stops",
        "edges",
        "_origin",
        "_base_pos",
        "_wc",
        "_children",
    )

    def __init__(
        self,
        arena: QueryArena,
        base_row: int,
        base_back: int,
        base_is_boundary: bool,
        stops: list[tuple[int, int]],
        edges: list[tuple[int, int, int, int, int]],
    ):
        # edges: (src_row, src_abs, dst_abs, enc, key_id); src_row == -1
        # for the tail edge entering the base copy.  The wrapper objects
        # below are materialized lazily.
        self.arena = arena
        self.base_row = base_row
        self.base_back = base_back
        self.base_is_boundary = base_is_boundary
        self.stops = stops
        self.edges = edges
        self._origin = None
        self._base_pos = None
        self._wc: Optional[int] = None
        self._children = None

    @property
    def origin(self) -> _ColOrigin:
        o = self._origin
        if o is None:
            o = self._origin = _ColOrigin(self.arena.n_nodes)
        return o

    @property
    def base_pos(self) -> ColPathPos:
        bp = self._base_pos
        if bp is None:
            bp = self._base_pos = ColPathPos(
                ColNodeRef(self.base_row), self.base_back
            )
        return bp

    @property
    def base_depth(self) -> int:
        return self.arena.depth_list[self.base_row] - self.base_back

    @property
    def aligned_base_depth(self) -> int:
        return (self.base_depth // 64) * 64

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def word_cost(self) -> int:
        """Identical to ``3 + trie.word_cost()`` of the object clone:
        per node 2 + is_key (boundary nodes and the synthetic root above
        a hidden base carry no key), per edge 1 + ceil(label / 64)."""
        wc = self._wc
        if wc is not None:
            return wc
        is_key_l = self.arena.is_key_list
        edges = self.edges
        if self.base_back == 0 or (self.base_is_boundary and not edges):
            # the base copy is itself the clone root
            root_cost = 2 + (
                0 if self.base_is_boundary else is_key_l[self.base_row]
            )
        else:
            root_cost = 2  # synthetic root; base copy is a tail-edge dst
        total = root_cost
        for _src, s_abs, d_abs, enc, _key in edges:
            total += (
                3
                + -((s_abs - d_abs) // 64)
                + (is_key_l[enc] if enc >= 0 else 0)
            )
        wc = 3 + max(1, total)
        self._wc = wc
        return wc

    # ------------------------------------------------------------------
    def children_map(self) -> dict[int, list[int]]:
        """Edge indices by source row (-1 = synthetic root / tail edge),
        child-0 first — edge arrays are already in iter_edges order."""
        ch = self._children
        if ch is None:
            ch = {}
            for i, e in enumerate(self.edges):
                ch.setdefault(e[0], []).append(i)
            self._children = ch
        return ch

    def resolve(self, enc: int, back: int) -> tuple[int, int]:
        """A cut at ``back`` bits above ``enc`` -> global (row, back)."""
        if enc >= 0:
            return enc, back
        row, sback = self.stops[-enc - 1]
        return row, sback + back

    def __repr__(self) -> str:
        return (
            f"ColumnarFragment(base=({self.base_row},{self.base_back}), "
            f"edges={self.num_edges}, words={self.word_cost()})"
        )


# ----------------------------------------------------------------------
# Span / respan
# ----------------------------------------------------------------------
def _dedup(cuts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """First-occurrence order per row, smallest back wins (two cuts on
    one entering edge delimit a non-critical block; keep the deepest)."""
    by_row: dict[int, int] = {}
    for row, back in cuts:
        prev = by_row.get(row)
        if prev is None or back < prev:
            by_row[row] = back
    return list(by_row.items())


#: stable sort key grouping assembled edges by source row
_by_src = itemgetter(0)


def _assemble(arena, kept, edge_stream, base_info):
    """Shared fragment assembly for span and respan.

    ``kept`` — dedup cut positions (row, global back) in output order.
    ``edge_stream`` — candidate edges ``(src_row, src_abs, dst_abs,
    dst, key)`` with ``dst`` either ``("node", row)`` or ``("stop",
    row, stop_back)``, in destination-row ascending order within each
    source.  Each edge is routed to the fragment owning its source row
    and truncated where a deeper kept cut lands inside it.
    ``base_info(row, back)`` — ``(is_boundary, stop_back_or_None)`` for
    a fragment base (respan bases can sit on inherited boundaries).
    """
    n = arena.n_nodes
    subtree_end = arena.subtree_end
    depth_l = arena.depth_list
    key_id_l = arena.key_id_list
    frag_of = np.full(n, -1, dtype=np.int64)
    order_of = {row: i for i, (row, _) in enumerate(kept)}
    for row in sorted(order_of):  # ascending: nested cuts overwrite
        frag_of[row : subtree_end[row]] = order_of[row]
    frag_of_l = frag_of.tolist()
    cut_back = dict(kept)

    # edge tuples already in fragment shape: (src_row, src_abs, dst_abs,
    # enc, key) — the destination row is recoverable from enc/stops
    edges: list[list] = [[] for _ in kept]
    stops: list[list] = [[] for _ in kept]
    for src_row, src_abs, dst_abs, dst, key in edge_stream:
        ow = frag_of_l[src_row]
        if ow < 0:
            continue  # above every cut: belongs to no fragment
        if dst[0] == "node":
            d = dst[1]
            g2 = cut_back.get(d)
            if g2 is not None and g2 > 0:
                # kept cut inside this edge: truncate, end on a boundary
                st = stops[ow]
                st.append((d, g2))
                edges[ow].append(
                    (src_row, src_abs, depth_l[d] - g2, -len(st), key)
                )
            else:
                # g2 == 0 keeps the node itself as a mapped leaf (its
                # subtree lives in its own fragment via frag_of)
                edges[ow].append((src_row, src_abs, dst_abs, d, key))
        else:
            row, sb = dst[1], dst[2]
            g2 = cut_back.get(row)
            st = stops[ow]
            if g2 is not None and g2 > sb:
                # kept cut above the inherited boundary: truncate more
                st.append((row, g2))
                edges[ow].append(
                    (src_row, src_abs, depth_l[row] - g2, -len(st), key)
                )
            else:
                # unchanged (a cut exactly at the boundary roots its own
                # single-node fragment; this edge is unaffected)
                st.append((row, sb))
                edges[ow].append(
                    (src_row, src_abs, dst_abs, -len(st), key)
                )

    out = []
    for i, (row, back) in enumerate(kept):
        fe = edges[i]
        st = stops[i]
        # stable by src: within a source, destination-row order is the
        # stream order, giving exactly iter_edges (preorder, child-0 1st)
        fe.sort(key=_by_src)
        is_boundary, sb = base_info(row, back)
        d = depth_l[row]
        tail = None
        if is_boundary:
            if back > sb:
                st.append((row, sb))
                tail = (-1, d - back, d - sb, -len(st), key_id_l[row])
        elif back > 0:
            tail = (-1, d - back, d, row, key_id_l[row])
        if tail is not None:
            fe.insert(0, tail)
        out.append(
            ColumnarFragment(arena, row, back, is_boundary, st, fe)
        )
    # uid lockstep with the object reference: its span would clone
    # one TrieNode per edge destination plus each fragment's root.  The
    # global uid counter seeds block/piece ids downstream (and set
    # iteration over uids orders block extraction), so columnar runs
    # must consume exactly the same uid stream.
    TrieNode._next_uid += sum(f.num_edges + 1 for f in out)
    return out


def span_columnar(
    arena: QueryArena, cuts: Sequence[ColPathPos]
) -> list[ColumnarFragment]:
    """``Span`` over the whole arena: one fragment per kept cut, running
    from the cut down to the kept cuts strictly below it."""
    kept = _dedup([(p.node.uid, p.back) for p in cuts])
    depth_l = arena.depth_list
    parent_l = arena.parent_list
    key_id_l = arena.key_id_list

    def edge_stream():
        for dst in range(1, arena.n_nodes):
            src = parent_l[dst]
            yield src, depth_l[src], depth_l[dst], ("node", dst), key_id_l[dst]

    return _assemble(
        arena, kept, edge_stream(), lambda row, back: (False, None)
    )


def respan_columnar(frag: ColumnarFragment, cuts) -> list:
    """Split ``frag`` at (fragment-coordinate) MatchCuts: resolve each
    to a global position and re-assemble sub-fragments from the parent's
    own edge arrays.  Returns (sub_fragment, cut) pairs in cut order."""
    resolved = [frag.resolve(cut.node_uid, cut.back) for cut in cuts]
    # hash matching emits at most one cut per edge and every fragment
    # node is the destination of exactly one edge, so dedup cannot merge
    # positions here; it only normalizes the ordering contract
    kept = _dedup(resolved)
    cut_of = dict(zip(resolved, cuts))

    stops = frag.stops

    def edge_stream():
        for src, src_abs, dst_abs, enc, key in frag.edges:
            if src < 0:
                continue  # the old tail edge lies above every cut
            if enc >= 0:
                dst = ("node", enc)
            else:
                row, sb = stops[-enc - 1]
                dst = ("stop", row, sb)
            yield src, src_abs, dst_abs, dst, key

    boundary_back = dict(stops)

    def base_info(row, back):
        sb = boundary_back.get(row)
        if sb is not None and back >= sb:
            return True, sb
        return False, None

    subs = _assemble(frag.arena, kept, edge_stream(), base_info)
    return [(sf, cut_of[(sf.base_row, sf.base_back)]) for sf in subs]
