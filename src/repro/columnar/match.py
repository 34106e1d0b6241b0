"""Matching primitives over columnar fragments — the matching of every
PIM-trie, whatever its configuration:

* :func:`hash_match_columnar` — HashMatching.  With pivots (§4.4.2)
  each edge's w-aligned pivots are probed deepest first: the pivot's
  fingerprint (a row of the arena's fingerprint matrix) addresses the
  two-layer table, a per-family dict probe finds the deepest member
  prefixing the query window, and the range check, S_last verification
  and §4.4.3 next-shallower chain settle the cut.  Without pivots it is
  Algorithm 3's per-bit probe (ablation E14).

* :func:`local_match_columnar` — the simultaneous DFS of a fragment
  against a data block, walking the *object* data-block trie with
  machine-int query labels taken from the arena's packed key words (no
  per-fragment BitString materialization).

Both charge exactly the work ticks, verification counts, and cut
positions of the object pipeline kept in ``tests/reference`` — that
equivalence is what the columnar metric-parity suite asserts
byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .span import ColumnarFragment

__all__ = [
    "LocalMatchResult",
    "hash_match_columnar",
    "hash_match_columnar_many",
    "local_match_columnar",
]

# MatchCut is bound on first use rather than at import time:
# repro.core.__init__ imports pimtrie, which imports this package, so a
# module-level ``from ..core.hashmatch import ...`` here would complete
# the cycle when repro.columnar is imported first.
_MatchCut = None


def _bind_core():
    global _MatchCut
    if _MatchCut is None:
        from ..core.hashmatch import MatchCut

        _MatchCut = MatchCut


@dataclass
class LocalMatchResult:
    """Outcome of matching one query fragment against one data block."""

    block_id: int
    #: query-trie node uid -> (absolute matched depth, data node
    #: stores a key, value)
    node_matches: dict[int, tuple[int, bool, object]] = field(default_factory=dict)
    #: query-trie node uid -> absolute divergence depth for the whole
    #: subtree hanging below that node
    cutoffs: dict[int, int] = field(default_factory=dict)

    def word_cost(self) -> int:
        return 1 + 2 * len(self.node_matches) + 2 * len(self.cutoffs)


def _family_cols(fam: _Family):
    """Columnar view of one s_pre family, in `_scan_list` order
    (length-descending, ties stable): member depths, S_last windows,
    the next-shallower chain (``chain[i]`` = first later member that is
    a proper prefix of member ``i``, or -1), the records, and the
    deepest-prefix dict probe."""
    cols = fam._cols
    if cols is None:
        scan = fam._scan_list()
        lens = [t[0] for t in scan]
        vals = [t[1] for t in scan]
        recs = [t[2] for t in scan]
        depths = [r.depth for r in recs]
        sl_lens = [len(r.s_last) for r in recs]
        sl_vals = [r.s_last.value for r in recs]
        # dict probe: member index by (length, value), first occurrence
        # wins (= scan-order tie-break), probed in descending length
        # order (= deepest-prefix-first)
        by_len: dict[int, dict[int, int]] = {}
        for idx, (ln, val) in enumerate(zip(lens, vals)):
            d2 = by_len.setdefault(ln, {})
            if val not in d2:
                d2[val] = idx
        probe = sorted(by_len.items(), reverse=True)
        # a strictly shorter member sits later in the scan, so the same
        # probe answers the next-shallower question per member
        chain = []
        for ln, val in zip(lens, vals):
            nxt = -1
            for l2, d2 in probe:
                if l2 < ln:
                    nxt = d2.get(val >> (ln - l2), -1)
                    if nxt >= 0:
                        break
            chain.append(nxt)
        cols = (depths, sl_lens, sl_vals, chain, recs, probe)
        fam._cols = cols
    return cols


def warm_table(table: RecordTable) -> None:
    """Build the probe columns of every family of ``table`` that has
    none.

    They are pure functions of the record set.  The master's kernel
    calls this when a full message replaces its table; every other
    family is left to :func:`_match_pivots`, which builds its columns
    on its first probe.  Metric accounting is unaffected: caches never
    carry ticks."""
    for fam in table.layer2.values():
        if fam._cols is None:
            _family_cols(fam)


def hash_match_columnar(
    frag: ColumnarFragment,
    table: RecordTable,
    hasher,
    *,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog] = None,
    use_pivots: bool,
) -> list[MatchCut]:
    """HashMatching over one columnar fragment.

    With pivots, per edge ``max(1, label//w + n_pivots)``, plus 6 per
    examined hit lane and 6 per next-shallower step; without, per edge
    ``max(1, label//w + label)`` plus 1 per probed position.
    ``checked``/``rejected`` count §4.4.3 verifications.  Cuts come out
    in edge order, at most one per edge, the deepest hit first.
    """
    if frag.num_edges == 0:
        return []
    ((cuts, checked, rejected, ticks),) = hash_match_columnar_many(
        [(frag, table)], hasher, verify=verify, use_pivots=use_pivots
    )
    tick(ticks)
    if log is not None:
        log.checked += checked
        log.rejected += rejected
    return cuts


def hash_match_columnar_many(
    items, hasher, *, verify: bool, use_pivots: bool
) -> list[tuple[list, int, int, int]]:
    """HashMatching over a list of (fragment, table) pairs, one
    fragment at a time — a module's request list from one BSP round.

    Returns ``(cuts, checked, rejected, ticks)`` per input pair, in input
    order; the caller charges ``ticks`` and folds the collision counts,
    so per-request replies equal the one-call-per-fragment path's.
    """
    _bind_core()
    match = _match_pivots if use_pivots else _match_per_bit
    return [
        match(frag, table, hasher, verify) if frag.num_edges else ([], 0, 0, 0)
        for frag, table in items
    ]


def _match_pivots(frag, table, hasher, verify) -> tuple[list, int, int, int]:
    """Pivot HashMatching of one fragment: per edge the scan ticks,
    +6 per table-hit pivot examined deepest-first, +6 per
    next-shallower chain step."""
    arena = frag.arena
    layer2 = table.layer2
    key_window = arena.key_window
    anchor = frag.aligned_base_depth
    cuts: list = []
    checked = rejected = ticks = 0
    fpl = arena.fp_lists(hasher) if layer2 else None
    for _src, s_abs, d_abs, enc, key in frag.edges:
        top = (s_abs // 64) * 64
        if top < anchor:
            top = anchor
        cnt = (d_abs - top) // 64 + 1
        t = (d_abs - s_abs) // 64 + cnt
        ticks += t if t > 1 else 1
        if not layer2:
            continue
        fp_row = fpl[key]
        for i in range(cnt - 1, -1, -1):  # deepest pivot first
            piv = top + (i << 6)
            fam = layer2.get(fp_row[piv >> 6])
            if fam is None:
                continue
            ticks += 6
            cols = fam._cols
            if cols is None:
                cols = _family_cols(fam)
            take = d_abs - piv
            if take > 64:
                take = 64
            qv = key_window(key, piv, piv + take) if take > 0 else 0
            cand = -1
            for ln, d2 in cols[5]:
                if ln > take:
                    continue
                m = d2.get(qv >> (take - ln))
                if m is not None:
                    cand = m
                    break
            accepted = False
            if cand >= 0:
                depths, sl_lens, sl_vals, chain, recs = cols[:5]
                while True:
                    d = depths[cand]
                    ok = s_abs < d <= d_abs
                    if ok and verify:
                        checked += 1
                        want = sl_lens[cand]
                        if key_window(key, d - want, d) != sl_vals[cand]:
                            rejected += 1
                            ok = False
                    if ok:
                        cuts.append(
                            _MatchCut(enc, d_abs - d, d, recs[cand])
                        )
                        accepted = True
                        break
                    nxt = chain[cand]
                    ticks += 6
                    if nxt < 0 or depths[nxt] >= depths[cand]:
                        break
                    cand = nxt
            if accepted:
                break
    return cuts, checked, rejected, ticks


def _match_per_bit(frag, table, hasher, verify) -> tuple[list, int, int, int]:
    """Algorithm 3 without pivots (ablation E14): fingerprint every
    position of an edge through ``hasher`` and probe ``table.by_fp``
    bottom-up.  Per edge ``max(1, label//64 + label)`` ticks for the
    digests plus 1 per probed position; the first record of the right
    depth that passes the S_last check is the edge's cut."""
    arena = frag.arena
    by_fp = table.by_fp
    key_window = arena.key_window
    empty = hasher.empty()
    cuts: list = []
    checked = rejected = ticks = 0
    for _src, s_abs, d_abs, enc, key in frag.edges:
        lab = d_abs - s_abs
        t = lab // 64 + lab
        ticks += t if t > 1 else 1
        fps = hasher.pivot_fingerprints(
            empty, arena.keys[key], range(s_abs + 1, d_abs + 1)
        )
        cut = None
        for d in range(d_abs, s_abs, -1):
            ticks += 1
            for rec in by_fp.get(fps[d - s_abs - 1], ()):
                if rec.depth != d:
                    continue
                if verify:
                    checked += 1
                    want = len(rec.s_last)
                    if key_window(key, d - want, d) != rec.s_last.value:
                        rejected += 1
                        continue
                cut = _MatchCut(enc, d_abs - d, d, rec)
                break
            if cut is not None:
                cuts.append(cut)
                break
    return cuts, checked, rejected, ticks


def local_match_columnar(
    frag: ColumnarFragment,
    block_trie,
    block_id: int,
    block_root_depth: int,
    *,
    tick: Callable[[int], None],
) -> LocalMatchResult:
    """Simultaneous DFS of a columnar fragment against an object data
    block (paper §4.3 end / §4.4.2 "Efficient Local Matching"): mirror
    cutoffs before node landings, one tick per 64-bit word compared,
    node/cutoff records keyed by arena rows.  Matching stops at
    data-side mirror nodes (child block roots): deeper structure is the
    child block's own match."""
    if frag.base_depth != block_root_depth:
        raise ValueError(
            "fragment base must coincide with the block root "
            f"({frag.base_depth} != {block_root_depth})"
        )
    edges = frag.edges
    key_window = frag.arena.key_window
    ch_map = frag.children_map()
    nm: dict = {}
    co: dict = {}
    stack: list = []
    # comparison ticks accumulate locally and post once at the end —
    # the metrics layer records per-round sums, so the total is what
    # parity sees, and one callback beats one per label comparison.
    # node/cutoff recording is likewise inlined: most calls handle a
    # one-or-two-edge fragment, so per-call setup is the hot cost.
    ticks = 0

    def descend(ei, dnode, pos):
        nonlocal ticks
        _, src_abs, dst_abs, enc, key = edges[ei]
        lab_len = dst_abs - src_abs
        lab_val = key_window(key, src_abs, dst_abs)
        cur = dnode
        while True:
            if cur.mirror_child is not None:
                # child-block root: deeper matching belongs to that block
                if enc >= 0:
                    co[enc] = src_abs + pos
                return
            if pos == lab_len:
                if enc >= 0:
                    hk = cur.is_key
                    nm[enc] = (dst_abs, hk, cur.value if hk else None)
                    stack.append((ch_map.get(enc, ()), cur))
                else:
                    stack.append(((), cur))
                return
            dedge = cur.children[(lab_val >> (lab_len - 1 - pos)) & 1]
            if dedge is None:
                if enc >= 0:
                    co[enc] = src_abs + pos
                return
            dlab = dedge.label
            dv, dl = dlab.value, len(dlab)
            rl = lab_len - pos
            rv = lab_val & ((1 << rl) - 1)
            n = rl if rl < dl else dl
            x = (rv >> (rl - n)) ^ (dv >> (dl - n))
            k = n if x == 0 else n - x.bit_length()
            ticks += 1 if k <= 64 else -(-k // 64)
            if k == dl:
                cur = dedge.dst
                pos += k
                continue
            if pos + k == lab_len:
                # query node lands inside this data edge (hidden match)
                if enc >= 0:
                    nm[enc] = (dst_abs, False, None)
                within(ei, dedge, k)
                return
            if enc >= 0:
                co[enc] = src_abs + pos + k
            return

    def within(ei, dedge, offset):
        # the query node of edge `ei` sits `offset` bits down `dedge`;
        # walk each of its child edges against the remaining direction
        nonlocal ticks
        qd = edges[ei][2]
        dlab = dedge.label
        rl2 = len(dlab) - offset
        rv2 = dlab.value & ((1 << rl2) - 1)
        enc_p = edges[ei][3]
        for ci in (ch_map.get(enc_p, ()) if enc_p >= 0 else ()):
            _, c_src_abs, c_dst_abs, c_enc, c_key = edges[ci]
            cl = c_dst_abs - c_src_abs
            cv = key_window(c_key, c_src_abs, c_dst_abs)
            n = cl if cl < rl2 else rl2
            x = (cv >> (cl - n)) ^ (rv2 >> (rl2 - n))
            k = n if x == 0 else n - x.bit_length()
            ticks += 1 if k <= 64 else -(-k // 64)
            if k == rl2:
                # consumed the data edge: descend from the node below,
                # which stops at a mirror before it records a landing
                descend(ci, dedge.dst, k)
            elif k == cl:
                # still inside the data edge
                if c_enc >= 0:
                    nm[c_enc] = (c_dst_abs, False, None)
                within(ci, dedge, offset + k)
            elif c_enc >= 0:
                co[c_enc] = qd + k

    if -1 in ch_map:
        root_edges = ch_map[-1]
    elif frag.base_back == 0:
        root_edges = ch_map.get(frag.base_row, [])
    else:
        root_edges = []
    root = block_trie.root
    if frag.base_back == 0 and not frag.base_is_boundary:
        hk = root.is_key
        nm[frag.base_row] = (block_root_depth, hk, root.value if hk else None)
    stack.append((root_edges, root))
    while stack:
        edges_here, dnode = stack.pop()
        for ei in edges_here:
            descend(ei, dnode, 0)
    if ticks:
        tick(ticks)
    return LocalMatchResult(block_id=block_id, node_matches=nm, cutoffs=co)
