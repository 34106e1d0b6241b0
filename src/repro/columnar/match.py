"""Matching primitives over columnar fragments — the matching of every
PIM-trie, whatever its configuration:

* :func:`hash_match_columnar` — HashMatching.  With pivots (§4.4.2)
  the per-edge pivot enumeration, fingerprint computation, and table
  membership probes run as whole-array numpy operations; only lanes
  whose fingerprint actually hits the two-layer table fall back to the
  scalar redo loop (range check, S_last verification, §4.4.3
  next-shallower chain) — those are rare and carry the metric charges.
  Without pivots it is Algorithm 3's per-bit probe (ablation E14).

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

import numpy as np

from .m61 import extract_window
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
    #: query-trie node uid -> (absolute matched depth,
    #: landed-on-data-compressed-node, data node stores a key, value)
    node_matches: dict[int, tuple[int, bool, bool, object]] = field(default_factory=dict)
    #: query-trie node uid -> absolute divergence depth for the whole
    #: subtree hanging below that node
    cutoffs: dict[int, int] = field(default_factory=dict)
    #: deepest absolute depth matched anywhere in this block (for LCP)
    deepest: int = 0

    def word_cost(self) -> int:
        return 1 + 2 * len(self.node_matches) + 2 * len(self.cutoffs)


def _l2cache(table: RecordTable):
    """Sorted layer2 fingerprint keys + aligned family list."""
    cache = table._l2cache
    if cache is None:
        keys = sorted(table.layer2)
        karr = np.array(keys, dtype=np.uint64)
        fams = [table.layer2[k] for k in keys]
        cache = (karr, fams)
        table._l2cache = cache
    return cache


def _family_cols(fam: _Family):
    """Columnar view of one s_pre family, in `_scan_list` order
    (length-descending, ties stable): member lengths/values as numpy
    lanes for the vectorized probe, plus scalar lists for the §4.4.3
    redo loop — depths, S_last windows, and the next-shallower
    chain (``chain[i]`` = first later member that is a proper prefix of
    member ``i``, or -1)."""
    cols = fam._cols
    if cols is None:
        scan = fam._scan_list()
        lens = [t[0] for t in scan]
        vals = [t[1] for t in scan]
        recs = [t[2] for t in scan]
        depths = [r.depth for r in recs]
        sl_lens = [len(r.s_last) for r in recs]
        sl_vals = [r.s_last.value for r in recs]
        # dict probe for the scalar path: member index by (length,
        # value), first occurrence wins (= scan-order tie-break), probed
        # in descending length order (= deepest-prefix-first)
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
        cols = (
            np.array(lens, dtype=np.int64),
            np.array(vals, dtype=np.uint64),
            depths,
            sl_lens,
            sl_vals,
            chain,
            recs,
            probe,
        )
        fam._cols = cols
    return cols


def warm_table(table: RecordTable) -> None:
    """Build every columnar probe cache of ``table`` in one go.

    The sorted layer2 key array and per-family scan/chain columns are
    pure functions of the record set.  The match kernel calls this when
    a fragment first probes a piece at its current version — never at
    mutation time, where most tables are discarded unprobed by the next
    HVM rebuild.  Metric accounting is unaffected: caches never carry
    ticks."""
    _l2cache(table)
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
    """HashMatching over many (fragment, table) pairs at once.

    With pivots, the per-lane pivot enumeration, fingerprint gather,
    table-membership probe, and per-family prefix scan all run as single
    whole-array numpy passes over every fragment sharing a table (one
    BSP round delivers a module's whole request list, so a kernel can
    fuse them).  Returns ``(cuts, checked, rejected, ticks)`` per input
    pair, in input order — the caller charges ``ticks`` and folds the
    collision counts so per-request replies stay byte-identical to the
    one-call-per-fragment path.
    """
    _bind_core()
    out: list = [None] * len(items)
    groups: dict = {}
    for i, (frag, table) in enumerate(items):
        if frag.num_edges == 0:
            out[i] = ([], 0, 0, 0)
            continue
        if not use_pivots:
            out[i] = _match_per_bit(frag, table, hasher, verify)
            continue
        if frag.num_edges <= _SCALAR_EDGE_LIMIT:
            # small fragments: python dict probes beat the fixed cost of
            # a whole-array pass (most piece-scope respans land here)
            out[i] = _match_scalar(frag, table, hasher, verify)
            continue
        key = (id(table), id(frag.arena))
        g = groups.get(key)
        if g is None:
            groups[key] = (table, frag.arena, [i])
        else:
            g[2].append(i)
    for table, arena, idxs in groups.values():
        _match_group(items, idxs, table, arena, hasher, verify, out)
    return out


# Below this many edges the scalar path wins; above it the fused numpy
# pass amortizes its fixed overhead across lanes.
_SCALAR_EDGE_LIMIT = 256

def _match_scalar(frag, table, hasher, verify) -> tuple[list, int, int, int]:
    """One fragment, pure python — byte-for-byte the `_match_group`
    charges (per-edge scan ticks, +6 per table-hit pivot examined
    deepest-first, +6 per next-shallower chain step, identical
    checked/rejected accounting and cut records)."""
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
            for ln, d2 in cols[7]:
                if ln > take:
                    continue
                m = d2.get(qv >> (take - ln))
                if m is not None:
                    cand = m
                    break
            accepted = False
            if cand >= 0:
                depths, sl_lens, sl_vals, chain, recs = cols[2:7]
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


def _match_group(items, idxs, table, arena, hasher, verify, out) -> None:
    """One fused pass over every fragment probing one table."""
    frags = [items[i][0] for i in idxs]
    nf = len(frags)
    ne = np.fromiter((f.num_edges for f in frags), np.int64, nf)
    if nf == 1:
        f0 = frags[0]
        src_abs, dst_abs = f0.e_src_abs, f0.e_dst_abs
        keys_e, enc_e = f0.e_key, f0.e_enc
        anchor_e = f0.aligned_base_depth
    else:
        src_abs = np.concatenate([f.e_src_abs for f in frags])
        dst_abs = np.concatenate([f.e_dst_abs for f in frags])
        keys_e = np.concatenate([f.e_key for f in frags])
        enc_e = np.concatenate([f.e_enc for f in frags])
        anchor_e = np.repeat(
            np.fromiter((f.aligned_base_depth for f in frags), np.int64, nf),
            ne,
        )
    starts_e = np.zeros(nf, dtype=np.int64)
    np.cumsum(ne[:-1], out=starts_e[1:])

    # ---- lane fan-out: one lane per w-aligned pivot per edge ---------
    top = np.maximum((src_abs // 64) * 64, anchor_e)
    counts = (dst_abs - top) // 64 + 1
    lab = dst_abs - src_abs
    per_edge_ticks = np.maximum(1, lab // 64 + counts)
    base_ticks = np.add.reduceat(per_edge_ticks, starts_e)
    if not table.layer2:
        for k, i in enumerate(idxs):
            out[i] = ([], 0, 0, int(base_ticks[k]))
        return
    total = int(counts.sum())
    edge_of = np.repeat(np.arange(len(counts)), counts)
    lane_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pivot = top[edge_of] + 64 * (
        np.arange(total) - np.repeat(lane_start, counts)
    )
    fp = arena.fp_matrix(hasher)
    fps = fp[keys_e[edge_of], pivot // 64]

    # ---- membership probe against the two-layer table ----------------
    karr, fams = _l2cache(table)
    idx = np.searchsorted(karr, fps)
    idxc = np.minimum(idx, len(karr) - 1)
    hit = karr[idxc] == fps
    if not hit.any():
        for k, i in enumerate(idxs):
            out[i] = ([], 0, 0, int(base_ticks[k]))
        return

    hl = np.flatnonzero(hit)
    e_of = edge_of[hl]
    piv = pivot[hl]
    l_dst = dst_abs[e_of]
    l_src = src_abs[e_of]
    l_key = keys_e[e_of]
    take = np.minimum(64, l_dst - piv)
    # a zero-length window must not index one word past a key's storage
    start = np.where(take > 0, piv, 0)
    qv = extract_window(
        arena.key_words[l_key],
        start.astype(np.uint64),
        take.astype(np.uint64),
    )
    fam_idx = idxc[hl]

    # ---- vectorized per-family probe: deepest member prefixing each
    # lane's query window (the §4.4.2 family query, all lanes at once)
    probe = np.full(len(hl), -1, dtype=np.int64)
    for fi in np.unique(fam_idx):
        sel = fam_idx == fi
        lens_np, vals_np = _family_cols(fams[fi])[:2]
        tk = take[sel][:, None]
        qq = qv[sel][:, None]
        in_range = lens_np[None, :] <= tk
        shift = tk - lens_np[None, :]
        big = shift >= 64  # only take==64, len==0: window >> 64 is 0
        shifted = qq >> np.where(big | ~in_range, 0, shift).astype(np.uint64)
        shifted = np.where(big, np.uint64(0), shifted)
        m_ok = in_range & (shifted == vals_np[None, :])
        any_ok = m_ok.any(axis=1)
        probe[sel] = np.where(any_ok, np.argmax(m_ok, axis=1), -1)

    # ---- scalar redo per hit lane, deepest pivot first per edge ------
    frag_of_edge = np.repeat(np.arange(nf), ne)
    e_list = e_of.tolist()
    probe_list = probe.tolist()
    fam_list = fam_idx.tolist()
    dst_list = l_dst.tolist()
    src_list = l_src.tolist()
    key_list = l_key.tolist()
    enc_list = enc_e
    key_window = arena.key_window
    cuts_of = [[] for _ in range(nf)]
    checked_of = [0] * nf
    rejected_of = [0] * nf
    lane_ticks_of = [0] * nf
    i = 0
    n = len(e_list)
    while i < n:
        e = e_list[i]
        j = i
        while j < n and e_list[j] == e:
            j += 1
        k = int(frag_of_edge[e])
        lane_ticks = 0
        accepted = False
        for t in range(j - 1, i - 1, -1):  # lanes are pivot-ascending
            lane_ticks += 6
            cand = probe_list[t]
            if cand >= 0:
                depths, sl_lens, sl_vals, chain, recs = _family_cols(
                    fams[fam_list[t]]
                )[2:7]
                d_abs = dst_list[t]
                s_abs = src_list[t]
                ki = key_list[t]
                while True:
                    d = depths[cand]
                    ok = s_abs < d <= d_abs
                    if ok and verify:
                        checked_of[k] += 1
                        want = sl_lens[cand]
                        if key_window(ki, d - want, d) != sl_vals[cand]:
                            rejected_of[k] += 1
                            ok = False
                    if ok:
                        cuts_of[k].append(
                            _MatchCut(
                                int(enc_list[e]), int(d_abs - d), int(d),
                                recs[cand],
                            )
                        )
                        accepted = True
                        break
                    nxt = chain[cand]
                    lane_ticks += 6
                    if nxt < 0 or depths[nxt] >= depths[cand]:
                        break
                    cand = nxt
            if accepted:
                break
        lane_ticks_of[k] += lane_ticks
        i = j
    for k, i in enumerate(idxs):
        out[i] = (
            cuts_of[k],
            checked_of[k],
            rejected_of[k],
            int(base_ticks[k]) + lane_ticks_of[k],
        )


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
    deepest = block_root_depth
    stack: list = []
    # comparison ticks accumulate locally and post once at the end —
    # the metrics layer records per-round sums, so the total is what
    # parity sees, and one callback beats one per label comparison.
    # node/cutoff recording is likewise inlined: most calls handle a
    # one-or-two-edge fragment, so per-call setup is the hot cost.
    ticks = 0

    def descend(ei, dnode, pos):
        nonlocal ticks, deepest
        _, src_abs, dst_abs, enc, key = edges[ei]
        lab_len = dst_abs - src_abs
        lab_val = key_window(key, src_abs, dst_abs)
        cur = dnode
        while True:
            if cur.mirror_child is not None:
                # child-block root: deeper matching belongs to that block
                d = src_abs + pos
                if enc >= 0:
                    co[enc] = d
                if d > deepest:
                    deepest = d
                return
            if pos == lab_len:
                if enc >= 0:
                    hk = cur.is_key
                    nm[enc] = (
                        dst_abs, True, hk, cur.value if hk else None
                    )
                    if dst_abs > deepest:
                        deepest = dst_abs
                    stack.append((ch_map.get(enc, ()), cur))
                else:
                    stack.append(((), cur))
                return
            dedge = cur.children[(lab_val >> (lab_len - 1 - pos)) & 1]
            if dedge is None:
                d = src_abs + pos
                if enc >= 0:
                    co[enc] = d
                if d > deepest:
                    deepest = d
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
                    nm[enc] = (dst_abs, False, False, None)
                    if dst_abs > deepest:
                        deepest = dst_abs
                within(ei, dedge, k)
                return
            d = src_abs + pos + k
            if enc >= 0:
                co[enc] = d
            if d > deepest:
                deepest = d
            return

    def within(ei, dedge, offset):
        # the query node of edge `ei` sits `offset` bits down `dedge`;
        # walk each of its child edges against the remaining direction
        nonlocal ticks, deepest
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
            if k == cl:
                if k == rl2:
                    dst = dedge.dst
                    if c_enc >= 0:
                        hk = dst.is_key
                        nm[c_enc] = (
                            c_dst_abs, True, hk,
                            dst.value if hk else None,
                        )
                        if c_dst_abs > deepest:
                            deepest = c_dst_abs
                        stack.append((ch_map.get(c_enc, ()), dst))
                    else:
                        stack.append(((), dst))
                else:
                    if c_enc >= 0:
                        nm[c_enc] = (c_dst_abs, False, False, None)
                        if c_dst_abs > deepest:
                            deepest = c_dst_abs
                    within(ci, dedge, offset + k)
            elif k == rl2:
                # consumed the data edge; continue at the node below
                descend(ci, dedge.dst, k)
            else:
                d = qd + k
                if c_enc >= 0:
                    co[c_enc] = d
                if d > deepest:
                    deepest = d

    if -1 in ch_map:
        root_edges = ch_map[-1]
    elif frag.base_back == 0:
        root_edges = ch_map.get(frag.base_row, [])
    else:
        root_edges = []
    root = block_trie.root
    if frag.base_back == 0 and not frag.base_is_boundary:
        hk = root.is_key
        nm[frag.base_row] = (
            block_root_depth, True, hk, root.value if hk else None
        )
    stack.append((root_edges, root))
    while stack:
        edges_here, dnode = stack.pop()
        for ei in edges_here:
            descend(ei, dnode, 0)
    if ticks:
        tick(ticks)
    return LocalMatchResult(
        block_id=block_id, node_matches=nm, cutoffs=co, deepest=deepest
    )
