"""HashMatching of the object reference pipeline: decompose a query
fragment by a table of block-root hashes (paper Algorithm 3, the §4.4.2
pivot / two-layer variant, and the §4.4.3 S_last verification).

For every compressed edge of the fragment, find the *deepest* position
(compressed or hidden node) whose node hash appears in the record table,
and emit a :class:`repro.core.hashmatch.MatchCut` for it.  Shallower
hits on the same edge delimit non-critical blocks and are skipped.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bits import WORD_BITS, BitString, HashValue
from repro.core.hashmatch import CollisionLog, MatchCut
from repro.core.meta import MetaRecord, RecordTable
from repro.trie import PatriciaTrie, TrieEdge, TrieNode

from .query import QueryFragment

__all__ = ["hash_match_fragment", "deepest_prefix", "next_shallower"]


# ----------------------------------------------------------------------
# the s_pre family's deepest-prefix queries (§4.4.2); members are < w
# bits, so a length-descending scan with machine-int prefix tests
# answers what the paper's z-fast / validity index answers in O(log w)
# ----------------------------------------------------------------------
def deepest_prefix(fam, q: BitString) -> Optional[MetaRecord]:
    """Deepest member of family ``fam`` that is a prefix of ``q``."""
    qlen = len(q)
    qv = q.value
    for ln, val, rec in fam._scan_list():
        if ln <= qlen and (qv >> (qlen - ln)) == val:
            return rec
    return None


def next_shallower(fam, s: BitString) -> Optional[MetaRecord]:
    """Deepest member that is a proper prefix of ``s`` (redo path)."""
    if len(s) == 0:
        return None
    return deepest_prefix(fam, s.prefix(len(s) - 1))


# ----------------------------------------------------------------------
# verification helper (§4.4.3): compare a record's S_last against the
# actual bits of the query path ending at the candidate position.
# ----------------------------------------------------------------------
def _path_bits_upto(
    frag: QueryFragment,
    node: TrieNode,
    back: int,
    want: int,
    frag_strings: dict[int, BitString],
) -> BitString:
    """Last ``want`` bits of the fragment path ending ``back`` bits above
    ``node``, extending into ``frag.base_tail`` if the window crosses
    the fragment base."""
    rel = frag_strings[node.uid]
    rel = rel.prefix(len(rel) - back)
    if len(rel) >= want:
        return rel.suffix_from(len(rel) - want)
    missing = want - len(rel)
    tail = frag.base_tail
    take = min(missing, len(tail))
    return tail.suffix_from(len(tail) - take) + rel


def _verify_record(
    frag: QueryFragment,
    node: TrieNode,
    back: int,
    rec: MetaRecord,
    frag_strings: dict[int, BitString],
    log: Optional[CollisionLog],
) -> bool:
    """S_last check: the candidate's trailing bits must equal the query
    path's trailing bits at the matched depth."""
    if log is not None:
        log.checked += 1
    got = _path_bits_upto(frag, node, back, len(rec.s_last), frag_strings)
    ok = got == rec.s_last
    if log is not None and not ok:
        log.rejected += 1
    return ok


# ----------------------------------------------------------------------
# the matching primitive
# ----------------------------------------------------------------------
def hash_match_fragment(
    frag: QueryFragment,
    table: RecordTable,
    hasher,
    *,
    use_pivots: bool,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog] = None,
    exclude: Optional[set[int]] = None,
) -> list[MatchCut]:
    """Algorithm 3 over one fragment: per-edge deepest record match.

    ``exclude`` suppresses block ids already found colliding this batch
    (the redo loop of §4.4.3).  Returns fragment-coordinate cuts.
    """
    frag_strings = _relative_strings(frag.trie)
    base = frag.base_string
    base_hash = hasher.hash(base)
    pre_hash = hasher.hash(base.prefix(frag.aligned_base_depth))
    cuts: list[MatchCut] = []
    for edge in frag.trie.iter_edges():
        if use_pivots:
            hit = _match_edge_pivot(
                frag, edge, table, hasher, frag_strings, pre_hash,
                verify=verify, tick=tick, log=log, exclude=exclude,
            )
        else:
            hit = _match_edge(
                frag, edge, table, hasher, frag_strings, base_hash,
                verify=verify, tick=tick, log=log, exclude=exclude,
            )
        if hit is not None:
            cuts.append(hit)
    return cuts


def _relative_strings(trie: PatriciaTrie) -> dict[int, BitString]:
    out: dict[int, BitString] = {trie.root.uid: BitString(0, 0)}
    stack = [trie.root]
    while stack:
        node = stack.pop()
        s = out[node.uid]
        for b in (0, 1):
            e = node.children[b]
            if e is not None:
                out[e.dst.uid] = s + e.label
                stack.append(e.dst)
    return out


def _match_edge(
    frag: QueryFragment,
    edge: TrieEdge,
    table: RecordTable,
    hasher,
    frag_strings: dict[int, BitString],
    base_hash: HashValue,
    *,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog],
    exclude: Optional[set[int]],
) -> Optional[MatchCut]:
    """Naive Algorithm 3: probe every position of ``edge`` (positions
    (src, dst], fragment coordinates) bottom-up; the deepest hit."""
    src = edge.src
    assert src is not None
    dst = edge.dst
    dst_abs = frag.base_depth + dst.depth

    # prefix digests along the edge, extended through the hasher's own
    # combine (so either hash family probes its own fingerprints), then
    # a bottom-up scan for the deepest fingerprint hit
    h = hasher.combine(base_hash, hasher.hash(frag_strings[src.uid]))
    label = edge.label
    n = len(label)
    digests = [
        hasher.combine(h, p) for p in hasher.prefix_hashes(label, range(1, n + 1))
    ]
    tick(max(1, n // 64 + n))
    fps = hasher.fingerprint_batch(digests)
    for i in range(n - 1, -1, -1):
        tick(1)
        recs = table.by_fp.get(fps[i])
        if not recs:
            continue
        back = n - 1 - i
        abs_depth = dst_abs - back
        for rec in recs:
            if exclude is not None and rec.block_id in exclude:
                continue
            if rec.depth != abs_depth:
                continue
            if verify and not _verify_record(
                frag, dst, back, rec, frag_strings, log
            ):
                continue
            return MatchCut(dst.uid, back, abs_depth, rec)
    return None


def _match_edge_pivot(
    frag: QueryFragment,
    edge: TrieEdge,
    table: RecordTable,
    hasher,
    frag_strings: dict[int, BitString],
    pre_hash: HashValue,
    *,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog],
    exclude: Optional[set[int]],
) -> Optional[MatchCut]:
    """§4.4.2 efficient matching: probe only w-aligned pivots, then one
    validity-index query below the deepest hit pivot.

    Hashes are anchored at the fragment's aligned base (``pre_hash`` at
    depth ``aligned_base_depth`` plus the residual ``base_rem`` bits),
    so every w-aligned pivot hosting the edge is computable locally.
    """
    w = WORD_BITS
    src = edge.src
    assert src is not None
    dst = edge.dst
    base_depth = frag.base_depth
    src_abs = base_depth + src.depth
    dst_abs = base_depth + dst.depth
    anchor = frag.aligned_base_depth  # w-aligned, <= base_depth

    # bits from the anchor down to dst, all locally available
    ext_path = frag.base_rem + frag_strings[src.uid] + edge.label

    # candidate pivots hosting this edge: the pivot at/above src, plus
    # every w-multiple inside (src_abs, dst_abs]
    top_pivot = max((src_abs // w) * w, anchor)
    pivots = range(top_pivot, dst_abs + 1, w)
    positions = [p - anchor for p in pivots]
    tick(max(1, len(edge.label) // w + len(positions)))
    fps = hasher.pivot_fingerprints(pre_hash, ext_path, positions)
    layer2 = table.layer2
    # (pivot_depth, s_pre_fp)
    hits = [(p, fp) for p, fp in zip(pivots, fps) if fp in layer2]
    if not hits:
        return None
    # deepest hit pivot first = critical pivot; gather S'_rem below it
    for pivot_depth, pre_fp in sorted(hits, reverse=True):
        fam = table.layer2[pre_fp]
        start = pivot_depth - anchor
        take = min(w, len(ext_path) - start, dst_abs - pivot_depth)
        if take < 0:
            continue
        s_rem_q = ext_path.substring(start, start + take)
        # deepest family member lying on the query path (O(log w));
        # on rejection (excluded id, off-window depth, or a failed
        # S_last verification — the §4.4.3 redo) step to the next
        # shallower prefix member.
        rec = deepest_prefix(fam, s_rem_q)
        tick(6)
        while rec is not None:
            abs_depth = rec.depth
            ok = (
                (exclude is None or rec.block_id not in exclude)
                and src_abs < abs_depth <= dst_abs
            )
            if ok and verify and not _verify_record(
                frag, dst, dst_abs - abs_depth, rec, frag_strings, log
            ):
                ok = False
            if ok:
                return MatchCut(
                    dst.uid, dst_abs - abs_depth, abs_depth, rec
                )
            nxt = next_shallower(fam, rec.s_rem)
            tick(6)
            if nxt is None or nxt.depth >= rec.depth:
                break
            rec = nxt
    return None
