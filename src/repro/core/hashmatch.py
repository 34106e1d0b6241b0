"""HashMatching: decompose a query fragment by a table of block-root
hashes (paper Algorithm 3, plus the §4.4.2 pivot / two-layer efficient
variant and the §4.4.3 S_last verification).

The primitive is side-agnostic — the same function runs inside a PIM
kernel (push) and on the CPU against fetched records (pull); only the
work-metering callback differs.

Semantics.  For every compressed edge of the fragment, find the
*deepest* position (compressed or hidden node) whose node hash appears
in the record table, and emit a :class:`MatchCut` for it.  Deeper
shallower hits on the same edge delimit non-critical blocks and are
skipped (they are instead verified via S_last when requested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..bits import BitString, HashValue, IncrementalHasher, MERSENNE_61
from ..trie import PatriciaTrie, TrieEdge, TrieNode
from .meta import MetaRecord
from .query import PathPos, QueryFragment

__all__ = ["MatchCut", "RecordTable", "hash_match_fragment", "CollisionLog"]


@dataclass(frozen=True)
class MatchCut:
    """A match between a fragment position and a block-root record.

    ``node``/``back`` use fragment coordinates (see PathPos);
    ``abs_depth`` is the global depth of the matched prefix.
    """

    node_uid: int
    back: int
    abs_depth: int
    record: MetaRecord

    def word_cost(self) -> int:
        return 3


@dataclass
class CollisionLog:
    """Counts §4.4.3 verification events for the E13 experiments."""

    checked: int = 0
    rejected: int = 0


class _Family:
    """One s_pre family of the two-layer index: the stored S_rem strings
    plus an O(log w) deepest-prefix structure over them (§4.4.2).

    The paper deploys z-fast shortcuts on the pull side and the padded
    y-fast/validity-vector index on the push side; both answer the same
    deepest-on-path query in O(log w), which callers charge.  Members
    are < w-bit strings, so the host computes that answer by a
    length-descending scan with machine-int prefix tests; the z-fast
    trie and the validity variant are implemented and validated on
    their own (:mod:`repro.fasttrie`, experiment E9).
    """

    __slots__ = ("members", "_scan", "_chain", "_cols")

    def __init__(self):
        self.members: dict[BitString, MetaRecord] = {}
        #: lookup list: (length, value, record) sorted by descending
        #: length; None when stale
        self._scan: Optional[list[tuple[int, int, MetaRecord]]] = None
        #: redo chain: member -> its deepest proper-prefix member (None
        #: when stale)
        self._chain: Optional[dict[BitString, Optional[MetaRecord]]] = None
        #: columnar scan/chain arrays (repro.columnar.match); None when
        #: stale — invalidated alongside _scan/_chain
        self._cols = None

    def _scan_list(self) -> list[tuple[int, int, MetaRecord]]:
        scan = self._scan
        if scan is None:
            scan = sorted(
                ((len(s), s.value, r) for s, r in self.members.items()),
                key=lambda t: t[0],
                reverse=True,
            )
            self._scan = scan
        return scan

    def deepest_prefix(self, q: BitString) -> Optional[MetaRecord]:
        """Deepest member that is a prefix of ``q`` (members are < w
        bits, so the answer fits one probe structure per family)."""
        qlen = len(q)
        qv = q.value
        for ln, val, rec in self._scan_list():
            if ln <= qlen and (qv >> (qlen - ln)) == val:
                return rec
        return None

    def next_shallower(self, s: BitString) -> Optional[MetaRecord]:
        """Deepest member that is a proper prefix of ``s`` (redo path)."""
        if len(s) == 0:
            return None
        # the redo loop always asks about members, and the answer is a
        # pure function of the member set — precompute the chain once
        # per family version instead of rescanning per step
        chain = self._chain
        if chain is None:
            scan = self._scan_list()
            chain = {}
            for i, (ln, val, rec) in enumerate(scan):
                nxt = None
                for lj, vj, rj in scan[i + 1 :]:
                    if lj < ln and (val >> (ln - lj)) == vj:
                        nxt = rj
                        break
                chain[rec.s_rem] = nxt
            self._chain = chain
        if s in chain:
            return chain[s]
        # non-member query: fall back to the scan
        return self.deepest_prefix(s.prefix(len(s) - 1))


class RecordTable:
    """A lookup view over a set of MetaRecords for HashMatching.

    Provides both the naive ``fingerprint -> records`` map (Algorithm 3)
    and the two-layer pivot index of §4.4.2 (``s_pre_fp`` -> deepest
    S_rem prefix per family).
    """

    def __init__(self, records: Iterable[MetaRecord], w: int):
        self.w = w
        self.by_fp: dict[int, list[MetaRecord]] = {}
        self.layer2: dict[int, _Family] = {}
        self.by_id: dict[int, MetaRecord] = {}
        #: sorted layer2-key array for columnar membership probes
        #: (repro.columnar.match); None when stale
        self._l2cache = None
        for rec in records:
            self.add(rec)

    def add(self, rec: MetaRecord) -> None:
        self.by_id[rec.block_id] = rec
        self.by_fp.setdefault(rec.fingerprint, []).append(rec)
        fam = self.layer2.get(rec.s_pre_fp)
        if fam is None:
            fam = _Family()
            self.layer2[rec.s_pre_fp] = fam
            self._l2cache = None
        fam.members[rec.s_rem] = rec
        fam._scan = None
        fam._chain = None
        fam._cols = None

    def remove(self, rec: MetaRecord) -> None:
        self.by_id.pop(rec.block_id, None)
        recs = self.by_fp.get(rec.fingerprint)
        if recs is not None:
            recs[:] = [r for r in recs if r.block_id != rec.block_id]
            if not recs:
                del self.by_fp[rec.fingerprint]
        fam = self.layer2.get(rec.s_pre_fp)
        if fam is not None:
            cur = fam.members.get(rec.s_rem)
            if cur is not None and cur.block_id == rec.block_id:
                del fam.members[rec.s_rem]
                fam._scan = None
                fam._chain = None
                fam._cols = None
            if not fam.members:
                del self.layer2[rec.s_pre_fp]
                self._l2cache = None

    def __len__(self) -> int:
        return len(self.by_id)


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
    hasher: IncrementalHasher,
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
    cuts: list[MatchCut] = []

    # the fragment base itself may coincide with a record (depth match):
    # the caller handles base-level matches; here we scan edges.
    for edge in frag.trie.iter_edges():
        hit = _match_edge(
            frag,
            edge,
            table,
            hasher,
            frag_strings,
            use_pivots=use_pivots,
            verify=verify,
            tick=tick,
            log=log,
            exclude=exclude,
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
    hasher: IncrementalHasher,
    frag_strings: dict[int, BitString],
    *,
    use_pivots: bool,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog],
    exclude: Optional[set[int]],
) -> Optional[MatchCut]:
    """Deepest record hit on ``edge`` (positions (src, dst], fragment
    coordinates), or None."""
    if use_pivots:
        return _match_edge_pivot(
            frag, edge, table, hasher, frag_strings,
            verify=verify, tick=tick, log=log, exclude=exclude,
        )
    src = edge.src
    assert src is not None
    dst = edge.dst
    base_depth = frag.base_depth
    src_abs = base_depth + src.depth
    dst_abs = base_depth + dst.depth

    # --- naive Algorithm 3: probe every position bottom-up -------------
    # compute prefix digests along the edge incrementally (top-down),
    # then scan bottom-up for the deepest fingerprint hit.
    src_rel = frag_strings[src.uid]
    h = hasher.combine(frag.base_hash, hasher.hash(src_rel))
    label = edge.label
    digests: list[HashValue] = []
    digest, length = h.digest, h.length
    for i in range(len(label)):
        digest = (digest * 2 + label.bit(i)) % MERSENNE_61
        length += 1
        digests.append(HashValue(digest, length))
    tick(max(1, len(label) // 64 + len(label)))
    # the scan probes (almost) every position on a miss-dominated edge,
    # so fingerprinting the whole edge in one batch call wins; the per-
    # position tick stays inside the loop for exact work parity
    fps = hasher.fingerprint_batch(digests)
    for i in range(len(label) - 1, -1, -1):
        tick(1)
        recs = table.by_fp.get(fps[i])
        if not recs:
            continue
        back = len(label) - 1 - i
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
    hasher: IncrementalHasher,
    frag_strings: dict[int, BitString],
    *,
    verify: bool,
    tick: Callable[[int], None],
    log: Optional[CollisionLog],
    exclude: Optional[set[int]],
) -> Optional[MatchCut]:
    """§4.4.2 efficient matching: probe only w-aligned pivots, then one
    validity-index query below the deepest hit pivot.

    Hashes are anchored at the fragment's aligned base (``base_pre_hash``
    at depth ``aligned_base_depth`` plus the residual ``base_rem`` bits),
    so every w-aligned pivot hosting the edge is computable locally.
    """
    w = table.w
    src = edge.src
    assert src is not None
    dst = edge.dst
    base_depth = frag.base_depth
    src_abs = base_depth + src.depth
    dst_abs = base_depth + dst.depth
    anchor = frag.aligned_base_depth  # w-aligned, <= base_depth

    # bits from the anchor down to dst, all locally available
    src_rel = frag_strings[src.uid]
    ext_path = frag.base_rem + src_rel + edge.label

    # candidate pivots hosting this edge: the pivot at/above src, plus
    # every w-multiple inside (src_abs, dst_abs]
    top_pivot = max((src_abs // w) * w, anchor)
    pivots = range(top_pivot, dst_abs + 1, w)
    positions = [p - anchor for p in pivots]
    tick(max(1, len(edge.label) // w + len(positions)))
    # fused prefix-hash + combine + fingerprint: one pass over the
    # edge, no intermediate HashValue allocations
    fps = hasher.pivot_fingerprints(frag.base_pre_hash, ext_path, positions)
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
        rec = fam.deepest_prefix(s_rem_q)
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
            nxt = fam.next_shallower(rec.s_rem)
            tick(6)
            if nxt is None or nxt.depth >= rec.depth:
                break
            rec = nxt
    return None
