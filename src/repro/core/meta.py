"""The hash value manager (paper §4.4): meta-tree, meta-blocks,
recursive meta-block decomposition, and the replicated master-tree.

Structure.  One *meta record* per data-trie block carries the block's
root fingerprint, depth, PIM address, and the verification payloads
(S_last, and the pivot decomposition hash(S_pre) / S_rem of §4.4.2).
The meta-tree (blocks connected parent→child) is stored as *pieces* of
at most K_SMB owned records each; pieces form meta-block trees of
height O(log K_MB) built by the Lemma 4.5 cut-node loop.  Following
§5.2 ("every meta-block tree node caches the information in its
subtree"), each piece's record table covers its whole represented
subtree, so block root hashes are replicated O(log P) times — exactly
the space budget of Lemma 4.7.  A piece holds its records in one
:class:`RecordTable` — the fingerprint map of Algorithm 3 plus the
two-layer index of §4.4.2 — beside its owned block ids, its child-piece
links and a parent -> children index over its records.  Every record
write updates them all in place, as the master's table is updated; only
the per-family probe columns of :mod:`repro.columnar.match` are built
lazily, on a family's first probe (a fresh master table's are built
when it arrives).

Root pieces of meta-block trees are registered in the master-tree,
which is replicated on every PIM module.  The piece owning the root
block's record is replicated the same way: every batch that reaches
the root sends it a fragment, so :class:`repro.core.pimtrie.PIMTrie`
stores an independent copy on every module, and so it does for each
piece at the top of the HVM whose block subtree outweighs its copies
(``PIMTrie._at_hvm_top``).  They use the copy model of the data blocks:
a primary module plus replicas, every write sent to all copies, every
read addressed by one router to the least-loaded copy of its round.
Every other piece lives on one module.

Maintenance (paper §5.2).  Inserted blocks join the leaf piece owning
their parent block and are replicated up the piece path.  A piece
overflowing K_SMB is re-cut; a piece whose child outgrows the
scapegoat factor alpha triggers a rebuild of that subtree; a meta-block
tree outgrowing K_MB promotes the root piece's children to independent
meta-block trees registered in the master-tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

from ..bits import WORD_BITS, BitString, IncrementalHasher

__all__ = [
    "MetaRecord",
    "RecordTable",
    "MetaPiece",
    "cut_node",
    "decompose_component",
]

_piece_ids = itertools.count(1)


def next_piece_id() -> int:
    return next(_piece_ids)


@dataclass(frozen=True)
class MetaRecord:
    """Metadata of one data-trie block, as stored in the HVM.

    Ships at O(1) words (S_last / S_rem are < w bits each).
    """

    block_id: int
    fingerprint: int
    depth: int
    module: int
    #: last min(w, depth) bits of the root string (§4.4.3 verification)
    s_last: BitString
    #: fingerprint of the root string's longest w-aligned prefix (§4.4.2)
    s_pre_fp: int
    #: the < w-bit suffix after that prefix (§4.4.2)
    s_rem: BitString
    parent_block: Optional[int]

    #: words one record ships at
    WORDS: ClassVar[int] = 6

    def word_cost(self) -> int:
        return self.WORDS


def make_record(
    block_id: int,
    root_string: BitString,
    module: int,
    hasher: IncrementalHasher,
    parent_block: Optional[int],
) -> MetaRecord:
    d = len(root_string)
    pre_len = (d // WORD_BITS) * WORD_BITS
    return MetaRecord(
        block_id=block_id,
        fingerprint=hasher.fingerprint_of(root_string),
        depth=d,
        module=module,
        s_last=root_string.suffix_from(max(0, d - WORD_BITS)),
        s_pre_fp=hasher.fingerprint_of(root_string.prefix(pre_len)),
        s_rem=root_string.suffix_from(pre_len),
        parent_block=parent_block,
    )


class _Family:
    """One s_pre family of the two-layer index: the stored S_rem strings
    plus an O(log w) deepest-prefix structure over them (§4.4.2).

    The paper deploys z-fast shortcuts on the pull side and the padded
    y-fast/validity-vector index on the push side; both answer the same
    deepest-on-path query in O(log w), which callers charge.  Members
    are < w-bit strings, so the host computes that answer by a
    length-descending scan with machine-int prefix tests; the z-fast
    trie and the validity variant live beside experiment E9 in
    ``benchmarks/fasttrie``, which the tests use as the oracle.
    """

    __slots__ = ("members", "size", "_scan", "_cols")

    def __init__(self):
        self.members: dict[BitString, MetaRecord] = {}
        #: records indexed under this family; above ``len(members)``
        #: when records collide on (s_pre_fp, S_rem)
        self.size = 0
        #: lookup list: (length, value, record) sorted by descending
        #: length; None when stale
        self._scan: Optional[list[tuple[int, int, MetaRecord]]] = None
        #: columnar scan/chain arrays (repro.columnar.match); None when
        #: stale — invalidated alongside _scan
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


class RecordTable:
    """A live lookup view over a set of MetaRecords for HashMatching.

    Provides both the naive ``fingerprint -> records`` map (Algorithm 3)
    and the two-layer pivot index of §4.4.2 (``s_pre_fp`` -> deepest
    S_rem prefix per family).  :meth:`add` and :meth:`remove` keep both
    equal to a fresh build over ``by_id`` in order: a re-added block
    replaces its record and moves to the end of the order, and where
    records collide on (s_pre_fp, S_rem) the family keeps the last.
    """

    def __init__(self, records: Iterable[MetaRecord] = ()):
        self.by_fp: dict[int, list[MetaRecord]] = {}
        self.layer2: dict[int, _Family] = {}
        self.by_id: dict[int, MetaRecord] = {}
        for rec in records:
            self.add(rec)

    def add(self, rec: MetaRecord) -> None:
        self.remove(rec.block_id)
        self.by_id[rec.block_id] = rec
        self.by_fp.setdefault(rec.fingerprint, []).append(rec)
        fam = self.layer2.get(rec.s_pre_fp)
        if fam is None:
            fam = self.layer2[rec.s_pre_fp] = _Family()
        fam.members[rec.s_rem] = rec
        fam.size += 1
        fam._scan = fam._cols = None

    def remove(self, block_id: int) -> None:
        rec = self.by_id.pop(block_id, None)
        if rec is None:
            return
        recs = self.by_fp[rec.fingerprint]
        recs.remove(rec)
        if not recs:
            del self.by_fp[rec.fingerprint]
        fam = self.layer2[rec.s_pre_fp]
        fam.size -= 1
        if not fam.size:
            del self.layer2[rec.s_pre_fp]
        elif fam.members.get(rec.s_rem) is rec:
            del fam.members[rec.s_rem]
            if fam.size > len(fam.members):
                # the last colliding record left takes the slot back
                for other in reversed(self.by_id.values()):
                    if other.s_pre_fp == rec.s_pre_fp and other.s_rem == rec.s_rem:
                        fam.members[rec.s_rem] = other
                        break
            fam._scan = fam._cols = None

    def __len__(self) -> int:
        return len(self.by_id)


class MetaPiece:
    """One piece of the meta-tree: up to K_SMB *owned* records plus the
    replicated records of every descendant piece (subtree-complete).

    Lives in one PIM module's scratch store (the pieces at the top of
    the HVM have one copy per module); the CPU driver addresses it via
    its piece id.
    ``records`` are ``(record, owned)`` pairs, added in order.
    """

    def __init__(
        self,
        piece_id: int,
        root_block: Optional[int] = None,
        records: Iterable[tuple[MetaRecord, bool]] = (),
        child_roots: Optional[dict[int, int]] = None,
    ):
        self.piece_id = piece_id
        #: the block whose record roots this piece's component
        self.root_block = root_block
        #: child piece id -> the block id rooting that child piece
        self.child_roots: dict[int, int] = dict(child_roots or {})
        #: the subtree's records (owned and replicated)
        self.table = RecordTable()
        #: block ids whose records this piece owns (counted against K_SMB)
        self.owned: set[int] = set()
        #: parent block -> child blocks, over ``table`` in its order
        self.kids: dict[int, list[int]] = {}
        for rec, owned in records:
            self.add_record(rec, owned=owned)

    # ------------------------------------------------------------------
    def add_record(self, rec: MetaRecord, *, owned: bool) -> None:
        # a re-added block moves to the end of the table's order
        self.remove_record(rec.block_id)
        self.table.add(rec)
        if owned:
            self.owned.add(rec.block_id)
        if rec.parent_block is not None:
            self.kids.setdefault(rec.parent_block, []).append(rec.block_id)

    def remove_record(self, block_id: int) -> None:
        rec = self.table.by_id.get(block_id)
        if rec is None:
            return
        self.table.remove(block_id)
        self.owned.discard(block_id)
        if rec.parent_block is not None:
            siblings = self.kids[rec.parent_block]
            siblings.remove(block_id)
            if not siblings:
                del self.kids[rec.parent_block]

    # ------------------------------------------------------------------
    def word_cost(self) -> int:
        """Shipping cost of the whole piece (pull rounds): one header
        word plus :meth:`MetaRecord.word_cost` per record."""
        return 1 + MetaRecord.WORDS * len(self.table)

    def __repr__(self) -> str:
        return (
            f"MetaPiece(id={self.piece_id}, own={len(self.owned)}, "
            f"table={len(self.table)}, children={len(self.child_roots)})"
        )


# ----------------------------------------------------------------------
# Lemma 4.5 cut node + recursive decomposition (§4.4.1)
# ----------------------------------------------------------------------
def cut_node(
    nodes: list[int], children: dict[int, list[int]], root: int
) -> int:
    """The node minimizing the largest remaining piece after cutting all
    of its out-edges (Lemma 4.5 guarantees the optimum is ≤ (n+1)/2)."""
    n = len(nodes)
    order: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children.get(u, ()))
    # one backwards pass over the pre-order sees every child before its
    # parent; ``<=`` keeps the earliest minimum of the forward order
    size: dict[int, int] = {}
    best, best_cost = root, n + 1
    for u in reversed(order):
        sz, cost = 1, 0
        for c in children.get(u, ()):
            sc = size[c]
            sz += sc
            if sc > cost:
                cost = sc
        size[u] = sz
        upper = n - sz + 1
        if upper > cost:
            cost = upper
        if cost <= best_cost:
            best, best_cost = u, cost
    assert best_cost <= (n + 1) // 2 + 1, "Lemma 4.5 violated"
    return best


def decompose_component(
    root: int,
    children: dict[int, list[int]],
    bound: int,
) -> tuple[dict[int, list[int]], dict[int, list[int]], int]:
    """Recursively decompose a tree component into pieces of ≤ ``bound``
    owned nodes (the §4.4.1 cut loop).

    Returns ``(piece_members, piece_children, root_key)`` where pieces
    are keyed by their root node id: ``piece_members[k]`` lists node ids
    owned by the piece rooted at node ``k``, and ``piece_children[k]``
    lists the keys of child pieces.  The piece-tree height is
    O(log n / log(1/alpha)) because every cut leaves pieces of at most
    (n+1)/2 nodes (Lemma 4.5 / Lemma 4.6).
    """

    piece_members: dict[int, list[int]] = {}
    piece_children: dict[int, list[int]] = {}

    def collect(r: int, kids: dict[int, list[int]]) -> list[int]:
        out: list[int] = []
        stack = [r]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids.get(u, ()))
        return out

    def recurse(r: int, kids: dict[int, list[int]]) -> int:
        members = collect(r, kids)
        child_piece_keys: list[int] = []
        # keep cutting child subtrees off until the remainder fits (a
        # component that already fits is never cut, so never copied)
        local_kids = (
            {u: list(kids.get(u, ())) for u in members}
            if len(members) > bound
            else kids
        )
        while len(members) > bound:
            v = cut_node(members, local_kids, r)
            cut_children = list(local_kids.get(v, ()))
            if not cut_children:
                # v is a leaf: cutting does nothing; fall back to cutting
                # the root's children (can happen only when bound < 2)
                break
            local_kids[v] = []
            for c in cut_children:
                child_piece_keys.append(recurse(c, local_kids))
            members = collect(r, local_kids)
        piece_members[r] = members
        piece_children[r] = child_piece_keys
        return r

    root_key = recurse(root, children)
    return piece_members, piece_children, root_key
