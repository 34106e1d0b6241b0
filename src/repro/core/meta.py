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
the space budget of Lemma 4.7.  A piece stores records only; the
two-layer index of §4.4.2 over them is
:class:`repro.core.hashmatch.RecordTable`, which the match kernel
builds from ``piece.table`` the first time a fragment probes the piece.

Root pieces of meta-block trees are registered in the master-tree,
which is replicated on every PIM module.  The piece owning the root
block's record is replicated the same way: every batch that reaches
the root sends it a fragment, so :class:`repro.core.pimtrie.PIMTrie`
stores an independent copy on every module.  It uses the copy model
of the data blocks: a primary module plus replicas, every write sent
to all copies, every read addressed by one router to the least-loaded
copy of its round.  Every other piece lives on one module.

Maintenance (paper §5.2).  Inserted blocks join the leaf piece owning
their parent block and are replicated up the piece path.  A piece
overflowing K_SMB is re-cut; a piece whose child outgrows the
scapegoat factor alpha triggers a rebuild of that subtree; a meta-block
tree outgrowing K_MB promotes the root piece's children to independent
meta-block trees registered in the master-tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..bits import WORD_BITS, BitString, HashValue, IncrementalHasher
from .config import PIMTrieConfig

__all__ = ["MetaRecord", "MetaPiece", "cut_node", "decompose_component"]

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

    def word_cost(self) -> int:
        return 6

    def aligned_depth(self) -> int:
        return self.depth - len(self.s_rem)


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


class MetaPiece:
    """One piece of the meta-tree: up to K_SMB *owned* records plus the
    replicated records of every descendant piece (subtree-complete).

    Lives in one PIM module's scratch store (the root piece has one
    copy per module); the CPU driver addresses it via its piece id.
    """

    def __init__(self, piece_id: int):
        self.piece_id = piece_id
        #: records this piece owns (counted against K_SMB)
        self.owned: dict[int, MetaRecord] = {}
        #: replicated subtree records (includes owned)
        self.table: dict[int, MetaRecord] = {}
        self.child_pieces: list[int] = []
        #: child piece id -> the block id rooting that child piece
        self.child_roots: dict[int, int] = {}
        #: the block whose record roots this piece's component
        self.root_block: Optional[int] = None
        #: bumped on every record mutation; derived caches (word cost,
        #: per-piece match tables) key on it for invalidation
        self.version = 0
        self._wc_cache: Optional[tuple[int, int]] = None  # (version, cost)
        #: (version, RecordTable) of the last match probe, or None
        self._match_cache = None
        #: (version, parent block -> child blocks over ``table``) of the
        #: last subtree descent, or None
        self._kids_cache = None

    # ------------------------------------------------------------------
    def add_record(self, rec: MetaRecord, *, owned: bool) -> None:
        self.version += 1
        # a re-added block moves to the end of the table's order
        self.table.pop(rec.block_id, None)
        self.table[rec.block_id] = rec
        if owned:
            self.owned[rec.block_id] = rec
        else:
            self.owned.pop(rec.block_id, None)

    def remove_record(self, block_id: int) -> None:
        self.version += 1
        self.table.pop(block_id, None)
        self.owned.pop(block_id, None)

    # ------------------------------------------------------------------
    def own_size(self) -> int:
        return len(self.owned)

    def represented_size(self) -> int:
        return len(self.table)

    def word_cost(self) -> int:
        """Shipping cost of the whole piece (pull rounds).

        Cached keyed on :attr:`version`: pull rounds re-cost the same
        unmodified piece on every query batch.
        """
        cached = self._wc_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        wc = 1 + sum(r.word_cost() for r in self.table.values())
        self._wc_cache = (self.version, wc)
        return wc

    def __repr__(self) -> str:
        return (
            f"MetaPiece(id={self.piece_id}, own={len(self.owned)}, "
            f"table={len(self.table)}, children={len(self.child_pieces)})"
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
