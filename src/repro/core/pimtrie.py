"""PIM-trie: the batch-parallel skew-resistant trie (paper §4–§5).

The :class:`PIMTrie` facade owns

* the distributed data-trie blocks (§4.2),
* the hash value manager — meta pieces, meta-block trees, master-tree
  (§4.4, :mod:`repro.core.meta`),
* the trie-matching driver (Algorithms 2, 4, 5),
* the batch operations LCP / Insert / Delete / SubtreeQuery (§5).

Every CPU↔PIM data transfer goes through ``PIMSystem.round`` (mostly
as ``PIMSystem.exchange``, which pairs each reply with its request)
with real word costs, so the PIM Model metrics (IO rounds, IO time,
communication, PIM time) measured around a batch are exactly the
quantities the paper's theorems bound.  The CPU driver additionally keeps one host
record per block (:class:`BlockEntry`) and per meta piece
(:class:`PieceEntry`): module, child ids, and the record (which holds
the parent id) and replica-log mirrors used only for maintenance and
recovery.  These
stand in for the remote-pointer metadata the distributed structure
itself encodes and carry no per-batch key data; see DESIGN.md §7.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

from ..bits import WORD_BITS, BitString
from ..obs.tracer import maybe_span
from ..pim import ModuleContext, PIMSystem
from ..pim.system import default_word_cost
from ..trie import PatriciaTrie, TrieEdge, TrieNode, build_query_trie
from ..columnar import (
    ColNodeRef,
    ColPathPos,
    ColumnarFragment,
    LocalMatchResult,
    QueryArena,
    hash_match_columnar,
    hash_match_columnar_many,
    local_match_columnar,
    respan_columnar,
    span_columnar,
    warm_table,
)
from ..ordered import OrderedSnapshot
from .blocks import DataBlock, extract_blocks
from .config import PIMTrieConfig
from .hashmatch import CollisionLog, MatchCut
from .meta import (
    MetaPiece,
    MetaRecord,
    RecordTable,
    decompose_component,
    make_record,
    next_piece_id,
)

__all__ = ["PIMTrie", "MatchOutcome", "MatchEntry", "BlockEntry", "PieceEntry"]


# ----------------------------------------------------------------------
# matched-trie representation
# ----------------------------------------------------------------------
class MatchEntry:
    """Deepest match information for one query-trie compressed node.

    A plain slotted record (not a dataclass): one is allocated per
    surviving query node per match batch, so construction cost is on
    the batch hot path.
    """

    __slots__ = ("depth", "full", "has_key", "value", "block")

    def __init__(
        self,
        depth: int,
        #: True: the path to this node fully matches (depth == node
        #: depth); False: the subtree below diverges at `depth`
        full: bool,
        #: the full match lands on a data node that stores a key
        has_key: bool,
        value: Any,
        block: int,
    ):
        self.depth = depth
        self.full = full
        self.has_key = has_key
        self.value = value
        self.block = block

    def __repr__(self) -> str:
        return (
            f"MatchEntry(depth={self.depth}, full={self.full}, "
            f"has_key={self.has_key}, "
            f"value={self.value!r}, block={self.block})"
        )


@dataclass
class MatchOutcome:
    """The matched trie: per query-node deepest match state."""

    entries: dict[int, MatchEntry] = field(default_factory=dict)
    collisions: int = 0
    #: SubtreeQuery first answers of the prefixes the block matching
    #: carried: ``prefix -> (block, root_depth, items, kids)``, for each
    #: prefix ending inside the block that answered it
    roots: dict[BitString, tuple[int, int, list, list[int]]] = field(
        default_factory=dict
    )
    #: the write run the block matching carried: each key's home block,
    #: chosen before the round ...
    homes: dict[BitString, int] = field(default_factory=dict)
    #: ... and each insert's reply, ``(block, word size)``, in reply order
    sizes: list[tuple[int, int]] = field(default_factory=list)

    def get(self, uid: int) -> Optional[MatchEntry]:
        return self.entries.get(uid)


# ----------------------------------------------------------------------
# wire messages
# ----------------------------------------------------------------------
@dataclass
class _StoreBlock:
    block: DataBlock

    def word_cost(self) -> int:
        return self.block.word_cost()


@dataclass
class _StorePiece:
    piece: MetaPiece

    def word_cost(self) -> int:
        return self.piece.word_cost()


@dataclass
class _MasterDelta:
    add: list[tuple[MetaRecord, int]]  # (record, root piece id)
    remove: list[int]  # block ids
    full: bool = False  # replace the table wholesale
    _wc: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def word_cost(self) -> int:
        if self._wc is not None:
            return self._wc
        wc = max(1, 6 * len(self.add) + len(self.remove))
        self._wc = wc
        return wc


@dataclass
class _FragMatch:
    frag: ColumnarFragment
    scope: str  # "master" | "piece"
    piece_id: int = 0

    def word_cost(self) -> int:
        # the fragment itself caches its trie walk
        return self.frag.word_cost()


@dataclass
class _BlockOp:
    op: str
    block_id: int
    frag: Optional[ColumnarFragment] = None
    payload: Any = None
    #: the insert or delete of this block a match carries (§5.2 starts
    #: a write with its matching); the kernel applies it after every
    #: match of the round
    write: Optional[_BlockOp] = None
    #: messages are immutable once enqueued for a round, so the payload
    #: walk is computed once (lazily, to keep construction free)
    _wc: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def word_cost(self) -> int:
        if self._wc is not None:
            return self._wc
        cost = 2
        if self.frag is not None:
            cost += self.frag.word_cost()
        if self.payload is not None:
            cost += default_word_cost(self.payload)
        if self.write is not None:
            cost += self.write.word_cost()
        self._wc = cost
        return cost


@dataclass
class _PieceOp:
    op: str
    piece_id: int
    payload: Any = None
    _wc: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def word_cost(self) -> int:
        if self._wc is not None:
            return self._wc
        cost = 2
        if self.payload is not None:
            cost += default_word_cost(self.payload)
        self._wc = cost
        return cost


# ----------------------------------------------------------------------
# host records (DESIGN.md §7)
# ----------------------------------------------------------------------
@dataclass(eq=False, slots=True)
class _Placed:
    """Where a block or meta piece lives: its primary ``module`` plus
    the modules holding an extra read copy.  Writes fan out to every
    copy, so the copies never diverge; each read goes to one copy,
    chosen by :meth:`PIMTrie._route`."""

    module: int
    #: extra copies, primary excluded: hot blocks replicated by
    #: repro.adapt, and every other module for the pieces at the top
    #: of the HVM (:meth:`PIMTrie._at_hvm_top`)
    replicas: list[int] = field(default_factory=list, kw_only=True)

    def _copies(self) -> list[int]:
        """Every module holding a copy: the primary, then the replicas."""
        return [self.module, *self.replicas]


@dataclass(eq=False, slots=True)
class BlockEntry(_Placed):
    """The host's record of one data block: its placement and place in
    the block tree, plus the mirrors maintenance and recovery rebuild
    it from without touching module memory."""

    #: absolute root string; its length is the block's root depth
    root: BitString
    #: replica log: relative key -> value, kept write-through by every
    #: mutating path so a crashed module's blocks can be rebuilt
    #: (repro.faults); its size is the block's key count
    items: dict[BitString, Any]
    #: the block's meta record (the HVM mirror); its ``parent_block`` is
    #: the host's one copy of the block's parent
    record: MetaRecord
    children: set[int] = field(default_factory=set)
    #: the meta piece owning ``record``; reset by a full HVM rebuild
    piece: Optional[int] = None


@dataclass(eq=False, slots=True)
class PieceEntry(_Placed):
    """The host's record of one meta piece."""

    #: root block of the piece's record subtree (recovery rebuilds
    #: ``child_roots`` from it without the piece's memory)
    root_block: int
    #: block ids whose records this piece owns (its K_SMB budget)
    owned: set[int]
    children: list[int]
    parent: Optional[int] = None


# ----------------------------------------------------------------------
# structural-maintenance tracking (recovery support, repro.faults)
# ----------------------------------------------------------------------
def _structural(fn):
    """Mark a maintenance method whose interruption leaves the host
    records mid-transition.  While any structural frame is on the
    stack, ``_dirty_structure`` is set; it is cleared only when the
    outermost frame exits *cleanly* — an abort (RoundAborted) skips the
    clear, which steers recovery to the full rebuild-from-mirror path
    instead of the cheap per-module one.

    Maintenance writes nobody reads are posted (``PIMSystem.post``),
    not sent: the outermost frame flushes them as one round before it
    clears the flag, so an edit costs its reads plus one round.  The
    queue is non-empty only while a structural frame is open — an
    outermost frame that unwinds drops it — so any abort of a round
    carrying posted writes unwinds a frame and leads to the full
    rebuild.

    Structural methods are also tracing sites: each call records a
    ``maint.<name>`` span when a tracer is attached."""

    span_name = "maint." + fn.__name__.lstrip("_")

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with maybe_span(self.system, span_name, cat="maint"):
            self._maint_depth += 1
            self._dirty_structure = True
            try:
                out = fn(self, *args, **kwargs)
                if self._maint_depth == 1:
                    self.system.flush()
            except BaseException:
                self._maint_depth -= 1
                if self._maint_depth == 0:
                    self.system.drop_posted()
                raise
            self._maint_depth -= 1
            if self._maint_depth == 0:
                self._dirty_structure = False
            return out

    return wrapper


def _traced_op(name):
    """Wrap a public batch operation in an ``op.<name>`` span.

    The first positional argument is the batch; its length is recorded
    as the span's ``batch`` arg.  With no tracer attached the wrapper
    is one attribute check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, batch, *args, **kwargs):
            obs = getattr(self.system, "obs", None)
            if obs is None:
                return fn(self, batch, *args, **kwargs)
            with obs.span(name, cat="op", batch=len(batch)):
                return fn(self, batch, *args, **kwargs)

        return wrapper

    return deco


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
class PIMTrie:
    """A skew-resistant batch-parallel trie on a simulated PIM system."""

    def __init__(
        self,
        system: PIMSystem,
        config: Optional[PIMTrieConfig] = None,
        keys: Optional[Iterable[BitString]] = None,
        values: Optional[Iterable[Any]] = None,
    ):
        self.system = system
        self.config = config or PIMTrieConfig(num_modules=system.num_modules)
        if self.config.num_modules != system.num_modules:
            raise ValueError("config.num_modules must match the PIM system")
        self.hasher = self.config.make_hasher()

        # host records (DESIGN.md §7): creating, splitting, merging,
        # collecting or wiping a block or piece is one insert or delete
        self.blocks: dict[int, BlockEntry] = {}
        self.pieces: dict[int, PieceEntry] = {}
        #: meta-block-tree root pieces registered in the master-tree,
        #: mapped to their component root block.  A side map: it holds
        #: only tree roots, in master-registration order, which every
        #: master broadcast replays
        self.master_pieces: dict[int, int] = {}
        #: host-side per-block access counters since the last
        #: :meth:`take_block_touches` drain (pure bookkeeping — no
        #: rounds, no metric effect; feeds the repro.adapt sketch).  A
        #: side map: it is drained per epoch, not per block lifetime
        self.block_touches: dict[int, int] = {}

        self.root_block_id: Optional[int] = None
        #: tie-break cursor of the least-loaded read routing (:meth:`_route`)
        self._read_rr = 0

        # recovery bookkeeping: structural-maintenance nesting depth and
        # the dirty flag an aborted maintenance path leaves behind
        self._maint_depth = 0
        self._dirty_structure = False

        #: content version of the replica-log key/value union; bumped
        #: only where the union changes (insert and delete write-through,
        #: bulk build).  Placement maintenance — repartition, split,
        #: replicate, merge, empty-block collection — rewrites the log's
        #: *layout* but preserves the union, so ordered snapshots keyed
        #: on this version survive it untouched (which is exactly what
        #: makes ordered answers invisible to repro.adapt).
        self._ordered_version = 0
        self._ordered_cache: Optional[OrderedSnapshot] = None

        self._register_kernels()
        keys = list(keys or [])
        vals = list(values) if values is not None else None
        self._bulk_build(keys, vals)

    # ==================================================================
    # kernels
    # ==================================================================
    def _register_kernels(self) -> None:
        sys = self.system
        cfg = self.config
        hasher = self.hasher

        def k_store(ctx: ModuleContext, reqs: list) -> list:
            for r in reqs:
                if isinstance(r, _StoreBlock):
                    ctx.scratch.setdefault("blocks", {})[r.block.block_id] = r.block
                    ctx.tick(r.block.word_cost())
                elif isinstance(r, _StorePiece):
                    ctx.scratch.setdefault("pieces", {})[r.piece.piece_id] = r.piece
                    ctx.tick(r.piece.word_cost())
                else:
                    raise TypeError(f"bad store request {r!r}")
            return []

        def k_master(ctx: ModuleContext, reqs: list) -> list:
            table: Optional[RecordTable] = ctx.scratch.get("master")
            piece_of: dict[int, int] = ctx.scratch.get("master_piece", {})
            for r in reqs:
                assert isinstance(r, _MasterDelta)
                if r.full or table is None:
                    table = RecordTable([])
                    piece_of = {}
                for bid in r.remove:
                    table.remove(bid)
                    piece_of.pop(bid, None)
                    ctx.tick(1)
                for rec, pid in r.add:
                    table.add(rec)
                    piece_of[rec.block_id] = pid
                    ctx.tick(1)
            # a full message brings a fresh table whose families the
            # next batch's pivot matching probes: build their columns
            # with it.  A delta's edited families wait for their next
            # probe, as several deltas can come before it
            if cfg.use_pivots and any(r.full for r in reqs):
                warm_table(table)
            ctx.scratch["master"] = table
            ctx.scratch["master_piece"] = piece_of
            return []

        def k_match(ctx: ModuleContext, reqs: list) -> list:
            tables: list[RecordTable] = []
            for r in reqs:
                assert isinstance(r, _FragMatch)
                if r.scope == "master":
                    table = ctx.scratch.get("master") or RecordTable([])
                else:
                    # the piece's live table; the tick models O(1)
                    # table addressing
                    table = ctx.scratch["pieces"][r.piece_id].table
                    ctx.tick(1)
                tables.append(table)
            # the module's whole request list in one call
            results = hash_match_columnar_many(
                [(r.frag, t) for r, t in zip(reqs, tables)], hasher,
                verify=cfg.verify, use_pivots=cfg.use_pivots,
            )
            piece_of = ctx.scratch.get("master_piece", {})
            out: list = []
            for r, (cuts, _checked, rejected, ticks) in zip(reqs, results):
                ctx.tick(ticks)
                if r.scope == "master":
                    out.append((
                        [(c, piece_of.get(c.record.block_id)) for c in cuts],
                        rejected,
                    ))
                else:
                    out.append(([(c, None) for c in cuts], rejected))
            return out

        def k_piece(ctx: ModuleContext, reqs: list) -> list:
            # reads reply once per request, in order; writes reply with
            # nothing, as no caller reads them
            out = []
            pieces: dict[int, MetaPiece] = ctx.scratch.setdefault("pieces", {})
            for r in reqs:
                assert isinstance(r, _PieceOp)
                if r.op == "children":
                    piece = pieces[r.piece_id]
                    ctx.tick(len(piece.child_roots) + 1)
                    by_id = piece.table.by_id
                    out.append([
                        (cid, by_id.get(rb))
                        for cid, rb in piece.child_roots.items()
                    ])
                elif r.op == "fetch":
                    piece = pieces[r.piece_id]
                    ctx.tick(len(piece.table))
                    out.append(list(piece.table.by_id.values()))
                elif r.op == "add":
                    piece = pieces[r.piece_id]
                    for rec, owned in r.payload:
                        piece.add_record(rec, owned=owned)
                        ctx.tick(1)
                elif r.op == "remove":
                    piece = pieces[r.piece_id]
                    for bid in r.payload:
                        piece.remove_record(bid)
                        ctx.tick(1)
                elif r.op == "free":
                    pieces.pop(r.piece_id, None)
                    ctx.tick(1)
                elif r.op == "subtree":
                    piece = pieces[r.piece_id]
                    by_id, kids = piece.table.by_id, piece.kids
                    found: list[MetaRecord] = []
                    stack = [r.payload] if r.payload in by_id else []
                    while stack:
                        b = stack.pop()
                        found.append(by_id[b])
                        stack.extend(kids.get(b, ()))
                        ctx.tick(1)
                    out.append(found)
                else:
                    raise ValueError(f"bad piece op {r.op!r}")
            return out

        def k_block(ctx: ModuleContext, reqs: list) -> list:
            # reads reply once per request, and so does the insert,
            # with the block's word size (the caller's oversize check):
            # alone, or after the reply of the match it rides.  The
            # other writes reply with nothing.  Inserts and deletes run
            # after every read of the call, in request order, so the
            # round's matches read the pre-batch state
            out = []
            #: (write, reply slot of an insert, rides a match)
            writes: list[tuple[_BlockOp, int, bool]] = []
            blocks: dict[int, DataBlock] = ctx.scratch.setdefault("blocks", {})
            for r in reqs:
                assert isinstance(r, _BlockOp)
                blk = blocks.get(r.block_id)
                if r.op == "match":
                    assert blk is not None and r.frag is not None
                    res = local_match_columnar(
                        r.frag, blk.trie, blk.block_id,
                        blk.root_depth, tick=ctx.tick,
                    )
                    if r.payload is None:
                        out.append(res)
                    else:
                        # the attached SubtreeQuery prefixes, answered
                        # from the block state the match just read
                        out.append((res, [
                            _subtree_answer(blk, rel, ctx.tick)
                            for rel in r.payload
                        ]))
                    if r.write is not None:
                        writes.append((r.write, len(out) - 1, True))
                elif r.op in ("insert", "delete"):
                    writes.append((r, len(out), False))
                    if r.op == "insert":
                        out.append(None)
                elif r.op == "subtree":
                    assert blk is not None
                    out.append(_subtree_answer(blk, r.payload, ctx.tick))
                elif r.op == "fetch":
                    assert blk is not None
                    ctx.tick(blk.word_cost())
                    out.append(blk)
                elif r.op == "free":
                    blocks.pop(r.block_id, None)
                    ctx.tick(1)
                elif r.op == "drop_mirror":
                    assert blk is not None
                    _remove_mirror(blk.trie, r.payload)
                    blk.mark_dirty()
                    ctx.tick(4)
                else:
                    raise ValueError(f"bad block op {r.op!r}")
            for w, slot, rides in writes:
                blk = blocks[w.block_id]
                if w.op == "insert":
                    for key, value in w.payload:
                        blk.trie.insert(key, value)
                        ctx.tick(max(1, len(key) // 64 + 1))
                    blk.mark_dirty()
                    words = blk.word_cost()
                    out[slot] = (out[slot], words) if rides else words
                else:
                    # the host sends every batch key homed here; only
                    # a stored one costs a delete
                    for key in w.payload:
                        if blk.trie.delete(key):
                            ctx.tick(max(1, len(key) // 64 + 1))
                    blk.mark_dirty()
            return out

        def k_wipe(ctx: ModuleContext, reqs: list) -> list:
            # full-rebuild recovery: forget every pimtrie structure on
            # this module (other scratch tenants are left alone)
            for key in ("blocks", "pieces", "master", "master_piece"):
                ctx.scratch.pop(key, None)
            ctx.tick(1)
            return []

        sys.register_kernel("pimtrie.store", k_store)
        sys.register_kernel("pimtrie.master", k_master)
        sys.register_kernel("pimtrie.match", k_match)
        sys.register_kernel("pimtrie.piece", k_piece)
        sys.register_kernel("pimtrie.block", k_block)
        sys.register_kernel("pimtrie.wipe", k_wipe)

    # ==================================================================
    # construction
    # ==================================================================
    def _bulk_build(self, keys: list[BitString], values: Optional[list[Any]]) -> None:
        sends: dict[int, list] = defaultdict(list)
        self._place_blocks(*extract_blocks(
            build_query_trie(keys, values), self.config.block_bound,
            self.hasher,
        ), sends)
        self.system.round("pimtrie.store", sends)
        self._ordered_version += 1
        self._rebuild_hvm()

    def _place_blocks(
        self,
        blocks: list[DataBlock],
        roots: dict[int, BitString],
        parents: dict[int, Optional[int]],
        sends: dict[int, list],
    ) -> list[MetaRecord]:
        """Record :func:`extract_blocks`' output on the host and queue
        each block's store in ``sends``; returns the new blocks' records.

        A block whose id has an entry already (a repartition's top)
        keeps its module and takes the entry over: overwriting the old
        replica log with the top's keeps the log's union equal to the
        key set at every round boundary.  Every other block draws a
        module and is linked under its parent, which comes before it.
        """
        fresh: list[MetaRecord] = []
        for blk in blocks:
            bid = blk.block_id
            root, parent = roots[bid], parents[bid]
            if parent is None:
                self.root_block_id = bid
            entry = self.blocks.get(bid)
            m = self.system.random_module() if entry is None else entry.module
            items = dict(blk.trie.iter_items())
            rec = make_record(bid, root, m, self.hasher, parent)
            if entry is None:
                self.blocks[bid] = BlockEntry(m, root, items, rec)
                fresh.append(rec)
                if parent is not None:
                    self.blocks[parent].children.add(bid)
            else:
                entry.root, entry.items, entry.record = root, items, rec
            sends[m].append(_StoreBlock(blk))
        return fresh

    # ==================================================================
    # HVM construction / replication / maintenance
    # ==================================================================
    @_structural
    def _rebuild_hvm(self) -> None:
        """(Re)build every meta piece and the master from the record
        mirror (bulk build, and the fallback for structural rebuilds)."""
        self._rebuild(list(self.pieces), list(self.blocks))
        self._post_master(self._master_table())

    @_structural
    def _rebuild_tree(self, root_pid: int) -> None:
        """Scapegoat rebuild of one meta-block tree (§5.2); the master
        gets the delta of tree roots."""
        pieces = self._tree_pieces(root_pid)
        gone, new = self._rebuild(
            pieces, [b for p in pieces for b in self.pieces[p].owned]
        )
        self._post_master(_MasterDelta(
            add=[(self.blocks[self.master_pieces[p]].record, p) for p in new],
            remove=gone,
        ))

    def _post_master(self, msg: _MasterDelta) -> None:
        """Post one master message to every module's master replica."""
        self.system.post(
            "pimtrie.master", {m: [msg] for m in range(self.system.num_modules)}
        )

    def _rebuild(
        self, pids: list[int], blocks: list[int]
    ) -> tuple[list[int], set[int]]:
        """Free the pieces ``pids``, then re-decompose the records of
        ``blocks`` — the one meta-tree component those pieces held —
        into fresh meta-block trees and post them.  Returns the root
        blocks of the trees that left the master and the new tree-root
        piece ids."""
        frees: dict[int, list] = defaultdict(list)
        gone_roots: list[int] = []
        for pid in pids:
            free = _PieceOp("free", pid)
            for m in self.pieces.pop(pid)._copies():
                frees[m].append(free)
            rb = self.master_pieces.pop(pid, None)
            if rb is not None:
                gone_roots.append(rb)
        if frees:
            self.system.post("pimtrie.piece", frees)
        before = set(self.master_pieces)
        if blocks:
            block_set = set(blocks)
            kids: dict[int, list[int]] = defaultdict(list)
            roots: list[int] = []
            for b in blocks:
                parent = self.blocks[b].record.parent_block
                if parent in block_set:
                    kids[parent].append(b)
                else:
                    roots.append(b)
            assert len(roots) == 1, f"meta-tree component has roots {roots}"
            self._build_trees_for(roots[0], kids)
        return gone_roots, set(self.master_pieces) - before

    def _build_trees_for(self, root: int, kids: dict[int, list[int]]) -> None:
        """Stage 1 + stage 2 decomposition for the component under
        ``root``; posts pieces and registers tree roots in the master."""
        cfg = self.config
        comp_members, comp_children, _ = decompose_component(
            root, kids, cfg.meta_block_bound
        )
        sends: dict[int, list] = defaultdict(list)
        for comp_key, members in comp_members.items():
            member_set = set(members)
            local_kids = {
                b: [c for c in kids.get(b, ()) if c in member_set] for b in members
            }
            pm, pc, proot = decompose_component(
                comp_key, local_kids, cfg.small_meta_bound
            )
            id_of = {key: next_piece_id() for key in pm}

            def subtree_records(key: int) -> list[int]:
                out: list[int] = []
                stack = [key]
                while stack:
                    k = stack.pop()
                    out.extend(pm[k])
                    stack.extend(pc[k])
                return out

            for key in pm:
                pid = id_of[key]
                module = self.system.random_module()
                owned = set(pm[key])
                records = [
                    (self.blocks[b].record, b in owned)
                    for b in subtree_records(key)
                ]
                child_roots = {id_of[c]: c for c in pc[key]}
                entry = self.pieces[pid] = PieceEntry(
                    module, key, owned, list(child_roots)
                )
                for b in owned:
                    self.blocks[b].piece = pid
                # the root piece and the pieces at the top of the HVM
                # receive a fragment in most batches, so, like the
                # master, they have a copy on every module.  The module
                # is drawn all the same, which keeps the RNG stream
                # independent of the copies
                if self.root_block_id in owned or self._at_hvm_top(
                    key, len(records)
                ):
                    entry.replicas = [
                        m for m in range(self.system.num_modules)
                        if m != module
                    ]
                # an independent MetaPiece for each copy
                for home in entry._copies():
                    sends[home].append(_StorePiece(
                        MetaPiece(pid, key, records, child_roots)
                    ))
            for key in pm:
                for c in pc[key]:
                    self.pieces[id_of[c]].parent = id_of[key]
            self.master_pieces[id_of[proot]] = comp_key
        if sends:
            self.system.post("pimtrie.store", sends)

    def _at_hvm_top(self, key: int, records: int) -> bool:
        """Whether a piece topped by block ``key`` and storing
        ``records`` records gets a copy on every module: ``key`` is
        within ⌈log₂ P⌉ block levels of the root block, and the block
        subtree under it holds at least P × ``records`` blocks, so the
        P − 1 copies take no more space than the records they route to
        (DESIGN.md §7, "Copies").  Walks the host block tree only, and
        stops at that count."""
        P = self.system.num_modules
        parent = self.blocks[key].record.parent_block
        for _ in range((P - 1).bit_length()):
            if parent is None:
                break
            parent = self.blocks[parent].record.parent_block
        if parent is not None:
            return False
        need, stack = P * records, [key]
        while stack and need > 0:
            need -= 1
            stack.extend(self.blocks[stack.pop()].children)
        return need <= 0

    def _master_table(self) -> _MasterDelta:
        """The master's whole table: every registered tree root."""
        return _MasterDelta(
            add=[
                (self.blocks[rb].record, pid)
                for pid, rb in self.master_pieces.items()
                if rb in self.blocks
            ],
            remove=[],
            full=True,
        )

    # ------------------------------------------------------------------
    def _piece_ancestors(self, pid: int) -> list[int]:
        out = []
        cur = self.pieces[pid].parent
        while cur is not None:
            out.append(cur)
            cur = self.pieces[cur].parent
        return out

    def _tree_root_of(self, pid: int) -> int:
        cur = pid
        while self.pieces[cur].parent is not None:
            cur = self.pieces[cur].parent
        return cur

    def _tree_pieces(self, root_pid: int) -> list[int]:
        out = []
        stack = [root_pid]
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(self.pieces[p].children)
        return out

    def _subtree_owned_count(self, pid: int) -> int:
        return sum(len(self.pieces[p].owned) for p in self._tree_pieces(pid))

    def _root_pid(self) -> Optional[int]:
        """The root piece: the one owning the root block's record."""
        entry = self.blocks.get(self.root_block_id)
        return entry.piece if entry is not None else None

    def _route(
        self, reads: list[tuple[_Placed, Any, Any]]
    ) -> list[tuple[int, Any, Any]]:
        """Address one exchange's reads: ``(entry, msg, tag)`` ->
        ``(module, msg, tag)``, in the same order, for block and piece
        entries alike.

        An entry without replicas is read from its module.  Any other
        read goes to the copy on the module with the fewest request
        words in the exchange: the single-copy reads plus the
        replicated reads placed before it.  Ties go to the first copy
        at or after the shared cursor :attr:`_read_rr`, in module
        order, so a lone read still rotates over the copies."""
        out: list = []
        spread: list[int] = []
        for entry, msg, tag in reads:
            if entry.replicas:
                spread.append(len(out))
                out.append(None)
            else:
                out.append((entry.module, msg, tag))
        if not spread:
            return out
        P = self.system.num_modules
        wc = self.system.word_cost
        load = [0] * P
        for sent in out:
            if sent is not None:
                load[sent[0]] += wc(sent[1])
        for i in spread:
            entry, msg, tag = reads[i]
            copies = entry._copies()
            low, start = min(load[m] for m in copies), self._read_rr
            m = min(
                (m for m in copies if load[m] == low),
                key=lambda m: (m - start) % P,
            )
            self._read_rr = (m + 1) % P
            load[m] += wc(msg)
            out[i] = (m, msg, tag)
        return out

    def _post_piece_path(self, sends: list[tuple[int, str, Any, Any]]) -> None:
        """One posted write over the meta pieces: each ``(pid, op, item,
        up_item)`` sends ``item`` to every copy of piece ``pid`` and
        ``up_item`` to every copy of each ancestor of it
        (subtree-complete replication, §4.4.1).  A module gets one
        ``_PieceOp`` per (piece, op), carrying its items in send order."""
        msgs: dict[int, dict[tuple[int, str], list]] = defaultdict(
            lambda: defaultdict(list)
        )
        for pid, op, item, up_item in sends:
            for m in self.pieces[pid]._copies():
                msgs[m][pid, op].append(item)
            for anc in self._piece_ancestors(pid):
                for m in self.pieces[anc]._copies():
                    msgs[m][anc, op].append(up_item)
        if msgs:
            self.system.post("pimtrie.piece", {
                m: [_PieceOp(op, pid, payload=it) for (pid, op), it in per.items()]
                for m, per in msgs.items()
            })

    @_structural
    def _hvm_apply(
        self,
        added: Sequence[MetaRecord] = (),
        updated: Sequence[MetaRecord] = (),
        gone: Optional[dict[int, BlockEntry]] = None,
    ) -> None:
        """Incremental §5.2 maintenance of the HVM for one structural
        edit, in one posted piece-path write.  The caller has already put
        each record in its block's entry.  ``updated`` records replace
        existing ones in place (a parent pointer moved); each ``added``
        record joins the leaf piece owning its parent block; ``gone``
        maps blocks just removed from :attr:`blocks` to their entries,
        whose records are dropped.  ``added`` comes parent first (the
        order :func:`extract_blocks` emits), so a new record's parent
        already has a piece.  Overflowing or alpha-imbalanced trees are
        then rebuilt — the whole HVM if a piece empties or a tree root's
        block is gone."""
        cfg = self.config
        sends: list[tuple[int, str, Any, Any]] = []
        dirty_trees: set[int] = set()
        rebuild_all = False
        for rec in updated:
            entry = self.blocks[rec.block_id]
            if entry.piece is not None:
                sends.append((entry.piece, "add", (rec, True), (rec, False)))
        for rec in added:
            pid = self.blocks[rec.parent_block].piece
            self.blocks[rec.block_id].piece = pid
            owned = self.pieces[pid].owned
            owned.add(rec.block_id)
            sends.append((pid, "add", (rec, True), (rec, False)))
            if len(owned) > cfg.small_meta_bound:
                dirty_trees.add(self._tree_root_of(pid))
        for bid, entry in (gone or {}).items():
            pid = entry.piece
            if pid is None:
                continue
            owned = self.pieces[pid].owned
            owned.discard(bid)
            sends.append((pid, "remove", bid, bid))
            if not owned or self.master_pieces.get(pid) == bid:
                rebuild_all = True
        self._post_piece_path(sends)
        updated_ids = {r.block_id for r in updated}
        master_updates = [
            (self.blocks[rb].record, pid)
            for pid, rb in self.master_pieces.items()
            if rb in updated_ids
        ]
        if master_updates:
            self._post_master(_MasterDelta(add=master_updates, remove=[]))
        if rebuild_all:
            self._rebuild_hvm()
            return
        # K_MB and alpha-imbalance checks on the trees new records joined
        for root_pid in {
            self._tree_root_of(self.blocks[r.block_id].piece) for r in added
        }:
            total = self._subtree_owned_count(root_pid)
            if total > cfg.meta_block_bound:
                dirty_trees.add(root_pid)
                continue
            for p in self._tree_pieces(root_pid):
                mine = self._subtree_owned_count(p)
                for c in self.pieces[p].children:
                    if self._subtree_owned_count(c) > cfg.alpha * mine:
                        dirty_trees.add(root_pid)
        for root_pid in dirty_trees:
            self._rebuild_tree(root_pid)

    # ==================================================================
    # trie matching (Algorithms 2, 4, 5)
    # ==================================================================
    def _hash_match(self, frag: ColumnarFragment, table: RecordTable, log):
        """CPU-side (pull) HashMatching of one fragment."""
        cfg = self.config
        return hash_match_columnar(
            frag, table, self.hasher, verify=cfg.verify,
            tick=self.system.tick_cpu, log=log, use_pivots=cfg.use_pivots,
        )

    def match_batch(
        self,
        query_trie: QueryArena,
        prefixes: Sequence[BitString] = (),
        write: Optional[tuple[str, dict[BitString, Any]]] = None,
    ) -> MatchOutcome:
        """Full trie matching for a query trie (Algorithm 2).  Each of
        ``prefixes`` (query keys) gets its SubtreeQuery first answer in
        ``outcome.roots`` from the block matching, and the block
        matching applies ``write`` (see :meth:`_match_blocks`)."""
        outcome = MatchOutcome()
        if self.root_block_id is None or query_trie.num_keys == 0:
            return outcome
        with maybe_span(self.system, "match.master", cat="phase"):
            master_cuts = self._master_match(query_trie)
        with maybe_span(self.system, "match.meta", cat="phase"):
            block_cut_map = self._match_critical_blocks(
                query_trie, master_cuts, outcome
            )
        with maybe_span(self.system, "match.blocks", cat="phase"):
            block_frags = self._spawn_block_fragments(query_trie, block_cut_map)
            self._match_blocks(block_frags, outcome, prefixes, write)
        return outcome

    # ------------------------------------------------------------------
    def _master_match(
        self, query_trie: QueryArena
    ) -> list[tuple[ColPathPos, MetaRecord, Optional[int]]]:
        """Algorithm 4: split the query trie into O(P log P) similar-size
        pieces, send to random modules, HashMatch against the master."""
        cfg = self.config
        P = self.system.num_modules
        total = query_trie.word_cost()
        target = max(8, total // max(1, P * cfg.log_p))
        # partition rows come out ascending == preorder
        cuts = [ColPathPos(ColNodeRef(r)) for r in query_trie.partition(target)]
        frags = span_columnar(query_trie, cuts)
        nodes = query_trie.node_map()
        out: list[tuple[ColPathPos, MetaRecord, Optional[int]]] = []
        for frag, (result, _collisions) in self.system.exchange(
            "pimtrie.match",
            [(self.system.random_module(), _FragMatch(f, "master"), f)
             for f in frags],
        ):
            for cut, piece_id in result:
                origin_uid = frag.origin.get(cut.node_uid)
                if origin_uid is None:
                    continue
                node = nodes.get(origin_uid)
                if node is None:
                    continue
                out.append((ColPathPos(node, cut.back), cut.record, piece_id))
        return out

    # ------------------------------------------------------------------
    def _match_critical_blocks(
        self,
        qt: QueryArena,
        master_cuts: list[tuple[ColPathPos, MetaRecord, Optional[int]]],
        outcome: MatchOutcome,
    ) -> dict[tuple[int, int], MetaRecord]:
        """Algorithm 5: divide query meta-blocks down the piece trees
        with push-pull; returns critical block cuts in query-trie
        coordinates."""
        cfg = self.config
        # span the query trie at the master hits (plus the root seed)
        positions: list = [ColPathPos(qt.root)]
        piece_at: dict[tuple[int, int], int] = {}
        root_pid = self._root_pid()
        if root_pid is not None:
            piece_at[(qt.root.uid, 0)] = root_pid
        block_cut_map: dict[tuple[int, int], MetaRecord] = {}
        for pos, rec, pid in master_cuts:
            positions.append(pos)
            if pid is not None:
                piece_at[(pos.node.uid, pos.back)] = pid
            # component roots are block roots themselves: they are
            # critical cuts in their own right
            key = (pos.node.uid, pos.back)
            prev = block_cut_map.get(key)
            if prev is None or rec.depth > prev.depth:
                block_cut_map[key] = rec
        frags = span_columnar(qt, positions)
        pending: list[tuple[ColumnarFragment, int, bool]] = []
        for f in frags:
            key = (f.base_pos.node.uid, f.base_pos.back)
            pid = piece_at.get(key, root_pid)
            if pid is not None:
                pending.append((f, pid, False))

        exchange = self.system.exchange
        route, pieces = self._route, self.pieces
        rounds_guard = 0
        while pending:
            rounds_guard += 1
            force_all = rounds_guard > 4 * (cfg.log_p + 2)
            pushes: list[tuple[ColumnarFragment, int]] = []
            pulls: list[tuple[ColumnarFragment, int]] = []
            descents: list[tuple[ColumnarFragment, int]] = []
            for frag, pid, force_pull in pending:
                small = frag.word_cost() <= cfg.pull_threshold
                if not cfg.use_push_pull:
                    small = True
                if force_pull or force_all:
                    pulls.append((frag, pid))
                elif small:
                    pushes.append((frag, pid))
                elif pieces[pid].children:
                    descents.append((frag, pid))
                else:
                    pulls.append((frag, pid))
            pending = []

            reads = route([
                (pieces[pid], _FragMatch(frag, "piece", pid), frag)
                for frag, pid in pushes
            ])
            for frag, (result, coll) in exchange("pimtrie.match", reads):
                outcome.collisions += coll
                self._absorb_block_cuts(
                    frag, [c for c, _ in result], block_cut_map
                )

            reads = route([
                (pieces[pid], _PieceOp("fetch", pid), frag)
                for frag, pid in pulls
            ])
            for frag, records in exchange("pimtrie.piece", reads):
                log = CollisionLog()
                cuts = self._hash_match(frag, RecordTable(records), log)
                outcome.collisions += log.rejected
                self._absorb_block_cuts(frag, cuts, block_cut_map)

            reads = route([
                (pieces[pid], _PieceOp("children", pid), (frag, pid))
                for frag, pid in descents
            ])
            for (frag, pid), kids in exchange("pimtrie.piece", reads):
                child_recs = [(cid, rec) for cid, rec in kids if rec is not None]
                table = RecordTable([rec for _, rec in child_recs])
                piece_by_block = {rec.block_id: cid for cid, rec in child_recs}
                log = CollisionLog()
                cuts = self._hash_match(frag, table, log)
                outcome.collisions += log.rejected
                if not cuts:
                    pending.append((frag, pid, True))
                    continue
                # child piece roots are block roots: critical cuts
                self._absorb_block_cuts(frag, cuts, block_cut_map)
                for sf, cut in respan_columnar(frag, cuts):
                    cid = piece_by_block[cut.record.block_id]
                    pending.append((sf, cid, False))
                # the remainder above the cuts still needs this piece's
                # own records
                pending.append((frag, pid, True))
        return block_cut_map

    # ------------------------------------------------------------------
    def _absorb_block_cuts(
        self,
        frag: ColumnarFragment,
        cuts: list[MatchCut],
        block_cut_map: dict[tuple[int, int], MetaRecord],
    ) -> None:
        for cut in cuts:
            origin_uid = frag.origin.get(cut.node_uid)
            if origin_uid is None:
                continue
            key = (origin_uid, cut.back)
            prev = block_cut_map.get(key)
            if prev is None or cut.record.depth > prev.depth:
                block_cut_map[key] = cut.record

    # ------------------------------------------------------------------
    def _spawn_block_fragments(
        self, qt: QueryArena, block_cut_map: dict[tuple[int, int], MetaRecord]
    ) -> list[tuple[ColumnarFragment, MetaRecord]]:
        nodes = qt.node_map()
        positions: list = [ColPathPos(qt.root)]
        recs: dict[tuple[int, int], MetaRecord] = {
            (qt.root.uid, 0): self.blocks[self.root_block_id].record
        }
        for (uid, back), rec in block_cut_map.items():
            node = nodes.get(uid)
            if node is None:
                continue
            positions.append(ColPathPos(node, back))
            recs[(uid, back)] = rec
        frags = span_columnar(qt, positions)
        out = []
        for f in frags:
            key = (f.base_pos.node.uid, f.base_pos.back)
            rec = recs.get(key)
            if rec is None or f.base_depth != rec.depth:
                continue
            out.append((f, rec))
        return out

    # ------------------------------------------------------------------
    def _match_blocks(
        self,
        block_frags: list[tuple[ColumnarFragment, MetaRecord]],
        outcome: MatchOutcome,
        prefixes: Sequence[BitString],
        write: Optional[tuple[str, dict[BitString, Any]]] = None,
    ) -> None:
        """Algorithm 2: push small query blocks / pull large data blocks,
        run local bit-by-bit matching, merge results.

        SubtreeQuery starts with this matching (§5.3), so each distinct
        prefix rides one block request: that of the fragment holding
        the prefix's end, i.e. the one based at the deepest block root
        prefixing it (a prefix ending on a cut goes with the fragment
        based there).  The block answers it after the local match, and
        a pulled block is answered on the host with the same helper.

        Insert and Delete start with it too (§5.2): ``write`` is
        ``(op, key -> value)`` over the deduplicated batch, op
        ``"insert"`` or ``"delete"``, and each key goes to its home
        block by the same rule, so a write run costs only its matching
        rounds.  The pulls run first, so the host matches every fetched
        block before a write lands; the push round then carries every
        write.  A pushed home's write rides its routed match, which the
        kernel applies after every match of the round; each other copy
        of it, and every copy of a pulled home, gets the write as a
        plain request.  Write-carrying requests lead the round — homes
        in the order of their first key, each home's copies in
        ``_copies()`` order — so the writes run in the order a round of
        their own would run them."""
        cfg = self.config
        blocks, tick_cpu = self.blocks, self.system.tick_cpu
        attached: list[list[BitString]] = [[] for _ in block_frags]
        #: fragment index -> the write items of its block, in the order
        #: of each block's first key
        by_home: dict[int, list] = {}
        op, items = write if write is not None else ("", {})
        if prefixes or items:
            base_of = {
                blocks[rec.block_id].root: i
                for i, (_, rec) in enumerate(block_frags)
            }
            depths = sorted({len(root) for root in base_of}, reverse=True)

            def home(key: BitString) -> int:
                for d in depths:
                    i = base_of.get(key.prefix(d)) if d <= len(key) else None
                    if i is not None:
                        return i
                raise AssertionError(f"no block root prefixes {key}")

            for p in dict.fromkeys(prefixes):
                attached[home(p)].append(p)
            for key, value in items.items():
                i = home(key)
                rec = block_frags[i][1]
                rel = key.suffix_from(rec.depth)
                by_home.setdefault(i, []).append(
                    (rel, value) if op == "insert" else rel
                )
                outcome.homes[key] = rec.block_id
        pushes: list[int] = []
        pulls: list[int] = []
        for i, (frag, _rec) in enumerate(block_frags):
            if cfg.use_push_pull and frag.word_cost() >= cfg.block_bound:
                pulls.append(i)
            else:
                pushes.append(i)
        route, roots = self._route, outcome.roots
        reads = []
        for i in pushes:
            frag, rec = block_frags[i]
            ps, w = attached[i], by_home.get(i)
            reads.append((blocks[rec.block_id], _BlockOp(
                "match", rec.block_id, frag=frag,
                payload=[p.suffix_from(rec.depth) for p in ps] if ps else None,
                write=None if w is None else _BlockOp(op, rec.block_id, payload=w),
            ), i))
        pushed = route(reads)
        fetches = route([
            (blocks[block_frags[i][1].block_id],
             _BlockOp("fetch", block_frags[i][1].block_id), i)
            for i in pulls
        ])

        pulled: list[LocalMatchResult] = []
        for i, blk in self.system.exchange("pimtrie.block", fetches):
            pulled.append(local_match_columnar(
                block_frags[i][0], blk.trie, blk.block_id, blk.root_depth,
                tick=tick_cpu,
            ))
            for p in attached[i]:
                ans = _subtree_answer(
                    blk, p.suffix_from(blk.root_depth), tick_cpu
                )
                if ans is not None:
                    roots[p] = (blk.block_id, *ans)

        at = {i: (m, msg) for m, msg, i in pushed}
        sends: list[tuple[int, _BlockOp, tuple[int, bool]]] = []
        for i, w in by_home.items():
            bid = block_frags[i][1].block_id
            mine = at.get(i)
            plain = _BlockOp(op, bid, payload=w)
            for m in blocks[bid]._copies():
                if mine is not None and m == mine[0]:
                    sends.append((m, mine[1], (i, True)))
                else:
                    sends.append((m, plain, (i, False)))
        sends += [
            (m, msg, (i, True)) for m, msg, i in pushed if i not in by_home
        ]
        matched: dict[int, LocalMatchResult] = {}
        for (i, is_match), reply in self._block_round(sends):
            bid = block_frags[i][1].block_id
            if not is_match:
                outcome.sizes.append((bid, reply))
                continue
            if op == "insert" and i in by_home:
                reply, words = reply
                outcome.sizes.append((bid, words))
            if attached[i]:
                reply, answers = reply
                for p, ans in zip(attached[i], answers):
                    if ans is not None:
                        roots[p] = (bid, *ans)
            matched[i] = reply
        # the merge below keeps the first of two equal entries, so the
        # replies go in read order: modules by first routed match, then
        # route order, then the pulled blocks
        by_module: dict[int, list[int]] = defaultdict(list)
        for m, _msg, i in pushed:
            by_module[m].append(i)
        results = [matched[i] for idxs in by_module.values() for i in idxs]
        results += pulled
        # merge (Algorithm 2 line 14): deepest wins, and a full match
        # beats a cutoff at the same depth.  A parent block reports a
        # cutoff at its mirror, so only the child block based there
        # matches a node fully at that depth.  Improvements accumulate
        # as plain tuples, so each surviving uid allocates one
        # MatchEntry, not one per step.
        upd: dict[int, tuple] = {}
        for res in results:
            bid = res.block_id
            for uid, (depth, has_key, value) in res.node_matches.items():
                prev = upd.get(uid)
                if (
                    prev is None
                    or depth > prev[0]
                    or (depth == prev[0] and not prev[1])
                ):
                    upd[uid] = (depth, True, has_key, value, bid)
            for uid, depth in res.cutoffs.items():
                prev = upd.get(uid)
                if prev is None or depth > prev[0]:
                    upd[uid] = (depth, False, False, None, bid)
        ent = outcome.entries
        for uid, t in upd.items():
            ent[uid] = MatchEntry(*t)

    def _block_round(
        self, sends: list[tuple[int, _BlockOp, Any]]
    ) -> list[tuple[Any, Any]]:
        """:meth:`PIMSystem.exchange` over ``pimtrie.block`` for a round
        that may carry plain deletes, which reply with nothing: each
        other request's tag is paired with its reply, in exchange's
        order, and a module replying otherwise raises."""
        requests: dict[int, list] = defaultdict(list)
        tags: dict[int, list] = defaultdict(list)
        for m, msg, tag in sends:
            requests[m].append(msg)
            tags[m].append(tag)
        if not requests:
            return []
        out: list[tuple[Any, Any]] = []
        for m, reply in self.system.round("pimtrie.block", requests).items():
            replied = [
                tag for msg, tag in zip(requests[m], tags[m])
                if msg.op != "delete"
            ]
            if len(reply) != len(replied):
                raise ValueError(
                    f"module {m} sent {len(reply)} replies to "
                    f"{len(replied)} replying block requests"
                )
            out += zip(replied, reply)
        return out

    # ==================================================================
    # adaptive-skew support (repro.adapt): touch stats
    # ==================================================================
    def _note_touches(self, folded: dict) -> None:
        """Count one access per distinct batch key against its owning
        block.  Host-side control-plane bookkeeping: no rounds, no
        ticks — feeding the adapt layer's sketch never perturbs the
        PIM Model metrics."""
        t = self.block_touches
        for _depth, block, _exact, _value in folded.values():
            t[block] = t.get(block, 0) + 1

    def take_block_touches(self) -> dict[int, int]:
        """Drain the per-block access counters (serve calls this once
        per epoch to feed the frequency sketch)."""
        out = self.block_touches
        self.block_touches = {}
        return out

    # ==================================================================
    # public batch operations (§5)
    # ==================================================================
    def _match_keys(
        self,
        keys,
        values=None,
        prefixes: Sequence[BitString] = (),
        write: Optional[tuple[str, dict[BitString, Any]]] = None,
    ) -> tuple[dict, MatchOutcome]:
        """Build and match the batch's query trie.  Returns
        ``(fold, outcome)``: the fold, ``key -> (depth, block, exact,
        value)``, with its touches counted, and the matched trie, whose
        ``roots`` hold the SubtreeQuery first answers of ``prefixes``
        and whose block round applied ``write`` (both subsets of
        ``keys``; see :meth:`_match_blocks`).  The fold reads the
        pre-batch state, and names each write key's home."""
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = QueryArena.build(list(keys), values)
            self.system.tick_cpu(qt.num_nodes())
        outcome = self.match_batch(qt, prefixes, write)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        for key, bid in outcome.homes.items():
            assert folded[key][1] == bid, (
                f"{key}'s write went to block {bid}, "
                f"its fold home is {folded[key][1]}"
            )
        self._note_touches(folded)
        return folded, outcome

    def read_batch(
        self, lcp_keys: Sequence[BitString], prefixes: Sequence[BitString]
    ) -> tuple[list[int], list[list[tuple[BitString, Any]]]]:
        """LCP and SubtreeQuery answers for one read batch, from one
        trie matching: SubtreeQuery starts with the same matching as
        LCP (§5.3), so one query trie over both key lists is matched
        once, its fold answers both and its block round carries the
        prefixes' first subtree answers.  With one side empty only the
        other call runs, so a one-kind batch costs what it did alone.
        Returns ``(lcp_batch(lcp_keys), subtree_batch(prefixes))``."""
        matched = None
        if lcp_keys and prefixes and self.root_block_id is not None:
            matched = self._match_keys(
                [*lcp_keys, *prefixes], prefixes=prefixes
            )
        return (
            self.lcp_batch(lcp_keys, folded=matched[0] if matched else None),
            self.subtree_batch(prefixes, matched=matched),
        )

    @_traced_op("op.lcp")
    def lcp_batch(
        self, keys: Sequence[BitString], *, folded: Optional[dict] = None
    ) -> list[int]:
        """LongestCommonPrefix for a batch of keys (§5.1).  ``folded``
        is a matched fold covering ``keys`` (see :meth:`read_batch`);
        without it the batch matches for itself."""
        if not keys:
            return []
        if self.root_block_id is None:
            return [0] * len(keys)
        if folded is None:
            folded, _ = self._match_keys(keys)
        return [folded[k][0] for k in keys]

    @_traced_op("op.lookup")
    def lookup_batch(self, keys: Sequence[BitString]) -> list[Any]:
        """Values for exactly-stored keys (None otherwise)."""
        if not keys:
            return []
        folded, _ = self._match_keys(keys)
        return [folded[k][3] if folded[k][2] else None for k in keys]

    # ------------------------------------------------------------------
    @_traced_op("op.insert")
    def insert_batch(
        self,
        keys: Sequence[BitString],
        values: Optional[Sequence[Any]] = None,
    ) -> int:
        """Insert a batch; returns the number of genuinely new keys (§5.2).
        Each key rides its home block's match request, so the batch
        costs its matching rounds (see :meth:`_match_blocks`)."""
        if not keys:
            return 0
        vals = list(values) if values is not None else [None] * len(keys)
        # duplicate keys within a batch follow sequential semantics: the
        # last write wins, exactly as if the ops were applied one by one
        # (and therefore invariant under splitting a batch in two, which
        # the serve layer's epoch boundaries do).  dict order keeps the
        # iteration — and thus every placement draw — deterministic.
        latest: dict[BitString, Any] = {}
        for key, value in zip(keys, vals):
            latest[key] = value
        folded, outcome = self._match_keys(keys, vals, write=("insert", latest))
        # write-through replica log, only once the round committed: an
        # aborted round leaves the log matching module state, and the
        # retried batch re-applies both sides (upsert semantics).  A key
        # is new if the log lacks it: a retry after a lost reply finds
        # it stored, but the log still trails the batch
        new_keys = 0
        for key, value in latest.items():
            entry = self.blocks[folded[key][1]]
            rel = key.suffix_from(len(entry.root))
            new_keys += rel not in entry.items
            entry.items[rel] = value
        self._ordered_version += 1
        oversized: list[int] = []
        for bid, words in outcome.sizes:
            if words > 2 * self.config.block_bound and bid not in oversized:
                oversized.append(bid)
        if oversized:
            self._repartition_blocks(oversized)
        return new_keys

    # ------------------------------------------------------------------
    @_structural
    def _repartition_blocks(
        self, block_ids: list[int], *, bound: Optional[int] = None
    ) -> None:
        """Pull oversized blocks, re-run the §4.2 blocking algorithm on
        each, ship the resulting blocks, update mirrors and the HVM.

        ``bound`` overrides the configured block bound — the adapt
        layer's :meth:`split_block` passes a finer bound to fracture a
        hot block across fresh modules.
        """
        bound = self.config.block_bound if bound is None else bound
        # a re-partitioned block's copies would go stale: retire them
        # first (they are re-created on demand if the block stays hot)
        self._drop_replicas(block_ids)
        fetched: list[DataBlock] = [
            blk for _, blk in self.system.exchange("pimtrie.block", [
                (self.blocks[bid].module, _BlockOp("fetch", bid), None)
                for bid in block_ids
            ])
        ]

        ship: dict[int, list] = defaultdict(list)
        new_records: list[MetaRecord] = []
        updated_records: list[MetaRecord] = []
        for blk in fetched:
            old = self.blocks[blk.block_id]
            # the top sub keeps the old block's id, module and parent
            subs, roots, parents = extract_blocks(
                blk.trie, bound, self.hasher, old.root, blk.block_id
            )
            parents[blk.block_id] = old.record.parent_block
            new_records += self._place_blocks(subs, roots, parents, ship)
            updated_records.append(old.record)
            # re-parent pre-existing children whose mirrors moved into a
            # new sub-block: the host's child lists and the child's record
            for sub in subs:
                for mid in sub.child_ids():
                    child = self.blocks.get(mid)
                    if child is None:
                        continue
                    parent = child.record.parent_block
                    if parent != sub.block_id:
                        self.blocks[parent].children.discard(mid)
                        self.blocks[sub.block_id].children.add(mid)
                        child.record = replace(
                            child.record, parent_block=sub.block_id
                        )
                        updated_records.append(child.record)
        if ship:
            self.system.post("pimtrie.store", ship)
        self._hvm_apply(added=new_records, updated=updated_records)

    # ==================================================================
    # adaptive-skew maintenance ops (repro.adapt): split / replicate /
    # merge.  All keep the replica-log and span-sum invariants exact:
    # every word moved is moved inside an accounted round, and the
    # replica-log union over blocks never changes (only placement does),
    # so answers are invariant under any interleaving of these ops.
    # ==================================================================
    def _drop_replicas(self, block_ids: Iterable[int]) -> int:
        """Free every extra copy of ``block_ids`` (one posted write if
        any); primaries are untouched.  Returns the number of copies
        freed."""
        sends: dict[int, list] = defaultdict(list)
        dropped = 0
        for bid in block_ids:
            entry = self.blocks.get(bid)
            if entry is None or not entry.replicas:
                continue
            for m in entry.replicas:
                sends[m].append(_BlockOp("free", bid))
                dropped += 1
            entry.replicas = []
        if sends:
            self.system.post("pimtrie.block", sends)
        return dropped

    @_structural
    def dereplicate_block(self, bid: int) -> int:
        """Drop all read replicas of ``bid`` (cold-block decay path)."""
        return self._drop_replicas([bid])

    @_structural
    def replicate_block(
        self, bid: int, module: Optional[int] = None
    ) -> Optional[int]:
        """Place one extra read copy of block ``bid`` on ``module`` (a
        uniformly random module holding no copy, if None).

        Reads spread over the copies afterwards (:meth:`_route`); writes
        fan out to every copy, so each stays exact.  The copy is
        shipped as a *fresh* host-side reconstruction — never the fetched
        object itself, which would alias two module memories.  Returns
        the chosen module, or None if no module is free to take a copy.
        """
        entry = self.blocks.get(bid)
        if entry is None:
            return None
        have = set(entry._copies())
        if module is None:
            candidates = [
                m for m in range(self.system.num_modules) if m not in have
            ]
            if not candidates:
                return None
            module = candidates[int(self.system.rng.integers(len(candidates)))]
        elif module in have:
            return None
        # accounted read of the source copy...
        self.system.exchange(
            "pimtrie.block", self._route([(entry, _BlockOp("fetch", bid), None)])
        )
        # ...then build + ship an independent copy
        fresh = self._reconstruct_block(bid)
        self.system.tick_cpu(fresh.word_cost())
        self.system.post("pimtrie.store", {module: [_StoreBlock(fresh)]})
        entry.replicas.append(module)
        return module

    @_structural
    def split_block(self, bid: int, *, bound: Optional[int] = None) -> int:
        """Fracture a hot block across fresh modules by re-running the
        §4.2 blocking algorithm on it with a finer word bound (default:
        a quarter of the configured bound).  Returns the number of new
        blocks created (0 if the block already fits the finer bound)."""
        if bid not in self.blocks:
            return 0
        if bound is None:
            bound = max(8, self.config.block_bound // 4)
        before = len(self.blocks)
        self._repartition_blocks([bid], bound=bound)
        return len(self.blocks) - before

    @_structural
    def merge_block(self, bid: int) -> int:
        """Fold block ``bid``'s direct children back into it (the cold
        inverse of :meth:`split_block`).  Grandchildren become ``bid``'s
        children.  Returns the number of children absorbed.

        The merged block is rebuilt host-side from the replica log (its
        union equals the physical contents at every round boundary) and
        shipped whole; the fetch round charges the read of every merged
        word first, so metrics stay honest.
        """
        entry = self.blocks.get(bid)
        children = sorted(entry.children) if entry is not None else []
        if not children:
            return 0
        # stale copies of everything being restructured go first
        self._drop_replicas([bid, *children])
        sends: dict[int, list] = defaultdict(list)
        for b in (bid, *children):
            sends[self.blocks[b].module].append(_BlockOp("fetch", b))
        self.system.round("pimtrie.block", sends)

        base = entry.root
        merged = dict(entry.items)
        grandkids: set[int] = set()
        frees: dict[int, list] = defaultdict(list)
        gone: dict[int, BlockEntry] = {}
        for c in children:
            gone[c] = child = self.blocks.pop(c)
            self.block_touches.pop(c, None)
            rel_c = child.root.suffix_from(len(base))
            for rel, v in child.items.items():
                merged[rel_c + rel] = v
            grandkids.update(child.children)
            frees[child.module].append(_BlockOp("free", c))
        entry.children = set(grandkids)
        for g in grandkids:
            g_entry = self.blocks[g]
            g_entry.record = replace(g_entry.record, parent_block=bid)
        entry.items = merged

        new_blk = self._reconstruct_block(bid)
        self.system.tick_cpu(new_blk.word_cost())
        self.system.post("pimtrie.store", {entry.module: [_StoreBlock(new_blk)]})
        self.system.post("pimtrie.block", frees)
        self._hvm_apply(
            updated=[self.blocks[g].record for g in sorted(grandkids)],
            gone=gone,
        )
        return len(children)

    # ------------------------------------------------------------------
    @_traced_op("op.delete")
    def delete_batch(self, keys: Sequence[BitString]) -> int:
        """Delete a batch of keys; returns the number removed (§5.2).
        Each key rides its home block's match request, which removes it
        if stored (see :meth:`_match_blocks`)."""
        if not keys or self.root_block_id is None:
            return 0
        batch = dict.fromkeys(keys)
        folded, _ = self._match_keys(keys, write=("delete", batch))
        # the replica log trails the committed round (see insert_batch).
        # Every batch key leaves it at its fold home, stored or not: a
        # retry after a lost reply finds the keys its kernels removed
        # gone, and the log must still drop (and count) them
        removed = 0
        for key in batch:
            entry = self.blocks[folded[key][1]]
            rel = key.suffix_from(len(entry.root))
            if rel in entry.items:
                del entry.items[rel]
                removed += 1
        if removed:
            self._ordered_version += 1
            self._collect_empty_blocks()
        return removed

    @_structural
    def _collect_empty_blocks(self) -> None:
        """Bottom-up scan over the block tree (§5.2): drop blocks whose
        whole subtree stores no keys; remove their mirrors and records."""
        blocks = self.blocks
        order = sorted(blocks, key=lambda b: len(blocks[b].root), reverse=True)
        below: dict[int, int] = {}
        for bid in order:
            below[bid] = len(blocks[bid].items) + sum(
                below.get(c, 0) for c in blocks[bid].children
            )
        doomed = [
            bid
            for bid in order
            if below.get(bid, 0) == 0
            and blocks[bid].record.parent_block is not None
        ]
        if not doomed:
            return
        doomed_set = set(doomed)
        sends: dict[int, list] = defaultdict(list)
        for bid in doomed:
            entry = blocks[bid]
            parent = entry.record.parent_block
            if parent not in doomed_set:
                # the mirror drop is a write: it must reach every copy
                # of the parent block
                dm = _BlockOp("drop_mirror", parent, payload=bid)
                for m in blocks[parent]._copies():
                    sends[m].append(dm)
            free = _BlockOp("free", bid)
            for m in entry._copies():
                sends[m].append(free)
        self.system.post("pimtrie.block", sends)
        gone: dict[int, BlockEntry] = {}
        for bid in doomed:
            gone[bid] = entry = blocks.pop(bid)
            # doomed runs deepest first, so the parent is still here
            blocks[entry.record.parent_block].children.discard(bid)
            self.block_touches.pop(bid, None)
        self._hvm_apply(gone=gone)

    # ------------------------------------------------------------------
    @_traced_op("op.subtree")
    def subtree_batch(
        self,
        prefixes: Sequence[BitString],
        *,
        matched: Optional[tuple[dict, MatchOutcome]] = None,
    ) -> list[list[tuple[BitString, Any]]]:
        """SubtreeQuery: all (key, value) pairs under each prefix (§5.3).
        The LCP matching carries each prefix to the block holding its
        end, whose reply brings the prefix's items there and the child
        blocks below it; those are resolved down the piece trees and
        fetched.  ``matched`` is ``_match_keys``'s ``(fold, outcome)`` for
        keys covering ``prefixes`` with ``prefixes`` attached (see
        :meth:`read_batch`); without it the batch matches for itself."""
        if not prefixes:
            return []
        if self.root_block_id is None:
            return [[] for _ in prefixes]
        if matched is None:
            matched = self._match_keys(prefixes, prefixes=prefixes)
        folded, roots = matched[0], matched[1].roots
        exchange = self.system.exchange

        results: dict[BitString, list[tuple[BitString, Any]]] = {
            p: [] for p in prefixes
        }
        frontier: list[tuple[BitString, int]] = []
        for p, out in results.items():
            depth, block, _exact, _v = folded[p]
            if depth < len(p):
                continue
            bid, root_depth, items, kids = roots[p]
            assert bid == block, (
                f"prefix {p} answered by block {bid}, matched in {block}"
            )
            for rel_key, value in items:
                out.append((p.prefix(root_depth) + rel_key, value))
            frontier.extend((p, k) for k in kids)

        # resolve all descendant block refs via the piece trees
        # (O(log P) rounds, Lemma 4.6), then fetch the blocks at once
        all_blocks: list[tuple[BitString, int]] = []
        with maybe_span(self.system, "subtree.descend", cat="phase"):
            while frontier:
                sends = []
                for p, bid in frontier:
                    pid = self.blocks[bid].piece
                    sends.append((self.pieces[pid],
                                  _PieceOp("subtree", pid, payload=bid),
                                  (p, bid)))
                frontier = []
                for (p, bid), records in exchange(
                    "pimtrie.piece", self._route(sends)
                ):
                    # at a round boundary every block's piece holds its
                    # record (validate() checks it)
                    found = {r.block_id for r in records}
                    assert bid in found, f"block {bid}'s piece lacks its record"
                    for r in records:
                        all_blocks.append((p, r.block_id))
                        for c in self.blocks[r.block_id].children:
                            if c not in found:
                                frontier.append((p, c))
        with maybe_span(self.system, "subtree.fetch", cat="phase"):
            sends = []
            seen_fetch: set[tuple[BitString, int]] = set()
            for p, bid in all_blocks:
                if (p, bid) in seen_fetch or bid not in self.blocks:
                    continue
                seen_fetch.add((p, bid))
                sends.append((self.blocks[bid],
                              _BlockOp("subtree", bid, payload=BitString(0, 0)),
                              (p, bid)))
            for (p, bid), (_depth, items, _kids) in exchange(
                "pimtrie.block", self._route(sends)
            ):
                prefix_abs = self.blocks[bid].root
                for rel_key, value in items:
                    results[p].append((prefix_abs + rel_key, value))
        return [sorted(results[p], key=lambda kv: kv[0]) for p in prefixes]

    # ==================================================================
    # ordered-index queries (repro.ordered)
    # ==================================================================
    def ordered_snapshot(self) -> OrderedSnapshot:
        """The current consistent ordered view of the stored key set.

        Built from the host replica log's key/value union (which equals
        the stored key set at round boundaries) and cached until the
        union's content version moves — a caller holding the returned
        snapshot keeps reading the same point-in-time image no matter
        what later batches insert, delete, or the adapt controller
        rearranges.  Building is accounted host CPU work (one pass over
        the live keys); no PIM rounds, no wire words.
        """
        snap = self._ordered_cache
        if snap is None or snap.version != self._ordered_version:
            with maybe_span(self.system, "ordered.snapshot", cat="phase"):
                items = self.replica_log_items()
                self.system.tick_cpu(max(1, len(items)))
                snap = OrderedSnapshot(items, version=self._ordered_version)
            self._ordered_cache = snap
        return snap

    @_traced_op("op.pred")
    def predecessor_batch(
        self, keys: Sequence[BitString]
    ) -> list[Optional[tuple[BitString, Any]]]:
        """Largest stored key strictly below each query, with its value
        (None when no stored key is smaller)."""
        if not keys:
            return []
        snap = self.ordered_snapshot()
        with maybe_span(self.system, "ordered.answer", cat="phase"):
            self.system.tick_cpu(len(keys))
            return [snap.predecessor(k) for k in keys]

    @_traced_op("op.succ")
    def successor_batch(
        self, keys: Sequence[BitString]
    ) -> list[Optional[tuple[BitString, Any]]]:
        """Smallest stored key strictly above each query, with its value
        (None when no stored key is larger)."""
        if not keys:
            return []
        snap = self.ordered_snapshot()
        with maybe_span(self.system, "ordered.answer", cat="phase"):
            self.system.tick_cpu(len(keys))
            return [snap.successor(k) for k in keys]

    @_traced_op("op.range")
    def range_batch(
        self,
        bounds: Sequence[tuple[BitString, BitString]],
        limit: Optional[int] = None,
    ) -> list[list[tuple[BitString, Any]]]:
        """Stored ``(key, value)`` pairs in ``[lo, hi]`` (inclusive) for
        each bound pair, in key order, truncated to the first ``limit``
        per query.  The scan early-terminates at the bound or limit."""
        if not bounds:
            return []
        snap = self.ordered_snapshot()
        with maybe_span(self.system, "ordered.answer", cat="phase"):
            out = [snap.range(lo, hi, limit=limit) for lo, hi in bounds]
            self.system.tick_cpu(len(bounds) + sum(len(r) for r in out))
            return out

    @_traced_op("op.count")
    def prefix_count_batch(self, prefixes: Sequence[BitString]) -> list[int]:
        """How many stored keys extend each prefix — the subtree size
        without the subtree fetch (two O(log n) bisects per prefix)."""
        if not prefixes:
            return []
        snap = self.ordered_snapshot()
        with maybe_span(self.system, "ordered.answer", cat="phase"):
            self.system.tick_cpu(len(prefixes))
            return [snap.prefix_count(p) for p in prefixes]

    @_traced_op("op.topk")
    def topk_batch(
        self, prefixes: Sequence[BitString], k: int
    ) -> list[list[tuple[BitString, Any]]]:
        """The ``k`` smallest stored keys extending each prefix (with
        values) — a prefix of the sorted subtree enumeration."""
        if not prefixes:
            return []
        snap = self.ordered_snapshot()
        with maybe_span(self.system, "ordered.answer", cat="phase"):
            out = [snap.top_k(p, k) for p in prefixes]
            self.system.tick_cpu(len(prefixes) + sum(len(r) for r in out))
            return out

    def top_k(
        self, prefix: BitString, k: int
    ) -> list[tuple[BitString, Any]]:
        """Single-prefix convenience wrapper over :meth:`topk_batch`."""
        return self.topk_batch([prefix], k)[0]

    # ==================================================================
    # crash recovery (repro.faults)
    # ==================================================================
    def _reconstruct_block(self, bid: int) -> DataBlock:
        """Rebuild one block host-side from its entry's replica log (no
        module memory touched)."""
        entry = self.blocks[bid]
        base = entry.root
        t = PatriciaTrie()
        for rel in sorted(entry.items):
            t.insert(rel, entry.items[rel])
        for cid in sorted(entry.children):
            _graft_mirror(t, self.blocks[cid].root.suffix_from(len(base)), cid)
        return DataBlock(
            block_id=bid,
            root_depth=len(base),
            root_hash=self.hasher.hash(base),
            trie=t,
            s_last=base.suffix_from(max(0, len(base) - WORD_BITS)),
        )

    def _reconstruct_piece(self, pid: int) -> MetaPiece:
        """Rebuild one copy of piece ``pid`` from the record mirror: its
        owned set plus the subtree-complete replication of every
        descendant."""
        entry = self.pieces[pid]
        return MetaPiece(
            pid,
            entry.root_block,
            [
                (self.blocks[b].record, p == pid)
                for p in sorted(self._tree_pieces(pid))
                for b in sorted(self.pieces[p].owned)
            ],
            {c: self.pieces[c].root_block for c in entry.children},
        )

    def rebuild_modules(self, modules: Iterable[int]) -> None:
        """Clean recovery: re-ship every block and piece resident on the
        (already restarted) ``modules``, rebuilt from the host records,
        then re-broadcast the master replica to them.  A replicated
        piece with a copy there is re-shipped to all its copies in the
        same store round.

        Valid only when no structural maintenance path was interrupted
        (``_dirty_structure`` clear) — the host records then describe
        the committed structure exactly.
        """
        modset = set(modules)
        if not modset:
            return
        sends: dict[int, list] = defaultdict(list)
        for bid, entry in sorted(self.blocks.items()):
            for m in entry._copies():
                if m in modset:
                    sends[m].append(_StoreBlock(self._reconstruct_block(bid)))
        for pid, entry in sorted(self.pieces.items()):
            # a piece that lost a copy is rebuilt on every copy, so all
            # of them share _reconstruct_piece's record order
            copies = entry._copies()
            if not modset.isdisjoint(copies):
                for m in copies:
                    sends[m].append(_StorePiece(self._reconstruct_piece(pid)))
        if sends:
            self.system.round("pimtrie.store", sends)
        msg = self._master_table()
        self.system.round("pimtrie.master", {m: [msg] for m in sorted(modset)})

    def replica_log_items(self) -> dict[BitString, Any]:
        """The key/value union of the host replica log.

        At round boundaries this equals the stored key set exactly —
        the invariant every maintenance path keeps — which makes it the
        seed for any rebuild that cannot trust module state:
        :meth:`rebuild_from_mirror` after a structural abort, and the
        cluster layer's re-replication of a lost rack onto a
        replacement (``repro.cluster``).  Host-side only: no rounds, no
        accounted cost.
        """
        union: dict[BitString, Any] = {}
        for entry in self.blocks.values():
            for rel, v in entry.items.items():
                union[entry.root + rel] = v
        return union

    def rebuild_from_mirror(self) -> None:
        """Full recovery: wipe every module's pimtrie state and rebuild
        the whole index from the union of the replica log.

        The fallback when an abort interrupted a *structural* path
        (repartition, HVM rebuild): host records may be mid-transition,
        but the replica-log union always equals the key set at round
        boundaries — the one invariant every maintenance path keeps.
        """
        union = self.replica_log_items()
        keys = sorted(union)
        vals = [union[k] for k in keys]
        # writes posted for modules about to be wiped would be lost anyway
        self.system.drop_posted()
        self.system.round(
            "pimtrie.wipe", {m: [True] for m in range(self.system.num_modules)}
        )
        self.blocks.clear()
        self.pieces.clear()
        self.master_pieces.clear()
        self.block_touches.clear()
        self.root_block_id = None
        self._maint_depth = 0
        self._dirty_structure = False
        self._bulk_build(keys, vals)

    # ==================================================================
    # introspection
    # ==================================================================
    def validate(self) -> None:
        """Assert every cross-module structural invariant (test oracle).

        Inspects module memories directly — a debugging facility, not an
        accounted operation.  Checks: block placement and metadata,
        mirror/child agreement (every mirror a non-key leaf), root-string
        consistency, HVM piece ownership and subtree-complete
        replication, master replication, live record indexes, and the
        configured size bounds.  Outside a structural edit no posted
        write is pending.
        """
        assert self._maint_depth > 0 or not self.system.posted, (
            f"{self.system.posted} posted writes outlived their edit"
        )
        cfg = self.config
        # every block and piece sits on exactly its copies, which are
        # independent objects (aliasing two module memories would let
        # one write update both for free) equal to the primary
        phys: dict[str, dict[int, Any]] = {}
        for kind, entries, content in (
            ("block", self.blocks, lambda b: (
                dict(b.trie.iter_items()), sorted(b.child_ids()),
                b.root_depth, b.trie.num_keys,
            )),
            # a piece copy's record order and child lists are part of
            # its content: fetch replies and subtree walks follow them
            ("piece", self.pieces, lambda p: (
                list(p.table.by_id.items()), p.owned, p.kids,
            )),
        ):
            stored: dict[int, dict[int, Any]] = defaultdict(dict)
            for m, module in enumerate(self.system.modules):
                for xid, obj in module.context.scratch.get(kind + "s", {}).items():
                    stored[xid][m] = obj
            assert set(stored) == set(entries), f"stray or missing {kind}s"
            primaries = phys[kind] = {}
            for xid, entry in entries.items():
                copies, homes = stored[xid], sorted(entry._copies())
                assert sorted(copies) == homes, (
                    f"{kind} {xid} copies {sorted(copies)} != {homes}"
                )
                assert len({id(c) for c in copies.values()}) == len(copies), (
                    f"{kind} {xid} aliased across modules"
                )
                first = primaries[xid] = copies[entry.module]
                for m in entry.replicas:
                    assert content(copies[m]) == content(first), (
                        f"copy of {kind} {xid} on {m} diverges"
                    )
        phys_blocks, phys_pieces = phys["block"], phys["piece"]

        # block metadata, tree structure, replica log and record mirror
        for bid, blk in phys_blocks.items():
            entry = self.blocks[bid]
            root_string = entry.root
            assert blk.block_id == bid
            blk.check(self.hasher, root_string)
            kids = sorted(blk.child_ids())
            assert kids == sorted(entry.children)
            for node in blk.trie.iter_nodes():
                assert node.mirror_child is None or (
                    not node.is_key and node.num_children == 0
                ), f"mirror {node.mirror_child} in block {bid} not a non-key leaf"
            for cid in kids:
                assert self.blocks[cid].root.starts_with(root_string)
                assert self.blocks[cid].record.parent_block == bid
            assert (
                dict(blk.trie.iter_items()) == entry.items
            ), f"replica log diverges from block {bid}"
            rec = entry.record
            assert rec.block_id == bid
            assert rec.depth == len(root_string)
            assert rec.module == entry.module
            assert rec.fingerprint == self.hasher.fingerprint_of(root_string)
            assert bid in self.pieces[entry.piece].owned
        roots = [
            b for b in phys_blocks if self.blocks[b].record.parent_block is None
        ]
        assert roots == [self.root_block_id]

        # HVM: ownership partition + subtree-complete tables
        owned_all = [b for p in phys_pieces.values() for b in p.owned]
        assert sorted(owned_all) == sorted(phys_blocks)
        for pid, piece in phys_pieces.items():
            entry = self.pieces[pid]
            assert entry.root_block == piece.root_block
            assert len(piece.owned) <= cfg.small_meta_bound or len(
                phys_pieces
            ) == 1
            assert entry.owned == set(piece.owned)
            covered = set(piece.table.by_id)
            assert set(piece.owned) <= covered
            stack = list(entry.children)
            while stack:
                c = stack.pop()
                assert self.pieces[c].owned <= covered
                stack.extend(self.pieces[c].children)

        # every master and piece copy indexes exactly its records: its
        # by_fp, layer2 and parent -> children lists equal a fresh build
        def index(table: RecordTable, kids=None):
            families = {fp: (f.size, f.members) for fp, f in table.layer2.items()}
            return table.by_fp, families, kids

        for m, module in enumerate(self.system.modules):
            scratch = module.context.scratch
            master = scratch.get("master")
            if master is not None:
                assert index(master) == index(
                    RecordTable(master.by_id.values())
                ), f"master on {m} indexes stale records"
            for pid, piece in scratch.get("pieces", {}).items():
                fresh = MetaPiece(
                    pid, records=[(r, False) for r in piece.table.by_id.values()]
                )
                assert index(piece.table, piece.kids) == index(
                    fresh.table, fresh.kids
                ), f"piece {pid} on {m} indexes stale records"

        # master replicated identically on all modules
        sizes = set()
        for m in range(self.system.num_modules):
            table = self.system.modules[m].context.scratch.get("master")
            sizes.add(len(table.by_id) if table is not None else 0)
        assert len(sizes) == 1
        assert sizes.pop() == len(self.master_pieces)

    def keys(self) -> list[BitString]:
        """All stored keys (debugging facility; walks module memories).
        Reads each block's primary copy only, so replicated blocks are
        not double-counted."""
        out: list[BitString] = []
        for bid, entry in self.blocks.items():
            scratch = self.system.modules[entry.module].context.scratch
            for rel, _v in scratch["blocks"][bid].trie.iter_items():
                out.append(entry.root + rel)
        return sorted(out)

    def num_keys(self) -> int:
        return sum(len(entry.items) for entry in self.blocks.values())

    def num_blocks(self) -> int:
        return len(self.blocks)

    def space_words(self) -> int:
        return self.system.total_memory_words()

    def __repr__(self) -> str:
        return (
            f"PIMTrie(P={self.system.num_modules}, keys={self.num_keys()}, "
            f"blocks={self.num_blocks()}, pieces={len(self.pieces)})"
        )


# ----------------------------------------------------------------------
# module-local helpers used by kernels
# ----------------------------------------------------------------------
def _subtree_answer(
    blk: DataBlock, rel: BitString, tick
) -> Optional[tuple[int, list[tuple[BitString, Any]], list[int]]]:
    """One block's SubtreeQuery answer for ``rel`` (relative to the
    block root): ``(root_depth, items, kids)`` — its (key, value) pairs
    under ``rel`` and the child blocks mirrored there, from one walk.
    None, unticked, when ``rel`` does not end inside the block."""
    found = blk.trie.subtree_walk(rel)
    if found is None:
        return None
    items, kids = found
    tick(len(items) + len(kids) + 1)
    return blk.root_depth, items, kids


def _graft_mirror(
    trie: PatriciaTrie, rel: BitString, child_block_id: int
) -> None:
    """Re-attach the mirror leaf for a child block rooted at ``rel``
    (block-relative) into a reconstructed block trie.

    A mirror is a non-key leaf: every key at or below ``rel`` is the
    child block's, so the walk stops short of ``rel``.
    """
    r = trie.walk(rel)
    pos = r.lcp_len
    if isinstance(r.node, TrieNode):
        node = r.node
    else:
        node = trie._split_edge(r.node.edge, r.node.offset)
    leaf = TrieNode(len(rel))
    leaf.mirror_child = child_block_id
    node.attach(TrieEdge(rel.suffix_from(pos), leaf))
    trie.edge_bits += len(rel) - pos


def _remove_mirror(trie: PatriciaTrie, child_block_id: int) -> None:
    """Delete the (non-key leaf) mirror node referencing
    ``child_block_id`` and re-compress the path."""
    for node in trie.iter_nodes():
        if node.mirror_child == child_block_id:
            node.mirror_child = None
            trie._compress_up(node)
            return
