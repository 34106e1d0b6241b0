"""PIM-trie: the batch-parallel skew-resistant trie (paper §4–§5).

The :class:`PIMTrie` facade owns

* the distributed data-trie blocks (§4.2),
* the hash value manager — meta pieces, meta-block trees, master-tree
  (§4.4, :mod:`repro.core.meta`),
* the trie-matching driver (Algorithms 2, 4, 5),
* the batch operations LCP / Insert / Delete / SubtreeQuery (§5).

Every CPU↔PIM data transfer goes through ``PIMSystem.round`` with real
word costs, so the PIM Model metrics (IO rounds, IO time, communication,
PIM time) measured around a batch are exactly the quantities the
paper's theorems bound.  The CPU driver additionally keeps *addressing
registries* (block → module, piece → module, parent/child ids) plus a
record mirror used only for maintenance: these stand in for the
remote-pointer metadata the distributed structure itself encodes and
carry no per-batch key data; see DESIGN.md §7.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

from ..bits import BitString, IncrementalHasher
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
    warm_table,
    respan_columnar,
    span_columnar,
)
from ..ordered import OrderedSnapshot
from .blocks import DataBlock, extract_blocks
from .config import PIMTrieConfig
from .hashmatch import CollisionLog, MatchCut, RecordTable
from .meta import MetaPiece, MetaRecord, decompose_component, make_record, next_piece_id

__all__ = ["PIMTrie", "MatchOutcome", "MatchEntry"]


# ----------------------------------------------------------------------
# matched-trie representation
# ----------------------------------------------------------------------
class MatchEntry:
    """Deepest match information for one query-trie compressed node.

    A plain slotted record (not a dataclass): one is allocated per
    surviving query node per match batch, so construction cost is on
    the batch hot path.
    """

    __slots__ = ("depth", "full", "on_node", "has_key", "value", "block")

    def __init__(
        self,
        depth: int,
        #: True: the path to this node fully matches (depth == node
        #: depth); False: the subtree below diverges at `depth`
        full: bool,
        #: the match coincides with a data compressed node
        on_node: bool,
        #: that data node stores a key
        has_key: bool,
        value: Any,
        block: int,
    ):
        self.depth = depth
        self.full = full
        self.on_node = on_node
        self.has_key = has_key
        self.value = value
        self.block = block

    def __repr__(self) -> str:
        return (
            f"MatchEntry(depth={self.depth}, full={self.full}, "
            f"on_node={self.on_node}, has_key={self.has_key}, "
            f"value={self.value!r}, block={self.block})"
        )


@dataclass
class MatchOutcome:
    """The matched trie: per query-node deepest match state."""

    entries: dict[int, MatchEntry] = field(default_factory=dict)
    collisions: int = 0

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
# structural-maintenance tracking (recovery support, repro.faults)
# ----------------------------------------------------------------------
def _structural(fn):
    """Mark a maintenance method whose interruption leaves the host
    registries mid-transition.  While any structural frame is on the
    stack, ``_dirty_structure`` is set; it is cleared only when the
    outermost frame exits *cleanly* — an abort (RoundAborted) skips the
    clear, which steers recovery to the full rebuild-from-mirror path
    instead of the cheap per-module one.

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
            except BaseException:
                self._maint_depth -= 1
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

    #: machine word size in bits (w): the columnar core packs keys into
    #: 64-bit words, so pivots, S_last and S_rem are 64-bit aligned
    w = 64

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

        # addressing registries + maintenance mirrors (DESIGN.md §7)
        self.block_module: dict[int, int] = {}
        self.block_parent: dict[int, Optional[int]] = {}
        self.block_children: dict[int, set[int]] = defaultdict(set)
        self.block_keys: dict[int, int] = {}
        self.block_depth: dict[int, int] = {}
        self._records: dict[int, MetaRecord] = {}
        self._root_strings: dict[int, BitString] = {}
        #: host replica log: block id -> {relative key -> value}, kept
        #: write-through by every mutating path so a crashed module's
        #: shards can be rebuilt without its memory (repro.faults)
        self._block_items: dict[int, dict[BitString, Any]] = {}
        #: extra read copies per block (repro.adapt): block id -> list
        #: of modules holding an identical copy, primary excluded.
        #: Reads round-robin over {primary} + replicas; writes fan out
        #: to every copy so the copies never diverge.
        self.block_replicas: dict[int, list[int]] = {}
        #: round-robin read cursor per replicated block
        self._block_rr: dict[int, int] = {}
        #: host-side per-block access counters since the last
        #: :meth:`take_block_touches` drain (pure bookkeeping — no
        #: rounds, no metric effect; feeds the repro.adapt sketch)
        self.block_touches: dict[int, int] = {}

        self.piece_module: dict[int, int] = {}
        self.piece_parent: dict[int, Optional[int]] = {}
        self.piece_children: dict[int, list[int]] = defaultdict(list)
        self.piece_owned: dict[int, set[int]] = defaultdict(set)
        self.piece_of_block: dict[int, int] = {}
        #: piece id -> root block of its record subtree (recovery needs
        #: it to reconstruct child_roots without the piece's memory)
        self.piece_root_block: dict[int, int] = {}
        #: meta-block-tree root pieces registered in the master-tree,
        #: mapped to their component root block
        self.master_pieces: dict[int, int] = {}

        self.root_block_id: Optional[int] = None
        self._query_trie: Optional[QueryArena] = None
        self._query_nodes: dict[int, ColNodeRef] = {}

        # recovery bookkeeping: structural-maintenance nesting depth and
        # the dirty flag an aborted maintenance path leaves behind
        self._maint_depth = 0
        self._dirty_structure = False

        #: content version of the replica-log key/value union; bumped
        #: only where the union changes (insert apply, delete apply,
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
        w = self.w

        def k_store(ctx: ModuleContext, reqs: list) -> list:
            out = []
            for r in reqs:
                if isinstance(r, _StoreBlock):
                    ctx.scratch.setdefault("blocks", {})[r.block.block_id] = r.block
                    ctx.tick(r.block.word_cost())
                    out.append(("block", r.block.block_id))
                elif isinstance(r, _StorePiece):
                    ctx.scratch.setdefault("pieces", {})[r.piece.piece_id] = r.piece
                    ctx.tick(r.piece.word_cost())
                    out.append(("piece", r.piece.piece_id))
                else:
                    raise TypeError(f"bad store request {r!r}")
            return out

        def k_master(ctx: ModuleContext, reqs: list) -> list:
            table: Optional[RecordTable] = ctx.scratch.get("master")
            piece_of: dict[int, int] = ctx.scratch.get("master_piece", {})
            for r in reqs:
                assert isinstance(r, _MasterDelta)
                if r.full or table is None:
                    table = RecordTable([], w)
                    piece_of = {}
                for bid in r.remove:
                    rec = table.by_id.pop(bid, None)
                    piece_of.pop(bid, None)
                    if rec is not None:
                        table.remove(rec)
                    ctx.tick(1)
                for rec, pid in r.add:
                    table.add(rec)
                    piece_of[rec.block_id] = pid
                    ctx.tick(1)
            ctx.scratch["master"] = table
            ctx.scratch["master_piece"] = piece_of
            return []

        def k_match(ctx: ModuleContext, reqs: list) -> list:
            tables: list[RecordTable] = []
            for r in reqs:
                assert isinstance(r, _FragMatch)
                if r.scope == "master":
                    table = ctx.scratch.get("master") or RecordTable([], w)
                else:
                    piece: MetaPiece = ctx.scratch["pieces"][r.piece_id]
                    # the derived lookup table is a function of the
                    # piece's record set; key the cached build on the
                    # piece version so record mutations invalidate it.
                    # Only this miss builds one: most pieces an HVM
                    # rebuild ships are freed unprobed by the next.
                    # The tick models O(1) table addressing either way.
                    cached = piece._match_cache
                    if cached is not None and cached[0] == piece.version:
                        table = cached[1]
                    else:
                        table = RecordTable(piece.table.values(), w)
                        piece._match_cache = (piece.version, table)
                        warm_table(table)
                    ctx.tick(1)
                tables.append(table)
            # every request in the round in one fused pass
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
            out = []
            pieces: dict[int, MetaPiece] = ctx.scratch.setdefault("pieces", {})
            for r in reqs:
                assert isinstance(r, _PieceOp)
                if r.op == "children":
                    piece = pieces[r.piece_id]
                    ctx.tick(len(piece.child_pieces) + 1)
                    out.append(
                        [
                            (cid, piece.table.get(piece.child_roots.get(cid)))
                            for cid in piece.child_pieces
                        ]
                    )
                elif r.op == "fetch":
                    piece = pieces[r.piece_id]
                    ctx.tick(len(piece.table))
                    out.append(list(piece.table.values()))
                elif r.op == "add":
                    piece = pieces[r.piece_id]
                    for rec, owned in r.payload:
                        piece.add_record(rec, owned=owned)
                        ctx.tick(1)
                    out.append(piece.own_size())
                elif r.op == "remove":
                    piece = pieces[r.piece_id]
                    for bid in r.payload:
                        piece.remove_record(bid)
                        ctx.tick(1)
                    out.append(piece.own_size())
                elif r.op == "free":
                    pieces.pop(r.piece_id, None)
                    ctx.tick(1)
                    out.append(True)
                elif r.op == "subtree":
                    piece = pieces[r.piece_id]
                    roots: set[int] = set(r.payload)
                    kids: dict[int, list[int]] = defaultdict(list)
                    for rec in piece.table.values():
                        if rec.parent_block is not None:
                            kids[rec.parent_block].append(rec.block_id)
                    found: list[MetaRecord] = []
                    stack = [b for b in roots if b in piece.table]
                    seen: set[int] = set()
                    while stack:
                        b = stack.pop()
                        if b in seen:
                            continue
                        seen.add(b)
                        found.append(piece.table[b])
                        stack.extend(kids.get(b, ()))
                        ctx.tick(1)
                    out.append(found)
                else:
                    raise ValueError(f"bad piece op {r.op!r}")
            return out

        def k_block(ctx: ModuleContext, reqs: list) -> list:
            out = []
            blocks: dict[int, DataBlock] = ctx.scratch.setdefault("blocks", {})
            for r in reqs:
                assert isinstance(r, _BlockOp)
                blk = blocks.get(r.block_id)
                if r.op == "match":
                    assert blk is not None and r.frag is not None
                    out.append(
                        local_match_columnar(
                            r.frag, blk.trie, blk.block_id,
                            blk.root_depth, tick=ctx.tick,
                        )
                    )
                elif r.op == "insert":
                    assert blk is not None
                    for key, value in r.payload:
                        blk.trie.insert(key, value)
                        ctx.tick(max(1, len(key) // 64 + 1))
                    blk.mark_dirty()
                    out.append((blk.block_id, blk.trie.num_keys, blk.word_cost()))
                elif r.op == "delete":
                    assert blk is not None
                    removed = 0
                    for key in r.payload:
                        if blk.trie.delete(key):
                            removed += 1
                        ctx.tick(max(1, len(key) // 64 + 1))
                    blk.mark_dirty()
                    out.append(
                        (blk.block_id, blk.trie.num_keys, blk.word_cost(), removed)
                    )
                elif r.op == "subtree":
                    assert blk is not None
                    rel_prefix: BitString = r.payload
                    items = blk.trie.subtree_items(rel_prefix)
                    kids = []
                    for n in blk.trie.iter_nodes():
                        if n.mirror_child is None:
                            continue
                        s = blk.trie.key_of(n)
                        if s.starts_with(rel_prefix):
                            kids.append(n.mirror_child)
                    ctx.tick(len(items) + len(kids) + 1)
                    out.append((blk.root_depth, items, kids))
                elif r.op == "fetch":
                    assert blk is not None
                    ctx.tick(blk.word_cost())
                    out.append(blk)
                elif r.op == "free":
                    blocks.pop(r.block_id, None)
                    ctx.tick(1)
                    out.append(True)
                elif r.op == "drop_mirror":
                    assert blk is not None
                    removed_m = _remove_mirror(blk.trie, r.payload)
                    blk.mark_dirty()
                    ctx.tick(4)
                    out.append(removed_m)
                elif r.op == "set_parent":
                    assert blk is not None
                    blk.parent_id = r.payload
                    ctx.tick(1)
                    out.append(True)
                elif r.op == "store":
                    blocks[r.payload.block_id] = r.payload
                    ctx.tick(r.payload.word_cost())
                    out.append(r.payload.block_id)
                else:
                    raise ValueError(f"bad block op {r.op!r}")
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
        data_trie = build_query_trie(keys, values)
        blocks, root_strings = extract_blocks(
            data_trie, self.config.block_bound, self.hasher, self.w
        )
        sends: dict[int, list] = defaultdict(list)
        for blk in blocks:
            if blk.parent_id is None:
                self.root_block_id = blk.block_id
            m = self.system.random_module()
            self.block_module[blk.block_id] = m
            self.block_parent[blk.block_id] = blk.parent_id
            if blk.parent_id is not None:
                self.block_children[blk.parent_id].add(blk.block_id)
            self.block_keys[blk.block_id] = blk.trie.num_keys
            self.block_depth[blk.block_id] = blk.root_depth
            self._root_strings[blk.block_id] = root_strings[blk.block_id]
            self._block_items[blk.block_id] = dict(blk.trie.iter_items())
            sends[m].append(_StoreBlock(blk))
        if sends:
            self.system.round("pimtrie.store", sends)
        for blk in blocks:
            self._records[blk.block_id] = make_record(
                blk.block_id,
                root_strings[blk.block_id],
                self.block_module[blk.block_id],
                self.hasher,
                blk.parent_id,
                self.w,
            )
        self._ordered_version += 1
        self._rebuild_hvm()

    # ==================================================================
    # HVM construction / replication / maintenance
    # ==================================================================
    @_structural
    def _rebuild_hvm(self) -> None:
        """(Re)build every meta piece and the master from the record
        mirror (bulk build, and the fallback for structural rebuilds)."""
        frees: dict[int, list] = defaultdict(list)
        for pid, m in self.piece_module.items():
            frees[m].append(_PieceOp("free", pid))
        if frees:
            self.system.round("pimtrie.piece", frees)
        self.piece_module.clear()
        self.piece_parent.clear()
        self.piece_children.clear()
        self.piece_owned.clear()
        self.piece_of_block.clear()
        self.piece_root_block.clear()
        self.master_pieces.clear()
        if not self._records:
            self._broadcast_master(full=True)
            return
        kids: dict[int, list[int]] = defaultdict(list)
        root = None
        for rec in self._records.values():
            if rec.parent_block is None or rec.parent_block not in self._records:
                root = rec.block_id
            else:
                kids[rec.parent_block].append(rec.block_id)
        assert root is not None, "meta-tree has no root"
        self._build_trees_for(root, kids)
        self._broadcast_master(full=True)

    def _build_trees_for(self, root: int, kids: dict[int, list[int]]) -> None:
        """Stage 1 + stage 2 decomposition for the component under
        ``root``; ships pieces and registers tree roots in the master."""
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
                piece = MetaPiece(pid, module)
                piece.root_block = key
                owned = set(pm[key])
                for b in subtree_records(key):
                    piece.add_record(self._records[b], owned=b in owned)
                piece.child_pieces = [id_of[c] for c in pc[key]]
                piece.child_roots = {id_of[c]: c for c in pc[key]}
                self.piece_module[pid] = module
                self.piece_children[pid] = list(piece.child_pieces)
                self.piece_owned[pid] = owned
                self.piece_root_block[pid] = key
                for b in owned:
                    self.piece_of_block[b] = pid
                sends[module].append(_StorePiece(piece))
            for key in pm:
                for c in pc[key]:
                    self.piece_parent[id_of[c]] = id_of[key]
            self.piece_parent.setdefault(id_of[proot], None)
            self.master_pieces[id_of[proot]] = comp_key
        if sends:
            self.system.round("pimtrie.store", sends)

    def _broadcast_master(self, full: bool = False, add=None, remove=None) -> None:
        if full:
            adds = [
                (self._records[rb], pid)
                for pid, rb in self.master_pieces.items()
                if rb in self._records
            ]
            msg = _MasterDelta(add=adds, remove=[], full=True)
        else:
            msg = _MasterDelta(add=add or [], remove=remove or [], full=False)
        self.system.round(
            "pimtrie.master",
            {m: [msg] for m in range(self.system.num_modules)},
        )

    # ------------------------------------------------------------------
    def _piece_ancestors(self, pid: int) -> list[int]:
        out = []
        cur = self.piece_parent.get(pid)
        while cur is not None:
            out.append(cur)
            cur = self.piece_parent.get(cur)
        return out

    def _tree_root_of(self, pid: int) -> int:
        cur = pid
        while self.piece_parent.get(cur) is not None:
            cur = self.piece_parent[cur]
        return cur

    def _tree_pieces(self, root_pid: int) -> list[int]:
        out = []
        stack = [root_pid]
        while stack:
            p = stack.pop()
            out.append(p)
            stack.extend(self.piece_children.get(p, ()))
        return out

    def _subtree_owned_count(self, pid: int) -> int:
        return sum(
            len(self.piece_owned.get(p, ())) for p in self._tree_pieces(pid)
        )

    @_structural
    def _hvm_add_records(self, recs: list[MetaRecord]) -> None:
        """Incremental §5.2 insert maintenance: each new record joins the
        leaf piece owning its parent block and is replicated up the piece
        path; overflowing or alpha-imbalanced trees are rebuilt."""
        cfg = self.config
        sends: dict[int, list[tuple[int, list]]] = defaultdict(list)
        msgs: dict[int, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        dirty_trees: set[int] = set()
        for rec in recs:
            self._records[rec.block_id] = rec
            parent = rec.parent_block
            pid = self.piece_of_block.get(parent) if parent is not None else None
            if pid is None:
                dirty_trees.add(-1)  # force full rebuild
                continue
            self.piece_of_block[rec.block_id] = pid
            self.piece_owned[pid].add(rec.block_id)
            msgs[self.piece_module[pid]][pid].append((rec, True))
            for anc in self._piece_ancestors(pid):
                msgs[self.piece_module[anc]][anc].append((rec, False))
            if len(self.piece_owned[pid]) > cfg.small_meta_bound:
                dirty_trees.add(self._tree_root_of(pid))
        if msgs:
            round_reqs = {
                m: [_PieceOp("add", pid, payload=items) for pid, items in per.items()]
                for m, per in msgs.items()
            }
            self.system.round("pimtrie.piece", round_reqs)
        # alpha-imbalance and K_MB checks on affected trees
        affected_roots = {
            self._tree_root_of(self.piece_of_block[r.block_id])
            for r in recs
            if r.block_id in self.piece_of_block
        }
        for root_pid in affected_roots:
            total = self._subtree_owned_count(root_pid)
            if total > cfg.meta_block_bound:
                dirty_trees.add(root_pid)
                continue
            for p in self._tree_pieces(root_pid):
                mine = self._subtree_owned_count(p)
                for c in self.piece_children.get(p, ()):
                    if self._subtree_owned_count(c) > cfg.alpha * mine:
                        dirty_trees.add(root_pid)
        if -1 in dirty_trees:
            self._rebuild_hvm()
            return
        for root_pid in dirty_trees:
            self._rebuild_tree(root_pid)

    @_structural
    def _hvm_update_records(self, recs: list[MetaRecord]) -> None:
        """Replace existing records in place (e.g. parent pointer moved
        during block re-partitioning)."""
        msgs: dict[int, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        for rec in recs:
            self._records[rec.block_id] = rec
            pid = self.piece_of_block.get(rec.block_id)
            if pid is None:
                continue
            msgs[self.piece_module[pid]][pid].append((rec, True))
            for anc in self._piece_ancestors(pid):
                msgs[self.piece_module[anc]][anc].append((rec, False))
        if msgs:
            round_reqs = {
                m: [_PieceOp("add", pid, payload=items) for pid, items in per.items()]
                for m, per in msgs.items()
            }
            self.system.round("pimtrie.piece", round_reqs)
        updated = {r.block_id for r in recs}
        master_updates = [
            (self._records[rb], pid)
            for pid, rb in self.master_pieces.items()
            if rb in updated
        ]
        if master_updates:
            self._broadcast_master(add=master_updates)

    @_structural
    def _hvm_remove_records(self, block_ids: list[int]) -> None:
        msgs: dict[int, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        dirty = False
        for bid in block_ids:
            self._records.pop(bid, None)
            pid = self.piece_of_block.pop(bid, None)
            if pid is None:
                continue
            self.piece_owned[pid].discard(bid)
            msgs[self.piece_module[pid]][pid].append(bid)
            for anc in self._piece_ancestors(pid):
                msgs[self.piece_module[anc]][anc].append(bid)
            if not self.piece_owned[pid]:
                dirty = True
            if pid in self.master_pieces and self.master_pieces[pid] == bid:
                dirty = True
        if msgs:
            round_reqs = {
                m: [
                    _PieceOp("remove", pid, payload=items)
                    for pid, items in per.items()
                ]
                for m, per in msgs.items()
            }
            self.system.round("pimtrie.piece", round_reqs)
        if dirty:
            self._rebuild_hvm()

    @_structural
    def _rebuild_tree(self, root_pid: int) -> None:
        """Scapegoat rebuild of one meta-block tree (§5.2): free its
        pieces, re-decompose its records, ship fresh pieces, fix master."""
        pieces = self._tree_pieces(root_pid)
        blocks = [b for p in pieces for b in self.piece_owned.get(p, ())]
        frees: dict[int, list] = defaultdict(list)
        for p in pieces:
            frees[self.piece_module[p]].append(_PieceOp("free", p))
            self.piece_owned.pop(p, None)
            self.piece_children.pop(p, None)
            self.piece_parent.pop(p, None)
            self.piece_module.pop(p, None)
            self.piece_root_block.pop(p, None)
        if frees:
            self.system.round("pimtrie.piece", frees)
        old_root_block = self.master_pieces.pop(root_pid, None)
        block_set = set(blocks)
        kids: dict[int, list[int]] = defaultdict(list)
        root_block = None
        for b in blocks:
            rec = self._records[b]
            if rec.parent_block in block_set:
                kids[rec.parent_block].append(b)
            else:
                root_block = b
        assert root_block is not None
        before = set(self.master_pieces)
        self._build_trees_for(root_block, kids)
        new_roots = set(self.master_pieces) - before
        adds = [(self._records[self.master_pieces[p]], p) for p in new_roots]
        removes = [old_root_block] if old_root_block is not None else []
        self._broadcast_master(add=adds, remove=removes)

    # ==================================================================
    # trie matching (Algorithms 2, 4, 5)
    # ==================================================================
    def _build_query(self, keys, values=None) -> QueryArena:
        """The batch's query trie, as a columnar arena."""
        return QueryArena.build(list(keys), values)

    def _prepare_query(self, qt: QueryArena) -> None:
        self._query_trie = qt
        self._query_nodes = qt.node_map()
        self.system.tick_cpu(qt.num_nodes())

    def _hash_match(self, frag: ColumnarFragment, table: RecordTable, log):
        """CPU-side (pull) HashMatching of one fragment."""
        cfg = self.config
        return hash_match_columnar(
            frag, table, self.hasher, verify=cfg.verify,
            tick=self.system.tick_cpu, log=log, use_pivots=cfg.use_pivots,
        )

    def match_batch(self, query_trie: QueryArena) -> MatchOutcome:
        """Full trie matching for a prepared query trie (Algorithm 2)."""
        outcome = MatchOutcome()
        if self.root_block_id is None or query_trie.num_keys == 0:
            return outcome
        if self._query_trie is not query_trie:
            self._prepare_query(query_trie)
        with maybe_span(self.system, "match.master", cat="phase"):
            master_cuts = self._master_match(query_trie)
        with maybe_span(self.system, "match.meta", cat="phase"):
            block_cut_map = self._match_critical_blocks(master_cuts, outcome)
        with maybe_span(self.system, "match.blocks", cat="phase"):
            block_frags = self._spawn_block_fragments(block_cut_map)
            self._match_blocks(block_frags, outcome)
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
        sends: dict[int, list] = defaultdict(list)
        order: dict[int, list[ColumnarFragment]] = defaultdict(list)
        for f in frags:
            m = self.system.random_module()
            sends[m].append(_FragMatch(f, "master"))
            order[m].append(f)
        out: list[tuple[ColPathPos, MetaRecord, Optional[int]]] = []
        if not sends:
            return out
        replies = self.system.round("pimtrie.match", sends)
        for m, reply in replies.items():
            for frag, (result, _collisions) in zip(order[m], reply):
                for cut, piece_id in result:
                    origin_uid = frag.origin.get(cut.node_uid)
                    if origin_uid is None:
                        continue
                    node = self._query_nodes.get(origin_uid)
                    if node is None:
                        continue
                    out.append((ColPathPos(node, cut.back), cut.record, piece_id))
        return out

    # ------------------------------------------------------------------
    def _match_critical_blocks(
        self,
        master_cuts: list[tuple[ColPathPos, MetaRecord, Optional[int]]],
        outcome: MatchOutcome,
    ) -> dict[tuple[int, int], MetaRecord]:
        """Algorithm 5: divide query meta-blocks down the piece trees
        with push-pull; returns critical block cuts in query-trie
        coordinates."""
        cfg = self.config
        qt = self._query_trie
        assert qt is not None
        # span the query trie at the master hits (plus the root seed)
        positions: list = [ColPathPos(qt.root)]
        piece_at: dict[tuple[int, int], int] = {}
        root_pid = None
        for pid, rb in self.master_pieces.items():
            if rb == self.root_block_id:
                root_pid = pid
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
                elif self.piece_children.get(pid):
                    descents.append((frag, pid))
                else:
                    pulls.append((frag, pid))
            pending = []

            if pushes:
                sends: dict[int, list] = defaultdict(list)
                order: dict[int, list[ColumnarFragment]] = defaultdict(list)
                for frag, pid in pushes:
                    m = self.piece_module[pid]
                    sends[m].append(_FragMatch(frag, "piece", pid))
                    order[m].append(frag)
                replies = self.system.round("pimtrie.match", sends)
                for m, reply in replies.items():
                    for frag, (result, coll) in zip(order[m], reply):
                        outcome.collisions += coll
                        self._absorb_block_cuts(
                            frag, [c for c, _ in result], block_cut_map
                        )

            if pulls:
                sends = defaultdict(list)
                order2: dict[int, list[ColumnarFragment]] = defaultdict(list)
                for frag, pid in pulls:
                    m = self.piece_module[pid]
                    sends[m].append(_PieceOp("fetch", pid))
                    order2[m].append(frag)
                replies = self.system.round("pimtrie.piece", sends)
                for m, reply in replies.items():
                    for frag, records in zip(order2[m], reply):
                        table = RecordTable(records, self.w)
                        log = CollisionLog()
                        cuts = self._hash_match(frag, table, log)
                        outcome.collisions += log.rejected
                        self._absorb_block_cuts(frag, cuts, block_cut_map)

            if descents:
                sends = defaultdict(list)
                order3: dict[int, list[tuple[ColumnarFragment, int]]] = defaultdict(list)
                for frag, pid in descents:
                    m = self.piece_module[pid]
                    sends[m].append(_PieceOp("children", pid))
                    order3[m].append((frag, pid))
                replies = self.system.round("pimtrie.piece", sends)
                for m, reply in replies.items():
                    for (frag, pid), kids in zip(order3[m], reply):
                        child_recs = [
                            (cid, rec) for cid, rec in kids if rec is not None
                        ]
                        table = RecordTable(
                            [rec for _, rec in child_recs], self.w
                        )
                        piece_by_block = {
                            rec.block_id: cid for cid, rec in child_recs
                        }
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
                        # the remainder above the cuts still needs this
                        # piece's own records
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
        self, block_cut_map: dict[tuple[int, int], MetaRecord]
    ) -> list[tuple[ColumnarFragment, MetaRecord]]:
        qt = self._query_trie
        assert qt is not None
        positions: list = [ColPathPos(qt.root)]
        recs: dict[tuple[int, int], MetaRecord] = {
            (qt.root.uid, 0): self._records[self.root_block_id]
        }
        for (uid, back), rec in block_cut_map.items():
            node = self._query_nodes.get(uid)
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
    ) -> None:
        """Algorithm 2: push small query blocks / pull large data blocks,
        run local bit-by-bit matching, merge results."""
        cfg = self.config
        pushes: list[tuple[ColumnarFragment, MetaRecord]] = []
        pulls: list[tuple[ColumnarFragment, MetaRecord]] = []
        for frag, rec in block_frags:
            if cfg.use_push_pull and frag.word_cost() >= cfg.block_bound:
                pulls.append((frag, rec))
            else:
                pushes.append((frag, rec))
        results: list[LocalMatchResult] = []
        if pushes:
            sends: dict[int, list] = defaultdict(list)
            for frag, rec in pushes:
                m = self._read_module(rec.block_id)
                sends[m].append(_BlockOp("match", rec.block_id, frag=frag))
            replies = self.system.round("pimtrie.block", sends)
            for reply in replies.values():
                results.extend(reply)
        if pulls:
            sends = defaultdict(list)
            order: dict[int, list[tuple[ColumnarFragment, MetaRecord]]] = defaultdict(list)
            for frag, rec in pulls:
                m = self._read_module(rec.block_id)
                sends[m].append(_BlockOp("fetch", rec.block_id))
                order[m].append((frag, rec))
            replies = self.system.round("pimtrie.block", sends)
            for m, reply in replies.items():
                for (frag, rec), blk in zip(order[m], reply):
                    results.append(
                        local_match_columnar(
                            frag, blk.trie, blk.block_id, blk.root_depth,
                            tick=self.system.tick_cpu,
                        )
                    )
        # merge (Algorithm 2 line 14): deepest wins; full node matches
        # beat equal-depth cutoffs.  Improvements accumulate as plain
        # tuples so each surviving uid allocates one MatchEntry, not one
        # per improvement step.
        ent = outcome.entries
        upd: dict[int, tuple] = {}
        for res in results:
            bid = res.block_id
            for uid, (depth, on_node, has_key, value) in res.node_matches.items():
                prev = upd.get(uid)
                if prev is None:
                    e = ent.get(uid)
                    if e is not None:
                        prev = (
                            e.depth, e.full, e.on_node, e.has_key,
                            e.value, e.block,
                        )
                if (
                    prev is None
                    or depth > prev[0]
                    or (depth == prev[0] and not prev[1])
                    or (depth == prev[0] and has_key and not prev[3])
                ):
                    upd[uid] = (depth, True, on_node, has_key, value, bid)
            for uid, depth in res.cutoffs.items():
                prev = upd.get(uid)
                if prev is None:
                    e = ent.get(uid)
                    if e is not None:
                        prev = (
                            e.depth, e.full, e.on_node, e.has_key,
                            e.value, e.block,
                        )
                if prev is None or depth > prev[0]:
                    upd[uid] = (depth, False, False, False, None, bid)
        for uid, t in upd.items():
            ent[uid] = MatchEntry(*t)

    # ==================================================================
    # adaptive-skew support (repro.adapt): read routing + touch stats
    # ==================================================================
    def _read_module(self, bid: int) -> int:
        """The module to read block ``bid`` from.

        Unreplicated blocks (the common case) read from their primary —
        one dict probe, no RNG, byte-identical to the pre-replication
        behaviour.  Replicated blocks round-robin over ``{primary} +
        replicas`` with a deterministic per-block cursor, spreading hot
        read traffic across copies (writes always reach every copy, so
        any copy answers correctly).
        """
        reps = self.block_replicas.get(bid)
        primary = self.block_module[bid]
        if not reps:
            return primary
        ring = [primary, *reps]
        i = self._block_rr.get(bid, 0)
        self._block_rr[bid] = (i + 1) % len(ring)
        return ring[i % len(ring)]

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

    def _base_owners(self, keys: Iterable[BitString]) -> dict[BitString, int]:
        """Which of ``keys`` equal a block base, mapped to that block.

        Inverts ``_root_strings`` per batch; block counts are small next
        to batch work, and recomputing beats maintaining yet another
        registry across repartition / collection / rebuild.
        """
        inv = {s: bid for bid, s in self._root_strings.items()}
        return {k: inv[k] for k in keys if k in inv}

    # ==================================================================
    # public batch operations (§5)
    # ==================================================================
    @_traced_op("op.lcp")
    def lcp_batch(self, keys: Sequence[BitString]) -> list[int]:
        """LongestCommonPrefix for a batch of keys (§5.1)."""
        if not keys:
            return []
        if self.root_block_id is None:
            return [0] * len(keys)
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = self._build_query(keys)
            self._prepare_query(qt)
        outcome = self.match_batch(qt)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        self._note_touches(folded)
        return [folded[k][0] for k in keys]

    @_traced_op("op.lookup")
    def lookup_batch(self, keys: Sequence[BitString]) -> list[Any]:
        """Values for exactly-stored keys (None otherwise)."""
        if not keys:
            return []
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = self._build_query(keys)
            self._prepare_query(qt)
        outcome = self.match_batch(qt)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        self._note_touches(folded)
        return [folded[k][3] if folded[k][2] else None for k in keys]

    # ------------------------------------------------------------------
    @_traced_op("op.insert")
    def insert_batch(
        self,
        keys: Sequence[BitString],
        values: Optional[Sequence[Any]] = None,
    ) -> int:
        """Insert a batch; returns the number of genuinely new keys (§5.2)."""
        if not keys:
            return 0
        vals = list(values) if values is not None else [None] * len(keys)
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = self._build_query(keys, vals)
            self._prepare_query(qt)
        outcome = self.match_batch(qt)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        by_block: dict[int, list[tuple[BitString, Any]]] = defaultdict(list)
        # duplicate keys within a batch follow sequential semantics: the
        # last write wins, exactly as if the ops were applied one by one
        # (and therefore invariant under splitting a batch in two, which
        # the serve layer's epoch boundaries do).  dict order keeps the
        # iteration — and thus every placement draw — deterministic.
        with maybe_span(self.system, "insert.dedup", cat="phase"):
            latest: dict[BitString, Any] = {}
            for key, value in zip(keys, vals):
                latest[key] = value
            base_owner = self._base_owners(latest)
            new_keys = 0
            for key, value in latest.items():
                depth, block, exact, _old = folded[key]
                owner = base_owner.get(key)
                if owner is not None and owner != block:
                    # the key *is* a block base: the child block's root
                    # owns it (the parent holds only a non-key mirror
                    # leaf — see _clone_subtree), but the match can
                    # resolve the depth tie to the parent block.
                    # Redirect, and read exactness from the replica log
                    # instead of the mis-routed match.
                    block = owner
                    exact = BitString(0, 0) in self._block_items.get(owner, ())
                rel = key.suffix_from(self.block_depth[block])
                by_block[block].append((rel, value))
                if not exact:
                    new_keys += 1
        self._note_touches(folded)
        with maybe_span(self.system, "insert.apply", cat="phase"):
            sends: dict[int, list] = defaultdict(list)
            for block, items in by_block.items():
                op = _BlockOp("insert", block, payload=items)
                # writes fan out to every copy, so replicas never
                # diverge from the primary (repro.adapt)
                sends[self.block_module[block]].append(op)
                for rm in self.block_replicas.get(block, ()):
                    sends[rm].append(op)
            oversized: list[int] = []
            if sends:
                replies = self.system.round("pimtrie.block", sends)
                # write-through replica log, only once the round
                # committed: an aborted round leaves the log matching
                # module state, and the retried batch re-applies both
                # sides (upsert semantics)
                for block, items in by_block.items():
                    log = self._block_items.setdefault(block, {})
                    for rel, value in items:
                        log[rel] = value
                self._ordered_version += 1
                for reply in replies.values():
                    for (bid, nkeys, words) in reply:
                        self.block_keys[bid] = nkeys
                        if (
                            words > 2 * self.config.block_bound
                            and bid not in oversized
                        ):
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
        sends: dict[int, list] = defaultdict(list)
        for bid in block_ids:
            sends[self.block_module[bid]].append(_BlockOp("fetch", bid))
        replies = self.system.round("pimtrie.block", sends)
        fetched: list[DataBlock] = []
        for reply in replies.values():
            fetched.extend(reply)

        ship: dict[int, list] = defaultdict(list)
        new_records: list[MetaRecord] = []
        updated_records: list[MetaRecord] = []
        for blk in fetched:
            old_id = blk.block_id
            base_string = self._root_strings[old_id]
            subs, sub_strings = extract_blocks(
                blk.trie, bound, self.hasher, self.w
            )
            top = next(s for s in subs if s.parent_id is None)
            remap = {top.block_id: old_id}
            for sub in subs:
                if sub.parent_id in remap:
                    sub.parent_id = remap[sub.parent_id]
            # fix mirror ids pointing at the fresh top id
            for sub in subs:
                for node in sub.trie.iter_nodes():
                    if node.mirror_child in remap:
                        node.mirror_child = remap[node.mirror_child]
            top_fresh_id = top.block_id
            top.block_id = old_id
            top.parent_id = self.block_parent[old_id]
            for sub in subs:
                abs_string = base_string + sub_strings.get(
                    top_fresh_id if sub.block_id == old_id else sub.block_id,
                    BitString(0, 0),
                )
                sub.root_depth += blk.root_depth
                sub.root_hash = self.hasher.hash(abs_string)
                sub.s_last = abs_string.suffix_from(
                    max(0, len(abs_string) - self.w)
                )
                if sub.block_id == old_id:
                    m = self.block_module[old_id]
                else:
                    m = self.system.random_module()
                    self.block_module[sub.block_id] = m
                    self.block_parent[sub.block_id] = sub.parent_id
                    if sub.parent_id is not None:
                        self.block_children[sub.parent_id].add(sub.block_id)
                    self.block_depth[sub.block_id] = sub.root_depth
                self.block_keys[sub.block_id] = sub.trie.num_keys
                self._root_strings[sub.block_id] = abs_string
                # replica log follows the split; overwriting the old
                # block's entry with the top sub keeps the log's union
                # equal to the key set at every round boundary
                self._block_items[sub.block_id] = dict(sub.trie.iter_items())
                ship[m].append(_BlockOp("store", sub.block_id, payload=sub))
                rec = make_record(
                    sub.block_id, abs_string, m, self.hasher,
                    sub.parent_id, self.w,
                )
                if sub.block_id == old_id:
                    updated_records.append(rec)
                else:
                    new_records.append(rec)
            # re-parent pre-existing children whose mirrors moved into a
            # new sub-block (registry, record, and the child's stored
            # parent pointer)
            for sub in subs:
                for mid in sub.child_ids():
                    if (
                        mid in self.block_parent
                        and self.block_parent[mid] != sub.block_id
                    ):
                        old_parent = self.block_parent[mid]
                        if old_parent is not None:
                            self.block_children[old_parent].discard(mid)
                        self.block_parent[mid] = sub.block_id
                        self.block_children[sub.block_id].add(mid)
                        updated_records.append(
                            replace(self._records[mid], parent_block=sub.block_id)
                        )
                        sp = _BlockOp("set_parent", mid, payload=sub.block_id)
                        ship[self.block_module[mid]].append(sp)
                        for rm in self.block_replicas.get(mid, ()):
                            ship[rm].append(sp)
        if ship:
            self.system.round("pimtrie.block", ship)
        if updated_records:
            self._hvm_update_records(updated_records)
        if new_records:
            self._hvm_add_records(new_records)

    # ==================================================================
    # adaptive-skew maintenance ops (repro.adapt): split / replicate /
    # merge.  All keep the replica-log and span-sum invariants exact:
    # every word moved is moved inside an accounted round, and the
    # replica-log union over blocks never changes (only placement does),
    # so answers are invariant under any interleaving of these ops.
    # ==================================================================
    def _drop_replicas(self, block_ids: Iterable[int]) -> int:
        """Free every extra copy of ``block_ids`` (one round if any);
        primaries are untouched.  Returns the number of copies freed."""
        sends: dict[int, list] = defaultdict(list)
        dropped = 0
        for bid in block_ids:
            reps = self.block_replicas.pop(bid, None)
            self._block_rr.pop(bid, None)
            if not reps:
                continue
            for m in reps:
                sends[m].append(_BlockOp("free", bid))
                dropped += 1
        if sends:
            self.system.round("pimtrie.block", sends)
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

        Reads round-robin over the copies afterwards (:meth:`_read_module`);
        writes fan out to every copy, so each stays exact.  The copy is
        shipped as a *fresh* host-side reconstruction — never the fetched
        object itself, which would alias two module memories.  Returns
        the chosen module, or None if no module is free to take a copy.
        """
        if bid not in self.block_module:
            return None
        have = {self.block_module[bid], *self.block_replicas.get(bid, ())}
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
        self.system.round(
            "pimtrie.block", {self._read_module(bid): [_BlockOp("fetch", bid)]}
        )
        # ...then build + ship an independent copy
        fresh = self._reconstruct_block(bid)
        self.system.tick_cpu(fresh.word_cost())
        self.system.round(
            "pimtrie.block", {module: [_BlockOp("store", bid, payload=fresh)]}
        )
        self.block_replicas.setdefault(bid, []).append(module)
        return module

    @_structural
    def split_block(self, bid: int, *, bound: Optional[int] = None) -> int:
        """Fracture a hot block across fresh modules by re-running the
        §4.2 blocking algorithm on it with a finer word bound (default:
        a quarter of the configured bound).  Returns the number of new
        blocks created (0 if the block already fits the finer bound)."""
        if bid not in self.block_module:
            return 0
        if bound is None:
            bound = max(8, self.config.block_bound // 4)
        before = len(self.block_module)
        self._repartition_blocks([bid], bound=bound)
        return len(self.block_module) - before

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
        children = sorted(self.block_children.get(bid, ()))
        if not children:
            return 0
        # stale copies of everything being restructured go first
        self._drop_replicas([bid, *children])
        sends: dict[int, list] = defaultdict(list)
        for b in (bid, *children):
            sends[self.block_module[b]].append(_BlockOp("fetch", b))
        self.system.round("pimtrie.block", sends)

        base = self._root_strings[bid]
        merged = dict(self._block_items.get(bid, ()))
        grandkids: set[int] = set()
        frees: dict[int, list] = defaultdict(list)
        for c in children:
            rel_c = self._root_strings[c].suffix_from(len(base))
            for rel, v in self._block_items.get(c, {}).items():
                merged[rel_c + rel] = v
            grandkids.update(self.block_children.get(c, ()))
            frees[self.block_module[c]].append(_BlockOp("free", c))
        for c in children:
            self.block_parent.pop(c, None)
            self.block_children.pop(c, None)
            self.block_keys.pop(c, None)
            self.block_depth.pop(c, None)
            self.block_module.pop(c, None)
            self._root_strings.pop(c, None)
            self._block_items.pop(c, None)
            self.block_touches.pop(c, None)
        self.block_children[bid] = set(grandkids)
        for g in grandkids:
            self.block_parent[g] = bid
        self._block_items[bid] = merged

        new_blk = self._reconstruct_block(bid)
        self.system.tick_cpu(new_blk.word_cost())
        ship: dict[int, list] = defaultdict(list)
        ship[self.block_module[bid]].append(
            _BlockOp("store", bid, payload=new_blk)
        )
        for m, ops in frees.items():
            ship[m].extend(ops)
        for g in sorted(grandkids):
            sp = _BlockOp("set_parent", g, payload=bid)
            ship[self.block_module[g]].append(sp)
            for rm in self.block_replicas.get(g, ()):
                ship[rm].append(sp)
        self.system.round("pimtrie.block", ship)
        if grandkids:
            self._hvm_update_records(
                [
                    replace(self._records[g], parent_block=bid)
                    for g in sorted(grandkids)
                ]
            )
        self._hvm_remove_records(children)
        return len(children)

    # ------------------------------------------------------------------
    @_traced_op("op.delete")
    def delete_batch(self, keys: Sequence[BitString]) -> int:
        """Delete a batch of keys; returns the number removed (§5.2)."""
        if not keys or self.root_block_id is None:
            return 0
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = self._build_query(keys)
            self._prepare_query(qt)
        outcome = self.match_batch(qt)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        by_block: dict[int, list[BitString]] = defaultdict(list)
        distinct = set(keys)
        base_owner = self._base_owners(distinct)
        for key in distinct:
            depth, block, exact, _v = folded[key]
            owner = base_owner.get(key)
            if owner is not None:
                # block-base key: owned by the child block's root (see
                # insert_batch); the match may have resolved the depth
                # tie to the parent's mirror leaf and reported absent
                block = owner
                exact = BitString(0, 0) in self._block_items.get(owner, ())
            if not exact:
                continue
            by_block[block].append(key.suffix_from(self.block_depth[block]))
        self._note_touches(folded)
        with maybe_span(self.system, "delete.apply", cat="phase"):
            sends: dict[int, list] = defaultdict(list)
            for block, items in by_block.items():
                op = _BlockOp("delete", block, payload=items)
                # writes fan out to every copy (see insert_batch)
                sends[self.block_module[block]].append(op)
                for rm in self.block_replicas.get(block, ()):
                    sends[rm].append(op)
            removed_total = 0
            if sends:
                replies = self.system.round("pimtrie.block", sends)
                # replica log trails the committed round (see insert_batch)
                for block, items in by_block.items():
                    log = self._block_items.get(block)
                    if log is not None:
                        for rel in items:
                            log.pop(rel, None)
                self._ordered_version += 1
                for m, reply in replies.items():
                    for (bid, nkeys, _words, removed) in reply:
                        self.block_keys[bid] = nkeys
                        # replica copies report the same removals; count
                        # only the primary's reply
                        if m == self.block_module[bid]:
                            removed_total += removed
        if removed_total:
            self._collect_empty_blocks()
        return removed_total

    @_structural
    def _collect_empty_blocks(self) -> None:
        """Leaffix over the block tree (§5.2): drop blocks whose whole
        subtree stores no keys; remove their mirrors and records."""
        order = sorted(
            self.block_keys, key=lambda b: self.block_depth[b], reverse=True
        )
        below: dict[int, int] = {}
        for bid in order:
            below[bid] = self.block_keys[bid] + sum(
                below.get(c, 0) for c in self.block_children.get(bid, ())
            )
        doomed = [
            bid
            for bid in order
            if below.get(bid, 0) == 0 and self.block_parent.get(bid) is not None
        ]
        if not doomed:
            return
        doomed_set = set(doomed)
        sends: dict[int, list] = defaultdict(list)
        for bid in doomed:
            parent = self.block_parent[bid]
            if parent not in doomed_set:
                # the mirror drop is a write: it must reach every copy
                # of the parent block
                dm = _BlockOp("drop_mirror", parent, payload=bid)
                sends[self.block_module[parent]].append(dm)
                for rm in self.block_replicas.get(parent, ()):
                    sends[rm].append(dm)
            sends[self.block_module[bid]].append(_BlockOp("free", bid))
            for rm in self.block_replicas.get(bid, ()):
                sends[rm].append(_BlockOp("free", bid))
        self.system.round("pimtrie.block", sends)
        for bid in doomed:
            parent = self.block_parent.pop(bid, None)
            if parent is not None:
                self.block_children[parent].discard(bid)
            self.block_children.pop(bid, None)
            self.block_keys.pop(bid, None)
            self.block_depth.pop(bid, None)
            self.block_module.pop(bid, None)
            self._root_strings.pop(bid, None)
            self._block_items.pop(bid, None)
            self.block_replicas.pop(bid, None)
            self._block_rr.pop(bid, None)
            self.block_touches.pop(bid, None)
        self._hvm_remove_records(doomed)

    # ------------------------------------------------------------------
    @_traced_op("op.subtree")
    def subtree_batch(
        self, prefixes: Sequence[BitString]
    ) -> list[list[tuple[BitString, Any]]]:
        """SubtreeQuery: all (key, value) pairs under each prefix (§5.3)."""
        if not prefixes:
            return []
        if self.root_block_id is None:
            return [[] for _ in prefixes]
        with maybe_span(self.system, "query.build", cat="phase"):
            qt = self._build_query(prefixes)
            self._prepare_query(qt)
        outcome = self.match_batch(qt)
        with maybe_span(self.system, "query.fold", cat="phase"):
            folded = qt.fold(outcome, self.root_block_id)
        self._note_touches(folded)

        results: dict[BitString, list[tuple[BitString, Any]]] = {
            p: [] for p in prefixes
        }
        sends: dict[int, list] = defaultdict(list)
        order: dict[int, list[BitString]] = defaultdict(list)
        for p in set(prefixes):
            depth, block, _exact, _v = folded[p]
            if depth < len(p):
                continue
            rel = p.suffix_from(self.block_depth[block])
            m = self._read_module(block)
            sends[m].append(_BlockOp("subtree", block, payload=rel))
            order[m].append(p)
        frontier: list[tuple[BitString, int]] = []
        if sends:
            with maybe_span(self.system, "subtree.roots", cat="phase"):
                replies = self.system.round("pimtrie.block", sends)
            for m, reply in replies.items():
                for p, (root_depth, items, kids) in zip(order[m], reply):
                    for rel_key, value in items:
                        results[p].append((p.prefix(root_depth) + rel_key, value))
                    frontier.extend((p, k) for k in kids)

        # resolve all descendant block refs via the piece trees
        # (O(log P) rounds, Lemma 4.6), then fetch the blocks at once
        all_blocks: list[tuple[BitString, int]] = []
        guard = 0
        with maybe_span(self.system, "subtree.descend", cat="phase"):
            while frontier:
                guard += 1
                sends2: dict[int, list] = defaultdict(list)
                order2: dict[int, list[tuple[BitString, int]]] = defaultdict(list)
                direct: list[tuple[BitString, int]] = []
                for p, bid in frontier:
                    pid = self.piece_of_block.get(bid)
                    if pid is None or guard > 4 * (self.config.log_p + 2):
                        direct.append((p, bid))
                        continue
                    m = self.piece_module[pid]
                    sends2[m].append(_PieceOp("subtree", pid, payload=[bid]))
                    order2[m].append((p, bid))
                frontier = []
                for p, bid in direct:
                    all_blocks.append((p, bid))
                    frontier.extend(
                        (p, c) for c in self.block_children.get(bid, ())
                    )
                if sends2:
                    replies = self.system.round("pimtrie.piece", sends2)
                    for m, reply in replies.items():
                        for (p, bid), records in zip(order2[m], reply):
                            found = {r.block_id for r in records}
                            if bid not in found:
                                all_blocks.append((p, bid))
                                frontier.extend(
                                    (p, c)
                                    for c in self.block_children.get(bid, ())
                                )
                                continue
                            for r in records:
                                all_blocks.append((p, r.block_id))
                                for c in self.block_children.get(r.block_id, ()):
                                    if c not in found:
                                        frontier.append((p, c))
        with maybe_span(self.system, "subtree.fetch", cat="phase"):
            sends3: dict[int, list] = defaultdict(list)
            order3: dict[int, list[tuple[BitString, int]]] = defaultdict(list)
            seen_fetch: set[tuple[BitString, int]] = set()
            for p, bid in all_blocks:
                if (p, bid) in seen_fetch or bid not in self.block_module:
                    continue
                seen_fetch.add((p, bid))
                m = self._read_module(bid)
                sends3[m].append(
                    _BlockOp("subtree", bid, payload=BitString(0, 0))
                )
                order3[m].append((p, bid))
            if sends3:
                replies = self.system.round("pimtrie.block", sends3)
                for m, reply in replies.items():
                    for (p, bid), (_root_depth, items, _kids) in zip(
                        order3[m], reply
                    ):
                        prefix_abs = self._root_strings[bid]
                        for rel_key, value in items:
                            results[p].append((prefix_abs + rel_key, value))
        return [sorted(results[p], key=lambda kv: kv[0]) for p in prefixes]

    def subtree_tries(
        self, prefixes: Sequence[BitString]
    ) -> list[PatriciaTrie]:
        """SubtreeQuery returning result *tries* (the paper's §5.3 form:
        "A Subtree Query returns a trie").

        Communication is the same as :meth:`subtree_batch`; the result
        trie is assembled on the CPU from the fetched components (Q_R
        words, already charged), so only accounted CPU work is added.
        """
        item_lists = self.subtree_batch(prefixes)
        out: list[PatriciaTrie] = []
        for items in item_lists:
            keys = [k for k, _ in items]
            vals = [v for _, v in items]
            self.system.tick_cpu(len(items))
            out.append(build_query_trie(keys, vals))
        return out

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
        without the subtree fetch (two O(log n) ranks per prefix)."""
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
        """Rebuild one block host-side from the replica log + registries
        (no module memory touched).  Refreshes ``block_keys[bid]``."""
        base = self._root_strings[bid]
        items = self._block_items.get(bid, {})
        t = PatriciaTrie()
        for rel in sorted(items):
            t.insert(rel, items[rel])
        for cid in sorted(self.block_children.get(bid, ())):
            _graft_mirror(t, self._root_strings[cid].suffix_from(len(base)), cid)
        self.block_keys[bid] = t.num_keys
        return DataBlock(
            block_id=bid,
            root_depth=self.block_depth[bid],
            root_hash=self.hasher.hash(base),
            trie=t,
            parent_id=self.block_parent.get(bid),
            s_last=base.suffix_from(max(0, len(base) - self.w)),
        )

    def _reconstruct_piece(self, pid: int) -> MetaPiece:
        """Rebuild one meta piece from the record mirror: its owned set
        plus the subtree-complete replication of every descendant."""
        piece = MetaPiece(pid, self.piece_module[pid])
        piece.root_block = self.piece_root_block.get(pid)
        piece.parent_piece = self.piece_parent.get(pid)
        piece.child_pieces = list(self.piece_children.get(pid, ()))
        piece.child_roots = {
            c: self.piece_root_block[c]
            for c in piece.child_pieces
            if c in self.piece_root_block
        }
        for p in sorted(self._tree_pieces(pid)):
            for b in sorted(self.piece_owned.get(p, ())):
                rec = self._records.get(b)
                if rec is not None:
                    piece.add_record(rec, owned=(p == pid))
        return piece

    def rebuild_modules(self, modules: Iterable[int]) -> None:
        """Clean recovery: re-ship every block and piece resident on the
        (already restarted) ``modules``, rebuilt from the host replica
        log and registries, then re-broadcast the master replica to them.

        Valid only when no structural maintenance path was interrupted
        (``_dirty_structure`` clear) — the registries then describe the
        committed structure exactly.
        """
        modset = set(modules)
        if not modset:
            return
        sends: dict[int, list] = defaultdict(list)
        for bid, m in sorted(self.block_module.items()):
            if m in modset:
                sends[m].append(_StoreBlock(self._reconstruct_block(bid)))
        for bid, reps in sorted(self.block_replicas.items()):
            for m in reps:
                if m in modset:
                    sends[m].append(_StoreBlock(self._reconstruct_block(bid)))
        for pid, m in sorted(self.piece_module.items()):
            if m in modset:
                sends[m].append(_StorePiece(self._reconstruct_piece(pid)))
        if sends:
            self.system.round("pimtrie.store", sends)
        adds = [
            (self._records[rb], pid)
            for pid, rb in sorted(self.master_pieces.items())
            if rb in self._records
        ]
        msg = _MasterDelta(add=adds, remove=[], full=True)
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
        for bid, log in self._block_items.items():
            base = self._root_strings.get(bid)
            if base is None:
                continue
            for rel, v in log.items():
                union[base + rel] = v
        return union

    def rebuild_from_mirror(self) -> None:
        """Full recovery: wipe every module's pimtrie state and rebuild
        the whole index from the union of the replica log.

        The fallback when an abort interrupted a *structural* path
        (repartition, HVM rebuild): registries may be mid-transition,
        but the replica-log union always equals the key set at round
        boundaries — the one invariant every maintenance path keeps.
        """
        union = self.replica_log_items()
        keys = sorted(union)
        vals = [union[k] for k in keys]
        self.system.round(
            "pimtrie.wipe",
            {m: [True] for m in range(self.system.num_modules)},
        )
        self.block_module.clear()
        self.block_parent.clear()
        self.block_children.clear()
        self.block_keys.clear()
        self.block_depth.clear()
        self.block_replicas.clear()
        self._block_rr.clear()
        self.block_touches.clear()
        self._records.clear()
        self._root_strings.clear()
        self._block_items.clear()
        self.piece_module.clear()
        self.piece_parent.clear()
        self.piece_children.clear()
        self.piece_owned.clear()
        self.piece_of_block.clear()
        self.piece_root_block.clear()
        self.master_pieces.clear()
        self.root_block_id = None
        self._query_trie = None
        self._query_nodes = {}
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
        mirror/child agreement, root-string consistency, HVM piece
        ownership and subtree-complete replication, master replication,
        and the configured size bounds.
        """
        cfg = self.config
        # gather every physical copy of every block, plus the pieces
        phys_copies: dict[int, dict[int, DataBlock]] = defaultdict(dict)
        phys_pieces: dict[int, MetaPiece] = {}
        for m in range(self.system.num_modules):
            ctx = self.system.modules[m].context
            for bid, blk in ctx.scratch.get("blocks", {}).items():
                assert m not in phys_copies[bid], (
                    f"block {bid} stored twice on module {m}"
                )
                phys_copies[bid][m] = blk
            for pid, piece in ctx.scratch.get("pieces", {}).items():
                assert pid not in phys_pieces, f"piece {pid} stored twice"
                phys_pieces[pid] = piece

        # registries agree with physical placement: every block lives
        # on exactly its primary plus its registered replicas
        assert set(phys_copies) == set(self.block_module)
        for bid, m in self.block_module.items():
            reps = self.block_replicas.get(bid, [])
            assert len(set(reps)) == len(reps), f"block {bid} dup replica"
            assert m not in reps, f"block {bid} replica on its primary"
            expect = {m, *reps}
            assert set(phys_copies[bid]) == expect, (
                f"block {bid} copies {sorted(phys_copies[bid])} != "
                f"registered {sorted(expect)}"
            )
        for bid in self.block_replicas:
            assert bid in self.block_module, f"replicas of unknown {bid}"

        # every replica copy is content-identical to its primary
        phys_blocks: dict[int, DataBlock] = {}
        for bid, copies in phys_copies.items():
            pm = self.block_module[bid]
            primary = copies[pm]
            phys_blocks[bid] = primary
            for m, blk in copies.items():
                if m == pm:
                    continue
                # copies must be independent objects (aliasing two
                # module memories would let one write update both for
                # free) and content-identical to the primary
                assert blk is not primary, f"block {bid} aliased on {m}"
                assert dict(blk.trie.iter_items()) == dict(
                    primary.trie.iter_items()
                ), f"replica of {bid} on {m} diverges"
                assert sorted(blk.child_ids()) == sorted(primary.child_ids())
                assert blk.root_depth == primary.root_depth
                assert blk.trie.num_keys == primary.trie.num_keys

        # block metadata and tree structure
        for bid, blk in phys_blocks.items():
            assert blk.block_id == bid
            assert blk.root_depth == self.block_depth[bid]
            assert blk.trie.num_keys == self.block_keys[bid]
            root_string = self._root_strings[bid]
            assert len(root_string) == blk.root_depth
            assert self.hasher.hash(root_string) == blk.root_hash
            parent = self.block_parent.get(bid)
            assert parent == blk.parent_id
            kids = sorted(blk.child_ids())
            assert kids == sorted(self.block_children.get(bid, set()))
            for cid in kids:
                child_root = self._root_strings[cid]
                assert child_root.starts_with(root_string)
                assert self.block_parent[cid] == bid
        roots = [b for b in phys_blocks if self.block_parent.get(b) is None]
        assert roots == [self.root_block_id]

        # replica log mirrors the physical block contents exactly
        assert set(self._block_items) == set(phys_blocks)
        for bid, blk in phys_blocks.items():
            assert (
                dict(blk.trie.iter_items()) == self._block_items[bid]
            ), f"replica log diverges from block {bid}"

        # records mirror
        assert set(self._records) == set(phys_blocks)
        for bid, rec in self._records.items():
            assert rec.depth == self.block_depth[bid]
            assert rec.module == self.block_module[bid]
            assert rec.fingerprint == self.hasher.fingerprint_of(
                self._root_strings[bid]
            )

        # HVM: ownership partition + subtree-complete tables
        owned_all = [b for p in phys_pieces.values() for b in p.owned]
        assert sorted(owned_all) == sorted(phys_blocks)
        for pid, piece in phys_pieces.items():
            assert self.piece_root_block.get(pid) == piece.root_block
            assert piece.own_size() <= cfg.small_meta_bound or len(
                phys_pieces
            ) == 1
            assert set(self.piece_owned[pid]) == set(piece.owned)
            covered = set(piece.table)
            assert set(piece.owned) <= covered
            stack = list(self.piece_children.get(pid, ()))
            while stack:
                c = stack.pop()
                assert set(self.piece_owned[c]) <= covered
                stack.extend(self.piece_children.get(c, ()))

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
        for bid, m in self.block_module.items():
            blk = self.system.modules[m].context.scratch["blocks"][bid]
            root = self._root_strings[bid]
            for rel, _v in blk.trie.iter_items():
                out.append(root + rel)
        return sorted(out)

    def num_keys(self) -> int:
        return sum(self.block_keys.values())

    def num_blocks(self) -> int:
        return len(self.block_module)

    def space_words(self) -> int:
        return self.system.total_memory_words()

    def __repr__(self) -> str:
        return (
            f"PIMTrie(P={self.system.num_modules}, keys={self.num_keys()}, "
            f"blocks={self.num_blocks()}, pieces={len(self.piece_module)})"
        )


# ----------------------------------------------------------------------
# module-local helpers used by kernels
# ----------------------------------------------------------------------
def _graft_mirror(
    trie: PatriciaTrie, rel: BitString, child_block_id: int
) -> None:
    """Re-attach the mirror leaf for a child block rooted at ``rel``
    (block-relative) into a reconstructed block trie.

    The mirror position may coincide with a stored key node (in-place
    inserts can land exactly on a child-block boundary); the node then
    keeps its key and merely gains the mirror mark.
    """
    r = trie.walk(rel)
    pos = r.lcp_len
    if isinstance(r.node, TrieNode):
        node = r.node
    else:
        node = trie._split_edge(r.node.edge, r.node.offset)
    if pos == len(rel):
        node.mirror_child = child_block_id
        return
    leaf = TrieNode(len(rel))
    leaf.mirror_child = child_block_id
    node.attach(TrieEdge(rel.suffix_from(pos), leaf))
    trie.edge_bits += len(rel) - pos


def _remove_mirror(trie: PatriciaTrie, child_block_id: int) -> bool:
    """Delete the (leaf) mirror node referencing ``child_block_id`` and
    re-compress the path."""
    for node in trie.iter_nodes():
        if node.mirror_child == child_block_id:
            node.mirror_child = None
            if not node.is_key and node.num_children == 0 and node.parent_edge:
                trie._compress_up(node)
            return True
    return False
