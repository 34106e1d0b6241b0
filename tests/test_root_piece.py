"""The top of the HVM lives on every module.

The root piece (the one owning the root block's record) receives a
fragment in every batch that reaches the root, so it is stored on all
P modules, like the master, and each of its reads goes to the copy on
the least-loaded module of its exchange.  So is every piece whose top
block is within ⌈log₂ P⌉ block levels of the root block and whose
block subtree holds at least P × its records.  These tests check that
every maintenance and recovery path keeps the P copies in place and
equal, that each path that builds pieces gives copies to exactly the
pieces that rule picks, and that reads spread over the copies without
changing an answer.
"""

from __future__ import annotations

import math

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.core.pimtrie import _BlockOp, _PieceOp
from repro.faults import FaultPlan, run_with_recovery
from repro.obs import Tracer
from repro.perf import DictOracle, reset_id_counters
from repro.workloads import uniform_keys

LENGTH = 32


def build(P: int, keys: list[BitString], **bounds) -> PIMTrie:
    reset_id_counters()
    return PIMTrie(
        PIMSystem(P, seed=3), PIMTrieConfig(num_modules=P, **bounds),
        keys=keys, values=[str(k) for k in keys],
    )


def root_copies(trie: PIMTrie) -> dict:
    pid = trie._root_pid()
    return {
        m: mod.context.scratch["pieces"][pid]
        for m, mod in enumerate(trie.system.modules)
        if pid in mod.context.scratch.get("pieces", {})
    }


def check(trie: PIMTrie) -> None:
    trie.validate()
    assert sorted(root_copies(trie)) == list(range(trie.system.num_modules))


class TestEveryPathKeepsTheCopies:
    P = 8

    # one meta-block tree (K_MB above the block count), so every new
    # block record joins the root tree: with K_SMB = 16 it has several
    # pieces and the root piece gets new records as an ancestor, with
    # K_SMB = 512 the root piece is the only piece and owns them
    @pytest.mark.parametrize("small_meta_bound", [16, 512],
                             ids=["ancestor", "owner"])
    def test_maintenance_and_recovery(self, small_meta_bound):
        keys = uniform_keys(64, LENGTH, seed=5)
        trie = build(self.P, keys, block_bound=16, meta_block_bound=512,
                     small_meta_bound=small_meta_bound)
        tracer = Tracer(trie.system)
        oracle = DictOracle(zip(keys, map(str, keys)))
        check(trie)  # bulk build
        assert len(trie.master_pieces) == 1

        old, before = trie._root_pid(), trie.num_blocks()
        extra = uniform_keys(8, LENGTH, seed=21)
        trie.insert_batch(extra, [str(k) for k in extra])
        oracle.insert_batch(extra, [str(k) for k in extra])
        # new block records joined the root tree in place: no rebuild
        # replaced the root piece, and its copies' tables (subtree-
        # complete over the whole meta-tree) hold the new records
        assert trie._root_pid() == old and trie.num_blocks() > before
        check(trie)
        assert len(root_copies(trie)[0].table) == trie.num_blocks()

        trie._rebuild_tree(old)
        assert trie._root_pid() != old
        check(trie)

        trie._rebuild_hvm()
        check(trie)

        doomed = [k for k in keys + extra if k.starts_with(BitString(1, 1))]
        trie.delete_batch(doomed)
        oracle.delete_batch(doomed)
        check(trie)

        probes = keys[::3]
        crashed = trie.blocks[trie.root_block_id].module
        trie.system.install_faults(FaultPlan(crashes={crashed: 0}))
        got = run_with_recovery(trie, trie.lcp_batch, probes)
        trie.system.clear_faults()
        assert "recovery.rebuild_modules" in {s.name for s in tracer.spans}
        assert got == oracle.lcp_batch(probes)
        check(trie)

        trie.rebuild_from_mirror()
        check(trie)
        assert trie.lcp_batch(probes) == oracle.lcp_batch(probes)

    @pytest.mark.parametrize("kind", ["root piece", "block replica"])
    def test_validate_catches_a_missing_or_diverging_copy(self, kind):
        keys = uniform_keys(64, LENGTH, seed=5)
        trie = build(self.P, keys, block_bound=16, small_meta_bound=4)
        if kind == "root piece":
            store, xid = "pieces", trie._root_pid()
            m = next(iter(trie.pieces[xid].replicas))
            copy = trie.system.modules[m].context.scratch[store][xid]
            copy.remove_record(next(iter(copy.table.by_id)))
        else:
            store = "blocks"
            xid = next(b for b, e in trie.blocks.items() if e.items)
            m = trie.replicate_block(xid)
            trie.validate()
            copy = trie.system.modules[m].context.scratch[store][xid]
            rel, _ = next(copy.trie.iter_items())
            copy.trie.insert(rel, "stale")
        try:
            trie.validate()
        except AssertionError:
            pass
        else:
            raise AssertionError(f"a diverging {kind} copy passed")
        trie.system.modules[m].context.scratch[store].pop(xid)
        try:
            trie.validate()
        except AssertionError:
            pass
        else:
            raise AssertionError(f"a missing {kind} copy passed")


def picked(trie: PIMTrie, pid: int) -> bool:
    """The replication rule, recomputed from the host block tree and
    the piece's primary copy: the root piece, or a piece whose top block
    is within ⌈log₂ P⌉ block levels of the root block and whose block
    subtree holds at least P × the records the piece stores."""
    P = trie.system.num_modules
    entry = trie.pieces[pid]
    if trie.root_block_id in entry.owned:
        return True
    levels, up = 0, trie.blocks[entry.root_block].record.parent_block
    while up is not None:
        levels += 1
        up = trie.blocks[up].record.parent_block
    below, stack = 0, [entry.root_block]
    while stack:
        below += 1
        stack.extend(trie.blocks[stack.pop()].children)
    scratch = trie.system.modules[entry.module].context.scratch
    records = len(scratch["pieces"][pid].table)
    return levels <= math.ceil(math.log2(P)) and below >= P * records


def check_rule(trie: PIMTrie, pids) -> None:
    """``validate()``, then: each of ``pids`` sits on all P modules if
    the rule picks it, and on one module otherwise."""
    trie.validate()
    P = trie.system.num_modules
    for pid in pids:
        holders = sum(
            pid in mod.context.scratch.get("pieces", {})
            for mod in trie.system.modules
        )
        assert holders == (P if picked(trie, pid) else 1), pid


class TestTopPiecesRule:
    P = 8

    def test_every_piece_building_path_applies_the_rule(self):
        keys = uniform_keys(512, LENGTH, seed=5)
        trie = build(self.P, keys, block_bound=16, meta_block_bound=16,
                     small_meta_bound=4)
        tracer = Tracer(trie.system)
        oracle = DictOracle(zip(keys, map(str, keys)))
        check_rule(trie, trie.pieces)  # bulk build
        root = trie._root_pid()
        tops = [p for p in trie.pieces if p != root and picked(trie, p)]
        assert tops, "the rule picks no piece below the root piece"

        extra = uniform_keys(48, LENGTH, seed=21)
        trie.insert_batch(extra, [str(k) for k in extra])
        oracle.insert_batch(extra, [str(k) for k in extra])
        trie.validate()
        # a tree holding a picked piece below the root piece
        tree = next(
            trie._tree_root_of(p) for p in tops if p in trie.pieces
        )
        before = set(trie.pieces)
        trie._rebuild_tree(tree)
        fresh = set(trie.pieces) - before
        assert fresh and any(
            len(trie.pieces[p].replicas) == self.P - 1 for p in fresh
        )
        check_rule(trie, fresh)

        trie.rebuild_from_mirror()
        check_rule(trie, trie.pieces)

        # crash the module of a picked piece below the root piece
        probes = keys[::3] + extra
        crashed = next(
            e.module for p, e in trie.pieces.items()
            if p != trie._root_pid() and picked(trie, p)
        )
        trie.system.install_faults(FaultPlan(crashes={crashed: 0}))
        got = run_with_recovery(trie, trie.lcp_batch, probes)
        trie.system.clear_faults()
        assert "recovery.rebuild_modules" in {s.name for s in tracer.spans}
        assert got == oracle.lcp_batch(probes)
        check_rule(trie, trie.pieces)

    def test_copies_stay_within_the_space_bound(self):
        """Below the root piece, the copies store at most
        (⌈log₂ P⌉ + 1) × the blocks' records (DESIGN.md §7, "Copies"),
        after the bulk build, after inserts, and after a full rebuild."""
        keys = uniform_keys(512, LENGTH, seed=5)
        trie = build(self.P, keys, block_bound=16, meta_block_bound=16,
                     small_meta_bound=4)

        def copied_records() -> int:
            root, total = trie._root_pid(), 0
            for pid, entry in trie.pieces.items():
                if pid == root or not entry.replicas:
                    continue
                scratch = trie.system.modules[entry.module].context.scratch
                total += len(entry.replicas) * len(scratch["pieces"][pid].table)
            return total

        def allowed() -> int:
            return (math.ceil(math.log2(self.P)) + 1) * len(trie.blocks)

        assert 0 < copied_records() <= allowed()
        extra = uniform_keys(96, LENGTH, seed=22)
        trie.insert_batch(extra, [str(k) for k in extra])
        trie.validate()
        assert copied_records() <= allowed()
        trie.rebuild_from_mirror()
        check_rule(trie, trie.pieces)
        assert 0 < copied_records() <= allowed()


class TestReadRouting:
    def test_reads_spread_over_the_copies(self, monkeypatch):
        P = 16
        keys = uniform_keys(512, LENGTH, seed=7)
        trie = build(P, keys)
        oracle = DictOracle(zip(keys, map(str, keys)))
        root = trie._root_pid()
        seen: set[int] = set()
        real_round = PIMSystem.round

        def round_(system, kernel, requests, **kw):
            if kernel in ("pimtrie.match", "pimtrie.piece"):
                for m, reqs in requests.items():
                    if any(getattr(r, "piece_id", None) == root
                           for r in reqs):
                        seen.add(m)
            return real_round(system, kernel, requests, **kw)

        monkeypatch.setattr(PIMSystem, "round", round_)
        probes = uniform_keys(2 * P * 16, LENGTH, seed=8) + keys[::4]
        for i in range(2 * P):
            batch = probes[i::2 * P]
            assert trie.lcp_batch(batch) == oracle.lcp_batch(batch)
        assert trie._root_pid() == root  # read-only: no rebuild
        assert len(seen) >= P // 2

    def test_least_loaded_then_round_robin(self):
        P = 4
        trie = build(P, uniform_keys(64, LENGTH, seed=5),
                     block_bound=16, small_meta_bound=4)
        root_pid = trie._root_pid()
        other_pid = next(p for p in trie.pieces if p != root_pid)
        root, other = trie.pieces[root_pid], trie.pieces[other_pid]
        heavy = _PieceOp("fetch", other_pid, payload=list(range(50)))
        light = _PieceOp("fetch", root_pid)
        # a lone root read rotates over every copy
        lone = [trie._route([(root, light, i)])[0][0] for i in range(P)]
        assert sorted(lone) == list(range(P))
        # with another piece's read in the exchange the root read avoids
        # that module wherever the cursor stands, and the request order
        # is kept
        for _ in range(P):
            out = trie._route([(other, heavy, "a"), (root, light, "b")])
            assert [(m, tag) for m, _, tag in out][0] == (other.module, "a")
            assert out[1][2] == "b" and out[1][0] != other.module
        # two root reads in one exchange land on different copies
        out = trie._route([(root, light, "x"), (root, light, "y")])
        assert out[0][0] != out[1][0]
        # each root read counts the ones placed before it: P light reads
        # after a heavy one never join it, though the cursor wraps
        out = trie._route([(root, heavy, "h")]
                          + [(root, light, i) for i in range(P)])
        assert out[0][0] not in [m for m, _, _ in out[1:]]
        # a replicated block and the root piece share one load count:
        # the block's read avoids the heavy read's module, and the root
        # read then avoids both
        bid = next(b for b, e in trie.blocks.items()
                   if e.module != other.module)
        block = trie.blocks[bid]
        assert trie.replicate_block(bid, other.module) == other.module
        for _ in range(P):
            out = trie._route([
                (other, heavy, "a"),
                (block, _BlockOp("fetch", bid), "blk"),
                (root, light, "root"),
            ])
            assert [tag for _, _, tag in out] == ["a", "blk", "root"]
            assert out[0][0] == other.module and out[1][0] == block.module
            assert out[2][0] not in (other.module, block.module)
