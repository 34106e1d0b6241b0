"""E7 — Figure 3: meta-tree, meta-blocks, master-tree replication.

Figure 3 shows the meta-tree over blocks decomposed into meta-blocks
with a replicated master-tree and per-meta-block hash tables.  This
bench checks the hash value manager's structural invariants at scale:

* the piece tables are subtree-complete (selective replication, §5.2);
* each block-root hash is replicated O(log P) times, so the whole HVM
  stays within Lemma 4.7's O(Q_D) space;
* the master-tree is replicated on all P modules, and so are the
  meta-tree root piece and the pieces at the top of the HVM (their
  P − 1 extra copies are printed in words).  A top piece's block is
  within ⌈log₂ P⌉ block levels of the root block and its block subtree
  holds at least P × its records, so the copies add at most
  (⌈log₂ P⌉ + 1) × the blocks' records, plus one header word a copy.
"""

from __future__ import annotations

import math

import pytest

from conftest import build_pimtrie
from repro.core.meta import MetaRecord
from repro.workloads import uniform_keys


def gather_pieces(system):
    pieces = {}
    for m in range(system.num_modules):
        pieces.update(system.modules[m].context.scratch.get("pieces", {}))
    return pieces


def subtree_blocks(trie, bid):
    """Blocks in the host block tree under ``bid``, itself included."""
    count, stack = 0, [bid]
    while stack:
        count += 1
        stack.extend(trie.blocks[stack.pop()].children)
    return count


def check_top_copies(system, trie):
    """Print the pieces stored on all P modules and the words their
    P − 1 extra copies add; assert the copies stay within the rule."""
    P = system.num_modules
    pieces = gather_pieces(system)
    root = trie._root_pid()
    holders = {
        pid: [
            m for m in range(P)
            if pid in system.modules[m].context.scratch.get("pieces", {})
        ]
        for pid in pieces
    }
    everywhere = [pid for pid, ms in holders.items() if len(ms) == P]
    copy_words = {pid: (P - 1) * pieces[pid].word_cost() for pid in everywhere}
    levels = math.ceil(math.log2(P))
    allowed = (levels + 1) * trie.num_blocks() * (MetaRecord.WORDS + 1)
    print(
        f"[E7] P={P}: {len(everywhere)} of {len(pieces)} pieces on all P "
        f"modules; copies +{sum(copy_words.values())} words (root piece "
        f"+{copy_words[root]}; the rule allows {allowed})"
    )
    # the root piece is stored on every module, like the master, and
    # so is at least one top piece below it; the rest have one copy
    assert holders[root] == list(range(P))
    assert len(everywhere) > 1
    assert all(len(ms) in (1, P) for ms in holders.values())
    # each top piece's copies take no more records than its block
    # subtree holds, so all copies stay within the rule's allowance
    for pid in everywhere:
        if pid != root:
            assert (P - 1) * len(pieces[pid].table) <= subtree_blocks(
                trie, trie.pieces[pid].root_block
            )
    assert sum(copy_words.values()) <= allowed


@pytest.mark.parametrize("P", [8, 32])
def test_hvm_structure(benchmark, P):
    def run():
        system, trie = build_pimtrie(P, uniform_keys(1024, 64, seed=100))
        return system, trie

    system, trie = benchmark.pedantic(run, iterations=1, rounds=1)
    pieces = gather_pieces(system)
    n_blocks = trie.num_blocks()
    replicas = sum(len(p.table) for p in pieces.values())
    owned = sum(len(p.owned) for p in pieces.values())
    print(
        f"\n[E7] P={P}: blocks={n_blocks} pieces={len(pieces)} "
        f"owned={owned} replicated-entries={replicas} "
        f"(x{replicas / max(1, n_blocks):.1f} per block)"
    )
    check_top_copies(system, trie)
    # every block owned exactly once
    assert owned == n_blocks
    # subtree-completeness: a piece's table covers the owned records of
    # every descendant, walked through the host piece records
    for pid, piece in pieces.items():
        covered = set(piece.table.by_id)
        stack = list(trie.pieces[pid].children)
        while stack:
            c = stack.pop()
            assert trie.pieces[c].owned <= covered, (
                f"piece {pid} missing child {c}'s records"
            )
            stack.extend(trie.pieces[c].children)
    # replication factor O(log P) (Lemma 4.7)
    assert replicas <= n_blocks * 4 * (math.log2(P) + 2)


def test_master_replicated_everywhere(benchmark):
    P = 16

    def run():
        system, trie = build_pimtrie(P, uniform_keys(512, 64, seed=101))
        return system, trie

    system, trie = benchmark.pedantic(run, iterations=1, rounds=1)
    masters = [
        system.modules[m].context.scratch.get("master") for m in range(P)
    ]
    sizes = [len(t.by_id) if t is not None else 0 for t in masters]
    print(f"\n[E7] master table sizes per module: {sizes}")
    assert all(s == sizes[0] for s in sizes)
    assert sizes[0] == len(trie.master_pieces)
    check_top_copies(system, trie)


def test_meta_block_size_bounds(benchmark):
    """Pieces own at most K_SMB records; meta-block trees represent at
    most ~K_MB each (fresh after a bulk build)."""
    P = 32

    def run():
        system, trie = build_pimtrie(P, uniform_keys(2048, 64, seed=102))
        return system, trie

    system, trie = benchmark.pedantic(run, iterations=1, rounds=1)
    cfg = trie.config
    worst_owned = max(len(p.owned) for p in trie.pieces.values())
    tree_sizes = [
        trie._subtree_owned_count(root) for root in trie.master_pieces
    ]
    print(
        f"\n[E7] K_SMB={cfg.small_meta_bound} worst piece={worst_owned}; "
        f"K_MB={cfg.meta_block_bound} tree sizes={sorted(tree_sizes)[-5:]}"
    )
    assert worst_owned <= cfg.small_meta_bound
    assert max(tree_sizes) <= cfg.meta_block_bound
    check_top_copies(system, trie)
