"""E6 — Figure 2: block decomposition and query-trie splitting.

Figure 2 shows the data trie of Figure 1 decomposed into blocks
distributed across modules (with mirror nodes) and the query trie split
by data block-root hashes into blocks tagged with their matching data
block.  This bench reconstructs that decomposition and then measures
block statistics at scale: block count, weight distribution against the
K_B bound, and mirror-node counts.
"""

from __future__ import annotations

import pytest

from conftest import build_pimtrie
from repro import BitString, IncrementalHasher
from repro.core import extract_blocks
from repro.trie import build_query_trie, node_weight_words
from repro.workloads import shared_prefix_flood, uniform_keys

bs = BitString.from_str

FIG1_DATA = ["000010", "00001101", "1010000", "1010111", "101011"]


def test_figure2_decomposition(benchmark):
    """Decompose the Figure-1 data trie; every mirror node must refer to
    a real child block and every block root must be a compressed node."""

    def run():
        hasher = IncrementalHasher(seed=1)
        data = build_query_trie([bs(k) for k in FIG1_DATA])
        return extract_blocks(data, block_bound=8, hasher=hasher)

    blocks, root_strings, parents = benchmark.pedantic(
        run, iterations=1, rounds=1
    )
    ids = {b.block_id for b in blocks}
    print(f"\n[E6] Figure 2: {len(blocks)} blocks")
    for b in sorted(blocks, key=lambda x: x.root_depth):
        print(
            f"  block root='{root_strings[b.block_id].to_str()}'"
            f" keys={b.trie.num_keys} children={b.child_ids()}"
        )
    for b in blocks:
        for cid in b.child_ids():
            assert cid in ids
        b.check(IncrementalHasher(seed=1), root_strings[b.block_id])
    # exactly one root block (the empty prefix)
    assert sum(1 for p in parents.values() if p is None) == 1


@pytest.mark.parametrize("workload", ["uniform", "adversarial"])
def test_block_statistics(benchmark, workload):
    """Blocks stay within O(K_B) weight and O(Q_D/K_B) count even under
    worst-case key skew (all keys sharing a long prefix)."""
    bound = 32

    def run():
        hasher = IncrementalHasher(seed=2)
        if workload == "uniform":
            keys = uniform_keys(1024, 64, seed=90)
        else:
            keys = shared_prefix_flood(1024, 512, 32, seed=90)
        data = build_query_trie(keys)
        total_weight = sum(
            node_weight_words(n) for n in data.iter_nodes()
        )
        blocks, _, _ = extract_blocks(data, block_bound=bound, hasher=hasher)
        weights = [
            sum(node_weight_words(n) for n in b.trie.iter_nodes())
            for b in blocks
        ]
        return total_weight, weights

    total_weight, weights = benchmark.pedantic(run, iterations=1, rounds=1)
    print(
        f"\n[E6] {workload}: {len(weights)} blocks, "
        f"max weight {max(weights)} (bound {bound}), "
        f"total {total_weight}"
    )
    assert max(weights) <= 3 * bound
    assert len(weights) <= 2 * total_weight / bound + 2


def test_mirrors_match_children(benchmark):
    """Every parent block holds exactly one mirror per child block."""
    P = 8

    def run():
        system, trie = build_pimtrie(P, uniform_keys(512, 64, seed=91))
        mirrors = {}
        for m in range(P):
            for bid, blk in (
                system.modules[m].context.scratch.get("blocks", {}).items()
            ):
                mirrors[bid] = sorted(blk.child_ids())
        return trie, mirrors

    trie, mirrors = benchmark.pedantic(run, iterations=1, rounds=1)
    n_mirrors = sum(len(v) for v in mirrors.values())
    print(f"\n[E6] {len(mirrors)} blocks, {n_mirrors} mirror nodes")
    # every block's mirror leaves name exactly the children its host
    # block record lists
    for bid, kids in mirrors.items():
        assert kids == sorted(trie.blocks[bid].children)
