"""Tests for data-trie blocks: edge cutting, extraction, mirror nodes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.core import cut_long_edges, extract_blocks
from repro.core.blocks import next_block_id
from repro.trie import PatriciaTrie, build_query_trie, node_weight_words


def bs(s: str) -> BitString:
    return BitString.from_str(s)


H = IncrementalHasher(seed=41)

key_lists = st.lists(
    st.text(alphabet="01", min_size=0, max_size=60), min_size=1, max_size=40
)


class TestCutLongEdges:
    def test_short_edges_untouched(self):
        t = build_query_trie([bs("0101"), bs("0110")])
        before = t.num_nodes()
        added = cut_long_edges(t, max_words=2)
        assert added == 0
        assert t.num_nodes() == before

    def test_long_edge_cut(self):
        t = build_query_trie([bs("1" * 300)])
        added = cut_long_edges(t, max_words=2)  # limit 128 bits
        assert added >= 2
        for e in t.iter_edges():
            assert len(e.label) <= 128
        # keys unchanged
        assert t.keys() == [bs("1" * 300)]

    def test_cut_preserves_queries(self):
        key = bs("10" * 200)
        t = build_query_trie([key])
        cut_long_edges(t, max_words=1)
        assert t.lcp(key) == 400
        # the key's bit 200 is '1', so a '0' there diverges at depth 200
        assert t.lcp(bs("10" * 100 + "0")) == 200
        assert t.lcp(bs("10" * 100 + "1")) == 201
        assert t.contains(key)

    def test_cut_nodes_single_child(self):
        t = build_query_trie([bs("0" * 200)])
        cut_long_edges(t, max_words=1)
        # introduced nodes have exactly one child and no key
        internals = [
            n for n in t.iter_nodes()
            if n is not t.root and not n.is_key and n.num_children
        ]
        assert all(n.num_children == 1 for n in internals)


class TestExtractBlocks:
    def test_single_small_block(self):
        t = build_query_trie([bs("01"), bs("10")])
        blocks, strings, parents = extract_blocks(t, block_bound=1000, hasher=H)
        assert len(blocks) == 1
        blk = blocks[0]
        assert parents == {blk.block_id: None}
        assert blk.root_depth == 0
        assert blk.trie.num_keys == 2

    def test_parent_links_form_tree(self):
        keys = [format(i, "010b") for i in range(128)]
        t = build_query_trie([bs(k) for k in keys])
        blocks, strings, parents = extract_blocks(t, block_bound=16, hasher=H)
        ids = {b.block_id for b in blocks}
        assert set(parents) == ids
        roots = [b for b, p in parents.items() if p is None]
        assert len(roots) == 1
        for p in parents.values():
            if p is not None:
                assert p in ids

    def test_mirror_consistency(self):
        keys = [format(i, "010b") for i in range(128)]
        t = build_query_trie([bs(k) for k in keys])
        blocks, strings, parents = extract_blocks(t, block_bound=16, hasher=H)
        for b in blocks:
            for cid in b.child_ids():
                assert parents[cid] == b.block_id
                # the mirror's absolute position equals the child's root
                assert strings[cid].starts_with(strings[b.block_id])

    @pytest.mark.parametrize("rebased", [False, True])
    def test_metadata_verified(self, rebased):
        keys = [format(i, "08b") for i in range(64)]
        t = build_query_trie([bs(k) for k in keys])
        blocks, strings, _ = extract_blocks(t, block_bound=12, hasher=H)
        if rebased:
            # re-extract one block's relative trie (mirrors included)
            # under its absolute root string and its id, as a
            # repartition does
            old = max(
                (b for b in blocks if b.root_depth),
                key=lambda b: b.trie.word_cost(),
            )
            root = strings[old.block_id]
            before = next_block_id()
            extract_blocks(old.trie, block_bound=4, hasher=H)
            plain = next_block_id()
            blocks, strings, parents = extract_blocks(
                old.trie, block_bound=4, hasher=H,
                base=root, top=old.block_id,
            )
            # the top still draws its fresh id
            assert next_block_id() - plain == plain - before
            assert len(blocks) > 1
            assert [b for b, p in parents.items() if p is None] == [old.block_id]
            assert strings[old.block_id] == root
        for b in blocks:
            b.check(H, strings[b.block_id])

    def test_keys_partitioned(self):
        """Every original key lives in exactly one block (as a relative
        key under that block's root)."""
        keys = {format(i, "09b") for i in range(100)}
        t = build_query_trie([bs(k) for k in keys])
        blocks, strings, _ = extract_blocks(t, block_bound=10, hasher=H)
        rebuilt = []
        for b in blocks:
            root = strings[b.block_id]
            for rel, _v in b.trie.iter_items():
                rebuilt.append((root + rel).to_str())
        assert sorted(rebuilt) == sorted(keys)

    @given(key_lists, st.integers(4, 64))
    @settings(max_examples=60, deadline=None)
    def test_extraction_properties(self, keys, bound):
        t = build_query_trie([bs(k) for k in keys])
        n_keys = t.num_keys
        blocks, strings, parents = extract_blocks(t, block_bound=bound, hasher=H)
        # exactly one root; parents present; keys preserved
        assert sum(1 for p in parents.values() if p is None) == 1
        assert sum(b.trie.num_keys for b in blocks) == n_keys
        ids = {b.block_id for b in blocks}
        assert set(parents) == ids
        for b in blocks:
            assert parents[b.block_id] is None or parents[b.block_id] in ids
            assert b.root_depth == len(strings[b.block_id])
            # block weight bounded (cut edges + partition guarantee)
            weight = sum(node_weight_words(n) for n in b.trie.iter_nodes())
            assert weight <= 4 * bound + 8

    @given(key_lists, st.integers(4, 64), st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_every_block_comes_after_its_parent(self, keys, bound, finer):
        """Emission is parent first: the top block leads and every other
        block follows its parent, also when the largest block's trie
        (mirrors included) is re-extracted under its root string and id
        at a finer bound, as a repartition does."""
        t = build_query_trie([bs(k) for k in keys])
        runs = [extract_blocks(t, block_bound=bound, hasher=H)]
        blocks, strings, _ = runs[0]
        old = max(blocks, key=lambda b: b.trie.word_cost())
        runs.append(extract_blocks(
            old.trie, block_bound=finer, hasher=H,
            base=strings[old.block_id], top=old.block_id,
        ))
        for blocks, _, parents in runs:
            seen: set[int] = set()
            for b in blocks:
                parent = parents[b.block_id]
                assert (parent is None) == (not seen)
                assert parent is None or parent in seen
                seen.add(b.block_id)
        assert runs[1][0][0].block_id == old.block_id

    @given(key_lists)
    @settings(max_examples=40, deadline=None)
    def test_mirror_children_exact(self, keys):
        t = build_query_trie([bs(k) for k in keys])
        blocks, strings, parents = extract_blocks(t, block_bound=8, hasher=H)
        child_sets = {b.block_id: set(b.child_ids()) for b in blocks}
        declared_parents = {
            cid: pid for cid, pid in parents.items() if pid is not None
        }
        for cid, pid in declared_parents.items():
            assert cid in child_sets[pid]
        total_mirrors = sum(len(s) for s in child_sets.values())
        assert total_mirrors == len(declared_parents)
