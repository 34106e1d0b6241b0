"""Degenerate-configuration tests: P=1, many-word edges, extreme keys."""

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.trie import PatriciaTrie

bs = BitString.from_str


class TestSingleModule:
    """P=1: the PIM Model degenerates to one memory; everything must
    still work (the paper's bounds become trivial)."""

    def test_all_ops(self):
        system = PIMSystem(1, seed=1)
        keys = [bs(format(i, "06b")) for i in range(32)]
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=1),
            keys=keys, values=[k.to_str() for k in keys],
        )
        ref = PatriciaTrie()
        for k in keys:
            ref.insert(k, k.to_str())
        qs = keys[::3] + [bs("111111111")]
        assert trie.lcp_batch(qs) == [ref.lcp(q) for q in qs]
        trie.insert_batch([bs("10101010101")])
        trie.delete_batch(keys[:8])
        assert trie.num_keys() == 32 - 8 + 1
        trie.validate()

    def test_imbalance_trivially_one(self):
        system = PIMSystem(1, seed=1)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=1), keys=[bs("01")])
        trie.lcp_batch([bs("0111")])
        assert system.snapshot().traffic_imbalance() == 1.0


class TestManyWordEdges:
    """w=64 with >= 256-bit keys behind a long shared stem: one query
    edge crosses several w-aligned pivots, so a single edge probes many
    s_pre families."""

    def test_lcp_with_many_pivots_per_edge(self):
        stem = "10" * 100  # 200 shared bits
        keys = [bs(stem + format(i, "064b")) for i in range(0, 4096, 37)]
        system = PIMSystem(4, seed=2)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=4), keys=keys)
        ref = PatriciaTrie()
        for k in keys:
            ref.insert(k)
        qs = keys[::5] + [
            bs(stem + format(i, "064b")) for i in range(7, 2048, 301)
        ] + [bs(stem[:150] + "1" * 114), bs("0" * 256)]
        assert trie.lcp_batch(qs) == [ref.lcp(q) for q in qs]
        assert trie.num_blocks() >= 2
        trie.validate()


class TestExtremeKeys:
    def test_empty_string_key(self):
        system = PIMSystem(4, seed=3)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=4),
            keys=[bs(""), bs("1")], values=["root", "one"],
        )
        assert trie.lookup_batch([bs("")]) == ["root"]
        assert trie.lcp_batch([bs("0")]) == [0]
        assert trie.delete_batch([bs("")]) == 1
        assert trie.lookup_batch([bs("")]) == [None]

    def test_very_long_single_key(self):
        key = BitString((1 << 4999) | 12345, 5000)
        system = PIMSystem(4, seed=4)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=4), keys=[key])
        assert trie.lcp_batch([key]) == [5000]
        assert trie.lcp_batch([key.prefix(4000)]) == [4000]
        # the 5000-bit edge was cut across multiple blocks
        assert trie.num_blocks() >= 2
        trie.validate()

    def test_one_bit_universe(self):
        system = PIMSystem(2, seed=5)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=2),
            keys=[bs("0"), bs("1")], values=["a", "b"],
        )
        assert trie.lookup_batch([bs("0"), bs("1")]) == ["a", "b"]
        (all_items,) = trie.subtree_batch([bs("")])
        assert len(all_items) == 2

    def test_duplicate_keys_in_build(self):
        system = PIMSystem(2, seed=6)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=2),
            keys=[bs("01"), bs("01"), bs("01")], values=["x", "y", "z"],
        )
        assert trie.num_keys() == 1

    def test_prefix_chain_keys(self):
        """Every key a prefix of the next: maximal hidden-node action."""
        keys = [bs("1" * i) for i in range(1, 40)]
        system = PIMSystem(4, seed=7)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=4), keys=keys)
        assert trie.num_keys() == 39
        assert trie.lcp_batch([bs("1" * 60)]) == [39]
        assert trie.lcp_batch([bs("1" * 20 + "0")]) == [20]
        (items,) = trie.subtree_batch([bs("1" * 35)])
        assert len(items) == 5  # lengths 35..39 all extend the prefix
