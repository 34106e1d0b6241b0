"""Tests for the Table-1 baselines and the PIM hash table substrate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import BitString, PIMSystem
from repro.baselines import (
    DistributedRadixTree,
    DistributedXFastTrie,
    PIMHashTable,
    RangePartitionedIndex,
)
from repro.trie import PatriciaTrie
from repro.workloads import uniform_keys


def bs(s: str) -> BitString:
    return BitString.from_str(s)


def oracle(keys):
    t = PatriciaTrie()
    for k in keys:
        t.insert(bs(k), k)
    return t


class TestPIMHashTable:
    def test_put_get(self):
        sys = PIMSystem(4, seed=1)
        ht = PIMHashTable(sys)
        assert ht.put_batch(["a", "b"], [1, 2]) == 2
        assert ht.get_batch(["a", "b", "c"]) == [1, 2, None]
        assert len(ht) == 2

    def test_overwrite_not_fresh(self):
        sys = PIMSystem(2, seed=1)
        ht = PIMHashTable(sys)
        ht.put_batch(["a"], [1])
        assert ht.put_batch(["a"], [2]) == 0
        assert ht.get_batch(["a"]) == [2]

    def test_delete(self):
        sys = PIMSystem(2, seed=1)
        ht = PIMHashTable(sys)
        ht.put_batch(["a", "b"], [1, 2])
        assert ht.delete_batch(["a", "zz"]) == 1
        assert ht.get_batch(["a"]) == [None]
        assert len(ht) == 1

    def test_one_round_per_batch(self):
        sys = PIMSystem(8, seed=1)
        ht = PIMHashTable(sys)
        before = sys.snapshot()
        ht.put_batch(list(range(100)), list(range(100)))
        assert sys.snapshot().delta(before).io_rounds == 1

    def test_balanced_placement(self):
        sys = PIMSystem(8, seed=1)
        ht = PIMHashTable(sys)
        before = sys.snapshot()
        ht.put_batch(list(range(2000)), [0] * 2000)
        d = sys.snapshot().delta(before)
        assert d.traffic_imbalance() < 1.5

    def test_two_tables_isolated(self):
        sys = PIMSystem(2, seed=1)
        a = PIMHashTable(sys)
        b = PIMHashTable(sys)
        a.put_batch(["k"], ["va"])
        b.put_batch(["k"], ["vb"])
        assert a.get_batch(["k"]) == ["va"]
        assert b.get_batch(["k"]) == ["vb"]


class TestDistributedRadix:
    def test_insert_lcp_span1(self):
        sys = PIMSystem(4, seed=1)
        keys = ["000010", "00001101", "1010000", "1010111", "101011"]
        t = DistributedRadixTree(sys, span=1, keys=[bs(k) for k in keys])
        ref = oracle(keys)
        qs = ["101001", "000011", "1010111", "0", "11"]
        assert t.lcp_batch([bs(q) for q in qs]) == [ref.lcp(bs(q)) for q in qs]

    def test_rounds_scale_with_length_over_span(self):
        """Table 1: O(l/s) rounds per batch."""
        for span, expect_more in [(1, True), (4, False)]:
            sys = PIMSystem(4, seed=1)
            key = bs("10" * 32)  # 64 bits
            t = DistributedRadixTree(sys, span=span, keys=[key])
            before = sys.snapshot()
            t.lcp_batch([key])
            rounds = sys.snapshot().delta(before).io_rounds
            assert rounds >= 64 // span  # one round per level

    def test_delete(self):
        sys = PIMSystem(4, seed=1)
        t = DistributedRadixTree(sys, span=1, keys=[bs("0101"), bs("0111")])
        assert t.delete_batch([bs("0101")]) == 1
        assert t.delete_batch([bs("0101")]) == 0
        assert t.num_keys == 1
        assert t.lcp_batch([bs("0101")]) == [4]  # nodes remain (lazy)

    def test_subtree(self):
        sys = PIMSystem(4, seed=1)
        keys = ["0000", "0001", "0100", "1100"]
        t = DistributedRadixTree(sys, span=2, keys=[bs(k) for k in keys])
        (got,) = t.subtree_batch([bs("00")])
        assert [k.to_str() for k, _ in got] == ["0000", "0001"]

    def test_subtree_alignment_required(self):
        sys = PIMSystem(2, seed=1)
        t = DistributedRadixTree(sys, span=2, keys=[bs("0000")])
        with pytest.raises(ValueError):
            t.subtree_batch([bs("0")])

    def test_empty_key(self):
        sys = PIMSystem(2, seed=1)
        t = DistributedRadixTree(sys, span=1)
        t.insert_batch([bs("")])
        assert t.num_keys == 1
        t.delete_batch([bs("")])
        assert t.num_keys == 0

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=25),
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle_span1(self, keys, queries):
        sys = PIMSystem(4, seed=3)
        t = DistributedRadixTree(sys, span=1, keys=[bs(k) for k in keys])
        ref = oracle(keys)
        assert t.lcp_batch([bs(q) for q in queries]) == [
            ref.lcp(bs(q)) for q in queries
        ]
        assert t.num_keys == len(set(keys))


class TestDistributedXFast:
    def test_fixed_width_enforced(self):
        sys = PIMSystem(2, seed=1)
        t = DistributedXFastTrie(sys, width=8)
        with pytest.raises(ValueError):
            t.insert_batch([bs("0101")])

    def test_insert_lookup(self):
        sys = PIMSystem(4, seed=1)
        keys = [BitString.from_int(v, 8) for v in [3, 200, 77]]
        t = DistributedXFastTrie(sys, width=8, keys=keys, values=["a", "b", "c"])
        assert t.lookup_batch(keys) == ["a", "b", "c"]
        assert t.lookup_batch([BitString.from_int(4, 8)]) == [None]
        assert t.num_keys == 3

    def test_lcp(self):
        sys = PIMSystem(4, seed=1)
        keys = [bs("00001111"), bs("00110011")]
        t = DistributedXFastTrie(sys, width=8, keys=keys)
        ref = oracle([k.to_str() for k in keys])
        qs = [bs("00001010"), bs("00110011"), bs("11111111")]
        assert t.lcp_batch(qs) == [ref.lcp(q) for q in qs]

    @pytest.mark.parametrize("width", [32, 64])
    def test_lcp_rounds_logarithmic(self, width):
        """Table 1: one round per binary-search iteration, whichever
        levels the batch probes — on E1's inputs (P=16, 256 uniform
        keys, half the queries stored and half fresh), where the
        searches fan out over many levels at once."""
        keys = uniform_keys(256, width, seed=10)
        queries = keys[:128] + uniform_keys(128, width, seed=20)
        sys = PIMSystem(16, seed=1)
        t = DistributedXFastTrie(sys, width=width, keys=keys)
        before = sys.snapshot()
        got = t.lcp_batch(queries)
        rounds = sys.snapshot().delta(before).io_rounds
        assert rounds <= math.ceil(math.log2(width + 1))
        ref = oracle([k.to_str() for k in keys])
        assert got == [ref.lcp(q) for q in queries]

    def test_space_linear_in_width(self):
        """Table 1: O(l) words per key."""
        n = 40
        sys8 = PIMSystem(4, seed=1)
        t8 = DistributedXFastTrie(
            sys8, width=8, keys=[BitString.from_int(v, 8) for v in range(n)]
        )
        sys32 = PIMSystem(4, seed=1)
        t32 = DistributedXFastTrie(
            sys32, width=32, keys=[BitString.from_int(v * 977, 32) for v in range(n)]
        )
        assert t32.space_words() > 2 * t8.space_words()

    def test_delete(self):
        sys = PIMSystem(2, seed=1)
        keys = [BitString.from_int(v, 8) for v in [1, 2]]
        t = DistributedXFastTrie(sys, width=8, keys=keys)
        assert t.delete_batch([keys[0]]) == 1
        assert t.lookup_batch([keys[0]]) == [None]
        assert t.num_keys == 1

    def test_subtree(self):
        sys = PIMSystem(4, seed=1)
        keys = [BitString.from_int(v, 6) for v in [0b000001, 0b000010, 0b110000]]
        t = DistributedXFastTrie(sys, width=6, keys=keys, values=[1, 2, 3])
        (got,) = t.subtree_batch([bs("0000")])
        assert [(k.to_str(), v) for k, v in got] == [
            ("000001", 1),
            ("000010", 2),
        ]

    @given(
        st.sets(st.integers(0, 255), min_size=1, max_size=30),
        st.lists(st.integers(0, 255), min_size=1, max_size=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_lcp_matches_oracle(self, keyset, queries):
        sys = PIMSystem(4, seed=2)
        keys = [BitString.from_int(v, 8) for v in keyset]
        t = DistributedXFastTrie(sys, width=8, keys=keys)
        ref = oracle([k.to_str() for k in keys])
        qs = [BitString.from_int(v, 8) for v in queries]
        assert t.lcp_batch(qs) == [ref.lcp(q) for q in qs]


class TestRangePartitioned:
    def test_basic_ops(self):
        sys = PIMSystem(4, seed=1)
        keys = [format(i, "08b") for i in range(32)]
        t = RangePartitionedIndex(sys, keys=[bs(k) for k in keys], values=keys)
        assert t.num_keys == 32
        assert t.lookup_batch([bs(keys[5]), bs("11111110")]) == [keys[5], None]
        assert t.lookup_batch([bs(keys[31])]) == [keys[31]]
        ref = oracle(keys)
        qs = ["00000000", "01010101", "11111111"]
        assert t.lcp_batch([bs(q) for q in qs]) == [ref.lcp(bs(q)) for q in qs]

    def test_delete(self):
        sys = PIMSystem(4, seed=1)
        t = RangePartitionedIndex(sys, keys=[bs("0101"), bs("0110")])
        assert t.delete_batch([bs("0101")]) == 1
        assert t.num_keys == 1

    def test_subtree_spanning_partitions(self):
        sys = PIMSystem(4, seed=1)
        keys = [format(i, "08b") for i in range(64)]
        t = RangePartitionedIndex(sys, keys=[bs(k) for k in keys], values=keys)
        (got,) = t.subtree_batch([bs("00")])
        want = sorted(k for k in keys if k.startswith("00"))
        assert [k.to_str() for k, _ in got] == want

    def test_skew_serializes_on_one_module(self):
        """§3.2: a single-range flood sends ~everything to one module."""
        sys = PIMSystem(8, seed=1)
        keys = [format(i, "012b") for i in range(512)]
        t = RangePartitionedIndex(sys, keys=[bs(k) for k in keys], values=keys)
        before = sys.snapshot()
        hot = [bs("000000000" + format(i % 8, "03b")) for i in range(256)]
        t.lcp_batch(hot)
        d = sys.snapshot().delta(before)
        # one partition (plus its probed neighbors) got nearly all traffic
        assert d.traffic_imbalance() > 2.0

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=12), min_size=4, max_size=40),
        st.lists(st.text(alphabet="01", min_size=0, max_size=12), min_size=1, max_size=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_lcp_matches_oracle(self, keys, queries):
        sys = PIMSystem(4, seed=5)
        t = RangePartitionedIndex(sys, keys=[bs(k) for k in keys])
        ref = oracle(keys)
        assert t.lcp_batch([bs(q) for q in queries]) == [
            ref.lcp(bs(q)) for q in queries
        ]
