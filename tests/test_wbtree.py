"""Tests for the weight-balanced tree (the §5.2 de-amortization substrate)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.fasttrie import YFastTrie
from benchmarks.fasttrie.wbtree import WeightBalancedTree


class TestBasics:
    def test_insert_contains(self):
        t = WeightBalancedTree()
        assert t.insert(5)
        assert not t.insert(5)
        assert 5 in t
        assert 6 not in t
        assert len(t) == 1

    def test_delete(self):
        t = WeightBalancedTree()
        for k in (3, 1, 4, 1, 5):
            t.insert(k)
        assert len(t) == 4
        assert t.delete(1)
        assert not t.delete(1)
        assert list(t) == [3, 4, 5]

    def test_delete_two_children(self):
        t = WeightBalancedTree()
        for k in (5, 2, 8, 1, 3, 7, 9):
            t.insert(k)
        assert t.delete(5)
        assert list(t) == [1, 2, 3, 7, 8, 9]
        t.check_invariants()

    def test_pred_succ(self):
        t = WeightBalancedTree()
        for k in range(0, 100, 10):
            t.insert(k)
        assert t.predecessor(55) == 50
        assert t.successor(55) == 60
        assert t.predecessor(0) is None
        assert t.successor(90) is None
        assert t.min() == 0
        assert t.max() == 90

    def test_empty(self):
        t = WeightBalancedTree()
        assert len(t) == 0
        assert t.min() is None
        assert t.max() is None
        assert t.predecessor(5) is None
        assert list(t) == []

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            WeightBalancedTree(alpha=0.0)
        with pytest.raises(ValueError):
            WeightBalancedTree(alpha=0.6)


class TestBalance:
    def test_sorted_insert_stays_logarithmic(self):
        """The classic BST killer: sorted insertion."""
        t = WeightBalancedTree()
        n = 1024
        for k in range(n):
            t.insert(k)
        t.check_invariants()
        assert t.height() <= 4 * math.log2(n)

    def test_height_after_heavy_deletion(self):
        t = WeightBalancedTree()
        for k in range(512):
            t.insert(k)
        for k in range(0, 512, 2):
            t.delete(k)
        t.check_invariants()
        assert t.height() <= 4 * math.log2(256) + 2

    @given(st.lists(st.integers(0, 500), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_matches_set_semantics(self, ops):
        t = WeightBalancedTree()
        alive = set()
        for i, k in enumerate(ops):
            if k in alive and i % 3 == 0:
                assert t.delete(k)
                alive.discard(k)
            else:
                t.insert(k)
                alive.add(k)
        assert list(t) == sorted(alive)
        t.check_invariants()
        for q in list(alive)[:10]:
            assert t.predecessor(q) == max(
                (x for x in alive if x < q), default=None
            )
            assert t.successor(q) == min(
                (x for x in alive if x > q), default=None
            )

    def test_single_op_work_bounded(self):
        """De-amortization: the worst single-op rebuild stays well below
        n (geometric sizes), unlike a sorted-list shuffle which is Θ(n)
        on every insert at the front."""
        t = WeightBalancedTree()
        n = 4096
        rng = random.Random(0)
        keys = list(range(n))
        rng.shuffle(keys)
        for k in keys:
            t.insert(k)
        assert t.max_work_per_op < n  # no whole-structure rebuilds
        t.check_invariants()


class TestDeamortizedYFast:
    def test_same_answers_both_modes(self):
        rng = random.Random(3)
        keys = [rng.randrange(1 << 12) for _ in range(400)]
        a = YFastTrie(12)
        b = YFastTrie(12, deamortized=True)
        for k in keys:
            assert a.insert(k) == b.insert(k)
        for q in [rng.randrange(1 << 12) for _ in range(100)]:
            assert a.predecessor(q) == b.predecessor(q)
            assert a.successor(q) == b.successor(q)
            assert (q in a) == (q in b)
        for k in keys[:150]:
            assert a.delete(k) == b.delete(k)
        assert list(a.keys()) == list(b.keys())

    @given(st.lists(st.integers(0, 255), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_deamortized_churn(self, ops):
        t = YFastTrie(8, deamortized=True)
        alive = set()
        for i, k in enumerate(ops):
            if k in alive and i % 2 == 0:
                assert t.delete(k)
                alive.discard(k)
            else:
                t.insert(k)
                alive.add(k)
        assert list(t.keys()) == sorted(alive)
