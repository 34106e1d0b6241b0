"""Tests for the treap sequence."""

from hypothesis import given, settings, strategies as st

from repro.forest import TreapSequence


class TestTreapSequence:
    def test_merge_iterate(self):
        seq = TreapSequence(seed=1)
        nodes = [seq.make(i) for i in range(10)]
        root = None
        for n in nodes:
            root = seq.merge(root, n)
        assert [n.value for n in seq.iterate(root)] == list(range(10))
        assert seq.size(root) == 10

    def test_split(self):
        seq = TreapSequence(seed=2)
        root = None
        for i in range(10):
            root = seq.merge(root, seq.make(i))
        left, right = seq.split(root, 4)
        assert [n.value for n in seq.iterate(left)] == [0, 1, 2, 3]
        assert [n.value for n in seq.iterate(right)] == [4, 5, 6, 7, 8, 9]

    def test_split_edges(self):
        seq = TreapSequence(seed=3)
        root = None
        for i in range(5):
            root = seq.merge(root, seq.make(i))
        l, r = seq.split(root, 0)
        assert seq.size(l) == 0 and seq.size(r) == 5
        root = seq.merge(l, r)
        l, r = seq.split(root, 5)
        assert seq.size(l) == 5 and seq.size(r) == 0

    def test_index_and_split_at_node(self):
        seq = TreapSequence(seed=4)
        nodes = [seq.make(i) for i in range(20)]
        root = None
        for n in nodes:
            root = seq.merge(root, n)
        for i, n in enumerate(nodes):
            assert n.index() == i
        l, r = seq.split_at_node(nodes[7])
        assert [n.value for n in seq.iterate(l)] == list(range(7))
        assert [n.value for n in seq.iterate(r)] == list(range(7, 20))

    def test_first_last(self):
        seq = TreapSequence(seed=5)
        root = None
        for i in range(8):
            root = seq.merge(root, seq.make(i))
        assert seq.first(root).value == 0
        assert seq.last(root).value == 7

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=40), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_split_merge_roundtrip(self, values, seed):
        seq = TreapSequence(seed=seed)
        root = None
        for v in values:
            root = seq.merge(root, seq.make(v))
        k = seed % (len(values) + 1)
        l, r = seq.split(root, k)
        assert [n.value for n in seq.iterate(l)] == values[:k]
        assert [n.value for n in seq.iterate(r)] == values[k:]
        root = seq.merge(l, r)
        assert [n.value for n in seq.iterate(root)] == values
