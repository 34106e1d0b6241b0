"""Unit tests for trie node/edge primitives and the hidden-node model."""

import pytest

from repro.bits import BitString
from repro.trie import HiddenNodeRef, PatriciaTrie, TrieEdge, TrieNode


def bs(s: str) -> BitString:
    return BitString.from_str(s)


class TestTrieNode:
    def test_uids_unique(self):
        a, b = TrieNode(0), TrieNode(0)
        assert a.uid != b.uid

    def test_attach_detach(self):
        parent = TrieNode(0)
        child = TrieNode(3)
        edge = TrieEdge(bs("101"), child)
        parent.attach(edge)
        assert parent.children[1] is edge
        assert edge.src is parent
        assert child.parent is parent
        got = parent.detach(1)
        assert got is edge
        assert parent.children[1] is None
        assert edge.src is None

    def test_attach_conflict(self):
        parent = TrieNode(0)
        parent.attach(TrieEdge(bs("1"), TrieNode(1)))
        with pytest.raises(ValueError):
            parent.attach(TrieEdge(bs("10"), TrieNode(2)))

    def test_detach_missing(self):
        with pytest.raises(ValueError):
            TrieNode(0).detach(0)

    def test_counts(self):
        n = TrieNode(0)
        assert n.num_children == 0
        n.attach(TrieEdge(bs("0"), TrieNode(1)))
        n.attach(TrieEdge(bs("1"), TrieNode(1)))
        assert n.num_children == 2

    def test_word_cost_includes_value(self):
        plain = TrieNode(0)
        keyed = TrieNode(0, is_key=True, value="x")
        assert keyed.word_cost() > plain.word_cost()

    def test_mirror_child_default_none(self):
        assert TrieNode(0).mirror_child is None


class TestTrieEdge:
    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            TrieEdge(bs(""), TrieNode(0))

    def test_word_cost_scales(self):
        short = TrieEdge(bs("1"), TrieNode(1))
        long = TrieEdge(BitString(0, 640), TrieNode(640))
        assert long.word_cost() >= short.word_cost() + 9

    def test_repr_truncates(self):
        e = TrieEdge(BitString(0, 100), TrieNode(100))
        assert "..." in repr(e)


class TestHiddenNodeRef:
    def test_depth(self):
        parent = TrieNode(5)
        child = TrieNode(10)
        edge = TrieEdge(bs("00000"), child)
        parent.attach(edge)
        h = HiddenNodeRef(edge, 2)
        assert h.depth == 7

    def test_walk_returns_hidden(self):
        t = PatriciaTrie()
        t.insert(bs("0000"))
        r = t.walk(bs("0011"))
        assert isinstance(r.node, HiddenNodeRef)
        assert r.lcp_len == 2
        assert r.node.depth == 2

    def test_hashable_and_frozen(self):
        parent = TrieNode(0)
        child = TrieNode(4)
        edge = TrieEdge(bs("0000"), child)
        parent.attach(edge)
        a = HiddenNodeRef(edge, 1)
        b = HiddenNodeRef(edge, 1)
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.offset = 2
