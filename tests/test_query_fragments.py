"""Tests for query-trie fragments: Span, cloning, base anchors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.trie import PatriciaTrie, build_query_trie, rootfix

from tests.reference import PathPos, fragment_whole_trie, span_fragments


def bs(s: str) -> BitString:
    return BitString.from_str(s)


H = IncrementalHasher(seed=5)
W = 64


def build(*keys):
    return build_query_trie([bs(k) for k in keys])


def strings_of(qt):
    return rootfix(qt, bs(""), lambda acc, n: acc + n.parent_edge.label)


def node_at(qt, s):
    """The compressed node representing string s (must exist)."""
    strs = strings_of(qt)
    for n in qt.iter_nodes():
        if strs[n.uid] == bs(s):
            return n
    raise AssertionError(f"no node for {s!r}")


class TestPathPos:
    def test_node_position(self):
        qt = build("0011", "0100")
        n = node_at(qt, "0011")
        p = PathPos(n)
        assert p.depth == 4
        assert p.back == 0

    def test_hidden_position(self):
        qt = build("0011")
        n = node_at(qt, "0011")
        p = PathPos(n, back=2)
        assert p.depth == 2

    def test_back_bounds(self):
        qt = build("0011")
        n = node_at(qt, "0011")
        with pytest.raises(ValueError):
            PathPos(n, back=-1)
        with pytest.raises(ValueError):
            PathPos(n, back=4)  # == edge length
        with pytest.raises(ValueError):
            PathPos(qt.root, back=1)  # root has no entering edge


class TestWholeFragment:
    def test_identity(self):
        qt = build("000", "001", "11")
        frag = fragment_whole_trie(qt)
        assert frag.base_depth == 0
        assert frag.base_string == bs("")
        assert frag.trie.num_nodes() == qt.num_nodes()
        assert len(frag.origin) == qt.num_nodes()
        # origin maps every fragment node to a real query node
        quids = {n.uid for n in qt.iter_nodes()}
        assert set(frag.origin.values()) <= quids

    def test_word_cost_matches_trie(self):
        qt = build("0" * 100, "1" * 100)
        frag = fragment_whole_trie(qt)
        assert frag.word_cost() >= qt.word_cost()


class TestSpan:
    def test_span_at_node(self):
        qt = build("000", "001", "11")
        strs = strings_of(qt)
        cuts = [PathPos(qt.root), PathPos(node_at(qt, "00"))]
        frags = span_fragments(qt, cuts, strs)
        assert len(frags) == 2
        by_depth = {f.base_depth: f for f in frags}
        top, bottom = by_depth[0], by_depth[2]
        # top fragment keeps "11" subtree and stops at the "00" node
        assert bottom.base_string == bs("00")
        # bottom fragment holds the two keys below "00", rebased
        keys = sorted(k.to_str() for k in bottom.trie.keys())
        assert keys == ["0", "1"]

    def test_span_at_hidden_position(self):
        qt = build("0000", "1")
        strs = strings_of(qt)
        n = node_at(qt, "0000")
        cuts = [PathPos(qt.root), PathPos(n, back=2)]
        frags = span_fragments(qt, cuts, strs)
        by_depth = {f.base_depth: f for f in frags}
        assert set(by_depth) == {0, 2}
        bottom = by_depth[2]
        assert bottom.base_string == bs("00")
        assert [k.to_str() for k in bottom.trie.keys()] == ["00"]
        # the top fragment's truncated edge ends on an unmapped boundary
        top = by_depth[0]
        mapped = set(top.origin.values())
        assert n.uid not in mapped

    def test_same_edge_cuts_keep_deepest(self):
        """Two cuts on one edge delimit a non-critical segment; only the
        deepest survives (paper §4.3)."""
        qt = build("000000")
        strs = strings_of(qt)
        n = node_at(qt, "000000")
        cuts = [PathPos(qt.root), PathPos(n, back=4), PathPos(n, back=2)]
        frags = span_fragments(qt, cuts, strs)
        depths = sorted(f.base_depth for f in frags)
        assert depths == [0, 4]

    def test_base_anchor_consistency(self):
        """The aligned anchor's hash extended by base_rem is the base
        hash (what pivot matching relies on)."""
        qt = build("1" * 100, "1" * 70 + "0" * 30)
        strs = strings_of(qt)
        deep = node_at(qt, "1" * 100)
        cuts = [PathPos(qt.root), PathPos(deep, back=3)]
        frags = span_fragments(qt, cuts, strs)
        for f in frags:
            assert f.aligned_base_depth == (f.base_depth // W) * W
            assert len(f.base_rem) == f.base_depth - f.aligned_base_depth
            pre_hash = H.hash(f.base_string.prefix(f.aligned_base_depth))
            assert H.extend(pre_hash, f.base_rem) == H.hash(f.base_string)
            assert len(f.base_tail) == min(W, f.base_depth)

    def test_values_survive_cloning(self):
        qt = build_query_trie([bs("0101")], values=["payload"])
        frag = fragment_whole_trie(qt)
        assert frag.trie.lookup(bs("0101")) == "payload"

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=30), min_size=1, max_size=30),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_span_preserves_all_keys(self, keys, seed):
        """Fragments partition the key set: each original key appears in
        exactly one fragment, rebased by its fragment's depth."""
        import random

        qt = build(*keys)
        strs = strings_of(qt)
        nodes = list(qt.iter_nodes())
        rng = random.Random(seed)
        cuts = [PathPos(qt.root)]
        for n in rng.sample(nodes, min(len(nodes), 3)):
            if n is qt.root:
                continue
            back = rng.randrange(len(n.parent_edge.label))
            cuts.append(PathPos(n, back))
        frags = span_fragments(qt, cuts, strs)
        rebuilt = set()
        for f in frags:
            # recover the base string from the cut position
            s = strs[f.base_pos.node.uid]
            base = s.prefix(len(s) - f.base_pos.back)
            for k in f.trie.keys():
                rebuilt.add((base + k).to_str())
        # cut nodes appear in both their own fragment and (as boundary
        # leaves) the parent fragment, so compare as sets
        assert rebuilt == {k.to_str() for k in qt.keys()}
