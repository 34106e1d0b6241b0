"""Tests for local bit-by-bit block matching (paper §4.3 end).

The local matcher walks a query fragment against a data block trie and
reports node matches, cutoffs, and hidden-node matches; mirror nodes
stop the walk.  Validated against a brute-force per-key LCP oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.trie import PatriciaTrie, TrieEdge, TrieNode, build_query_trie

from tests.reference import fragment_whole_trie, match_block_local


def bs(s: str) -> BitString:
    return BitString.from_str(s)


H = IncrementalHasher(seed=23)
W = 64


def data_trie(*keys) -> PatriciaTrie:
    t = PatriciaTrie()
    for k in keys:
        t.insert(bs(k), f"v:{k}")
    return t


def run_match(query_keys, data_keys, block_id=1, root_depth=0):
    qt = build_query_trie([bs(k) for k in query_keys])
    frag = fragment_whole_trie(qt)
    blk = data_trie(*data_keys)
    res = match_block_local(
        frag, blk, block_id, root_depth, tick=lambda n: None
    )
    return qt, frag, res


def lcp_from_result(qt, res):
    """Fold node matches + cutoffs into per-key LCP (as the driver does)."""
    out = {}
    strings = {}
    stack = [(qt.root, bs(""), (0, False))]
    while stack:
        node, s, (depth, diverged) = stack.pop()
        if not diverged:
            if node.uid in res.cutoffs:
                depth, diverged = res.cutoffs[node.uid], True
            elif node.uid in res.node_matches:
                depth = res.node_matches[node.uid][0]
        if node.is_key:
            out[s.to_str()] = depth
        for b in (0, 1):
            e = node.children[b]
            if e is not None:
                stack.append((e.dst, s + e.label, (depth, diverged)))
    return out


class TestBasicMatching:
    def test_exact_key_match(self):
        qt, frag, res = run_match(["0101"], ["0101", "1111"])
        lcps = lcp_from_result(qt, res)
        assert lcps["0101"] == 4
        # the exact match carries the stored value
        leaf = next(n for n in qt.iter_nodes() if n.is_key)
        depth, on_node, has_key, value = res.node_matches[leaf.uid]
        assert (on_node, has_key, value) == (True, True, "v:0101")

    def test_divergence_inside_edge(self):
        qt, frag, res = run_match(["0100"], ["0111"])
        lcps = lcp_from_result(qt, res)
        assert lcps["0100"] == 2

    def test_hidden_node_match(self):
        """Query key ends strictly inside a data edge."""
        qt, frag, res = run_match(["01"], ["0101"])
        lcps = lcp_from_result(qt, res)
        assert lcps["01"] == 2
        leaf = next(n for n in qt.iter_nodes() if n.is_key)
        depth, on_node, has_key, value = res.node_matches[leaf.uid]
        assert on_node is False and has_key is False

    def test_query_longer_than_data(self):
        qt, frag, res = run_match(["010111"], ["0101"])
        lcps = lcp_from_result(qt, res)
        assert lcps["010111"] == 4

    def test_multiple_branches(self):
        qt, frag, res = run_match(
            ["000", "0110", "111"], ["0001", "0111", "100"]
        )
        lcps = lcp_from_result(qt, res)
        assert lcps == {"000": 3, "0110": 3, "111": 1}

    def test_deepest_tracking(self):
        qt, frag, res = run_match(["00011"], ["00011", "1"])
        assert res.deepest == 5


class TestMirrorStops:
    def test_walk_stops_at_mirror(self):
        """A mirror node is the child block's root: matching must stop
        there (the child block's own match covers what lies below)."""
        blk = data_trie("00")
        # graft a mirror leaf below "00": child block at "0011"
        node = blk.walk(bs("00")).node
        mirror = TrieNode(4)
        mirror.mirror_child = 99
        node.attach(TrieEdge(bs("11"), mirror))
        blk.edge_bits += 2
        qt = build_query_trie([bs("001111")])
        frag = fragment_whole_trie(qt)
        res = match_block_local(frag, blk, 1, 0, tick=lambda n: None)
        lcps = lcp_from_result(qt, res)
        # the walk reports a cutoff exactly at the mirror's depth
        assert lcps["001111"] == 4

    def test_divergence_before_mirror(self):
        blk = data_trie("00")
        node = blk.walk(bs("00")).node
        mirror = TrieNode(4)
        mirror.mirror_child = 99
        node.attach(TrieEdge(bs("11"), mirror))
        blk.edge_bits += 2
        qt = build_query_trie([bs("0010")])
        frag = fragment_whole_trie(qt)
        res = match_block_local(frag, blk, 1, 0, tick=lambda n: None)
        assert lcp_from_result(qt, res)["0010"] == 3


class TestRebasedFragments:
    def test_nonzero_root_depth(self):
        """Fragment and block rooted at depth 6: all depths absolute."""
        qt = build_query_trie([bs("0101")])  # relative keys
        frag = fragment_whole_trie(qt)
        frag.base_string = BitString(0, 6)
        blk = data_trie("0101", "0110")
        res = match_block_local(frag, blk, 1, 6, tick=lambda n: None)
        leaf = next(n for n in qt.iter_nodes() if n.is_key)
        assert res.node_matches[leaf.uid][0] == 10

    def test_base_mismatch_rejected(self):
        qt = build_query_trie([bs("01")])
        frag = fragment_whole_trie(qt)
        blk = data_trie("01")
        with pytest.raises(ValueError):
            match_block_local(frag, blk, 1, 3, tick=lambda n: None)


class TestAgainstOracle:
    @given(
        st.lists(st.text(alphabet="01", min_size=0, max_size=25), min_size=1, max_size=20),
        st.lists(st.text(alphabet="01", min_size=0, max_size=25), min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_per_key_lcp_matches_oracle(self, query_keys, data_keys):
        qt, frag, res = run_match(query_keys, data_keys)
        lcps = lcp_from_result(qt, res)
        oracle = data_trie(*data_keys)
        for k in set(query_keys):
            assert lcps[k] == oracle.lcp(bs(k)), k

    @given(
        st.lists(st.text(alphabet="01", min_size=0, max_size=20), min_size=1, max_size=15),
        st.lists(st.text(alphabet="01", min_size=0, max_size=20), min_size=1, max_size=15),
    )
    @settings(max_examples=80, deadline=None)
    def test_exactness_flags(self, query_keys, data_keys):
        """has_key is set exactly for stored keys matched in full."""
        qt, frag, res = run_match(query_keys, data_keys)
        stored = set(data_keys)
        strings = {}
        stack = [(qt.root, bs(""))]
        while stack:
            node, s = stack.pop()
            strings[node.uid] = s
            for b in (0, 1):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, s + e.label))
        for uid, (depth, on_node, has_key, value) in res.node_matches.items():
            s = strings[uid]
            if has_key:
                assert s.to_str() in stored
                assert value == f"v:{s.to_str()}"
                assert depth == len(s)
