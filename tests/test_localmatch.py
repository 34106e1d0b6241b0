"""Tests for local bit-by-bit block matching (paper §4.3 end).

The local matcher walks a query fragment against a data block trie and
reports node matches, cutoffs, and hidden-node matches; mirror nodes
stop the walk.  Validated against a brute-force per-key LCP oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.columnar import (
    ColPathPos, QueryArena, local_match_columnar, span_columnar,
)
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


def match_by_key(pipeline, query_keys, blk):
    """Match ``query_keys`` against ``blk`` with the columnar matcher or
    the object reference; the node matches and cutoffs of query key
    nodes, keyed by key string."""
    keys = [bs(k) for k in query_keys]
    if pipeline == "columnar":
        qa = QueryArena.build(keys)
        (frag,) = span_columnar(qa, [ColPathPos(qa.root)])
        res = local_match_columnar(frag, blk, 1, 0, tick=lambda n: None)
        name = {
            row: qa.keys[qa.key_id_list[row]].to_str()
            for row in range(qa.n_nodes) if qa.is_key_list[row]
        }
    else:
        qt = build_query_trie(keys)
        res = match_block_local(
            fragment_whole_trie(qt), blk, 1, 0, tick=lambda n: None
        )
        name = {}
        stack = [(qt.root, bs(""))]
        while stack:
            node, s = stack.pop()
            if node.is_key:
                name[node.uid] = s.to_str()
            for b in (0, 1):
                e = node.children[b]
                if e is not None:
                    stack.append((e.dst, s + e.label))
    return (
        {name[u]: m for u, m in res.node_matches.items() if u in name},
        {name[u]: d for u, d in res.cutoffs.items() if u in name},
    )


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
        depth, has_key, value = res.node_matches[leaf.uid]
        assert (has_key, value) == (True, "v:0101")

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
        depth, has_key, value = res.node_matches[leaf.uid]
        assert has_key is False

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

    @pytest.mark.parametrize("pipeline", ["columnar", "reference"])
    @pytest.mark.parametrize(
        "query_keys",
        [["0100", "0101"], ["0101"]],
        ids=["landing-within-edge", "landing-by-descent"],
    )
    def test_landing_on_a_mirror_is_a_cutoff(self, pipeline, query_keys):
        """A query node that lands exactly on a mirror gets a cutoff
        there and no node match, whichever walk reaches it: the child
        block alone matches its root.  With keys 0100 and 0101 the query
        node at depth 3 sits hidden inside the data edge 0101 and its
        child lands on the mirror; with 0101 alone the walk descends
        onto it."""
        blk = data_trie()
        mirror = TrieNode(4)
        mirror.mirror_child = 99
        blk.root.attach(TrieEdge(bs("0101"), mirror))
        blk.edge_bits += 4
        nodes, cuts = match_by_key(pipeline, query_keys, blk)
        assert cuts["0101"] == 4
        assert "0101" not in nodes
        if "0100" in query_keys:
            assert cuts["0100"] == 3


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
        for uid, (depth, has_key, value) in res.node_matches.items():
            s = strings[uid]
            if has_key:
                assert s.to_str() in stored
                assert value == f"v:{s.to_str()}"
                assert depth == len(s)
