"""Tests for Euler tours, the rootfix scan, and the weighted blocking algorithm."""

from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.trie import (
    PatriciaTrie,
    build_query_trie,
    node_weight_words,
    partition_weighted,
    rootfix,
)
from repro.trie.euler import euler_tour


def bs(s: str) -> BitString:
    return BitString.from_str(s)


def build(*keys: str) -> PatriciaTrie:
    t = PatriciaTrie()
    for k in keys:
        t.insert(bs(k), k)
    return t


key_sets = st.lists(
    st.text(alphabet="01", min_size=0, max_size=24), min_size=0, max_size=50
)


class TestEulerTour:
    def test_single_node(self):
        t = PatriciaTrie()
        tour = euler_tour(t)
        assert len(tour) == 2
        assert tour[0] == (t.root, True)
        assert tour[1] == (t.root, False)

    def test_every_node_entered_and_exited_once(self):
        t = build("000", "001", "01", "1", "101")
        tour = euler_tour(t)
        entries = [n.uid for n, e in tour if e]
        exits = [n.uid for n, e in tour if not e]
        assert sorted(entries) == sorted(exits)
        assert len(set(entries)) == len(entries) == t.num_nodes()

    def test_bracket_structure(self):
        t = build("00", "01", "11")
        depth = 0
        for _, entering in euler_tour(t):
            depth += 1 if entering else -1
            assert depth >= 0
        assert depth == 0


class TestTreefix:
    def test_rootfix_depths(self):
        t = build("000", "001", "01", "1")
        vals = rootfix(t, 0, lambda acc, node: node.depth)
        for node in t.iter_nodes():
            assert vals[node.uid] == node.depth

    def test_rootfix_node_hashes(self):
        """Rootfix + incremental hash = node hash of every compressed node."""
        H = IncrementalHasher(seed=9)
        t = build("000", "001", "01", "1", "10101")
        hashes = rootfix(
            t,
            H.empty(),
            lambda acc, node: H.extend(acc, node.parent_edge.label),
        )
        for node in t.iter_nodes():
            assert hashes[node.uid] == H.hash(t.key_of(node))


class TestPartition:
    def test_single_block_when_bound_large(self):
        t = build("000", "001", "01")
        roots = partition_weighted(t, bound=10_000)
        assert roots == {t.root.uid}

    def test_small_bound_many_blocks(self):
        keys = [format(i, "08b") for i in range(64)]
        t = build(*keys)
        roots = partition_weighted(t, bound=8)
        assert len(roots) > 4

    def test_blocks_cover_all_weight(self):
        """Every node belongs to exactly one block (its closest root anc)."""
        keys = [format(i, "06b") for i in range(0, 64, 3)]
        t = build(*keys)
        roots = partition_weighted(t, bound=12)
        # walk up from every node: must reach a root
        for node in t.iter_nodes():
            cur = node
            while cur.uid not in roots:
                assert cur.parent is not None
                cur = cur.parent

    def test_block_sizes_bounded(self):
        """Each block's weight is < 2 * bound (paper: blocks of O(K_B))."""
        keys = [format(i, "010b") for i in range(512)]
        t = build(*keys)
        bound = 32
        roots = partition_weighted(t, bound=bound)
        # accumulate weight per block by walking to the closest root
        weights: dict[int, int] = {}
        for node in t.iter_nodes():
            cur = node
            while cur.uid not in roots:
                cur = cur.parent
            weights[cur.uid] = weights.get(cur.uid, 0) + node_weight_words(node)
        assert max(weights.values()) <= 3 * bound  # loose constant, linear bound

    def test_block_count_linear_in_weight(self):
        keys = [format(i, "010b") for i in range(512)]
        t = build(*keys)
        bound = 32
        roots = partition_weighted(t, bound=bound)
        total = sum(node_weight_words(n) for n in t.iter_nodes())
        assert len(roots) <= 2 * total / bound + 2

    def test_rejects_nonpositive_bound(self):
        t = build("0")
        import pytest

        with pytest.raises(ValueError):
            partition_weighted(t, 0)

    @given(key_sets, st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_partition_roots_are_closed(self, keys, bound):
        t = PatriciaTrie()
        for k in keys:
            t.insert(bs(k))
        roots = partition_weighted(t, bound)
        assert t.root.uid in roots
        uid_to_node = {n.uid: n for n in t.iter_nodes()}
        assert roots <= set(uid_to_node)
