"""End-to-end checks of the paper's worked examples (Figures 1-5) and
headline claims, consolidated in one place.

The figures are structural diagrams; each test reconstructs the drawn
configuration and asserts the behaviour the paper's prose describes.
"""

import math

import pytest

from benchmarks.fasttrie import ValidityIndex
from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.bits import IncrementalHasher
from repro.core import extract_blocks
from repro.trie import PatriciaTrie, build_query_trie

bs = BitString.from_str

#: the data trie drawn in Figure 1 (five stored keys)
FIG1_DATA = ["000010", "00001101", "1010000", "1010111", "101011"]
#: the query strings listed in Figure 1
FIG1_QUERIES = ["00001001", "101001", "101011"]


class TestFigure1:
    """Query trie construction + trie matching on the drawn example."""

    def test_data_trie_shape(self):
        t = build_query_trie([bs(k) for k in FIG1_DATA])
        t.check_invariants()
        # the figure's compressed structure: branch at "" is NOT a node
        # (root has one real branch point per subtree): the drawn nodes
        # are the root, "00001" and "1010" branch points plus key ends
        depths = sorted(n.depth for n in t.iter_nodes())
        assert 5 in depths   # branch "00001"
        assert 4 in depths   # branch "1010"
        assert t.num_keys == 5

    def test_query_trie_shape(self):
        qt = build_query_trie([bs(q) for q in FIG1_QUERIES])
        qt.check_invariants()
        assert qt.num_keys == 3
        # sorted order groups the two 1010* queries
        keys = [k.to_str() for k in qt.keys()]
        assert keys == ["00001001", "101001", "101011"]

    def test_matching_results(self):
        """The red matched trie: '101001' matches to depth 5 through
        hidden nodes on both sides ('10100')."""
        system = PIMSystem(4, seed=1)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=4),
            keys=[bs(k) for k in FIG1_DATA],
        )
        got = trie.lcp_batch([bs(q) for q in FIG1_QUERIES])
        assert got == [6, 5, 6]

    def test_hidden_node_match_both_sides(self):
        """'10100' is a valid prefix of both tries yet a compressed node
        of neither: the sequential oracle agrees."""
        data = build_query_trie([bs(k) for k in FIG1_DATA])
        qt = build_query_trie([bs(q) for q in FIG1_QUERIES])
        for t in (data, qt):
            depths = {n.depth for n in t.iter_nodes()}
            # no compressed node at depth 5 on the 10100 path
            strings = {}
            for n in t.iter_nodes():
                strings.setdefault(n.depth, set())
        assert data.lcp(bs("10100")) == 5


class TestFigure2:
    """Block decomposition with mirror nodes."""

    def test_blocks_and_mirrors(self):
        hasher = IncrementalHasher(seed=1)
        data = build_query_trie([bs(k) for k in FIG1_DATA])
        blocks, strings, parents = extract_blocks(
            data, block_bound=8, hasher=hasher
        )
        # exactly one block holds each key
        total = sum(b.trie.num_keys for b in blocks)
        assert total == 5
        # each non-root block appears as exactly one mirror in its parent
        ids = {b.block_id for b in blocks}
        mirrored = [cid for b in blocks for cid in b.child_ids()]
        non_roots = [b for b, p in parents.items() if p is not None]
        assert sorted(mirrored) == sorted(non_roots)
        assert set(mirrored) <= ids


class TestFigure5:
    """The two-layer index's w=3 worked example."""

    def test_padded_lookup_finds_child(self):
        vi = ValidityIndex(3)
        vi.insert(bs(""))     # the meta node for hash("000000")
        vi.insert(bs("01"))   # its child's S_rem
        got = vi.query(bs("0"))
        # paper: padding "0" -> "011"/"000", predecessor lookup, then the
        # validity vector yields S_rem "01" — the target's direct child
        assert got == bs("01")


class TestTable1Claims:
    """The asymptotic separations, checked at one scale as invariants."""

    def test_pim_trie_rounds_flat_in_length(self):
        from repro.workloads import uniform_keys

        rounds = []
        for length in (32, 256):
            keys = uniform_keys(128, length, seed=5)
            system = PIMSystem(8, seed=1)
            trie = PIMTrie(system, PIMTrieConfig(num_modules=8), keys=keys)
            before = system.snapshot()
            trie.lcp_batch(keys[:64])
            rounds.append(system.snapshot().delta(before).io_rounds)
        assert abs(rounds[0] - rounds[1]) <= 2

    def test_communication_per_op_tracks_l_over_w(self):
        from repro.workloads import uniform_keys

        per_op = []
        for length in (64, 512):
            keys = uniform_keys(128, length, seed=6)
            system = PIMSystem(8, seed=1)
            trie = PIMTrie(system, PIMTrieConfig(num_modules=8), keys=keys)
            before = system.snapshot()
            trie.lcp_batch(keys[:64])
            d = system.snapshot().delta(before)
            per_op.append(d.total_communication / 64)
        # l grew 8x; l/w term predicts ~+7 words; allow generous framing
        assert per_op[1] < per_op[0] + 30 * (512 - 64) / 64

    def test_subtree_query_returns_trie(self):
        """§5.3: 'A Subtree Query returns a trie': the fetched
        components assemble into a valid trie of the prefix's keys."""
        system = PIMSystem(4, seed=1)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=4),
            keys=[bs(k) for k in FIG1_DATA],
            values=FIG1_DATA,
        )
        (items,) = trie.subtree_batch([bs("1010")])
        result = build_query_trie([k for k, _ in items], [v for _, v in items])
        assert isinstance(result, PatriciaTrie)
        assert sorted(k.to_str() for k in result.keys()) == [
            "1010000", "101011", "1010111",
        ]
        result.check_invariants()
        assert result.lookup(bs("101011")) == "101011"


class TestMinimumBatchBehaviour:
    """The paper requires Ω(P log^5 P) batches for whp balance; small
    batches must still be *correct* (only balance degrades)."""

    def test_tiny_batches_correct(self):
        system = PIMSystem(16, seed=1)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=16),
            keys=[bs(k) for k in FIG1_DATA],
        )
        assert trie.lcp_batch([bs("101001")]) == [5]
        assert trie.lcp_batch([]) == []

    def test_single_key_trie(self):
        system = PIMSystem(16, seed=1)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=16), keys=[bs("1")])
        assert trie.lcp_batch([bs("11"), bs("0")]) == [1, 0]
