"""Tests for HashMatching (Algorithm 3 + the §4.4.2 pivot path).

Both modes are validated against a brute-force per-edge-deepest oracle
over randomized record tables, including fragments based mid-trie with
aligned-anchor bookkeeping, and the §4.4.3 S_last rejection path.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.core.hashmatch import CollisionLog, RecordTable
from repro.core.meta import make_record
from repro.trie import build_query_trie, rootfix

from tests.reference import (
    PathPos,
    fragment_whole_trie,
    hash_match_fragment,
    span_fragments,
)


def bs(s: str) -> BitString:
    return BitString.from_str(s)


H = IncrementalHasher(seed=13)
W = 64


def make_records(root_strings, parent_of=None):
    """Records for the given root strings; parents inferred by longest
    proper prefix within the set (the real meta-tree relation)."""
    ss = sorted(root_strings, key=len)
    recs = []
    id_of = {}
    for i, s in enumerate(ss):
        parent = None
        best = -1
        for t in ss:
            if len(t) < len(s) and t.is_prefix_of(s) and len(t) > best:
                best = len(t)
                parent = id_of[t]
        bid = 1000 + i
        id_of[s] = bid
        recs.append(make_record(bid, s, module=0, hasher=H, parent_block=parent, w=W))
    return recs, id_of


def brute_cuts(qt, strings, roots):
    """Oracle: per-edge deepest root lying on the query path."""
    out = {}
    for edge in qt.iter_edges():
        src_s = strings[edge.src.uid]
        dst_s = strings[edge.dst.uid]
        best = None
        for r in roots:
            if (
                len(src_s) < len(r) <= len(dst_s)
                and r.is_prefix_of(dst_s)
            ):
                if best is None or len(r) > len(best):
                    best = r
        if best is not None:
            out[(edge.dst.uid, len(dst_s) - len(best))] = best
    return out


@pytest.mark.parametrize("use_pivots", [True, False])
class TestHashMatchModes:
    def test_single_root_on_edge(self, use_pivots):
        qt = build_query_trie([bs("001100")])
        strings = rootfix(qt, bs(""), lambda a, n: a + n.parent_edge.label)
        recs, id_of = make_records([bs(""), bs("0011")])
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
        )
        assert len(cuts) == 1
        assert cuts[0].abs_depth == 4
        assert cuts[0].record.block_id == id_of[bs("0011")]

    def test_deepest_of_several(self, use_pivots):
        qt = build_query_trie([bs("00110011")])
        strings = rootfix(qt, bs(""), lambda a, n: a + n.parent_edge.label)
        recs, id_of = make_records(
            [bs(""), bs("0"), bs("0011"), bs("001100"), bs("111")]
        )
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
        )
        assert len(cuts) == 1
        assert cuts[0].record.block_id == id_of[bs("001100")]

    def test_no_match(self, use_pivots):
        qt = build_query_trie([bs("1111")])
        recs, _ = make_records([bs(""), bs("00")])
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
        )
        assert cuts == []

    def test_exclude_falls_back(self, use_pivots):
        """Excluding the deepest root must surface the next one up
        (the §4.4.3 redo path)."""
        qt = build_query_trie([bs("00110011")])
        recs, id_of = make_records([bs(""), bs("0011"), bs("001100")])
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
            exclude={id_of[bs("001100")]},
        )
        assert len(cuts) == 1
        assert cuts[0].record.block_id == id_of[bs("0011")]

    def test_long_edge_multiword(self, use_pivots):
        """Roots deeper than one machine word on a single edge."""
        key = bs("10" * 100)  # 200 bits
        qt = build_query_trie([key])
        roots = [bs(""), key.prefix(70), key.prefix(130), key.prefix(199)]
        recs, id_of = make_records(roots)
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
        )
        assert len(cuts) == 1
        assert cuts[0].abs_depth == 199

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=40), min_size=1, max_size=12),
        st.integers(0, 100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, use_pivots, keys, seed):
        rng = random.Random(seed)
        qt = build_query_trie([bs(k) for k in keys])
        strings = rootfix(qt, bs(""), lambda a, n: a + n.parent_edge.label)
        # random roots: mix of on-path prefixes and off-path strings
        roots = {bs("")}
        all_strings = [strings[n.uid] for n in qt.iter_nodes()]
        for _ in range(rng.randint(0, 6)):
            s = rng.choice(all_strings)
            if len(s):
                roots.add(s.prefix(rng.randint(1, len(s))))
        for _ in range(rng.randint(0, 3)):
            roots.add(bs("".join(rng.choice("01") for _ in range(rng.randint(1, 20)))))
        recs, id_of = make_records(sorted(roots))
        table = RecordTable(recs, W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=use_pivots, verify=True,
            tick=lambda n: None,
        )
        # translate fragment coordinates back to query-trie uids
        got = {
            (frag.origin[c.node_uid], c.back): c.record.block_id
            for c in cuts
        }
        want = {
            k: id_of[v] for k, v in brute_cuts(qt, strings, roots).items()
        }
        assert got == want


class TestFragmentBasedMatching:
    def test_cuts_relative_to_base(self):
        """A fragment based mid-trie still finds roots below its base,
        including roots whose aligned pivot precedes the base."""
        key = bs("01" * 50)  # 100 bits
        qt = build_query_trie([key])
        strings = rootfix(qt, bs(""), lambda a, n: a + n.parent_edge.label)
        leaf = next(n for n in qt.iter_nodes() if n.is_key)
        # fragment based at depth 70 (not word-aligned)
        frags = span_fragments(
            qt, [PathPos(qt.root), PathPos(leaf, back=30)], strings
        )
        frag = next(f for f in frags if f.base_depth == 70)
        roots = [key.prefix(75), key.prefix(90)]
        recs, id_of = make_records(roots)
        table = RecordTable(recs, W)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=True, verify=True, tick=lambda n: None
        )
        assert len(cuts) == 1
        assert cuts[0].abs_depth == 90

    def test_verification_rejects_wrong_slast(self):
        """A record whose fingerprint matches but whose S_last differs
        must be rejected and counted (collision injection)."""
        qt = build_query_trie([bs("00110011")])
        real = bs("0011")
        rec = make_record(7, real, module=0, hasher=H, parent_block=None, w=W)
        # forge a colliding record: same fingerprint/pre/rem but a
        # different S_last (as a true hash collision would present)
        from dataclasses import replace

        forged = replace(rec, s_last=bs("0111"), block_id=8)
        table = RecordTable([forged], W)
        frag = fragment_whole_trie(qt)
        log = CollisionLog()
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=True, verify=True,
            tick=lambda n: None, log=log,
        )
        assert cuts == []
        assert log.rejected >= 1

    def test_verify_off_accepts_forgery(self):
        qt = build_query_trie([bs("00110011")])
        from dataclasses import replace

        rec = make_record(7, bs("0011"), module=0, hasher=H, parent_block=None, w=W)
        forged = replace(rec, s_last=bs("0111"), block_id=8)
        table = RecordTable([forged], W)
        frag = fragment_whole_trie(qt)
        cuts = hash_match_fragment(
            frag, table, H, use_pivots=True, verify=False, tick=lambda n: None
        )
        assert len(cuts) == 1  # no verification -> forgery accepted


class TestRecordTable:
    def test_add_remove_roundtrip(self):
        recs, id_of = make_records([bs(""), bs("01"), bs("0101")])
        table = RecordTable(recs, W)
        assert len(table) == 3
        victim = recs[1]
        table.remove(victim)
        assert len(table) == 2
        assert victim.block_id not in table.by_id
        table.add(victim)
        assert len(table) == 3

    def test_family_grouping(self):
        """Records share a family iff they share the aligned prefix."""
        long = bs("1" * 80)
        recs, _ = make_records([long.prefix(70), long.prefix(75), bs("01")])
        table = RecordTable(recs, W)
        fams = table.layer2
        # 70 and 75 share s_pre (aligned at 64); "01" aligns at 0
        sizes = sorted(len(f.members) for f in fams.values())
        assert sizes == [1, 2]
