"""Tests for the hash value manager structures (paper §4.4, §4.4.1)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import BitString, IncrementalHasher
from repro.columnar.match import _family_cols
from repro.core.meta import (
    MetaPiece,
    MetaRecord,
    RecordTable,
    cut_node,
    decompose_component,
    make_record,
)


def bs(s: str) -> BitString:
    return BitString.from_str(s)


H = IncrementalHasher(seed=31)
W = 64


def random_tree(n: int, seed: int) -> dict[int, list[int]]:
    rng = random.Random(seed)
    kids: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        kids[rng.randrange(i)].append(i)
    return kids


class TestMakeRecord:
    def test_basic_fields(self):
        s = bs("1" * 70)
        rec = make_record(5, s, module=2, hasher=H, parent_block=1)
        assert rec.block_id == 5
        assert rec.depth == 70
        assert rec.module == 2
        assert rec.parent_block == 1
        assert rec.fingerprint == H.fingerprint_of(s)
        # the aligned decomposition
        assert rec.s_rem == s.suffix_from(64)
        assert len(rec.s_rem) == 6
        assert rec.s_pre_fp == H.fingerprint_of(s.prefix(64))

    def test_short_string(self):
        s = bs("0101")
        rec = make_record(1, s, 0, H, None)
        assert rec.s_pre_fp == H.fingerprint_of(bs(""))
        assert rec.s_rem == s
        assert rec.s_last == s

    def test_s_last_window(self):
        s = bs("10" * 60)  # 120 bits
        rec = make_record(1, s, 0, H, None)
        assert rec.s_last == s.suffix_from(120 - 64)
        assert len(rec.s_last) == 64

    def test_word_aligned_depth(self):
        s = BitString(0, 128)
        rec = make_record(1, s, 0, H, None)
        assert len(rec.s_rem) == 0
        assert rec.s_pre_fp == H.fingerprint_of(s)

    def test_word_cost_constant(self):
        long = make_record(1, bs("1" * 500), 0, H, None)
        short = make_record(2, bs("1"), 0, H, None)
        assert long.word_cost() == short.word_cost()  # O(1) words each


class TestCutNode:
    def test_path_picks_middle(self):
        n = 15
        kids = {i: [i + 1] for i in range(n - 1)}
        kids[n - 1] = []
        v = cut_node(list(range(n)), kids, 0)
        # cutting v's out-edge splits into [0..v] and [v+1..n-1]
        upper = v + 1
        lower = n - upper
        assert max(upper, lower) <= (n + 1) // 2 + 1

    def test_star_picks_center(self):
        kids = {0: list(range(1, 20))}
        for i in range(1, 20):
            kids[i] = []
        assert cut_node(list(range(20)), kids, 0) == 0

    def test_single_node(self):
        assert cut_node([0], {0: []}, 0) == 0

    @given(st.integers(2, 200), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_lemma45_bound(self, n, seed):
        kids = random_tree(n, seed)
        v = cut_node(list(range(n)), kids, 0)
        size = {}
        order = []
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(kids[u])
        for u in reversed(order):
            size[u] = 1 + sum(size[c] for c in kids[u])
        worst = max(
            [n - (size[v] - 1)] + [size[c] for c in kids[v]]
        )
        assert worst <= (n + 1) // 2 + 1


class TestDecompose:
    @given(st.integers(1, 300), st.integers(2, 32), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, bound, seed):
        kids = random_tree(n, seed)
        pm, pc, root = decompose_component(0, kids, bound)
        # pieces partition the node set
        seen = sorted(u for members in pm.values() for u in members)
        assert seen == list(range(n))
        # piece sizes bounded
        assert all(len(m) <= max(bound, 2) for m in pm.values())
        # the piece tree is a tree over all piece keys
        reachable = set()
        stack = [root]
        while stack:
            k = stack.pop()
            assert k not in reachable
            reachable.add(k)
            stack.extend(pc[k])
        assert reachable == set(pm)

    @given(st.integers(4, 400), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_height_logarithmic(self, n, seed):
        kids = random_tree(n, seed)
        bound = 4
        pm, pc, root = decompose_component(0, kids, bound)

        def height(k):
            return 1 + max((height(c) for c in pc[k]), default=0)

        assert height(root) <= 2 * math.log2(n) + 3

    def test_pieces_are_connected(self):
        """Every piece is a connected component of the original tree."""
        kids = random_tree(120, seed=9)
        pm, pc, root = decompose_component(0, kids, 7)
        parent = {}
        for u, cs in kids.items():
            for c in cs:
                parent[c] = u
        for key, members in pm.items():
            mset = set(members)
            for u in members:
                if u == key:
                    continue
                # walking up from u stays inside the piece until its root
                cur = u
                while cur != key:
                    cur = parent[cur]
                    assert cur in mset or cur == key


# ----------------------------------------------------------------------
# frozen references: cut_node / decompose_component / the _family_cols
# chain as they stood before the write-path speed-up.  Piece ids, piece
# placement draws and every HVM word count follow from this output, so
# the fast versions must reproduce it exactly, list order included.
# ----------------------------------------------------------------------
def _ref_cut_node(nodes, children, root):
    n = len(nodes)
    size = {}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children.get(u, ()))
    for u in reversed(order):
        size[u] = 1 + sum(size[c] for c in children.get(u, ()))
    best, best_cost = root, n + 1
    for u in order:
        kids = children.get(u, ())
        upper = n - (size[u] - 1)
        max_child = max((size[c] for c in kids), default=0)
        cost = max(upper, max_child)
        if cost < best_cost:
            best, best_cost = u, cost
    return best


def _ref_decompose_component(root, children, bound):
    piece_members = {}
    piece_children = {}

    def collect(r, kids):
        out = []
        stack = [r]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids.get(u, ()))
        return out

    def recurse(r, kids):
        members = collect(r, kids)
        child_piece_keys = []
        local_kids = {u: list(kids.get(u, ())) for u in members}
        while len(members) > bound:
            v = _ref_cut_node(members, local_kids, r)
            cut_children = list(local_kids.get(v, ()))
            if not cut_children:
                break
            local_kids[v] = []
            for c in cut_children:
                child_piece_keys.append(recurse(c, local_kids))
            members = collect(r, local_kids)
        piece_members[r] = members
        piece_children[r] = child_piece_keys
        return r

    root_key = recurse(root, children)
    return piece_members, piece_children, root_key


def _ref_family_cols(fam):
    scan = fam._scan_list()
    m = len(scan)
    lens = [t[0] for t in scan]
    vals = [t[1] for t in scan]
    recs = [t[2] for t in scan]
    chain = []
    for i in range(m):
        ln, val = lens[i], vals[i]
        nxt = -1
        for j in range(i + 1, m):
            if lens[j] < ln and (val >> (ln - lens[j])) == vals[j]:
                nxt = j
                break
        chain.append(nxt)
    by_len = {}
    for idx, (ln, val) in enumerate(zip(lens, vals)):
        by_len.setdefault(ln, {}).setdefault(val, idx)
    return (
        [r.depth for r in recs],
        [len(r.s_last) for r in recs],
        [r.s_last.value for r in recs],
        chain,
        recs,
        sorted(by_len.items(), reverse=True),
    )


class TestFrozenReference:
    @pytest.mark.parametrize("bound", [2, 4, 16, 64])
    def test_decompose_equals_reference(self, bound):
        rng = random.Random(bound)
        for seed in range(500):
            n = rng.randint(1, 260)
            kids = random_tree(n, seed)
            if seed % 3 == 0:
                # set-ordered child lists, as extract_blocks feeds them
                for cs in kids.values():
                    rng.shuffle(cs)
            got = decompose_component(0, kids, bound)
            want = _ref_decompose_component(0, kids, bound)
            assert got == want, (n, seed, bound)
            # dict *order* fixes the piece-id draw order
            assert list(got[0]) == list(want[0])

    def test_cut_node_equals_reference(self):
        rng = random.Random(45)
        for seed in range(500):
            n = rng.randint(1, 260)
            kids = random_tree(n, seed)
            nodes = list(range(n))
            assert cut_node(nodes, kids, 0) == _ref_cut_node(nodes, kids, 0)

    def test_family_cols_equals_reference(self):
        rng = random.Random(442)
        pre = BitString(rng.getrandbits(W), W)
        chained = 0
        for trial in range(200):
            # nested prefixes of a few stems, so chains are long
            stems = [rng.getrandbits(W - 1) for _ in range(rng.randint(1, 4))]
            rems = set()
            for _ in range(rng.randint(1, 60)):
                ln = rng.randint(0, W - 1)
                rems.add((rng.choice(stems) >> (W - 1 - ln), ln))
            recs = [
                make_record(i, pre + BitString(v, ln), 0, H, None)
                for i, (v, ln) in enumerate(sorted(rems), start=1)
            ]
            rng.shuffle(recs)
            (fam,) = RecordTable(recs).layer2.values()
            want = _ref_family_cols(fam)
            got = _family_cols(fam)
            assert len(got) == len(want) == 6
            assert got == want, trial
            chained += sum(c >= 0 for c in got[3])
        assert chained > 1000  # the families really nest


class TestMetaPiece:
    def rec(self, bid, s, parent=None):
        return make_record(bid, bs(s), 0, H, parent)

    def test_add_owned_and_replicated(self):
        p = MetaPiece(1)
        p.add_record(self.rec(1, "01"), owned=True)
        p.add_record(self.rec(2, "0111", parent=1), owned=False)
        assert len(p.owned) == 1
        assert len(p.table) == 2
        assert set(p.table.by_id) == {1, 2}
        assert p.kids == {1: [2]}

    def test_replace_record(self):
        p = MetaPiece(1)
        p.add_record(self.rec(1, "01"), owned=True)
        updated = self.rec(1, "01", parent=None)
        p.add_record(updated, owned=True)
        assert len(p.owned) == 1
        assert len(p.table) == 1

    def test_remove(self):
        p = MetaPiece(1)
        p.add_record(self.rec(1, "01"), owned=True)
        p.add_record(self.rec(2, "0111", parent=1), owned=True)
        p.remove_record(1)
        assert set(p.table.by_id) == {2}
        assert len(p.owned) == 1
        # removing again is a no-op
        p.remove_record(1)
        assert len(p.table) == 1

    def test_readd_changes_ownership(self):
        """Re-adding a block id replaces its record, follows the new
        ``owned`` flag both ways and keeps owned ⊆ table."""
        p = MetaPiece(1)
        p.add_record(self.rec(1, "01"), owned=True)
        p.add_record(self.rec(2, "0111", parent=1), owned=True)
        moved = self.rec(1, "01", parent=7)
        p.add_record(moved, owned=False)  # owned -> replicated
        assert p.owned == {2} and len(p.owned) == 1
        assert p.table.by_id[1] is moved and len(p.table) == 2
        # a re-added record goes to the end of the table order, which
        # "fetch" replies and the probe index both follow
        assert list(p.table.by_id) == [2, 1]
        assert p.table.by_fp[moved.fingerprint] == [moved]
        assert p.kids == {1: [2], 7: [1]}
        back = self.rec(1, "01", parent=9)
        p.add_record(back, owned=True)  # replicated -> owned
        assert 1 in p.owned and p.table.by_id[1] is back
        assert p.owned == {1, 2} and list(p.table.by_id) == [2, 1]
        assert p.kids == {1: [2], 9: [1]}
        assert p.word_cost() == 1 + 2 * back.word_cost()
        p.remove_record(1)
        assert p.owned == set(p.table.by_id) == {2}
        assert p.kids == {1: [2]}

    def test_word_cost_scales_with_table(self):
        p = MetaPiece(1)
        for i in range(10):
            p.add_record(self.rec(i + 1, format(i, "05b")), owned=True)
        assert p.word_cost() == 1 + 10 * 6


def _index(piece: MetaPiece):
    """Everything a piece's live index holds, in order."""
    t = piece.table
    return (
        list(t.by_id.items()),
        {fp: list(recs) for fp, recs in t.by_fp.items()},
        {fp: (f.size, dict(f.members)) for fp, f in t.layer2.items()},
        {b: list(kids) for b, kids in piece.kids.items()},
    )


class TestLiveTable:
    """A piece's record table, owned set and parent -> children index
    are updated in place by every record write, and always equal a
    fresh build over its records in table order."""

    def rec(self, bid, s, parent=None):
        return make_record(bid, bs(s), 0, H, parent)

    def fresh(self, piece: MetaPiece) -> MetaPiece:
        return MetaPiece(
            piece.piece_id,
            records=[(r, b in piece.owned) for b, r in piece.table.by_id.items()],
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences_equal_a_fresh_build(self, seed):
        rng = random.Random(seed)
        # few distinct root strings under one aligned prefix, so the
        # fingerprint lists and s_pre families hold several records
        pre = BitString(rng.getrandbits(W), W) if seed % 2 else bs("")
        roots = {
            b: pre + BitString(rng.getrandbits(n), n)
            for b, n in enumerate(rng.choices(range(1, 9), k=40), start=1)
        }
        p = MetaPiece(1)
        for _ in range(300):
            op = rng.random()
            bid = rng.randint(1, 40)
            if op < 0.5:
                # add, or re-add under a new parent
                parent = rng.choice([None, *range(1, 41)])
                rec = make_record(bid, roots[bid], 0, H, parent)
                p.add_record(rec, owned=rng.random() < 0.5)
            else:
                p.remove_record(bid)
            assert p.owned <= set(p.table.by_id)
            assert _index(p) == _index(self.fresh(p))
        assert len(p.table) > 0

    def test_colliding_records_keep_the_last_in_their_family(self):
        """Two blocks on the same (s_pre_fp, S_rem) slot: the family
        holds the later one, and removing it hands the slot back."""
        first, second = (
            make_record(b, bs("0110"), 0, H, None) for b in (1, 2)
        )
        p = MetaPiece(1, records=[(first, True), (second, True)])
        (fam,) = p.table.layer2.values()
        assert fam.size == 2 and fam.members == {second.s_rem: second}
        p.remove_record(2)
        assert fam.size == 1 and fam.members == {first.s_rem: first}
        assert _index(p) == _index(self.fresh(p))
        p.add_record(second, owned=True)
        p.remove_record(1)
        assert _index(p) == _index(self.fresh(p))
        p.remove_record(2)
        assert p.table.layer2 == {} and p.table.by_fp == {}

    def test_family_columns_are_dropped_on_change(self):
        p = MetaPiece(1)
        for b, s in enumerate(["0101", "010111", "0110"], start=1):
            p.add_record(self.rec(b, s), owned=True)
        (fam,) = p.table.layer2.values()
        _family_cols(fam)
        assert fam._cols is not None
        p.add_record(self.rec(4, "01011"), owned=False)
        assert fam._cols is None and fam._scan is None
        assert _family_cols(fam) == _ref_family_cols(fam)
        p.remove_record(2)
        assert fam._cols is None
        assert _family_cols(fam) == _ref_family_cols(fam)
