"""Tests for the fast-trie family: x-fast, y-fast, z-fast, validity index."""

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.fasttrie import (
    ValidityIndex,
    XFastTrie,
    YFastTrie,
    ZFastTrie,
    two_fattest,
)
from repro.bits import BitString


def bs(s: str) -> BitString:
    return BitString.from_str(s)


# ----------------------------------------------------------------------
# x-fast
# ----------------------------------------------------------------------
class TestXFast:
    def test_insert_contains(self):
        t = XFastTrie(8)
        assert t.insert(5)
        assert not t.insert(5)
        assert 5 in t
        assert 6 not in t
        assert len(t) == 1

    def test_key_range_check(self):
        t = XFastTrie(4)
        with pytest.raises(ValueError):
            t.insert(16)
        with pytest.raises(ValueError):
            t.predecessor(-1)

    def test_pred_succ_small(self):
        t = XFastTrie(8)
        for k in [10, 20, 30]:
            t.insert(k)
        assert t.predecessor(20) == 10
        assert t.predecessor(25) == 20
        assert t.predecessor(10) is None
        assert t.successor(20) == 30
        assert t.successor(25) == 30
        assert t.successor(30) is None

    def test_empty(self):
        t = XFastTrie(8)
        assert t.predecessor(5) is None
        assert t.successor(5) is None
        assert t.longest_prefix_level(5) == -1

    def test_delete(self):
        t = XFastTrie(8)
        for k in [1, 2, 3]:
            t.insert(k)
        assert t.delete(2)
        assert not t.delete(2)
        assert t.predecessor(3) == 1
        assert t.successor(1) == 3
        assert list(t.keys()) == [1, 3]

    def test_keys_sorted(self):
        t = XFastTrie(10)
        for k in [512, 3, 700, 100]:
            t.insert(k)
        assert list(t.keys()) == [3, 100, 512, 700]

    def test_space_is_theta_nw(self):
        t = XFastTrie(16)
        for k in range(0, 1000, 7):
            t.insert(k)
        # Θ(n·w): at least n entries at the leaf level alone
        assert t.space_entries() >= len(t) * 4

    @given(
        st.sets(st.integers(0, 255), max_size=40),
        st.integers(0, 255),
    )
    @settings(max_examples=200)
    def test_pred_succ_match_bruteforce(self, keys, q):
        t = XFastTrie(8)
        for k in keys:
            t.insert(k)
        pred = max((k for k in keys if k < q), default=None)
        succ = min((k for k in keys if k > q), default=None)
        assert t.predecessor(q) == pred
        assert t.successor(q) == succ

    @given(st.lists(st.integers(0, 1023), min_size=0, max_size=60))
    @settings(max_examples=100)
    def test_insert_delete_churn(self, ops):
        t = XFastTrie(10)
        alive = set()
        for i, k in enumerate(ops):
            if k in alive and i % 3 == 0:
                t.delete(k)
                alive.discard(k)
            else:
                t.insert(k)
                alive.add(k)
        assert list(t.keys()) == sorted(alive)


# ----------------------------------------------------------------------
# y-fast
# ----------------------------------------------------------------------
class TestYFast:
    def test_basic(self):
        t = YFastTrie(16)
        for k in [100, 5, 60000, 42]:
            assert t.insert(k)
        assert not t.insert(42)
        assert 42 in t
        assert 43 not in t
        assert len(t) == 4
        assert list(t.keys()) == [5, 42, 100, 60000]

    def test_pred_succ(self):
        t = YFastTrie(16)
        for k in range(0, 1000, 10):
            t.insert(k)
        assert t.predecessor(55) == 50
        assert t.successor(55) == 60
        assert t.predecessor(0) is None
        assert t.successor(990) is None

    def test_delete(self):
        t = YFastTrie(8)
        for k in [1, 5, 9]:
            t.insert(k)
        assert t.delete(5)
        assert not t.delete(5)
        assert t.predecessor(9) == 1

    def test_bucket_splits(self):
        """Enough keys to force multiple bucket splits."""
        t = YFastTrie(8)  # buckets split above 2*w = 16 keys
        for k in range(200):
            t.insert(k)
        assert len(t) == 200
        assert list(t.keys()) == list(range(200))
        assert t.predecessor(150) == 149

    def test_space_linear(self):
        """y-fast space stays O(n), far below x-fast's Θ(n·w)."""
        w = 16
        y = YFastTrie(w)
        x = XFastTrie(w)
        for k in range(0, 4096, 3):
            y.insert(k)
            x.insert(k)
        assert y.space_entries() < x.space_entries() / 2

    @given(
        st.sets(st.integers(0, 4095), max_size=120),
        st.integers(0, 4095),
    )
    @settings(max_examples=150)
    def test_matches_bruteforce(self, keys, q):
        t = YFastTrie(12)
        for k in keys:
            t.insert(k)
        assert t.predecessor(q) == max((k for k in keys if k < q), default=None)
        assert t.successor(q) == min((k for k in keys if k > q), default=None)
        assert (q in t) == (q in keys)

    @given(st.lists(st.integers(0, 255), min_size=0, max_size=100))
    @settings(max_examples=100)
    def test_churn(self, ops):
        t = YFastTrie(8)
        alive = set()
        for i, k in enumerate(ops):
            if k in alive and i % 2 == 0:
                assert t.delete(k)
                alive.discard(k)
            else:
                t.insert(k)
                alive.add(k)
        assert list(t.keys()) == sorted(alive)
        assert len(t) == len(alive)


# ----------------------------------------------------------------------
# z-fast
# ----------------------------------------------------------------------
def brute_deepest_prefix(members, q):
    best = None
    for m in members:
        if m.is_prefix_of(q) and (best is None or len(m) > len(best)):
            best = m
    return best


class TestTwoFattest:
    def test_examples(self):
        assert two_fattest(0, 8) == 8
        assert two_fattest(0, 7) == 4
        assert two_fattest(4, 7) == 6
        assert two_fattest(5, 7) == 6
        assert two_fattest(6, 7) == 7
        assert two_fattest(0, 1) == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            two_fattest(3, 3)

    @given(st.integers(0, 1000), st.integers(1, 1000))
    def test_properties(self, lo, d):
        hi = lo + d
        f = two_fattest(lo, hi)
        assert lo < f <= hi
        # f has at least as many trailing zeros as anything in (lo, hi]
        tz = (f & -f).bit_length()
        for x in range(lo + 1, min(hi + 1, lo + 50)):
            assert (x & -x).bit_length() <= tz


class TestZFast:
    def test_empty(self):
        z = ZFastTrie()
        assert z.lookup_deepest_prefix(bs("1010")) is None

    def test_single_member(self):
        z = ZFastTrie()
        z.insert(bs("101"), "v")
        assert z.lookup_deepest_prefix(bs("1011")) == bs("101")
        assert z.lookup_deepest_prefix(bs("100")) is None
        assert z.get(bs("101")) == "v"

    def test_empty_string_member(self):
        z = ZFastTrie()
        z.insert(bs(""), "root")
        z.insert(bs("11"), "v")
        assert z.lookup_deepest_prefix(bs("00")) == bs("")
        assert z.lookup_deepest_prefix(bs("110")) == bs("11")

    def test_nested_members(self):
        z = ZFastTrie()
        for m in ["0", "00000001", "000000011"]:
            z.insert(bs(m))
        assert z.lookup_deepest_prefix(bs("00000000")) == bs("0")
        assert z.lookup_deepest_prefix(bs("000000010")) == bs("00000001")
        assert z.lookup_deepest_prefix(bs("000000011")) == bs("000000011")

    def test_delete(self):
        z = ZFastTrie()
        z.insert(bs("10"))
        z.insert(bs("1011"))
        assert z.delete(bs("1011"))
        assert not z.delete(bs("1011"))
        assert z.lookup_deepest_prefix(bs("101111")) == bs("10")

    def test_bulk_build(self):
        z = ZFastTrie()
        z.bulk_build({bs("01"): 1, bs("0111"): 2})
        assert len(z) == 2
        assert z.lookup_deepest_prefix(bs("011100")) == bs("0111")

    def test_probes_logarithmic(self):
        """O(log h) probes per lookup on a deep comb."""
        z = ZFastTrie()
        members = {bs("1" * i + "0"): i for i in range(0, 64, 4)}
        z.bulk_build(members)
        before = z.probes
        z.lookup_deepest_prefix(bs("1" * 64))
        assert z.probes - before <= 8  # ~log2(64)+1

    @given(
        st.sets(st.text(alphabet="01", min_size=0, max_size=24), max_size=30),
        st.text(alphabet="01", max_size=30),
    )
    @settings(max_examples=300)
    def test_matches_bruteforce(self, members, q):
        z = ZFastTrie()
        ms = {bs(m) for m in members}
        z.bulk_build({m: None for m in ms})
        assert z.lookup_deepest_prefix(bs(q)) == brute_deepest_prefix(ms, bs(q))


# ----------------------------------------------------------------------
# validity index
# ----------------------------------------------------------------------
def brute_validity(members, q):
    """Max-LCP member, shortest then lexicographically-smallest tie-break."""
    best = None
    best_key = None
    for m in members:
        key = (-m.lcp_len(q), len(m), m.value)
        if best_key is None or key < best_key:
            best, best_key = m, key
    return best_key[0] if best_key else None  # return -lcp for comparison


class TestValidityIndex:
    def test_insert_contains_delete(self):
        v = ValidityIndex(8)
        assert v.insert(bs("010"))
        assert not v.insert(bs("010"))
        assert bs("010") in v
        assert v.delete(bs("010"))
        assert not v.delete(bs("010"))
        assert len(v) == 0

    def test_rejects_oversized(self):
        v = ValidityIndex(4)
        with pytest.raises(ValueError):
            v.insert(bs("0101"))
        with pytest.raises(ValueError):
            v.query(bs("01010"))

    def test_same_padding_disambiguated(self):
        """"1" and "10" share the 0-padding; validity vectors keep both."""
        v = ValidityIndex(4)
        v.insert(bs("1"))
        v.insert(bs("10"))
        assert v.query(bs("1011")) in (bs("10"),)
        v.delete(bs("10"))
        assert v.query(bs("1011")) == bs("1")

    def test_paper_figure5(self):
        """Figure 5: members {"01", "011" ...}; querying "0" padded finds
        the child "01" of the (absent-at-this-level) target node."""
        v = ValidityIndex(3)
        v.insert(bs("01"))
        v.insert(bs("01")[0:1])  # "0"
        got = v.query(bs("0"))
        assert got == bs("0")

    def test_empty_index(self):
        v = ValidityIndex(8)
        assert v.query(bs("1010")) is None

    def test_empty_string_member(self):
        v = ValidityIndex(4)
        v.insert(bs(""))
        assert v.query(bs("101")) == bs("")

    @given(
        st.sets(st.text(alphabet="01", min_size=0, max_size=7), max_size=25),
        st.text(alphabet="01", max_size=8),
    )
    @settings(max_examples=300)
    def test_max_lcp_matches_bruteforce(self, members, q):
        """The returned member achieves the globally maximal LCP with Q."""
        v = ValidityIndex(8)
        ms = {bs(m) for m in members}
        for m in ms:
            v.insert(m)
        got = v.query(bs(q))
        if not ms:
            assert got is None
            return
        assert got in ms
        best_lcp = max(m.lcp_len(bs(q)) for m in ms)
        assert got.lcp_len(bs(q)) == best_lcp
        # the paper's tie rule: no same-LCP member is a proper prefix of got
        for m in ms:
            if m.lcp_len(bs(q)) == best_lcp and m != got:
                assert not (m.is_prefix_of(got) and len(m) < len(got))

    @given(st.lists(st.text(alphabet="01", max_size=5), max_size=40))
    @settings(max_examples=100)
    def test_churn_consistency(self, ops):
        v = ValidityIndex(6)
        alive = set()
        for i, m in enumerate(ops):
            b = bs(m)
            if b in alive and i % 2:
                v.delete(b)
                alive.discard(b)
            else:
                v.insert(b)
                alive.add(b)
        assert set(v.members()) == alive
