"""Unit + property tests for the packed bit-string kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.bits import EMPTY, BitString


def bs(s: str) -> BitString:
    return BitString.from_str(s)


bit_strings = st.text(alphabet="01", min_size=0, max_size=300).map(bs)
nonempty_bit_strings = st.text(alphabet="01", min_size=1, max_size=300).map(bs)


class TestConstruction:
    def test_from_str_roundtrip(self):
        for s in ["", "0", "1", "0101", "000", "111", "0" * 100 + "1"]:
            assert bs(s).to_str() == s

    def test_from_bytes(self):
        b = BitString.from_bytes(b"\xa5")
        assert b.to_str() == "10100101"
        assert len(BitString.from_bytes(b"ab")) == 16

    def test_from_int(self):
        assert BitString.from_int(5, 4).to_str() == "0101"
        with pytest.raises(ValueError):
            BitString.from_int(16, 4)
        with pytest.raises(ValueError):
            BitString.from_int(-1, 4)

    def test_from_text(self):
        assert BitString.from_text("A").to_str() == "01000001"

    def test_value_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitString(4, 2)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitString(0, -1)

    def test_invalid_binary_string(self):
        with pytest.raises(ValueError):
            bs("01x")


class TestAccess:
    def test_bit_access(self):
        b = bs("10110")
        assert [b.bit(i) for i in range(5)] == [1, 0, 1, 1, 0]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            bs("101").bit(3)
        with pytest.raises(IndexError):
            bs("101").bit(-1)

    def test_getitem_int_and_slice(self):
        b = bs("10110")
        assert b[0] == 1
        assert b[1:4].to_str() == "011"
        assert b[:0] == EMPTY

    def test_slice_step_rejected(self):
        with pytest.raises(ValueError):
            bs("10110")[::2]

    def test_iter(self):
        assert list(bs("1101")) == [1, 1, 0, 1]

    def test_bool_len(self):
        assert not EMPTY
        assert bs("0")
        assert len(bs("0101")) == 4


class TestSlicing:
    def test_prefix_suffix(self):
        b = bs("110010")
        assert b.prefix(3).to_str() == "110"
        assert b.suffix_from(3).to_str() == "010"
        assert b.prefix(0) == EMPTY
        assert b.suffix_from(6) == EMPTY

    def test_substring_bounds(self):
        with pytest.raises(IndexError):
            bs("101").substring(1, 4)
        with pytest.raises(IndexError):
            bs("101").substring(2, 1)

    def test_concat(self):
        assert (bs("10") + bs("01")).to_str() == "1001"
        assert (EMPTY + bs("1")).to_str() == "1"
        assert (bs("1") + EMPTY).to_str() == "1"

    def test_append_bit(self):
        assert (bs("10") + BitString(1, 1)).to_str() == "101"
        assert (EMPTY + BitString(0, 1)).to_str() == "0"
        with pytest.raises(ValueError):
            BitString(2, 1)

    def test_pad_to(self):
        assert bs("01").pad_to(5, 0).to_str() == "01000"
        assert bs("01").pad_to(5, 1).to_str() == "01111"
        with pytest.raises(ValueError):
            bs("0101").pad_to(2, 0)
        with pytest.raises(ValueError):
            bs("01").pad_to(4, 2)


class TestLCP:
    def test_lcp_basic(self):
        assert bs("10110").lcp_len(bs("1010")) == 3
        assert bs("000").lcp_len(bs("111")) == 0
        assert bs("101").lcp_len(bs("101")) == 3
        assert bs("10").lcp_len(bs("1011")) == 2
        assert EMPTY.lcp_len(bs("101")) == 0

    def test_prefix_relations(self):
        assert bs("10").is_prefix_of(bs("1011"))
        assert not bs("11").is_prefix_of(bs("1011"))
        assert bs("1011").starts_with(bs("10"))
        assert EMPTY.is_prefix_of(bs("0"))
        assert bs("101").is_prefix_of(bs("101"))

    @given(bit_strings, bit_strings)
    def test_lcp_symmetric(self, a, b):
        assert a.lcp_len(b) == b.lcp_len(a)

    @given(bit_strings, bit_strings)
    def test_lcp_is_common_prefix(self, a, b):
        k = a.lcp_len(b)
        assert a.prefix(k) == b.prefix(k)
        if k < len(a) and k < len(b):
            assert a.bit(k) != b.bit(k)

    @given(bit_strings, bit_strings, bit_strings)
    def test_concat_prefix_lcp(self, p, a, b):
        # common prefix extends through concatenation
        assert (p + a).lcp_len(p + b) >= len(p)


class TestOrdering:
    def test_prefix_sorts_first(self):
        assert bs("10") < bs("100")
        assert bs("10") < bs("101")
        assert not bs("100") < bs("10")

    def test_lexicographic(self):
        assert bs("011") < bs("10")
        assert bs("0") < bs("1")
        assert EMPTY < bs("0")

    @given(st.lists(bit_strings, min_size=2, max_size=20))
    def test_sorted_adjacent_lcp_maximal(self, xs):
        """In sorted order each string's LCP with its neighbors is maximal."""
        xs = sorted(set(xs))
        for i in range(1, len(xs)):
            k = xs[i - 1].lcp_len(xs[i])
            for j in range(i - 1):
                assert xs[j].lcp_len(xs[i]) <= k

    @given(bit_strings, bit_strings)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(bit_strings, bit_strings, bit_strings)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c


class TestMisc:
    def test_word_count(self):
        assert EMPTY.word_count() == 0
        assert bs("1").word_count() == 1
        assert BitString(0, 64).word_count() == 1
        assert BitString(0, 65).word_count() == 2
        assert BitString(0, 64).word_count(w=8) == 8

    def test_hashable(self):
        assert len({bs("101"), bs("101"), bs("10")}) == 2

    def test_eq_other_types(self):
        assert bs("1") != "1"
        assert bs("1") != 1

    def test_repr_truncates(self):
        long = bs("1" * 100)
        assert "..." in repr(long)
        assert "len=100" in repr(long)

    @given(bit_strings)
    def test_roundtrip_property(self, b):
        assert BitString.from_str(b.to_str()) == b
