"""Packed bit-string values used as keys throughout the PIM-trie.

The paper's keys are arbitrary-length bit-strings.  We represent a
bit-string by an arbitrary-precision integer plus an explicit length, with
the *first* bit of the string stored as the most-significant bit of the
integer.  Python integers are backed by contiguous machine words, so
slicing / concatenation / LCP all run as O(l/w) word operations in C, the
same asymptotic cost the paper charges for handling an l-bit string on a
machine with w-bit words.

All BitString instances are immutable and hashable.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["BitString", "EMPTY", "WORD_BITS"]

#: machine word size w in bits: keys pack into 64-bit words, so pivots,
#: S_last and S_rem are 64-bit aligned and a string's word cost is
#: ceil(l / w)
WORD_BITS = 64


class BitString:
    """An immutable sequence of bits.

    Bit 0 is the leftmost (most significant) bit.  Supports slicing,
    concatenation, prefix tests, and longest-common-prefix computation.
    """

    __slots__ = ("_value", "_length", "_hash")

    def __init__(self, value: int, length: int):
        # accept anything integer-like (numpy scalars included) but
        # store true Python ints so bignum slicing stays exact
        value = int(value)
        length = int(length)
        if length < 0:
            raise ValueError("bit-string length must be non-negative")
        if value < 0:
            raise ValueError("bit-string value must be non-negative")
        if value >> length:
            raise ValueError(
                f"value {value:#x} does not fit in {length} bits"
            )
        self._value = value
        self._length = length
        self._hash = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Build from a string of '0'/'1' characters (e.g. ``"00101"``)."""
        if s and set(s) - {"0", "1"}:
            raise ValueError(f"not a binary string: {s!r}")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        """Build from raw bytes, 8 bits per byte, big-endian within bytes."""
        return cls(int.from_bytes(data, "big"), 8 * len(data))

    @classmethod
    def from_int(cls, x: int, width: int) -> "BitString":
        """Build the ``width``-bit binary representation of ``x``."""
        if x < 0:
            raise ValueError("from_int requires a non-negative integer")
        if x >> width:
            raise ValueError(f"{x} does not fit in {width} bits")
        return cls(x, width)

    @classmethod
    def from_text(cls, s: str, *, encoding: str = "utf-8") -> "BitString":
        """Build from a text key (each character contributes its bytes)."""
        return cls.from_bytes(s.encode(encoding))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """The integer whose binary representation (MSB-first) is this string."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def bit(self, i: int) -> int:
        """Return bit ``i`` (0 = leftmost)."""
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {i} out of range [0, {self._length})")
        return (self._value >> (self._length - 1 - i)) & 1

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self._length)
            if step != 1:
                raise ValueError("bit-string slices must have step 1")
            return self.substring(start, stop)
        return self.bit(idx)

    def __iter__(self) -> Iterator[int]:
        v, n = self._value, self._length
        for i in range(n - 1, -1, -1):
            yield (v >> i) & 1

    # ------------------------------------------------------------------
    # slicing / composition
    # ------------------------------------------------------------------
    def substring(self, start: int, stop: int) -> "BitString":
        """Bits ``[start, stop)`` as a new BitString."""
        if not 0 <= start <= stop <= self._length:
            raise IndexError(
                f"substring [{start}, {stop}) out of range for length {self._length}"
            )
        width = stop - start
        shifted = self._value >> (self._length - stop)
        return BitString(shifted & ((1 << width) - 1), width)

    def prefix(self, n: int) -> "BitString":
        """The first ``n`` bits."""
        return self.substring(0, n)

    def suffix_from(self, n: int) -> "BitString":
        """All bits from position ``n`` onward."""
        return self.substring(n, self._length)

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __add__(self, other: "BitString") -> "BitString":
        return self.concat(other)

    def pad_to(self, width: int, fill: int) -> "BitString":
        """Right-pad with ``fill`` bits up to ``width`` (paper §4.4.2)."""
        if width < self._length:
            raise ValueError("cannot pad to a shorter width")
        if fill not in (0, 1):
            raise ValueError("fill bit must be 0 or 1")
        extra = width - self._length
        tail = ((1 << extra) - 1) if fill else 0
        return BitString((self._value << extra) | tail, width)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def lcp_len(self, other: "BitString") -> int:
        """Length of the longest common prefix with ``other``.

        O(min(l)/w) word operations: align both prefixes, XOR, and read
        the position of the highest set bit.
        """
        m = min(self._length, other._length)
        if m == 0:
            return 0
        a = self._value >> (self._length - m)
        b = other._value >> (other._length - m)
        x = a ^ b
        if x == 0:
            return m
        return m - x.bit_length()

    def is_prefix_of(self, other: "BitString") -> bool:
        return (
            self._length <= other._length
            and other._value >> (other._length - self._length) == self._value
        )

    def starts_with(self, other: "BitString") -> bool:
        return other.is_prefix_of(self)

    # Lexicographic order with the trie convention: a proper prefix sorts
    # before any of its extensions.
    def __lt__(self, other: "BitString") -> bool:
        k = self.lcp_len(other)
        if k == self._length:
            return self._length < other._length
        if k == other._length:
            return False
        return self.bit(k) < other.bit(k)

    def __le__(self, other: "BitString") -> bool:
        return self == other or self < other

    def __gt__(self, other: "BitString") -> bool:
        return other < self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._length == other._length
            and self._value == other._value
        )

    def __hash__(self) -> int:
        # keys act as dict keys on every hash-table probe of the
        # simulator's hot loop; the tuple hash over a bignum is worth
        # caching (hash() never returns -1, so None is a safe sentinel)
        h = self._hash
        if h is None:
            h = hash((self._value, self._length))
            self._hash = h
        return h

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def word_count(self, w: int = WORD_BITS) -> int:
        """Number of w-bit machine words needed to store this string."""
        return max(1, -(-self._length // w)) if self._length else 0

    def word_cost(self) -> int:
        """Words to ship this string CPU<->PIM: ceil(l/w), at least 1."""
        return max(1, -(-self._length // WORD_BITS))

    def to_str(self) -> str:
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")

    def __repr__(self) -> str:
        s = self.to_str()
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitString('{s}', len={self._length})"


#: The empty bit-string (the trie root's represented prefix).
EMPTY = BitString(0, 0)
