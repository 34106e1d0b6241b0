"""Vectorized Mersenne-61 arithmetic over numpy uint64 arrays.

The columnar core needs the same hash values
:class:`repro.bits.hashing.IncrementalHasher` gives one string at a
time, but computed for whole columns at once.  Everything here is exact modular arithmetic on
``q = 2^61 - 1`` carried out in uint64 lanes:

* reduction uses Mersenne folding (``x mod q = (x >> 61) + (x & q)``,
  applied twice, then the ``q -> 0`` normalization — identical to the
  scalar ``_mod_m61``);
* products split operands into 32-bit limbs so no intermediate exceeds
  64 bits (``2^64 ≡ 8`` and ``2^61 ≡ 1 (mod q)`` fold the high limbs
  back down);
* the rolling digest scan uses ``digest(A · word) = digest(A) * 2^64 +
  word (mod q)`` one packed word at a time.

All functions are total over uint64 inputs ``< 2^64``; shift counts are
kept strictly below 64 everywhere (numpy's behaviour at >= 64 is
undefined).
"""

from __future__ import annotations

import numpy as np

from ..bits.hashing import MERSENNE_61

__all__ = [
    "M61",
    "fold",
    "mulmod",
    "digest_words",
    "fingerprint_cols",
    "extract_window",
    "pack_words",
]

#: The Mersenne prime 2^61 - 1 as a numpy scalar.
M61 = np.uint64(MERSENNE_61)

_U64 = np.uint64
_SHIFT61 = _U64(61)
_SHIFT32 = _U64(32)
_SHIFT29 = _U64(29)
_MASK32 = _U64(0xFFFF_FFFF)
_MASK29 = _U64(0x1FFF_FFFF)
_EIGHT = _U64(8)
_ONE = _U64(1)
_ZERO = _U64(0)


def _fold1(x: np.ndarray) -> np.ndarray:
    """One Mersenne fold: result < 2^61 + 8 for any uint64 input."""
    return (x >> _SHIFT61) + (x & M61)


def fold(x: np.ndarray) -> np.ndarray:
    """Full reduction mod q of any uint64 array (q itself maps to 0)."""
    x = _fold1(_fold1(x))
    return np.where(x == M61, _ZERO, x)


def mulmod(a, b) -> np.ndarray:
    """``a * b mod q`` for arrays/scalars already reduced below 2^61.

    32-bit limb split: with ``a = a1*2^32 + a0`` and ``b = b1*2^32 +
    b0``, the product is ``a1*b1*2^64 + (a1*b0 + a0*b1)*2^32 + a0*b0``;
    ``2^64 ≡ 8`` folds the top term and ``m*2^32 = (m >> 29) +
    (m & (2^29-1))*2^32 (mod q)`` folds the cross terms (``2^61 ≡ 1``).
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a1, a0 = a >> _SHIFT32, a & _MASK32
    b1, b0 = b >> _SHIFT32, b & _MASK32
    m = a1 * b0 + a0 * b1  # < 2^62: both terms < 2^61
    hi = _EIGHT * (a1 * b1) + (m >> _SHIFT29) + ((m & _MASK29) << _SHIFT32)
    # hi < 2^61 + 2^33 + 2^61 < 2^62.1; one fold of each addend keeps
    # the final sum below 2^63 before the full reduction.
    x = _fold1(hi) + _fold1(a0 * b0)
    return fold(x)


def digest_words(words: np.ndarray) -> np.ndarray:
    """Rolling digests over packed 64-bit words, one prefix per column.

    ``words`` is an (n, W) uint64 array, row k holding key k MSB-first.
    Returns an (n, W + 1) array ``D`` with ``D[:, j]`` the linear-core
    digest of the length-``64*j`` prefix (``D[:, 0] = 0``).  Columns
    beyond a key's true word count are meaningless (padding enters the
    scan) and must not be read.
    """
    n, width = words.shape
    out = np.zeros((n, width + 1), dtype=np.uint64)
    for j in range(width):
        # digest * 2^64 ≡ digest * 8; both addends folded below 2^62.
        x = _fold1(_EIGHT * out[:, j]) + _fold1(words[:, j])
        out[:, j + 1] = fold(x)
    return out


def fingerprint_cols(digests, lengths, mul: int, add: int, mask: int) -> np.ndarray:
    """Seeded affine fingerprints of (digest, length) columns.

    Exactly ``_mod_m61((digest + length*add + 1) * mul) & mask`` from
    :meth:`IncrementalHasher.fingerprint`, with the ``length * add``
    product routed through :func:`mulmod` (it overflows 64 bits raw).
    """
    digests = np.asarray(digests, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.uint64)
    lm = mulmod(lengths, _U64(add))
    t = fold(digests + lm + _ONE)  # < 2^62 before the fold
    return mulmod(t, _U64(mul)) & _U64(mask)


def extract_window(words: np.ndarray, start, length) -> np.ndarray:
    """Bits ``[start, start + length)`` of each packed row, as uint64.

    ``words`` is (n, W) MSB-first; ``start`` and ``length`` are arrays
    broadcastable to (n,), with ``0 <= length <= 64`` and the window in
    range.  Rows with ``length == 0`` return 0.  Windows may straddle
    one word boundary; shift counts are clipped so no lane shifts by
    >= 64 (the selected branch always uses the valid value).
    """
    n = words.shape[0]
    start = np.broadcast_to(np.asarray(start, dtype=np.uint64), (n,))
    length = np.broadcast_to(np.asarray(length, dtype=np.uint64), (n,))
    j = (start >> np.uint64(6)).astype(np.int64)
    off = start & _U64(63)
    avail = _U64(64) - off  # bits available in the first word: 1..64
    rows = np.arange(n)
    w0 = words[rows, j]
    one_word = length <= avail
    # branch A: fits in the first word -> (w0 >> (avail-length)) masked
    shift_a = np.where(one_word, avail - length, _ZERO)
    res_a = (w0 >> shift_a) & _mask_of(length)
    # branch B: straddles into the next word
    j2 = np.minimum(j + 1, words.shape[1] - 1)
    w1 = words[rows, j2]
    rem = np.where(one_word, _ONE, length - avail)  # 1..63 in branch B
    low_bits = w0 & _mask_of(np.where(one_word, _ZERO, avail))
    res_b = (low_bits << rem) | (w1 >> (_U64(64) - rem))
    out = np.where(one_word, res_a, res_b)
    return np.where(length == _ZERO, _ZERO, out)


def _mask_of(nbits: np.ndarray) -> np.ndarray:
    """``(1 << nbits) - 1`` for nbits in [0, 64] without shifting by 64."""
    nbits = np.asarray(nbits, dtype=np.uint64)
    full = nbits >= _U64(64)
    shift = np.where(full, _ZERO, nbits)
    return np.where(full, ~_ZERO, (_ONE << shift) - _ONE)


def pack_words(values: list[int], lengths: list[int], width: int) -> np.ndarray:
    """Pack bignum bit-strings into an (n, width) MSB-first word matrix.

    Row k holds ``values[k]`` left-aligned: bit 0 of the string is the
    MSB of word 0, and trailing bits of the last partial word are zero.
    """
    n = len(values)
    out = np.zeros((n, width), dtype=np.uint64)
    if width == 0:
        return out
    total = width * 64
    nbytes = width * 8
    for k in range(n):
        padded = values[k] << (total - lengths[k])
        out[k] = np.frombuffer(padded.to_bytes(nbytes, "big"), dtype=">u8")
    return out
