"""Bit-string keys and incremental hashing (paper §4, Defs. 2–3)."""

from .bitstring import BitString, EMPTY, WORD_BITS
from .carryless import CarrylessHasher, GF2_POLY_61
from .hashing import HashValue, IncrementalHasher, MERSENNE_61

__all__ = [
    "BitString",
    "EMPTY",
    "CarrylessHasher",
    "GF2_POLY_61",
    "HashValue",
    "IncrementalHasher",
    "MERSENNE_61",
    "WORD_BITS",
]
