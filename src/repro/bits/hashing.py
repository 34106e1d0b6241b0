"""Incremental hashing of bit-strings (paper Definitions 2 and 3).

PIM-trie requires an *incremental* hash: after decomposing a query trie
into blocks, the full string of a node may be absent from its block, so
node hashes must be derivable from a prefix hash plus a suffix string.

We use a two-stage design:

* **Linear core.**  ``digest(s) = value(s) mod q`` with the Mersenne
  prime ``q = 2^61 - 1``, paired with the bit length.  This is the
  rolling polynomial hash with base ``x = 2`` and is *binary
  associatively incremental* (Definition 3) exactly:

      digest(AB) = digest(A) * 2^{|B|} + digest(B)   (mod q)

  so node hashes over a trie can be produced by a rootfix scan and
  pivot hashes by a prefix sum (Lemmas 4.4 / 4.9), at O(l/w) word cost
  per l-bit string (Python's bignum arithmetic does the word loop in C).

* **Seeded fingerprint.**  Wherever hash values are *compared* (hash
  tables in the hash value manager, block-root matching), the linear
  digest is finalized through a seed-derived affine map and truncated to
  ``width`` bits.  Re-seeding realizes the paper's global re-hash
  (§4.4.3); narrowing ``width`` injects collisions for the verification
  experiments (E13).  Because the affine map is applied only at
  comparison time, incrementality of the core is preserved.

Collision behaviour: two equal-length strings share a fingerprint iff
their affine-mapped digests agree in the low ``width`` bits — for
``width = 61`` this needs ``value(A) ≡ value(B) (mod q)``, i.e. a
difference divisible by ~2.3e18, which the synthetic workloads never
produce; narrow widths collide freely, as E13 requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitstring import BitString

__all__ = ["IncrementalHasher", "HashValue", "MERSENNE_61"]

#: Modulus for the rolling hash: the Mersenne prime 2^61 - 1.
MERSENNE_61 = (1 << 61) - 1


def splitmix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit mix (the
    cluster's rack seeds and hash sharding, the adapt sketch's rows)."""
    m64 = (1 << 64) - 1
    x &= m64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
    return x ^ (x >> 31)


def _mod_m61(x: int) -> int:
    """x mod (2^61 - 1) via Mersenne folding (no division on the hot path)."""
    while x >> 61:
        x = (x & MERSENNE_61) + (x >> 61)
    return x if x != MERSENNE_61 else 0


@dataclass(frozen=True)
class HashValue:
    """Linear-core hash of a bit-string together with the hashed length.

    The length is required by the associative combine (Definition 3
    permits the combiner to use operand lengths) and disambiguates
    equal-value strings of different lengths (e.g. "1" vs "01").
    """

    digest: int
    length: int

    def __index__(self) -> int:
        return self.digest


class IncrementalHasher:
    """Binary-associatively-incremental hash with seeded fingerprints.

    Parameters
    ----------
    seed:
        Selects the affine fingerprint map; a global re-hash (paper
        §4.4.3) constructs a new hasher with a fresh seed.
    width:
        Number of fingerprint bits retained (1..61).  ``width=61`` is
        effectively collision-free at simulated scales, matching the
        paper's 5*log2(N)-bit choice; narrow it to force collisions.
    """

    def __init__(self, seed: int = 0x5151_7EA7, width: int = 61):
        if not 1 <= width <= 61:
            raise ValueError("hash width must be in [1, 61]")
        self.seed = seed
        self.width = width
        # Affine finalizer parameters in [1, q-1] derived from the seed.
        s = (seed * 6364136223846793005 + 1442695040888963407) & (1 << 64) - 1
        self._mul = 1 + _mod_m61(s ^ (s >> 7)) % (MERSENNE_61 - 1)
        s = (s * 6364136223846793005 + 1442695040888963407) & (1 << 64) - 1
        self._add = 1 + _mod_m61(s ^ (s >> 11)) % (MERSENNE_61 - 1)
        self._mask = (1 << width) - 1

    # 2^n mod q is seed-independent, so the memo table is shared by all
    # hasher instances (class-level): rootfix scans and pivot prefix
    # sums (Lemmas 4.4 / 4.9) across many tries and re-seeded hashers
    # stop paying per-call pow().  Bounded with FIFO eviction (dicts
    # iterate in insertion order) so adversarial key lengths can neither
    # grow it without limit nor pin it full of stale exponents.
    _POW2_TABLE: dict[int, int] = {}

    #: Hard cap on the pow2 memo; eviction is oldest-inserted-first.
    _POW2_TABLE_MAX = 1 << 16

    # ------------------------------------------------------------------
    def _pow2(self, n: int) -> int:
        """2^n mod q with bounded class-level memoization on n."""
        table = IncrementalHasher._POW2_TABLE
        cached = table.get(n)
        if cached is None:
            cached = pow(2, n, MERSENNE_61)
            if len(table) >= IncrementalHasher._POW2_TABLE_MAX:
                del table[next(iter(table))]
            table[n] = cached
        return cached

    # ------------------------------------------------------------------
    # linear core
    # ------------------------------------------------------------------
    def hash(self, s: BitString) -> HashValue:
        """Hash a full bit-string: O(l/w) word operations."""
        return HashValue(s.value % MERSENNE_61, len(s))

    def extend(self, prefix: HashValue, suffix: BitString) -> HashValue:
        """h(AB) from h(A) and the bit-string B (Definition 2)."""
        return self.combine(prefix, self.hash(suffix))

    def combine(self, a: HashValue, b: HashValue) -> HashValue:
        """Associative combine h(AB) from h(A), h(B), |B| (Definition 3)."""
        digest = _mod_m61(a.digest * self._pow2(b.length) + b.digest)
        return HashValue(digest, a.length + b.length)

    def prefix_hashes(
        self, s: BitString, positions: Sequence[int]
    ) -> list[HashValue]:
        """Hashes of ``s[:p]`` for each non-decreasing position ``p``.

        The sequential realization of the parallel prefix sum in Lemma
        4.4: one pass, O(l/w + #positions) word operations.
        """
        out: list[HashValue] = []
        n = len(s)
        v = s.value
        prev_p = 0
        digest = 0
        for p in positions:
            if not 0 <= p <= n:
                raise ValueError(f"prefix position {p} out of range")
            if p < prev_p:
                raise ValueError("positions must be non-decreasing")
            step = p - prev_p
            if step:
                chunk = (v >> (n - p)) & ((1 << step) - 1)
                digest = _mod_m61(digest * self._pow2(step) + chunk % MERSENNE_61)
            prev_p = p
            out.append(HashValue(digest, p))
        return out

    def empty(self) -> HashValue:
        """Hash of the empty string (the trie root)."""
        return HashValue(0, 0)

    def hash_batch(self, strings: Sequence[BitString]) -> list[HashValue]:
        """Hash many full bit-strings in one call.

        Same values as ``[self.hash(s) for s in strings]`` with the
        per-call dispatch hoisted out of the loop — batch scans hash
        every edge of a fragment, so the constant matters.
        """
        q = MERSENNE_61
        return [HashValue(s.value % q, len(s)) for s in strings]

    # ------------------------------------------------------------------
    # seeded fingerprints (what hash tables compare)
    # ------------------------------------------------------------------
    def fingerprint(self, h: HashValue) -> int:
        """Comparison key for ``h``: the seeded, truncated node hash.

        The string length is folded into the digest (so "1" and "01"
        fingerprint differently despite equal values), then the result
        is passed through the seed-derived affine map and truncated to
        ``width`` bits.  At narrow widths any two strings may collide,
        exactly the false-positive source §4.4.3's verification handles.
        """
        f = _mod_m61((h.digest + h.length * self._add + 1) * self._mul)
        return f & self._mask

    def fingerprint_of(self, s: BitString) -> int:
        return self.fingerprint(self.hash(s))

    def pivot_fingerprints(
        self, base: HashValue, s: BitString, positions: Sequence[int]
    ) -> list[int]:
        """``fingerprint(combine(base, prefix_hash(s, p)))`` per position.

        The fused form of the pivot probe in §4.4.2 matching: one pass
        over ``s`` with no intermediate :class:`HashValue` allocations.
        Positions must be non-decreasing in ``[0, len(s)]``.
        """
        q = MERSENNE_61
        mul, add, mask = self._mul, self._add, self._mask
        pow2 = self._pow2
        base_digest, base_length = base.digest, base.length
        n = len(s)
        v = s.value
        prev_p = 0
        digest = 0
        out: list[int] = []
        for p in positions:
            if not 0 <= p <= n:
                raise ValueError(f"prefix position {p} out of range")
            if p < prev_p:
                raise ValueError("positions must be non-decreasing")
            step = p - prev_p
            if step:
                x = digest * pow2(step) + ((v >> (n - p)) & ((1 << step) - 1)) % q
                while x >> 61:
                    x = (x & q) + (x >> 61)
                digest = 0 if x == q else x
            prev_p = p
            # combine(base, (digest, p)) then the affine fingerprint
            x = base_digest * pow2(p) + digest
            while x >> 61:
                x = (x & q) + (x >> 61)
            if x == q:
                x = 0
            f = (x + (base_length + p) * add + 1) * mul
            while f >> 61:
                f = (f & q) + (f >> 61)
            if f == q:
                f = 0
            out.append(f & mask)
        return out

    def fingerprint_batch(self, hashes: Sequence[HashValue]) -> list[int]:
        """Fingerprints of many hash values in one call.

        Identical to ``[self.fingerprint(h) for h in hashes]``; the
        affine parameters are bound once so per-edge bottom-up probes
        and pivot scans stop re-reading instance attributes per value.
        """
        mul, add, mask = self._mul, self._add, self._mask
        q = MERSENNE_61
        out: list[int] = []
        for h in hashes:
            f = (h.digest + h.length * add + 1) * mul
            while f >> 61:
                f = (f & q) + (f >> 61)
            if f == q:
                f = 0
            out.append(f & mask)
        return out

    def __repr__(self) -> str:
        return f"IncrementalHasher(seed={self.seed:#x}, width={self.width})"
