"""The second-layer index of §4.4.2: a padded y-fast trie plus validity
vectors.

It maintains a set ``K`` of bit-strings, each shorter than ``w`` bits,
and answers: given a query string ``Q`` (≤ w bits), return the member
``K_i`` whose LCP with ``Q`` is longest, such that no member with the
same LCP is a proper prefix of ``K_i`` (ties resolved toward the
shortest such member).  PIM-trie stores block-root suffixes ``S_rem``
here, so a single O(log w) query finds either the critical block root
or one of its direct children.

Mechanism (paper text, Figure 5): every member is padded to ``w`` bits
twice — once with 0s and once with 1s — and both integers go into a
y-fast trie.  Since distinct members can pad to the same integer, each
padded integer keeps a ``w``-bit *validity vector* marking which prefix
lengths are members.  A query pads ``Q`` both ways, takes the
predecessor and successor of each padded integer, computes the LCP with
``Q``, and binary-searches the validity vector for the shortest valid
length ≥ the LCP (or the longest valid length below it); the best of
the ≤4 candidates is the answer.
"""

from __future__ import annotations

from typing import Optional

from repro.bits import BitString
from .yfast import YFastTrie

__all__ = ["ValidityIndex"]


class ValidityIndex:
    """Padded y-fast trie + validity vectors over strings of < w bits."""

    def __init__(self, w: int):
        if w < 1:
            raise ValueError("w must be >= 1")
        self.w = w
        self._yfast = YFastTrie(w)
        #: padded integer value -> w-bit validity vector; bit m set means
        #: the length-m prefix of the padded integer is a member
        self._validity: dict[int, int] = {}
        #: reference count per padded integer (distinct members padding
        #: to it), to know when to remove it from the y-fast trie
        self._members: set[BitString] = set()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, s: BitString) -> bool:
        return s in self._members

    def members(self) -> list[BitString]:
        return sorted(self._members)

    def _paddings(self, s: BitString) -> tuple[int, int]:
        return s.pad_to(self.w, 0).value, s.pad_to(self.w, 1).value

    # ------------------------------------------------------------------
    def insert(self, s: BitString) -> bool:
        """Insert a member; O(log w) amortized y-fast work.  True if new."""
        if len(s) >= self.w:
            raise ValueError(f"members must be < {self.w} bits, got {len(s)}")
        if s in self._members:
            return False
        self._members.add(s)
        for padded in set(self._paddings(s)):
            if padded not in self._validity:
                self._validity[padded] = 0
                self._yfast.insert(padded)
            self._validity[padded] |= 1 << len(s)
        return True

    def delete(self, s: BitString) -> bool:
        if s not in self._members:
            return False
        self._members.discard(s)
        for padded in set(self._paddings(s)):
            vec = self._validity[padded] & ~(1 << len(s))
            # other members may still pad to this integer as a *different*
            # length; recompute which marked lengths remain genuine
            vec = self._revalidate(padded, vec)
            if vec:
                self._validity[padded] = vec
            else:
                del self._validity[padded]
                self._yfast.delete(padded)
        return True

    def _revalidate(self, padded: int, vec: int) -> int:
        """Keep only lengths whose prefix string is still a member."""
        out = 0
        m = vec
        while m:
            length = (m & -m).bit_length() - 1
            m &= m - 1
            prefix = BitString(padded >> (self.w - length) if length else 0, length)
            if prefix in self._members:
                out |= 1 << length
        return out

    # ------------------------------------------------------------------
    def query(self, q: BitString) -> Optional[BitString]:
        """Best member for ``q`` (see class docstring); O(log w) whp."""
        if len(q) > self.w:
            raise ValueError(f"query must be <= {self.w} bits")
        if not self._members:
            return None
        q0 = q.pad_to(self.w, 0).value
        q1 = q.pad_to(self.w, 1).value
        candidates: set[int] = set()
        for qq in (q0, q1):
            if qq in self._validity:
                candidates.add(qq)
            p = self._yfast.predecessor(qq)
            if p is not None:
                candidates.add(p)
            s = self._yfast.successor(qq)
            if s is not None:
                candidates.add(s)
        best: Optional[BitString] = None
        best_score = -1
        for cand in candidates:
            cand_bits = BitString(cand, self.w)
            # LCP of the candidate's bits with the *actual* query string
            l = cand_bits.lcp_len(q)
            vec = self._validity[cand]
            m = self._pick_length(vec, l)
            if m is None:
                continue
            member = BitString(cand >> (self.w - m) if m else 0, m)
            score = min(m, l)
            if (
                score > best_score
                or (
                    score == best_score
                    and best is not None
                    and (len(member), member.value) < (len(best), best.value)
                )
            ):
                best, best_score = member, score
        return best

    @staticmethod
    def _pick_length(vec: int, threshold: int) -> Optional[int]:
        """Shortest valid length >= threshold, else longest valid < it.

        Realized with bit tricks standing in for the paper's binary
        search on the validity vector (both are O(log w)).
        """
        if vec == 0:
            return None
        ge = vec >> threshold
        if ge:
            return threshold + ((ge & -ge).bit_length() - 1)
        lt = vec & ((1 << threshold) - 1)
        return lt.bit_length() - 1

    # ------------------------------------------------------------------
    def space_entries(self) -> int:
        return self._yfast.space_entries() + len(self._validity)

    def __repr__(self) -> str:
        return f"ValidityIndex(w={self.w}, n={len(self._members)})"
