"""PIM-trie parameters (paper §4.2–§4.4, defaults mirror the paper).

All size thresholds derive from ``P`` (the number of PIM modules) the
way the paper sets them:

* block size bound       K_B   = ceil(log2 P)^2 words      (§4.2)
* meta-block size bound  K_MB  = P hash values             (§4.4)
* meta-block tree piece  K_SMB = K_B                       (§4.4.1)
* push–pull threshold for meta-blocks = K_SMB * log^2 P = log^4 P (Alg. 5)
* scapegoat rebuild factor alpha > 0.5                     (§5.2)

The constructors clamp everything to sane minima so that tiny test
systems (P = 2 or 4) still behave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PIMTrieConfig"]


@dataclass
class PIMTrieConfig:
    """Tunable parameters of a PIM-trie instance."""

    #: number of PIM modules (P)
    num_modules: int
    #: block size upper bound in words (K_B); default ceil(log2 P)^2
    block_bound: int | None = None
    #: meta-block size upper bound in #hash-values (K_MB); default P
    meta_block_bound: int | None = None
    #: meta-block tree piece bound (K_SMB); default K_B
    small_meta_bound: int | None = None
    #: push-pull threshold for query meta-blocks; default log^4 P
    pull_threshold: int | None = None
    #: scapegoat rebuild factor (must be > 0.5)
    alpha: float = 0.75
    #: hash seed (re-seeded on global re-hash)
    hash_seed: int = 0x5151_7EA7
    #: hash fingerprint width in bits (narrow to inject collisions)
    hash_width: int = 61
    #: incremental hash family: "modular" (rolling mod 2^61-1) or
    #: "carryless" (CRC-style GF(2) polynomial) — both satisfy Def. 3
    hash_kind: str = "modular"
    #: run S_last / bit-by-bit verification of hash matches
    verify: bool = True
    #: use pivot + two-layer-index HashMatching (§4.4.2) instead of the
    #: naive per-bit probe (kept for ablation E14)
    use_pivots: bool = True
    #: enable the push-pull split (ablation: False forces all-push)
    use_push_pull: bool = True

    def __post_init__(self) -> None:
        if self.num_modules < 1:
            raise ValueError("need at least one PIM module")
        if not 0.5 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0.5, 1.0)")
        log_p = max(1, math.ceil(math.log2(max(2, self.num_modules))))
        if self.block_bound is None:
            self.block_bound = max(8, log_p * log_p)
        if self.meta_block_bound is None:
            self.meta_block_bound = max(8, self.num_modules)
        if self.small_meta_bound is None:
            self.small_meta_bound = max(4, self.block_bound)
        if self.pull_threshold is None:
            self.pull_threshold = max(16, log_p ** 4)
        if self.block_bound < 2:
            raise ValueError("block_bound must be >= 2")
        if self.hash_kind not in ("modular", "carryless"):
            raise ValueError("hash_kind must be 'modular' or 'carryless'")

    def make_hasher(self):
        """Instantiate the configured incremental hasher."""
        if self.hash_kind == "carryless":
            from ..bits import CarrylessHasher

            return CarrylessHasher(seed=self.hash_seed, width=self.hash_width)
        from ..bits import IncrementalHasher

        return IncrementalHasher(seed=self.hash_seed, width=self.hash_width)

    @property
    def log_p(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.num_modules))))
