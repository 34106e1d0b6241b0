"""Sharding policies: which rack group owns which key.

A :class:`ShardingPolicy` is host-side routing state (like the range
baseline's CPU-cached separators): it maps every key to its *home*
shard and, for the two multi-shard read kinds, to the shard set a
correct answer needs:

* **LCP** — the max-LCP partner of a query is not constrained to the
  query's home shard, so LCP fans out: :class:`HashSharding` must probe
  every shard (hashing destroys order, any shard may hold the longest
  prefix match), while :class:`RangeSharding` probes the home shard
  plus the nearest non-empty neighbor on each side — the same
  constant-factor argument as
  :class:`repro.baselines.RangePartitionedIndex` (the max-LCP partner
  is the query's lexicographic predecessor or successor);
* **Subtree** — all shards whose key range can intersect the prefix's
  extension range.  Hash routing keeps a subtree on one shard exactly
  when the prefix pins all hashed bits (``len(prefix) >= prefix_bits``),
  otherwise it must broadcast; range routing scans the contiguous
  shard interval covering ``[prefix, prefix·111…]``.

Routing never moves data: both policies answer from host state in O(1)
or O(log S) CPU work per key, and both are *deterministic in the key
alone* — re-routing the same key always lands on the same shard, which
is what makes the cluster answer-identical to a single-trie oracle.

Per-rack RNG seeds come from :func:`derive_rack_seed`, a pure mix of
``(root_seed, shard, replica, incarnation)`` — never of shard *count*
or construction order — so the same root seed gives every rack the
same seed no matter how many shards the cluster has or in which order
racks are (re)provisioned.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional, Sequence

from ..bits import BitString
from ..bits.hashing import splitmix64

__all__ = [
    "HashSharding",
    "RangeSharding",
    "ShardingPolicy",
    "derive_rack_seed",
    "policy_from_name",
]

_M64 = (1 << 64) - 1


def derive_rack_seed(
    root_seed: int, shard: int, replica: int, incarnation: int = 0
) -> int:
    """Deterministic per-rack seed from a single root seed.

    Depends only on the rack's *identity* — ``(shard, replica,
    incarnation)`` — so seeds are stable across shard counts and
    independent of the order racks are built or replaced
    (``incarnation`` increments when a replacement rack takes over a
    failed one's slot, so the replacement never replays its
    predecessor's random choices).
    """
    h = splitmix64(root_seed ^ 0x9E3779B97F4A7C15)
    h = splitmix64(h ^ (shard + 1) * 0xD1B54A32D192ED03)
    h = splitmix64(h ^ (replica + 1) * 0x8CB92BA72F3D8DD7)
    h = splitmix64(h ^ (incarnation + 1) * 0xEB44ACCAB455D165)
    # PIMSystem seeds feed random.Random; keep them small and positive
    return h % (1 << 31)


class ShardingPolicy:
    """Base class: key -> shard routing for a :class:`PIMCluster`."""

    name = "abstract"

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards

    # -- required overrides --------------------------------------------
    def home(self, key: BitString) -> int:
        """The single shard that stores ``key``."""
        raise NotImplementedError

    def lcp_targets(
        self, key: BitString, counts: Sequence[int]
    ) -> list[int]:
        """Shards that must be probed for a correct LCP answer.

        ``counts`` is the router's live per-shard key census (the same
        CPU-cached metadata the range baseline keeps).
        """
        raise NotImplementedError

    def subtree_targets(self, prefix: BitString) -> list[int]:
        """Shards whose ranges can hold extensions of ``prefix``."""
        raise NotImplementedError

    def pred_targets(self, key: BitString) -> list[int]:
        """Shards that can hold the predecessor (largest key < query)."""
        raise NotImplementedError

    def succ_targets(self, key: BitString) -> list[int]:
        """Shards that can hold the successor (smallest key > query)."""
        raise NotImplementedError

    def range_targets(self, lo: BitString, hi: BitString) -> list[int]:
        """Shards whose key sets can intersect ``[lo, hi]``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()}, S={self.num_shards})"


class HashSharding(ShardingPolicy):
    """Hash of the key's leading ``prefix_bits`` bits — skew-flat.

    Hot key *ranges* (the Zipf and flood adversaries concentrate on
    shared prefixes much shorter than ``prefix_bits``) are spattered
    across shards because the hash sees the random bits past the hot
    prefix.  The cost is broadcast LCP and broadcast short-prefix
    subtree queries; point ops stay single-shard.

    ``prefix_bits`` must be long enough to reach past the workload's
    hot prefixes (default 48, past the 32-bit hot region of the 64-bit
    skew workloads) — keys shorter than ``prefix_bits`` hash on their
    full length.
    """

    name = "hash"

    def __init__(self, num_shards: int, *, prefix_bits: int = 48, seed: int = 0):
        super().__init__(num_shards)
        if prefix_bits < 1:
            raise ValueError("prefix_bits must be >= 1")
        self.prefix_bits = prefix_bits
        self.seed = seed

    def home(self, key: BitString) -> int:
        b = min(len(key), self.prefix_bits)
        p = key if b == len(key) else key.prefix(b)
        # fold the prefix value 64 bits at a time so long keys hash on
        # all of their routed bits, then bind the prefix length (the
        # empty key and a zero prefix must not collide by construction)
        h = splitmix64(self.seed ^ 0xA0761D6478BD642F)
        v = p.value
        while True:
            h = splitmix64(h ^ (v & _M64))
            v >>= 64
            if not v:
                break
        h = splitmix64(h ^ b)
        return h % self.num_shards

    def lcp_targets(
        self, key: BitString, counts: Sequence[int]
    ) -> list[int]:
        # hashing scatters lexicographic neighbors arbitrarily: every
        # shard is a candidate.  Empty shards answer LCP 0 without any
        # rounds, so the broadcast costs nothing on them.
        return list(range(self.num_shards))

    def subtree_targets(self, prefix: BitString) -> list[int]:
        if len(prefix) >= self.prefix_bits:
            # every extension of the prefix shares all hashed bits
            return [self.home(prefix)]
        return list(range(self.num_shards))

    # hashing scatters lexicographic neighbors and intervals alike, so
    # every ordered read is a broadcast (cheap on shards with no keys
    # near the query: a pred/succ probe there is host CPU work only)
    def pred_targets(self, key: BitString) -> list[int]:
        return list(range(self.num_shards))

    def succ_targets(self, key: BitString) -> list[int]:
        return list(range(self.num_shards))

    def range_targets(self, lo: BitString, hi: BitString) -> list[int]:
        return list(range(self.num_shards))


class RangeSharding(ShardingPolicy):
    """Contiguous key ranges split by host-cached separators.

    The cluster-level analogue of the range-partitioned baseline — and
    it inherits the same failure mode: a skewed batch whose hot keys
    share a range serializes on one shard (E17 measures exactly this
    against :class:`HashSharding`).  Point ops are single-shard; LCP
    probes home plus the nearest non-empty neighbors; subtree scans the
    covering shard interval.
    """

    name = "range"

    def __init__(
        self, num_shards: int, separators: Iterable[BitString] = ()
    ):
        super().__init__(num_shards)
        self.separators: list[BitString] = list(separators)
        if len(self.separators) > num_shards - 1:
            raise ValueError(
                f"{len(self.separators)} separators split the space into "
                f"more ranges than {num_shards} shards"
            )
        if self.separators != sorted(self.separators):
            raise ValueError("separators must be sorted")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_keys(
        cls, keys: Sequence[BitString], num_shards: int
    ) -> "RangeSharding":
        """Equal-count splits of ``keys`` (the baseline's bulk-load
        heuristic, lifted to shard granularity)."""
        ordered = sorted(keys)
        if len(ordered) >= num_shards:
            seps = [
                ordered[(i * len(ordered)) // num_shards]
                for i in range(1, num_shards)
            ]
        else:
            seps = []
        return cls(num_shards, seps)

    @classmethod
    def uniform(cls, num_shards: int, *, width: int = 8) -> "RangeSharding":
        """Evenly spaced ``width``-bit separators over the key space —
        the bootstrap choice for a cluster built empty (tests use this
        so routing is non-trivial before any key arrives)."""
        seps = [
            BitString((i * (1 << width)) // num_shards, width)
            for i in range(1, num_shards)
        ]
        return cls(num_shards, seps)

    # -- routing --------------------------------------------------------
    def home(self, key: BitString) -> int:
        return bisect.bisect_right(self.separators, key)

    def lcp_targets(
        self, key: BitString, counts: Sequence[int]
    ) -> list[int]:
        m = self.home(key)
        out = [m]
        lo = m - 1
        while lo >= 0 and counts[lo] == 0:
            lo -= 1
        if lo >= 0:
            out.append(lo)
        hi = m + 1
        while hi < self.num_shards and counts[hi] == 0:
            hi += 1
        if hi < self.num_shards:
            out.append(hi)
        return sorted(out)

    def subtree_targets(self, prefix: BitString) -> list[int]:
        lo = self.home(prefix)
        hi = self.home(prefix.pad_to(max(len(prefix), 256), 1))
        return list(range(lo, hi + 1))

    # ordered reads exploit the contiguity range sharding preserves:
    # keys below the query live at or left of home, keys above at or
    # right of it, and an interval covers a contiguous shard run
    def pred_targets(self, key: BitString) -> list[int]:
        return list(range(0, self.home(key) + 1))

    def succ_targets(self, key: BitString) -> list[int]:
        return list(range(self.home(key), self.num_shards))

    def range_targets(self, lo: BitString, hi: BitString) -> list[int]:
        if hi < lo:
            lo, hi = hi, lo
        return list(range(self.home(lo), self.home(hi) + 1))

    def describe(self) -> str:
        return f"range[{len(self.separators) + 1}]"


def policy_from_name(
    name: str,
    num_shards: int,
    *,
    resident_keys: Optional[Sequence[BitString]] = None,
    prefix_bits: int = 48,
    seed: int = 0,
) -> ShardingPolicy:
    """Build a policy from its CLI name (``hash`` or ``range``).

    ``range`` derives separators from ``resident_keys`` when given
    (the bulk-load path) and falls back to uniform 8-bit separators.
    """
    if name == "hash":
        return HashSharding(num_shards, prefix_bits=prefix_bits, seed=seed)
    if name == "range":
        if resident_keys:
            return RangeSharding.from_keys(resident_keys, num_shards)
        return RangeSharding.uniform(num_shards)
    raise ValueError(f"unknown sharding policy {name!r}")
