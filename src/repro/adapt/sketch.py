"""Decayed Count-Min sketch over key prefixes (the adapt layer's eyes).

A :class:`CountMinSketch` is the standard Cormode–Muthukrishnan
counter matrix: ``depth`` rows of ``width`` counters, one pairwise-
independent hash per row, point estimates as the row-wise minimum.
Estimates *overcount only* — for a non-decayed sketch,

    true_count(k) <= estimate(k) <= true_count(k) + eps * N

with probability ``1 - delta`` when ``width >= ceil(e / eps)`` and
``depth >= ceil(ln(1 / delta))`` (``N`` is the stream total).  The
property tests in ``tests/test_adapt_sketch.py`` exercise exactly
these bounds on seeded streams.

Two extensions serve the adaptive controller:

* **decay** — :meth:`decay` multiplies every counter (and the running
  total) by a factor in ``(0, 1]``, turning the sketch into an
  exponentially-weighted window: hot-block decisions track *recent*
  traffic and old hot sets fade instead of pinning resources forever.
  Decay is monotone: no estimate ever increases.
* **merge** — :meth:`merge` adds another sketch's counters elementwise
  (same dimensions, same seed), which is how per-rack sketches roll up
  into one router-level view in the cluster (``repro.cluster``).

Keys are :class:`~repro.bits.BitString` prefixes (or raw ints); they
are folded to 64 bits with :func:`repro.bits.hashing.splitmix64`, the
finalizer the cluster layer uses for rack seeds, so hashing is
deterministic, seedable, and independent of Python's hash
randomization.

Everything here is *host-side control plane*: no PIM rounds, no
accounted metrics — feeding and reading the sketch never perturbs the
simulator's books.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..bits import BitString
from ..bits.hashing import splitmix64

__all__ = ["CountMinSketch"]

_M64 = (1 << 64) - 1


def _fold_key(key: Union[BitString, int]) -> int:
    """Canonical 64-bit digest of a sketch key.

    BitStrings of arbitrary length fold 64 bits at a time (value may
    exceed one word for long prefixes); the length is mixed in so a
    prefix and its zero-extension hash differently.
    """
    if isinstance(key, BitString):
        v = key.value
        h = splitmix64(len(key) ^ 0x9E3779B97F4A7C15)
        while True:
            h = splitmix64(h ^ (v & _M64))
            v >>= 64
            if not v:
                return h
    return splitmix64(int(key) ^ 0x9E3779B97F4A7C15)


class CountMinSketch:
    """Overcount-only frequency sketch with exponential decay."""

    def __init__(
        self,
        width: int,
        depth: int,
        *,
        seed: int = 0,
        decay: float = 1.0,
    ):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.decay_factor = decay
        self.counts = np.zeros((depth, width), dtype=np.float64)
        #: decayed stream mass (sum of added counts, decayed in step)
        self.total = 0.0
        self._row_seeds = [
            splitmix64((seed & _M64) ^ ((r + 1) * 0xD1B54A32D192ED03))
            for r in range(depth)
        ]

    # ------------------------------------------------------------------
    def _indices(self, key: Union[BitString, int]) -> list[int]:
        h = _fold_key(key)
        return [
            splitmix64(h ^ rs) % self.width for rs in self._row_seeds
        ]

    def add(self, key: Union[BitString, int], count: float = 1.0) -> None:
        """Count ``count`` occurrences of ``key``."""
        if count < 0:
            raise ValueError("counts are non-negative (use decay to forget)")
        for r, idx in enumerate(self._indices(key)):
            self.counts[r, idx] += count
        self.total += count

    def estimate(self, key: Union[BitString, int]) -> float:
        """Point estimate: min over rows; never undercounts."""
        return float(
            min(self.counts[r, idx] for r, idx in enumerate(self._indices(key)))
        )

    def decay(self, factor: float = None) -> None:
        """Age the window: multiply every counter by ``factor``
        (default: the sketch's configured decay factor)."""
        f = self.decay_factor if factor is None else factor
        if not 0.0 <= f <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        self.counts *= f
        self.total *= f
        # snap vanishing mass to exact zero so long-idle sketches
        # compare clean and the min_window gate re-arms
        if self.total < 1e-9:
            self.counts.fill(0.0)
            self.total = 0.0

    # ------------------------------------------------------------------
    def compatible(self, other: "CountMinSketch") -> bool:
        return (
            self.width == other.width
            and self.depth == other.depth
            and self._row_seeds == other._row_seeds
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Elementwise add (cluster roll-up); requires same dims+seed."""
        if not self.compatible(other):
            raise ValueError("cannot merge sketches with different shapes/seeds")
        self.counts += other.counts
        self.total += other.total

    def copy(self) -> "CountMinSketch":
        out = CountMinSketch(
            self.width, self.depth, seed=self.seed, decay=self.decay_factor
        )
        out.counts = self.counts.copy()
        out.total = self.total
        return out

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(w={self.width}, d={self.depth}, "
            f"total={self.total:.1f})"
        )
