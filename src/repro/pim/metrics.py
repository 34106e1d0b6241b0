"""PIM Model cost accounting (paper §2).

The PIM Model measures, per BSP-style synchronous round:

* **IO rounds** — the number of rounds executed;
* **IO time** — the maximum, over modules, of one module's *total*
  round traffic (words in + words out); maxima are taken per round and
  summed across rounds.  A module's link is half-duplex in the PIM
  Model, so its round cost is the sum of both directions, not their max;
* **total communication** — the sum of words moved between the CPU and
  all modules (used to report per-operation communication, Table 1);
* **PIM time** — the maximum kernel work on any one module per round,
  summed across rounds;
* **CPU work** — total host-side instructions (we count abstract
  operations via explicit ticks).

``MetricsCollector`` accumulates these; ``snapshot()/delta()`` let a
caller measure a single batch.  Per-module cumulative traffic and work
are also retained so benchmarks can report load-balance ratios
(max/mean), the paper's skew-resistance criterion (Definition 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricsCollector", "MetricsSnapshot", "RoundRecord"]


@dataclass(frozen=True)
class RoundRecord:
    """Per-round accounting: words moved and kernel work, per module."""

    words_to: tuple[int, ...]
    words_from: tuple[int, ...]
    kernel_work: tuple[int, ...]

    @property
    def io_time(self) -> int:
        """Max over modules of that module's total round traffic (in + out)."""
        if not self.words_to:
            return 0
        return max(t + f for t, f in zip(self.words_to, self.words_from))

    @property
    def total_words(self) -> int:
        return sum(self.words_to) + sum(self.words_from)

    @property
    def pim_time(self) -> int:
        return max(self.kernel_work, default=0)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Cumulative metrics at a point in time (all counts, no wall clock)."""

    io_rounds: int
    io_time: int
    total_communication: int
    pim_time: int
    pim_work: int
    cpu_work: int
    per_module_traffic: tuple[int, ...]
    per_module_work: tuple[int, ...]

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Metrics accumulated since ``earlier``.

        Both snapshots must come from systems with the same module
        count; a per-module length mismatch raises ``ValueError``.
        """
        if len(self.per_module_traffic) != len(earlier.per_module_traffic) or (
            len(self.per_module_work) != len(earlier.per_module_work)
        ):
            raise ValueError(
                f"snapshot module counts differ: "
                f"{len(self.per_module_traffic)} traffic /"
                f" {len(self.per_module_work)} work vs "
                f"{len(earlier.per_module_traffic)} traffic /"
                f" {len(earlier.per_module_work)}"
            )
        return MetricsSnapshot(
            io_rounds=self.io_rounds - earlier.io_rounds,
            io_time=self.io_time - earlier.io_time,
            total_communication=self.total_communication
            - earlier.total_communication,
            pim_time=self.pim_time - earlier.pim_time,
            pim_work=self.pim_work - earlier.pim_work,
            cpu_work=self.cpu_work - earlier.cpu_work,
            per_module_traffic=tuple(
                a - b
                for a, b in zip(self.per_module_traffic, earlier.per_module_traffic)
            ),
            per_module_work=tuple(
                a - b
                for a, b in zip(self.per_module_work, earlier.per_module_work)
            ),
        )

    @classmethod
    def merge(cls, *snapshots: "MetricsSnapshot") -> "MetricsSnapshot":
        """Aggregate snapshots from *independent* systems into one.

        Scalars are summed; per-module distributions are concatenated
        in argument order, so the merged snapshot's imbalance ratios
        range over every module of every system (a cluster-wide
        load-balance view, not an average of per-rack views).

        Merging commutes with :meth:`delta`: merging per-system deltas
        equals the delta of merged before/after snapshots, because every
        scalar is additive and concatenation is position-preserving.
        A snapshot whose traffic and work distributions disagree in
        length is malformed and raises ``ValueError``.
        """
        if not snapshots:
            raise ValueError("merge needs at least one snapshot")
        for i, s in enumerate(snapshots):
            if len(s.per_module_traffic) != len(s.per_module_work):
                raise ValueError(
                    f"snapshot {i} is malformed: "
                    f"{len(s.per_module_traffic)} traffic modules vs "
                    f"{len(s.per_module_work)} work modules"
                )
        traffic: tuple[int, ...] = ()
        work: tuple[int, ...] = ()
        for s in snapshots:
            traffic += s.per_module_traffic
            work += s.per_module_work
        return cls(
            io_rounds=sum(s.io_rounds for s in snapshots),
            io_time=sum(s.io_time for s in snapshots),
            total_communication=sum(
                s.total_communication for s in snapshots
            ),
            pim_time=sum(s.pim_time for s in snapshots),
            pim_work=sum(s.pim_work for s in snapshots),
            cpu_work=sum(s.cpu_work for s in snapshots),
            per_module_traffic=traffic,
            per_module_work=work,
        )

    # ------------------------------------------------------------------
    # load-balance statistics (Definition 1: PIM-balanced)
    # ------------------------------------------------------------------
    def traffic_imbalance(self) -> float:
        """max/mean per-module traffic; 1.0 is perfectly balanced."""
        t = np.asarray(self.per_module_traffic, dtype=np.float64)
        mean = t.mean()
        return float(t.max() / mean) if mean > 0 else 1.0

    def work_imbalance(self) -> float:
        """max/mean per-module kernel work; 1.0 is perfectly balanced."""
        t = np.asarray(self.per_module_work, dtype=np.float64)
        mean = t.mean()
        return float(t.max() / mean) if mean > 0 else 1.0

    def as_dict(self, *, include_per_module: bool = False) -> dict:
        out = {
            "io_rounds": self.io_rounds,
            "io_time": self.io_time,
            "total_communication": self.total_communication,
            "pim_time": self.pim_time,
            "pim_work": self.pim_work,
            "cpu_work": self.cpu_work,
            "traffic_imbalance": self.traffic_imbalance(),
            "work_imbalance": self.work_imbalance(),
        }
        if include_per_module:
            # full balance distributions (benchmarks record these so
            # skew reports can show more than the max/mean ratio)
            out["per_module_traffic"] = list(self.per_module_traffic)
            out["per_module_work"] = list(self.per_module_work)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsSnapshot":
        """Rebuild a snapshot from ``as_dict(include_per_module=True)``
        output (e.g. parsed back out of a benchmark JSON).

        The derived imbalance ratios in the dict are ignored — they are
        recomputed from the per-module distributions, which must be
        present (the ``include_per_module=False`` form is lossy).
        """
        missing = [
            k for k in ("per_module_traffic", "per_module_work") if k not in d
        ]
        if missing:
            raise ValueError(
                f"snapshot dict lacks {missing}; serialize with "
                f"as_dict(include_per_module=True) to round-trip"
            )
        return cls(
            io_rounds=int(d["io_rounds"]),
            io_time=int(d["io_time"]),
            total_communication=int(d["total_communication"]),
            pim_time=int(d["pim_time"]),
            pim_work=int(d["pim_work"]),
            cpu_work=int(d["cpu_work"]),
            per_module_traffic=tuple(int(x) for x in d["per_module_traffic"]),
            per_module_work=tuple(int(x) for x in d["per_module_work"]),
        )


class MetricsCollector:
    """Accumulates PIM Model costs across rounds for one PIMSystem."""

    def __init__(self, num_modules: int):
        self.num_modules = num_modules
        self.io_rounds = 0
        self.io_time = 0
        self.total_communication = 0
        self.pim_time = 0
        self.pim_work = 0
        self.cpu_work = 0
        self._traffic = [0] * num_modules
        self._work = [0] * num_modules

    # ------------------------------------------------------------------
    def record_round(
        self,
        words_to: list[int],
        words_from: list[int],
        kernel_work: list[int],
    ) -> None:
        rec = RoundRecord(tuple(words_to), tuple(words_from), tuple(kernel_work))
        self.io_rounds += 1
        self.io_time += rec.io_time
        self.total_communication += rec.total_words
        self.pim_time += rec.pim_time
        self.pim_work += sum(kernel_work)
        for m in range(self.num_modules):
            self._traffic[m] += words_to[m] + words_from[m]
            self._work[m] += kernel_work[m]

    def tick_cpu(self, n: int = 1) -> None:
        """Account ``n`` units of host CPU work."""
        self.cpu_work += n

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            io_rounds=self.io_rounds,
            io_time=self.io_time,
            total_communication=self.total_communication,
            pim_time=self.pim_time,
            pim_work=self.pim_work,
            cpu_work=self.cpu_work,
            per_module_traffic=tuple(self._traffic),
            per_module_work=tuple(self._work),
        )

    def reset(self) -> None:
        self.io_rounds = 0
        self.io_time = 0
        self.total_communication = 0
        self.pim_time = 0
        self.pim_work = 0
        self.cpu_work = 0
        self._traffic = [0] * self.num_modules
        self._work = [0] * self.num_modules
