"""Service-level metrics for the serve layer.

Latency here is *queueing + service* delay on the simulated clock —
the quantity a client of an online index experiences — reported three
ways:

* **simulated time units** — completion − arrival on the trace clock
  (the unit the server's service model defines: by default one unit is
  the per-round overhead of one IO round);
* **IO rounds** — how many BSP rounds the system executed between the
  op's admission and its completion (integer, exactly reproducible, and
  directly comparable to the paper's O(log P) per-batch bounds);
* **wall-clock seconds** — host-process execution time of the epochs
  the op waited through (non-deterministic; excluded from the
  byte-deterministic smoke output).

All percentile math is nearest-rank on sorted values, so reports are
deterministic given deterministic inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Sequence

from ..pim import MetricsSnapshot

__all__ = [
    "percentile",
    "latency_stats",
    "CompletedOp",
    "EpochRecord",
    "ServiceReport",
    "OP_FAILED",
    "answers_digest",
]


class _OpFailed:
    """Sentinel reply for an op whose segment exhausted its fault
    retries: the client gets an error, not a stale or partial answer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "OP_FAILED"


OP_FAILED = _OpFailed()

PERCENTILES = (50, 95, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    The rank is ``ceil(n * q / 100)`` (clamped to at least 1), computed
    with exact rational arithmetic: a float ``q`` like 99.9 is read at
    its decimal face value (``Fraction(str(q))``), so the ceiling never
    flips on a floating-point rounding artifact the way the old
    ``-(-n * q // 100)`` could.  ``q`` outside [0, 100] (or NaN) raises
    ``ValueError``.
    """
    if isinstance(q, float) and math.isnan(q):
        raise ValueError("percentile q must not be NaN")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    s = sorted(values)
    qf = Fraction(str(q)) if isinstance(q, float) else Fraction(q)
    # ceil(n*q/100) exactly; Fraction.__floordiv__ returns an int
    rank = max(1, -((-qf * len(s)) // 100))
    return s[rank - 1]


def latency_stats(values: Sequence[float]) -> dict[str, float]:
    """p50/p95/p99, mean, and max of a latency sample."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    out = {f"p{q}": percentile(values, q) for q in PERCENTILES}
    out["mean"] = sum(values) / len(values)
    out["max"] = max(values)
    return out


@dataclass(frozen=True)
class CompletedOp:
    """Reply record handed back to the op's client."""

    seq: int
    client_id: int
    kind: str
    arrival: float
    launch: float
    completion: float
    epoch: int
    reply: Any
    latency_rounds: int
    wall_seconds: float
    #: False when the reply is :data:`OP_FAILED` (fault retries exhausted)
    ok: bool = True

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass(frozen=True)
class EpochRecord:
    """One coalesced batch as executed on the PIM system."""

    index: int
    launch: float
    service: float
    completion: float
    size: int
    # kinds of the runs executed, in order ("match": LCP and subtree reads)
    kinds: tuple[str, ...]
    queue_depth: int  # pending ops at launch, before extraction
    io_rounds: int
    io_time: int
    communication: int
    pim_time: int
    wall_seconds: float
    #: fault bookkeeping (all zero/empty on a fault-free run)
    degraded: bool = False  # this epoch saw aborts, recovery, or stragglers
    retries: int = 0  # segment retries inside this epoch
    recovery_rounds: int = 0  # IO rounds spent rebuilding lost state
    causes: tuple[str, ...] = ()  # RoundAborted causes observed
    #: id of this epoch's tracer span (None when tracing is off)
    span_id: Optional[int] = None
    #: pipelined-mode phase bookkeeping (all zero in sequential mode).
    #: ``launch`` is the epoch's *cut* time (ops taken from the queue);
    #: host prep runs [launch, launch+prep), module rounds start at
    #: ``rounds_start`` (>= launch+prep — the module may still be busy
    #: with the previous epoch), and ``completion`` includes ``asm``.
    prep: float = 0.0  # host-CPU prep time (segment grouping)
    asm: float = 0.0  # host-CPU reply-assembly time
    rounds_start: float = 0.0  # when module rounds actually began


@dataclass
class ServiceReport:
    """Everything a serve run measured, ready for JSON or printing."""

    policy: str
    trace: str
    num_ops: int
    completed: list[CompletedOp]
    dropped: int
    epochs: list[EpochRecord]
    metrics: MetricsSnapshot  # PIM Model delta across all epochs
    round_time: float
    word_time: float
    #: the scheduler policy's batch cap, used as the occupancy denominator
    max_batch: int = 1
    #: two-stage pipelined BSP: host phases of epoch k+1 overlap module
    #: rounds of epoch k (see EpochServer); False = sequential loop
    pipelined: bool = False
    #: per-op host-phase costs used by this run's service model
    prep_time: float = 0.0
    asm_time: float = 0.0
    #: ops whose replies are :data:`OP_FAILED` (fault retries exhausted)
    failed: int = 0
    #: injector counters (``FaultStats.as_dict``); empty = fault-free run
    faults: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Last completion time on the simulated clock."""
        return self.epochs[-1].completion if self.epochs else 0.0

    @property
    def throughput(self) -> float:
        """Completed ops per simulated time unit."""
        mk = self.makespan
        return len(self.completed) / mk if mk > 0 else 0.0

    @property
    def rounds_per_op(self) -> float:
        """IO rounds per completed op — the amortization the batching buys."""
        n = len(self.completed)
        return self.metrics.io_rounds / n if n else 0.0

    def occupancy(self) -> float:
        """Mean epoch fill ratio (size / max allowed batch)."""
        if not self.epochs:
            return 0.0
        cap = max(1, self.max_batch)
        return sum(e.size for e in self.epochs) / (len(self.epochs) * cap)

    @property
    def host_overlap(self) -> float:
        """Total host prep time hidden under earlier epochs' rounds.

        Epoch k's prep occupies ``[launch, launch + prep)`` on the host;
        epoch k-1's module rounds run until ``completion - asm``.  The
        intersection is prep work the pipeline hid behind module time —
        always 0 in sequential mode, where prep only starts after the
        previous epoch fully completed.
        """
        hidden = 0.0
        for prev, cur in zip(self.epochs, self.epochs[1:]):
            prev_rounds_end = prev.completion - prev.asm
            hidden += min(cur.prep, max(0.0, prev_rounds_end - cur.launch))
        return hidden

    def queue_depth_stats(self) -> dict[str, float]:
        depths = [e.queue_depth for e in self.epochs]
        if not depths:
            return {"mean": 0.0, "max": 0.0}
        return {"mean": sum(depths) / len(depths), "max": float(max(depths))}

    # ------------------------------------------------------------------
    # fault / graceful-degradation SLOs
    # ------------------------------------------------------------------
    @property
    def availability(self) -> float:
        """Fraction of completed ops answered successfully."""
        n = len(self.completed)
        if n == 0:
            return 1.0
        return sum(1 for c in self.completed if c.ok) / n

    @property
    def degraded_epochs(self) -> int:
        return sum(1 for e in self.epochs if e.degraded)

    @property
    def total_retries(self) -> int:
        return sum(e.retries for e in self.epochs)

    @property
    def total_recovery_rounds(self) -> int:
        return sum(e.recovery_rounds for e in self.epochs)

    def latency(self) -> dict[str, float]:
        return latency_stats([c.latency for c in self.completed])

    def latency_rounds(self) -> dict[str, float]:
        return latency_stats([float(c.latency_rounds) for c in self.completed])

    def latency_wall(self) -> dict[str, float]:
        return latency_stats([c.wall_seconds for c in self.completed])

    # ------------------------------------------------------------------
    def as_dict(self, *, include_wall: bool = True,
                include_per_module: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "policy": self.policy,
            "trace": self.trace,
            "num_ops": self.num_ops,
            "completed": len(self.completed),
            "dropped": self.dropped,
            "epochs": len(self.epochs),
            "makespan": self.makespan,
            "throughput": self.throughput,
            "rounds_per_op": self.rounds_per_op,
            "occupancy": self.occupancy(),
            "queue_depth": self.queue_depth_stats(),
            "latency": self.latency(),
            "latency_rounds": self.latency_rounds(),
            "round_time": self.round_time,
            "word_time": self.word_time,
            "max_batch": self.max_batch,
            "metrics": self.metrics.as_dict(include_per_module=include_per_module),
        }
        if self.pipelined or self.prep_time or self.asm_time:
            # sequential zero-host-cost runs keep their original output
            # bytes — pipeline fields appear only when the mode is on
            out["pipelined"] = self.pipelined
            out["prep_time"] = self.prep_time
            out["asm_time"] = self.asm_time
            out["host_overlap"] = self.host_overlap
        if self.faults or self.failed:
            # fault-free runs keep their original output bytes — the
            # recovery block appears only when there was something to
            # recover from
            out["failed"] = self.failed
            out["availability"] = self.availability
            out["degraded_epochs"] = self.degraded_epochs
            out["retries"] = self.total_retries
            out["recovery_rounds"] = self.total_recovery_rounds
            out["faults"] = dict(self.faults)
        if include_wall:
            out["latency_wall_seconds"] = self.latency_wall()
            out["wall_seconds_total"] = sum(e.wall_seconds for e in self.epochs)
        out.update(self.extra)
        return out

    # ------------------------------------------------------------------
    def format_summary(self, *, deterministic_only: bool = False) -> str:
        """Human-readable summary; deterministic fields only on request."""
        lat, rnds = self.latency(), self.latency_rounds()
        q = self.queue_depth_stats()
        m = self.metrics
        lines = [
            f"policy {self.policy} on {self.trace}: "
            f"{len(self.completed)}/{self.num_ops} completed, "
            f"{self.dropped} rejected, {len(self.epochs)} epochs",
            f"makespan {self.makespan:.4f} units | throughput "
            f"{self.throughput:.4f} ops/unit | {self.rounds_per_op:.4f} "
            f"IO rounds/op",
            f"batch occupancy {self.occupancy():.4f} | queue depth mean "
            f"{q['mean']:.2f} max {q['max']:.0f}",
            f"latency (units):  p50 {lat['p50']:.4f}  p95 {lat['p95']:.4f}  "
            f"p99 {lat['p99']:.4f}  max {lat['max']:.4f}",
            f"latency (rounds): p50 {rnds['p50']:.0f}  p95 {rnds['p95']:.0f}  "
            f"p99 {rnds['p99']:.0f}  max {rnds['max']:.0f}",
            f"PIM: {m.io_rounds} rounds, io_time {m.io_time}, "
            f"{m.total_communication} words, pim_time {m.pim_time}, "
            f"imbalance {m.traffic_imbalance():.3f}",
        ]
        if self.pipelined or self.prep_time or self.asm_time:
            lines.append(
                f"pipeline: {'on' if self.pipelined else 'off'} | host "
                f"prep/asm {self.prep_time:g}/{self.asm_time:g} per op | "
                f"{self.host_overlap:.4f} units of prep hidden"
            )
        if self.faults or self.failed:
            lines.append(
                f"faults: availability {self.availability:.4f} "
                f"({self.failed} failed), {self.degraded_epochs} degraded "
                f"epochs, {self.total_retries} retries, "
                f"{self.total_recovery_rounds} recovery rounds"
            )
        if not deterministic_only:
            wall = self.latency_wall()
            total = sum(e.wall_seconds for e in self.epochs)
            lines.append(
                f"wall-clock: {total:.3f}s executing, per-op p99 "
                f"{wall['p99'] * 1e3:.2f}ms"
            )
        return "\n".join(lines)


def answers_digest(report: ServiceReport) -> str:
    """Order-independent digest of a run's successful replies.

    Two runs with equal digests answered every (seq, kind) identically
    — the equivalence checks of the serve (pipelined vs sequential),
    cluster (across shard counts, policies and replication factors) and
    adapt (on vs off) benches, reduced to a 16-hex-char string their
    JSON reports carry.  Failed ops are excluded (availability is
    reported separately), so fault-free configurations of one trace
    share one digest.
    """
    rows = sorted((c.seq, c.kind, c.reply) for c in report.completed if c.ok)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
