"""Continuous-batching scheduler: queueing, admission, epoch cutting.

The scheduler owns the pending queue between epochs and implements the
pluggable batching policy:

* **max_batch** — hard cap on ops per epoch;
* **max_wait** — deadline batching: once the server is free and the
  queue is non-empty, launch no later than ``head.arrival + max_wait``
  (0 = eager continuous batching: serve whatever queued while the
  previous epoch ran);
* **affinity** — single-op-type epochs: an epoch takes the maximal
  same-kind *prefix run* of the queue.  Crucially, every policy only
  ever takes a prefix of the (arrival-ordered) queue, so no epoch runs
  an op ahead of an earlier epoch's — which, with the executors never
  moving a read across a write, is what makes server answers provably
  equal to a direct sequential replay (see tests/test_serve.py);
* **queue_capacity** — bounded-queue admission control: an arrival that
  finds the queue full is rejected (backpressure surfaced to the
  client) rather than enqueued.  Capacity must be at least
  ``max_batch`` so that drop accounting stays exact under the lazy
  arrival processing the event loop uses;
* **degraded_capacity** — graceful degradation under faults: while the
  server reports itself degraded (crashed modules awaiting recovery, or
  an interrupted structural rebuild), admission uses this tighter queue
  bound instead of ``queue_capacity``, shedding load so the backlog
  stays small while capacity is reduced.  ``None`` (default) disables
  the distinction.

Every knob is static for the whole run; the scheduler reads them off
its policy.  There is no closed-loop tuner: on the full serve bench a
static affinity deadline beat one on p99 at equal or fewer rounds/op in
every (skew, rate) cell (DESIGN.md §15).  The spec ``adaptive:<t>`` is
kept as an alias of ``affinity:<t/2>``.

The time-advancing event loop itself lives in
:class:`repro.serve.server.EpochServer`; this module is pure queue
logic so policies can be unit-tested without an index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .trace import Operation

__all__ = [
    "SchedulerPolicy",
    "ContinuousBatchingScheduler",
    "policy_from_name",
]


@dataclass(frozen=True)
class SchedulerPolicy:
    """Knobs of the continuous-batching scheduler (see module docstring)."""

    name: str
    max_batch: int = 256
    max_wait: float = 0.0
    affinity: bool = False
    queue_capacity: Optional[int] = None
    degraded_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # written to fail on NaN; max_wait=inf stays legal ("cut only
        # on a full batch")
        if not self.max_wait >= 0:
            raise ValueError(f"max_wait must be >= 0 (got {self.max_wait})")
        if self.queue_capacity is not None and self.queue_capacity < self.max_batch:
            raise ValueError(
                "queue_capacity must be >= max_batch (admission accounting "
                "relies on the queue never overflowing while a batch fills)"
            )
        if self.degraded_capacity is not None:
            if self.degraded_capacity < 1:
                raise ValueError("degraded_capacity must be >= 1")
            if (
                self.queue_capacity is not None
                and self.degraded_capacity > self.queue_capacity
            ):
                raise ValueError(
                    "degraded_capacity must not exceed queue_capacity "
                    "(degradation sheds load, it does not add headroom)"
                )

    def describe(self) -> str:
        cap = "inf" if self.queue_capacity is None else str(self.queue_capacity)
        deg = (
            ""
            if self.degraded_capacity is None
            else f", degraded={self.degraded_capacity}"
        )
        return (
            f"{self.name}(max_batch={self.max_batch}, "
            f"max_wait={self.max_wait:g}, affinity={self.affinity}, "
            f"capacity={cap}{deg})"
        )


def policy_from_name(
    spec: str,
    *,
    max_batch: int = 256,
    queue_capacity: Optional[int] = None,
    degraded_capacity: Optional[int] = None,
) -> SchedulerPolicy:
    """Parse a scheduler policy spec.

    Accepted forms: ``"eager"``, ``"deadline:<max_wait>"``,
    ``"affinity[:<max_wait>]"`` — each optionally suffixed with
    ``"@deg=<n>"`` to set ``degraded_capacity`` (the
    graceful-degradation admission bound), e.g. ``"deadline:20@deg=8"``.
    The ``degraded_capacity`` keyword is the programmatic equivalent;
    the suffix wins if both are given.

    ``"adaptive[:<t>]"`` (``t`` defaults to 50) is an alias: it returns
    exactly the ``"affinity:<t/2>"`` policy.
    """
    base, _, suffix = spec.partition("@")
    if suffix:
        key, _, val = suffix.partition("=")
        if key != "deg" or not val:
            raise ValueError(
                f"unknown policy suffix {suffix!r} (expected 'deg=<n>')"
            )
        degraded_capacity = int(val)
    name, _, arg = base.partition(":")
    kw: dict = {
        "max_batch": max_batch,
        "queue_capacity": queue_capacity,
        "degraded_capacity": degraded_capacity,
    }
    if name == "eager":
        if arg:
            raise ValueError("eager takes no argument")
        return SchedulerPolicy("eager", **kw)
    if name == "deadline":
        wait = float(arg) if arg else 1.0
        return SchedulerPolicy(
            f"deadline:{wait:g}", max_wait=wait, **kw
        )
    if name == "adaptive":
        # the alias; repr() round-trips the float exactly
        name, arg = "affinity", repr((float(arg) if arg else 50.0) / 2)
    if name == "affinity":
        wait = float(arg) if arg else 0.0
        return SchedulerPolicy(
            f"affinity:{wait:g}" if arg else "affinity",
            max_wait=wait, affinity=True, **kw
        )
    raise ValueError(f"unknown policy {spec!r}")


class ContinuousBatchingScheduler:
    """The pending queue plus the policy's admission and cutting rules."""

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy
        self.pending: deque[Operation] = deque()
        self.dropped: list[Operation] = []
        self.admitted = 0

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def admit(self, op: Operation, *, degraded: bool = False) -> bool:
        """Enqueue ``op``; reject (and record) it if the queue is full.

        While ``degraded`` (server healing from faults) the policy's
        ``degraded_capacity`` bound applies instead, if configured.
        """
        cap = self.policy.queue_capacity
        if degraded and self.policy.degraded_capacity is not None:
            cap = self.policy.degraded_capacity
        if cap is not None and len(self.pending) >= cap:
            self.dropped.append(op)
            return False
        self.pending.append(op)
        self.admitted += 1
        return True

    # ------------------------------------------------------------------
    # launch-decision inputs
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pending)

    def head_arrival(self) -> float:
        return self.pending[0].time

    def full(self) -> bool:
        return len(self.pending) >= self.policy.max_batch

    def fill_arrival(self) -> float:
        """Arrival time of the op that completed the current batch.

        The queue is arrival-ordered, so this is the earliest moment the
        batch-size trigger can fire.
        """
        return self.pending[self.policy.max_batch - 1].time

    # ------------------------------------------------------------------
    # epoch cutting
    # ------------------------------------------------------------------
    def take_epoch(self, now: float) -> list[Operation]:
        """Cut the next epoch at simulated time ``now``.

        Takes a prefix of the queue: at most ``max_batch`` ops, only ops
        that have arrived by ``now`` (causality), and — under affinity —
        only the leading run of one op kind.
        """
        p = self.policy
        out: list[Operation] = []
        kind = self.pending[0].kind if self.pending else None
        while self.pending and len(out) < p.max_batch:
            head = self.pending[0]
            if head.time > now:
                break
            if p.affinity and head.kind != kind:
                break
            out.append(self.pending.popleft())
        return out
