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
  the distinction;
* **adaptive** — closed-loop control: instead of fixed knobs, a
  :class:`DeadlineTuner` re-tunes ``max_wait`` / ``max_batch``
  between epochs from the server's per-phase observations, steering the
  op-latency p99 toward ``target_p99`` while harvesting IO-round
  amortization whenever the tail has slack (the continuous-batching
  discipline of iteration-level inference schedulers).  The policy's
  ``max_wait`` / ``max_batch`` are the controller's *initial* knobs;
  the live values live on the scheduler (``sched.max_wait`` /
  ``sched.max_batch``).

The time-advancing event loop itself lives in
:class:`repro.serve.server.EpochServer`; this module is pure queue
logic so policies can be unit-tested without an index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

from .slo import percentile
from .trace import Operation

__all__ = [
    "SchedulerPolicy",
    "ContinuousBatchingScheduler",
    "DeadlineTuner",
    "SchedDecision",
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
    #: closed-loop mode: the scheduler's live knobs are re-tuned each
    #: epoch by a DeadlineTuner chasing ``target_p99``
    adaptive: bool = False
    target_p99: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # target_p99 first: an adaptive spec derives max_wait from it.
        # Both tests are written to fail on NaN; max_wait=inf stays
        # legal ("cut only on a full batch")
        if self.adaptive and not 0 < self.target_p99 < math.inf:
            raise ValueError(
                f"adaptive policies need a finite target_p99 > 0 "
                f"(got {self.target_p99})"
            )
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
        if not self.adaptive and self.target_p99:
            raise ValueError("target_p99 only applies to adaptive policies")

    def describe(self) -> str:
        cap = "inf" if self.queue_capacity is None else str(self.queue_capacity)
        deg = (
            ""
            if self.degraded_capacity is None
            else f", degraded={self.degraded_capacity}"
        )
        tgt = f", target_p99={self.target_p99:g}" if self.adaptive else ""
        return (
            f"{self.name}(max_batch={self.max_batch}, "
            f"max_wait={self.max_wait:g}, affinity={self.affinity}, "
            f"capacity={cap}{deg}{tgt})"
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
    ``"affinity[:<max_wait>]"``, ``"adaptive[:<target_p99>]"`` — each
    optionally suffixed with ``"@deg=<n>"`` to set
    ``degraded_capacity`` (the graceful-degradation admission bound),
    e.g. ``"deadline:20@deg=8"``.  The ``degraded_capacity`` keyword is
    the programmatic equivalent; the suffix wins if both are given.
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
    if name == "affinity":
        wait = float(arg) if arg else 0.0
        return SchedulerPolicy(
            f"affinity:{wait:g}" if arg else "affinity",
            max_wait=wait, affinity=True, **kw
        )
    if name == "adaptive":
        target = float(arg) if arg else 50.0
        # affinity grouping rides along: homogeneous epochs are
        # strictly cheaper on the trie (same rounds/op at lower tail),
        # so the controller tunes (max_wait, max_batch) on top of the
        # best fixed cutting rule.  Initial deadline = target/2 — under
        # the target from the first epoch, converging from below.
        return SchedulerPolicy(
            f"adaptive:{target:g}", adaptive=True, target_p99=target,
            affinity=True, max_wait=target / 2, **kw
        )
    raise ValueError(f"unknown policy {spec!r}")


class ContinuousBatchingScheduler:
    """The pending queue plus the policy's admission and cutting rules.

    ``max_batch`` / ``max_wait`` are the *live* knobs the event loop
    consults; they start at the policy's values and stay there for
    fixed policies.  Under an adaptive policy the controller re-tunes
    them between epochs via :meth:`set_knobs`.
    """

    def __init__(self, policy: SchedulerPolicy):
        self.policy = policy
        self.max_batch = policy.max_batch
        self.max_wait = policy.max_wait
        self.pending: deque[Operation] = deque()
        self.dropped: list[Operation] = []
        self.admitted = 0

    # ------------------------------------------------------------------
    # knob control (adaptive policies)
    # ------------------------------------------------------------------
    def set_knobs(
        self,
        *,
        max_wait: Optional[float] = None,
        max_batch: Optional[int] = None,
    ) -> None:
        """Re-tune the live knobs (clamped to the policy's invariants)."""
        if max_wait is not None:
            self.max_wait = max(0.0, max_wait)
        if max_batch is not None:
            mb = max(1, max_batch)
            if self.policy.queue_capacity is not None:
                mb = min(mb, self.policy.queue_capacity)
            self.max_batch = mb

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
        return len(self.pending) >= self.max_batch

    def fill_arrival(self) -> float:
        """Arrival time of the op that completed the current batch.

        The queue is arrival-ordered, so this is the earliest moment the
        batch-size trigger can fire.
        """
        return self.pending[self.max_batch - 1].time

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
        while self.pending and len(out) < self.max_batch:
            head = self.pending[0]
            if head.time > now:
                break
            if p.affinity and head.kind != kind:
                break
            out.append(self.pending.popleft())
        return out


# ----------------------------------------------------------------------
# closed-loop control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedDecision:
    """One knob change the adaptive controller committed."""

    epoch: int
    action: str  # "tighten" | "relax" | "widen"
    max_wait: float
    max_batch: int
    p99: float  # windowed op-latency p99 that triggered the decision
    rounds_per_op: float  # rounds/op EMA at decision time

    def as_dict(self) -> dict:
        return asdict(self)


#: ops whose latencies the tuner's p99 window holds
WINDOW = 64
#: consecutive epochs out of band before the tuner acts
PATIENCE = 2
#: quiet epochs after each committed decision
COOLDOWN = 2
#: ``max_wait`` multipliers of a tighten / relax decision
TIGHTEN_FACTOR = 0.6
RELAX_FACTOR = 1.5
#: p99 below this share of the target counts as slack
LOW_FRACTION = 0.75
#: weight of the newest sample in the tuner's moving averages
EMA_ALPHA = 0.2


class DeadlineTuner:
    """Closed-loop deadline/batch tuner for ``adaptive:<target_p99>``.

    Fed one observation per epoch — the cut time, queue depth at the
    cut, the epoch's per-phase times on the simulated clock (host prep,
    module rounds, reply assembly: the same quantities the
    ``epoch.prep`` / ``epoch.rounds`` / ``epoch.assemble`` spans carry,
    see ``repro.obs.phase_self_times``), the IO rounds consumed, and
    the latencies of the ops it completed — the controller steers the
    windowed op-latency p99 toward ``target_p99`` with two coupled
    knobs:

    * **deadline feedback** — p99 above target for :data:`PATIENCE`
      consecutive epochs → *tighten* (``max_wait`` × 0.6); p99 below
      ``LOW_FRACTION * target`` for :data:`PATIENCE` epochs → *relax*
      (``max_wait`` × 1.5, floored at a few per-op service times so the
      first relaxation already coalesces real work, capped at
      2 × target — waiting past the target cannot keep p99 under it).
      Every committed decision is followed by :data:`COOLDOWN` quiet epochs
      (hysteresis: the window must re-fill with post-decision latencies
      before the controller trusts its signal again).
    * **size-trigger slaving** — each epoch, ``max_batch`` is re-slaved
      to ``arrival_rate_ema × max_wait`` (clamped): the batch the
      arrival stream fills in about one deadline.  This converts the
      deadline policy into a fill-or-deadline trigger, which is what
      harvests variance: a burst fills the batch early and launches
      with low waiting, a lull falls back to the deadline — the same
      rounds/op at a lower tail than any pure deadline.

    All inputs are simulated-clock quantities the server computes
    itself, so runs are deterministic and identical with or without a
    tracer attached.
    """

    def __init__(
        self, policy: SchedulerPolicy, sched: ContinuousBatchingScheduler
    ):
        if not policy.adaptive:
            raise ValueError("DeadlineTuner needs an adaptive policy")
        self.policy = policy
        self.sched = sched
        self.target = policy.target_p99
        self.wait_cap = 2.0 * self.target
        self._lat: deque[float] = deque(maxlen=WINDOW)
        self.arrival_rate_ema: Optional[float] = None
        self.rounds_per_op_ema: Optional[float] = None
        self.service_per_op_ema: Optional[float] = None
        self._last_cut: Optional[float] = None
        self._high = 0
        self._low = 0
        self._quiet = 0
        self.decisions: list[SchedDecision] = []

    # ------------------------------------------------------------------
    def _ema(self, old: Optional[float], new: float) -> float:
        a = EMA_ALPHA
        return new if old is None else a * new + (1 - a) * old

    def _slave_batch(self) -> None:
        """Re-slave the size trigger to the deadline (see class doc)."""
        lam = self.arrival_rate_ema
        if lam is None or lam <= 0:
            return
        mb = max(2, round(lam * max(self.sched.max_wait, 1.0)))
        self.sched.set_knobs(max_batch=min(mb, self.policy.max_batch))

    def observe(
        self,
        *,
        epoch: int,
        cut: float,
        size: int,
        io_rounds: int,
        latencies: list,
        prep: float = 0.0,
        rounds: float = 0.0,
        asm: float = 0.0,
    ) -> Optional[SchedDecision]:
        """Digest one epoch; returns the committed decision, if any."""
        self._lat.extend(latencies)
        if self._last_cut is not None and cut > self._last_cut:
            self.arrival_rate_ema = self._ema(
                self.arrival_rate_ema, size / (cut - self._last_cut)
            )
        self._last_cut = cut
        if size > 0:
            self.rounds_per_op_ema = self._ema(
                self.rounds_per_op_ema, io_rounds / size
            )
            self.service_per_op_ema = self._ema(
                self.service_per_op_ema, (prep + rounds + asm) / size
            )
        self._slave_batch()
        if self._quiet > 0:
            self._quiet -= 1
            return None
        p99 = percentile(list(self._lat), 99)
        if p99 > self.target:
            self._high += 1
            self._low = 0
        elif p99 < LOW_FRACTION * self.target:
            self._low += 1
            self._high = 0
        else:
            self._high = self._low = 0

        action = None
        if self._high >= PATIENCE:
            self.sched.set_knobs(max_wait=self.sched.max_wait * TIGHTEN_FACTOR)
            action = "tighten"
        elif self._low >= PATIENCE:
            # floor: a deadline shorter than a few per-op service times
            # cannot coalesce anything worth waiting for
            floor = 4.0 * (self.service_per_op_ema or 1.0)
            wait = max(floor, self.sched.max_wait * RELAX_FACTOR)
            self.sched.set_knobs(max_wait=min(self.wait_cap, wait))
            action = "relax"
        if action is None:
            return None
        self._slave_batch()
        self._high = self._low = 0
        self._quiet = COOLDOWN
        d = SchedDecision(
            epoch=epoch,
            action=action,
            max_wait=self.sched.max_wait,
            max_batch=self.sched.max_batch,
            p99=p99,
            rounds_per_op=self.rounds_per_op_ema or 0.0,
        )
        self.decisions.append(d)
        return d

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Report block for ``ServiceReport.extra['sched']``."""
        return {
            "target_p99": self.target,
            "decisions": [d.as_dict() for d in self.decisions],
            "final_max_wait": self.sched.max_wait,
            "final_max_batch": self.sched.max_batch,
            "arrival_rate_ema": self.arrival_rate_ema,
            "rounds_per_op_ema": self.rounds_per_op_ema,
        }
