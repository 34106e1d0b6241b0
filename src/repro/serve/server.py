"""The epoch loop and its single-trie executor.

:func:`run_epochs` is the one discrete-event loop of the serve layer:
arrivals join the scheduler's queue (subject to admission control),
the policy decides when to cut an epoch, the epoch is handed to an
*executor*, and the loop stamps replies and advances the simulated
clock.  The loop owns admission, the cut, the sequential/pipelined
clock, per-op latency bookkeeping and the report;
an executor (:class:`EpochExecutor`) only says whether it is degraded,
runs one batch, and fills the report's ``metrics`` / ``faults`` /
``extra``.  There are two: :class:`EpochServer` here (one
:class:`PIMTrie`) and :class:`repro.cluster.ClusterService` (a router
over racks) — a 1 shard x 1 replica cluster is the single server,
epoch for epoch (tests/test_cluster.py).

Inside an epoch, ops are executed as the *runs* of :func:`segments`:
reads commute, writes keep order.  Writes run in arrival order
(consecutive same-kind writes as one run).  Between two writes, the
LCP and subtree reads form one ``"match"`` run and every other read of
one kind forms one run, so an epoch pays Table 1's per-batch matching
rounds once per gap for LCP and subtree together (SubtreeQuery starts
with LCP's trie matching, §5.3), and once per other read kind per gap,
not once per arrival-order stretch.  Both executors hand each run to
:func:`execute_segment`, with the trie or the cluster router as the
index.  A match run calls ``read_batch``, which on a ``PIMTrie``
matches one query trie and answers through
``lcp_batch``/``subtree_batch``; Insert/Delete runs call
``insert_batch``/``delete_batch``, and no read ever crosses a write.
Each run's answers land at its ops' positions, and a run that exhausts
its retries fails as one unit.
Combined with the scheduler's prefix-only epoch cutting this yields
the equivalence guarantee: replaying any trace through the loop
produces exactly the answers of applying the same ops directly to a
``PIMTrie`` in arrival order (:func:`replay_direct` is that reference
implementation, and it does not use :func:`segments`).

**Service model.**  Epoch work splits into *phases*.  The module-round
phase is derived from the PIM Model metrics the epoch actually
consumed:

    ``module = round_time * io_rounds + word_time * io_time``

i.e. a fixed per-round overhead (CPU↔PIM latency) plus a per-word
transfer cost on the round's critical path.  The host-CPU phases —
*prep* (segment grouping, arena setup) and *assemble* (reply
demultiplexing) — cost ``prep_time`` / ``asm_time``
simulated units per op.  The defaults (1.0, 0.001, 0, 0) make the
per-round term dominant at small batches — precisely the regime where
coalescing more ops per epoch amortizes rounds, which is the trade-off
the batching policies navigate.

**Pipelined BSP** (``pipelined=True``).  Sequentially, an epoch runs
cut → prep → rounds → assemble before the next cut.  Pipelined, the
host and the modules are separate resources on the simulated clock: the
host preps epoch k+1 while the modules crunch epoch k's rounds (the
classic two-stage pipeline, depth one per stage — epoch k leaves the
host stage the moment the modules accept it, which is when the host may
cut k+1).  Reply assembly is carried by the reply path and charged to
completion latency only.  Prep only groups the op list and reads no
index state, so one rule orders every read after every earlier write:
an epoch's rounds start only after the previous epoch's rounds end
(``rounds_start = max(cut + prep, module_free)``), the synchronous
rounds of the PIM Model.  The host cuts the next epoch as soon as it is
free, whether the previous epoch wrote or not.  Epoch *composition* may
therefore differ from the sequential schedule, but every schedule cuts
arrival-order prefixes, so replies stay byte-identical to
:func:`replay_direct`.

Replies are demultiplexed back to per-op :class:`CompletedOp` records
stamped with launch/completion times and three latency readings
(simulated units, IO rounds, wall-clock); see :mod:`repro.serve.slo`.

**Fault tolerance.**  When the underlying system carries a
:class:`repro.faults.FaultInjector`, segments that die with
:class:`RoundAborted` are recovered (:func:`repro.faults.recover`) and
retried with exponential backoff charged to the epoch's service time;
after ``max_retries`` the segment's ops complete with the
:data:`~repro.serve.slo.OP_FAILED` sentinel instead of stalling the
queue.  Epochs additionally start with a *proactive* recovery sweep
(crashed modules are rebuilt before new work launches), straggler
penalties accrued by the injector are folded into epoch service time,
and while the server is degraded admission can shed load via the
policy's ``degraded_capacity``.  All of it is inert on a fault-free
system: the fault path adds one attribute check per epoch.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable, Optional, Protocol, Sequence

from ..core import PIMTrie
from ..faults import RoundAborted, recover
from ..obs.tracer import maybe_span
from ..pim import MetricsSnapshot
from .scheduler import ContinuousBatchingScheduler, SchedulerPolicy
from .slo import OP_FAILED, CompletedOp, EpochRecord, ServiceReport
from .trace import Operation, Trace

__all__ = [
    "EpochExecutor",
    "EpochOutcome",
    "EpochServer",
    "ServiceModel",
    "decide_cut",
    "execute_segment",
    "replay_direct",
    "run_epochs",
    "segments",
]

#: op kinds that mutate trie state
WRITE_KINDS = frozenset(("insert", "delete"))

#: simulated units of the first retry's backoff; each retry doubles it
RETRY_BACKOFF = 0.5

#: read kinds answered from one trie matching (``PIMTrie.read_batch``):
#: a gap's ops of these kinds form one run of kind ``"match"``
MATCH_KINDS = frozenset(("lcp", "subtree"))


def segments(batch: Sequence[Operation]) -> list[tuple[str, list[int]]]:
    """Split a batch into ``(kind, positions)`` runs: reads commute,
    writes keep order.

    Writes run in arrival order, consecutive same-kind writes as one
    run.  Between two writes, the LCP and subtree reads form one run of
    kind ``"match"`` (one trie matching answers both), every other read
    of one kind forms one run, and the runs of a gap come in order of
    first appearance.  No read crosses a write, so every
    read sees exactly the writes that arrived before it.  ``positions``
    index into ``batch``; together the runs cover each position once.

    Public because both epoch executors (the single-trie
    :class:`EpochServer`, the cluster router in :mod:`repro.cluster`)
    run this one decomposition.
    """
    out: list[tuple[str, list[int]]] = []
    gap: dict[str, list[int]] = {}  # run kind -> its run since the last write
    for pos, op in enumerate(batch):
        if op.kind in WRITE_KINDS:
            gap = {}
            if out and out[-1][0] == op.kind:
                out[-1][1].append(pos)
            else:
                out.append((op.kind, [pos]))
            continue
        kind = "match" if op.kind in MATCH_KINDS else op.kind
        if kind in gap:
            gap[kind].append(pos)
        else:
            gap[kind] = [pos]
            out.append((kind, gap[kind]))
    return out


def _group_by_parameter(
    kind: str,
    ops: list[Operation],
    call: Callable[[list[Any], Any], list[Any]],
) -> list[Any]:
    """Answer a ``range`` / ``topk`` segment with one ``call`` per
    distinct parameter.

    The per-op limit / k rides in the value (range ops carry
    ``(hi, limit)``, topk ops carry ``k``); same-parameter ops are
    grouped onto one ``call(keys, parameter)`` each, where ``keys`` are
    ``(lo, hi)`` bound pairs for ``range``.  Grouping is invisible in
    the metrics — ordered reads are host-side and run zero PIM rounds
    regardless of how they are batched.
    """
    out: list[Any] = [None] * len(ops)
    groups: dict[Any, list[int]] = {}
    for i, o in enumerate(ops):
        groups.setdefault(o.value[1] if kind == "range" else o.value, []).append(i)
    for parameter, idxs in groups.items():
        if kind == "range":
            keys = [(ops[i].key, ops[i].value[0]) for i in idxs]
        else:
            keys = [ops[i].key for i in idxs]
        for i, reply in zip(idxs, call(keys, parameter)):
            out[i] = reply
    return out


def execute_segment(trie: Any, kind: str, ops: list[Operation]) -> list[Any]:
    """Run one run of :func:`segments` or :func:`replay_direct` through
    the matching batch API — the one place a run becomes batch calls.

    A ``"match"`` run makes one ``read_batch`` call for its LCP and
    subtree ops and writes each answer to its op's position.  The
    callers are :class:`EpochServer` (``trie`` is its
    :class:`PIMTrie`), :class:`repro.cluster.ClusterService` (``trie``
    is the :class:`repro.cluster.PIMCluster` router, which has the same
    batch methods) and :func:`replay_direct`, whose runs are single
    kinds, so any index with the kind's batch method works there (e.g.
    :class:`repro.perf.DictOracle`).
    """
    if kind == "match":
        lcp = [i for i, o in enumerate(ops) if o.kind == "lcp"]
        sub = [i for i, o in enumerate(ops) if o.kind == "subtree"]
        depths, items = trie.read_batch(
            [ops[i].key for i in lcp], [ops[i].key for i in sub]
        )
        out: list[Any] = [None] * len(ops)
        for idxs, answers in ((lcp, depths), (sub, items)):
            for i, reply in zip(idxs, answers):
                out[i] = reply
        return out
    if kind == "lcp":
        return trie.lcp_batch([o.key for o in ops])
    if kind == "insert":
        trie.insert_batch([o.key for o in ops], [o.value for o in ops])
        return [True] * len(ops)
    if kind == "delete":
        trie.delete_batch([o.key for o in ops])
        return [True] * len(ops)
    if kind == "subtree":
        return trie.subtree_batch([o.key for o in ops])
    if kind == "pred":
        return trie.predecessor_batch([o.key for o in ops])
    if kind == "succ":
        return trie.successor_batch([o.key for o in ops])
    if kind == "count":
        return trie.prefix_count_batch([o.key for o in ops])
    if kind == "range":
        return _group_by_parameter(kind, ops, trie.range_batch)
    if kind == "topk":
        return _group_by_parameter(kind, ops, trie.topk_batch)
    raise ValueError(f"unknown op kind {kind!r}")


def decide_cut(
    sched: ContinuousBatchingScheduler,
    ops: Sequence[Operation],
    idx: list[int],
    ready: float,
    admit: Callable[[Operation], None],
) -> float:
    """Pick the next epoch's cut time; admit the arrivals preceding it.

    The one audited admission boundary of :func:`run_epochs`.  ``idx``
    is a one-element list holding the next-unprocessed-arrival index
    (``admit`` advances it); ``ready`` is the earliest time the loop
    could start an epoch (previous completion when sequential,
    pipeline-stage availability when pipelined).

    Admission is *lazy* — arrivals are pulled from the trace only as
    the decision needs them — but the boundary is exact: every arrival
    with ``time <= cut`` is admitted (in arrival order, so admission
    control sees the queue exactly as a client would) before the cut
    extracts the batch, and none after.  An arrival at exactly the cut
    instant is therefore admitted, matching an eager reference loop that
    processes events in timestamp order with arrivals first at ties
    (see tests/test_serve_admission.py).
    """
    n = len(ops)
    head_t = sched.head_arrival()
    earliest = max(ready, head_t)
    deadline = head_t + sched.policy.max_wait
    while True:
        if sched.full():
            cut = max(ready, sched.fill_arrival())
            break
        target = max(earliest, deadline)
        if idx[0] < n and ops[idx[0]].time <= target:
            admit(ops[idx[0]])
            continue
        if idx[0] < n:
            # no further arrival lands before the deadline
            cut = target
        else:
            # stream exhausted: the queue may still hold ops with
            # future arrival times (admission is lazy), so honor the
            # deadline — but waiting past the last queued arrival buys
            # nothing
            cut = max(earliest, min(deadline, sched.pending[-1].time))
        break
    while idx[0] < n and ops[idx[0]].time <= cut:
        admit(ops[idx[0]])
    return cut


@dataclass
class EpochOutcome:
    """What an executor hands back to :func:`run_epochs` for one epoch."""

    replies: list[Any]  # one per op, in batch order
    kinds: list[str]  # kinds of the runs executed, in execution order
    delta: MetricsSnapshot  # the epoch's metrics (merged over racks)
    module: float  # module-round phase duration on the simulated clock
    retries: int = 0
    recovery_rounds: int = 0
    causes: Sequence[str] = ()
    straggled: bool = False
    span_id: Optional[int] = None


class EpochExecutor(Protocol):
    """What :func:`run_epochs` needs from the thing that runs epochs."""

    policy: SchedulerPolicy
    round_time: float
    word_time: float
    pipelined: bool
    prep_time: float
    asm_time: float

    def degraded(self) -> bool:
        """Is the index currently healing?  (Admission may shed load.)"""

    def mark(self) -> Any:
        """A metrics measurement point, taken before the first epoch."""

    def run_epoch(
        self, index: int, batch: list[Operation], depth: int
    ) -> EpochOutcome:
        """Run ``batch`` as epoch ``index``; ``depth`` is the queue depth
        at the cut."""

    def report_parts(
        self, mark: Any, epochs: list[EpochRecord]
    ) -> tuple[MetricsSnapshot, dict, dict]:
        """The report's ``(metrics, faults, extra)`` for the whole run."""


def run_epochs(executor: EpochExecutor, trace: Trace) -> ServiceReport:
    """Drive the full event loop over ``trace``; returns the report."""
    ops = trace.ops
    n = len(ops)
    policy = executor.policy
    pipelined = executor.pipelined
    sched = ContinuousBatchingScheduler(policy)

    completed: list[CompletedOp] = []
    epochs: list[EpochRecord] = []
    rounds_at_admit: dict[int, int] = {}
    wall_at_admit: dict[int, float] = {}
    cum_rounds = 0
    cum_wall = 0.0
    failed_total = 0
    # simulated-clock resources.  Sequential mode uses only host_free
    # (== previous completion).  Pipelined mode: host_free is when the
    # host stage frees up (the previous epoch's rounds began),
    # module_free is when the modules finish their current epoch.
    host_free = 0.0
    module_free = 0.0
    idx = [0]  # next unprocessed arrival (boxed for decide_cut)
    mark = executor.mark()

    def admit(op: Operation) -> None:
        if sched.admit(op, degraded=executor.degraded()):
            rounds_at_admit[op.seq] = cum_rounds
            wall_at_admit[op.seq] = cum_wall
        idx[0] += 1

    while idx[0] < n or sched.pending:
        if not sched.pending:
            # idle: jump the clock to the next arrival
            admit(ops[idx[0]])
            continue

        cut = decide_cut(sched, ops, idx, host_free, admit)

        depth = len(sched.pending)
        batch = sched.take_epoch(cut)
        assert batch, "scheduler cut an empty epoch"
        prep_dur = executor.prep_time * len(batch)
        asm_dur = executor.asm_time * len(batch)

        t0 = _time.perf_counter()
        out = executor.run_epoch(len(epochs), batch, depth)
        wall = _time.perf_counter() - t0
        delta = out.delta
        failed = sum(1 for r in out.replies if r is OP_FAILED)

        if pipelined:
            rounds_start = max(cut + prep_dur, module_free)
            completion = rounds_start + out.module + asm_dur
            module_free = rounds_start + out.module
            # the epoch leaves the host stage when the modules accept
            # it; the host may then cut the next epoch
            host_free = rounds_start
        else:
            rounds_start = cut + prep_dur
            completion = rounds_start + out.module + asm_dur
            host_free = completion
        failed_total += failed
        cum_rounds += delta.io_rounds
        cum_wall += wall
        epochs.append(
            EpochRecord(
                index=len(epochs), launch=cut, service=completion - cut,
                completion=completion, size=len(batch),
                kinds=tuple(out.kinds), queue_depth=depth,
                io_rounds=delta.io_rounds, io_time=delta.io_time,
                communication=delta.total_communication,
                pim_time=delta.pim_time, wall_seconds=wall,
                degraded=bool(
                    out.causes or out.recovery_rounds or failed
                    or out.straggled
                ),
                retries=out.retries,
                recovery_rounds=out.recovery_rounds,
                causes=tuple(out.causes),
                span_id=out.span_id,
                prep=prep_dur, asm=asm_dur, rounds_start=rounds_start,
            )
        )
        for op, reply in zip(batch, out.replies):
            completed.append(
                CompletedOp(
                    seq=op.seq, client_id=op.client_id, kind=op.kind,
                    arrival=op.time, launch=cut,
                    completion=completion, epoch=len(epochs) - 1,
                    reply=reply,
                    latency_rounds=cum_rounds - rounds_at_admit[op.seq],
                    wall_seconds=cum_wall - wall_at_admit[op.seq],
                    ok=reply is not OP_FAILED,
                )
            )

    metrics, faults, extra = executor.report_parts(mark, epochs)
    return ServiceReport(
        policy=policy.describe(),
        trace=trace.name,
        num_ops=n,
        completed=completed,
        dropped=len(sched.dropped),
        epochs=epochs,
        metrics=metrics,
        round_time=executor.round_time,
        word_time=executor.word_time,
        max_batch=policy.max_batch,
        failed=failed_total,
        faults=faults,
        extra=extra,
        pipelined=pipelined,
        prep_time=executor.prep_time,
        asm_time=executor.asm_time,
    )


class ServiceModel:
    """The simulated-clock coefficients both executors bill their epochs
    with (the module docstring's service model), checked in one place."""

    def __init__(
        self, round_time: float, word_time: float,
        prep_time: float, asm_time: float,
    ):
        if round_time < 0 or word_time < 0:
            raise ValueError("service-model coefficients must be >= 0")
        if prep_time < 0 or asm_time < 0:
            raise ValueError("host-phase costs must be >= 0")
        self.round_time = round_time
        self.word_time = word_time
        self.prep_time = prep_time
        self.asm_time = asm_time

    def service_time(self, delta: MetricsSnapshot) -> float:
        """Simulated module-round duration of a metrics delta."""
        return self.round_time * delta.io_rounds + self.word_time * delta.io_time


class EpochServer(ServiceModel):
    """Continuous-batching service frontend over one :class:`PIMTrie`:
    the :class:`EpochExecutor` with retry + backoff, proactive module
    recovery, straggler penalties and ``epoch.*`` / ``segment.*`` spans."""

    def __init__(
        self,
        trie: PIMTrie,
        policy: SchedulerPolicy,
        *,
        round_time: float = 1.0,
        word_time: float = 0.001,
        max_retries: int = 4,
        adapt: Optional[Any] = None,
        pipelined: bool = False,
        prep_time: float = 0.0,
        asm_time: float = 0.0,
    ):
        super().__init__(round_time, word_time, prep_time, asm_time)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.trie = trie
        self.system = trie.system
        self.policy = policy
        self.max_retries = max_retries
        self.pipelined = pipelined
        #: optional repro.adapt AdaptiveController stepped once per
        #: epoch (after the segments run, inside the epoch's metrics
        #: window, so maintenance rounds are billed to the epoch that
        #: triggered them)
        self.adapt = adapt

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ServiceReport:
        """Drive the full event loop over ``trace``; returns the report."""
        return run_epochs(self, trace)

    # ------------------------------------------------------------------
    # EpochExecutor
    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        """Is the index currently healing (crashed or dirty state)?"""
        inj = getattr(self.system, "faults", None)
        return bool(
            (inj is not None and inj.crashed)
            or getattr(self.trie, "_dirty_structure", False)
        )

    def mark(self) -> MetricsSnapshot:
        return self.system.snapshot()

    def _run_segment(
        self, kind: str, ops: list[Operation], ep: dict
    ) -> list[Any]:
        """Execute one segment, recovering and retrying on aborts.

        Retries are idempotent (every PIMTrie batch op is); backoff and
        recovery are accounted into ``ep`` and the epoch's service time.
        On exhaustion the system is still healed — subsequent segments
        and epochs proceed — but these ops answer :data:`OP_FAILED`.
        """
        attempt = 0
        while True:
            try:
                with maybe_span(
                    self.system, f"segment.{kind}", cat="segment",
                    ops=len(ops),
                ):
                    return execute_segment(self.trie, kind, ops)
            except RoundAborted as e:
                attempt += 1
                ep["causes"].append(e.cause)
                inj = getattr(self.system, "faults", None)
                if inj is not None:
                    inj.stats.retries += 1
                ep["recovery_rounds"] += recover(self.trie)
                if attempt > self.max_retries:
                    return [OP_FAILED] * len(ops)
                ep["retries"] += 1
                ep["backoff"] += RETRY_BACKOFF * 2.0 ** (attempt - 1)

    def run_epoch(
        self, index: int, batch: list[Operation], depth: int
    ) -> EpochOutcome:
        before = self.system.snapshot()
        ep = {"retries": 0, "recovery_rounds": 0, "backoff": 0.0,
              "causes": []}
        obs = getattr(self.system, "obs", None)
        ep_span = (
            obs.begin(
                f"epoch:{index}", cat="epoch",
                size=len(batch), queue_depth=depth,
            )
            if obs is not None
            else None
        )
        try:
            # ---- host prep phase: segment grouping
            with maybe_span(
                self.system, "epoch.prep", cat="phase", ops=len(batch)
            ):
                segs = segments(batch)
            # ---- module-round phase: recovery + segments + adapt
            with maybe_span(
                self.system, "epoch.rounds", cat="phase", ops=len(batch)
            ):
                # proactive recovery: heal crashes left over from a
                # previous epoch before launching new work (its rounds
                # land in this epoch's metrics delta, and therefore its
                # service time)
                if self.degraded():
                    ep["recovery_rounds"] += recover(self.trie)
                replies: list[Any] = [None] * len(batch)
                for kind, positions in segs:
                    answers = self._run_segment(
                        kind, [batch[i] for i in positions], ep
                    )
                    for i, reply in zip(positions, answers):
                        replies[i] = reply
                if self.adapt is not None:
                    # adaptive maintenance rides the epoch it reacts to:
                    # its rounds land in this delta and service time.
                    # An abort mid-maintenance heals like any other
                    # fault — answers are placement-invariant either
                    # way.
                    try:
                        self.adapt.step()
                    except RoundAborted as e:
                        ep["causes"].append(e.cause)
                        ep["recovery_rounds"] += recover(self.trie)
            # ---- host assemble phase: reply demultiplexing (each
            # run's answers went to its ops' positions above); zero
            # metrics delta, costed via asm_time
            with maybe_span(
                self.system, "epoch.assemble", cat="phase",
                ops=len(batch),
            ):
                pass
        finally:
            if ep_span is not None:
                obs.end(ep_span)
        delta = self.system.snapshot().delta(before)
        inj = getattr(self.system, "faults", None)
        straggle = inj.take_straggle_penalty() if inj is not None else 0.0
        return EpochOutcome(
            replies=replies, kinds=[kind for kind, _ in segs], delta=delta,
            module=(
                self.service_time(delta)
                + straggle * self.round_time
                + ep["backoff"]
            ),
            retries=ep["retries"],
            recovery_rounds=ep["recovery_rounds"], causes=ep["causes"],
            straggled=straggle > 0,
            span_id=ep_span.sid if ep_span is not None else None,
        )

    def report_parts(
        self, mark: MetricsSnapshot, epochs: list[EpochRecord]
    ) -> tuple[MetricsSnapshot, dict, dict]:
        inj = getattr(self.system, "faults", None)
        return (
            self.system.snapshot().delta(mark),
            inj.stats.as_dict()
            if inj is not None and inj.stats.any_faults()
            else {},
            {"adapt": self.adapt.summary()} if self.adapt is not None else {},
        )


# ----------------------------------------------------------------------
def replay_direct(
    trie: PIMTrie, ops: Sequence[Operation]
) -> list[tuple[int, Any]]:
    """Reference semantics: apply ``ops`` to ``trie`` in order.

    Maximal consecutive same-kind runs are executed as single batch
    calls — the finest batching that keeps strict arrival order.  It
    deliberately does not use :func:`segments`, so the server ≡ replay
    tests judge the executors' read gathering against an ordering it
    did not pick.  Returns ``(seq, reply)`` pairs; the equivalence
    tests assert the server produces identical replies (and identical
    final index state) under every scheduler policy.
    """
    out: list[tuple[int, Any]] = []
    for kind, run in groupby(ops, key=lambda op: op.kind):
        seg = list(run)
        replies = execute_segment(trie, kind, seg)
        out.extend((op.seq, r) for op, r in zip(seg, replies))
    return out
