"""Serve-layer frontend for a cluster: per-shard epochs, rack-loss
injection, failover availability.

:class:`ClusterService` is the cluster executor of the serve layer's
one epoch loop (:func:`repro.serve.server.run_epochs`): admission, the
cut, the sequential/pipelined clock and the report are the loop's,
exactly as for :class:`repro.serve.EpochServer`;
what is the cluster's own is how an epoch *runs*.  Each run of
:func:`repro.serve.server.segments` (reads commute, writes keep order:
between two writes the LCP and subtree reads are one ``"match"`` run
and every other read of one kind is one run) goes through
:func:`repro.serve.server.execute_segment` with the
:class:`PIMCluster` as the index — the call ``EpochServer`` makes with
its trie — so the run's batch calls fan out through the router and one
service epoch becomes per-shard sub-epochs on independent racks.  A
match run is one :meth:`PIMCluster.read_batch`: each op routes by its
own kind and each shard's read rack answers its share with one
``read_batch`` call.  Each run's answers land at its ops' positions in
the epoch, as in ``EpochServer``.

**Service model.**  Racks run in parallel, so an epoch's simulated
module-round duration is the *maximum* over racks of that rack's
``round_time * io_rounds + word_time * io_time`` delta — the critical
path — rather than the sum.  (The epoch's :class:`EpochRecord` still
carries the summed deltas, merged via ``MetricsSnapshot.merge``, for
throughput accounting.)

**Rack loss.**  A :class:`~repro.cluster.plan.RackLossPlan` schedules
whole-rack deaths on the epoch clock.  A loss fires *inside* its epoch,
immediately before the first segment that routes work to the doomed
rack's shard (losses whose shard stays idle fire at epoch end) — so
the remainder of the epoch exercises failover read-routing, not a
clean restart.  Dead slots are healed by a proactive
:meth:`PIMCluster.rebalance` sweep at the next epoch launch (the
cluster analogue of ``EpochServer``'s proactive module recovery);
rebuild rounds are charged to that epoch's service time.  Each op's
shards are computed once per run; they pick the losses to fire and
then filter the run: an op that needs a shard with no surviving
replica completes with :data:`~repro.serve.slo.OP_FAILED` without
reaching the router (which refuses a whole batch holding such an op)
— the availability metric of ``BENCH_cluster.json``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..pim import MetricsSnapshot
from ..serve.scheduler import SchedulerPolicy
from ..serve.server import (
    EpochOutcome,
    ServiceModel,
    execute_segment,
    run_epochs,
    segments,
)
from ..serve.slo import OP_FAILED, EpochRecord, ServiceReport
from ..serve.trace import Operation, Trace
from .cluster import PIMCluster
from .plan import RackLossPlan

__all__ = ["ClusterService"]


class ClusterService(ServiceModel):
    """Continuous-batching frontend over a :class:`PIMCluster`: the
    :class:`~repro.serve.server.EpochExecutor` that fans each epoch out
    through the router, fires scheduled rack losses and rebalances."""

    def __init__(
        self,
        cluster: PIMCluster,
        policy: SchedulerPolicy,
        *,
        round_time: float = 1.0,
        word_time: float = 0.001,
        plan: Optional[RackLossPlan] = None,
        adapt: Optional[Any] = None,
        pipelined: bool = False,
        prep_time: float = 0.0,
        asm_time: float = 0.0,
    ):
        super().__init__(round_time, word_time, prep_time, asm_time)
        self.cluster = cluster
        self.policy = policy
        #: two-stage pipelined BSP on the router's host: prep of epoch
        #: k+1 overlaps the racks' rounds of epoch k (the loop's clock,
        #: see serve.server)
        self.pipelined = pipelined
        self.plan = plan if plan is not None else RackLossPlan.empty()
        #: optional repro.adapt ClusterAdaptiveController stepped once
        #: per epoch (per-rack sketches; see adapt.controller)
        self.adapt = adapt

    # ------------------------------------------------------------------
    def _apply_losses(
        self, pending: set, shards: set[int], causes: list[str]
    ) -> None:
        """Fire the pending losses whose shard is in ``shards``."""
        for shard, slot in sorted(pending):
            if shard in shards:
                if self.cluster.fail_rack(shard, slot) is not None:
                    causes.append(f"rack-loss:{shard}.{slot}")
                pending.discard((shard, slot))

    def _shards(self, op: Operation) -> list[int]:
        # range ops route on their (lo, hi) interval — lo is the op
        # key, hi rides in value[0] next to the limit
        return self.cluster._targets(
            op.kind, (op.key, op.value[0]) if op.kind == "range" else op.key
        )

    def run(self, trace: Trace) -> ServiceReport:
        """Drive the event loop over ``trace``; returns the report."""
        return run_epochs(self, trace)

    # ------------------------------------------------------------------
    # EpochExecutor
    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        return self.cluster.degraded

    def mark(self) -> dict:
        return self.cluster.mark()

    def run_epoch(
        self, index: int, batch: list[Operation], depth: int
    ) -> EpochOutcome:
        cluster = self.cluster
        pending = {
            (loss.shard, loss.replica) for loss in self.plan.for_epoch(index)
        }
        causes: list[str] = []
        recovery_rounds = 0
        mark = cluster.mark()

        # proactive heal: replacement racks for slots lost in earlier
        # epochs come up before new work launches, so their rebuild
        # rounds land in this epoch's service time
        if self.plan.rebalance and cluster.degraded:
            recovery_rounds += cluster.rebalance()

        segs = segments(batch)
        # an op needing a lost shard keeps OP_FAILED: it never reaches
        # the router, which would refuse its whole run
        replies: list[Any] = [OP_FAILED] * len(batch)
        for kind, positions in segs:
            shards = [self._shards(batch[i]) for i in positions]
            # a death scheduled for this epoch strikes the moment its
            # shard is about to run — mid-epoch, not between
            self._apply_losses(pending, set().union(*shards), causes)
            live = [
                i for i, need in zip(positions, shards)
                if cluster.lost_shards.isdisjoint(need)
            ]
            answers = execute_segment(cluster, kind, [batch[i] for i in live])
            for i, reply in zip(live, answers):
                replies[i] = reply
        # losses whose shard saw no work this epoch still happen
        self._apply_losses(pending, set(range(cluster.num_shards)), causes)
        if self.adapt is not None:
            # per-rack adaptive maintenance inside the epoch's metrics
            # window — billed to the racks it rebalances
            self.adapt.step()

        deltas = cluster.delta_by_rack(mark)
        return EpochOutcome(
            replies=replies, kinds=[kind for kind, _ in segs],
            delta=MetricsSnapshot.merge(*(deltas[u] for u in sorted(deltas))),
            # racks run in parallel: the epoch's module-round phase
            # takes as long as its slowest rack (recovery included)
            module=max(
                (self.service_time(d) for d in deltas.values()), default=0.0
            ),
            recovery_rounds=recovery_rounds,
            causes=causes,
        )

    def report_parts(
        self, mark: dict, epochs: list[EpochRecord]
    ) -> tuple[MetricsSnapshot, dict, dict]:
        cluster = self.cluster
        # every cause a cluster epoch records is a rack loss that fired
        losses_fired = sum(len(e.causes) for e in epochs)
        faults = (
            {
                "rack_losses": losses_fired,
                "rebuilds": sum(
                    1 for ev in cluster.events if ev["event"] == "rebuild"
                ),
                "lost_shards": sorted(cluster.lost_shards),
            }
            if losses_fired
            else {}
        )
        extra = {
            "sharding": cluster.policy.describe(),
            "shards": cluster.num_shards,
            "replication": cluster.replication,
            "modules_per_rack": cluster.modules_per_rack,
        }
        if self.adapt is not None:
            extra["adapt"] = self.adapt.summary()
        return cluster.delta(mark), faults, extra
