"""Rack-loss schedules: whole-rack failures on the cluster clock.

A :class:`RackLossPlan` is the cluster-level sibling of
:class:`repro.faults.FaultPlan`: where a fault plan kills individual
PIM *modules* inside one system, a rack-loss plan kills entire racks —
a full ``PIMSystem`` plus its ``PIMTrie`` — at deterministic points of
a service run.  Losses are indexed by *epoch*: a loss fires while its
epoch is executing, immediately before the doomed rack's shard would
run its sub-batch (i.e. mid-epoch from the cluster's point of view),
so failover is exercised inside the epoch, not between epochs.  Losses
whose shard has no work in that epoch fire at the epoch's end.

The named schedules in :func:`rack_loss_schedule` are shared between
the cluster availability sweep (``python -m repro bench cluster``,
``BENCH_cluster.json``) and the fault-tolerance sweep's ``rack-loss``
scenario (``BENCH_faults.json``) — one definition, two benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RACK_LOSS_SCENARIOS", "RackLoss", "RackLossPlan", "rack_loss_schedule"]


@dataclass(frozen=True)
class RackLoss:
    """One scheduled whole-rack failure."""

    epoch: int  # service epoch during which the rack dies
    shard: int
    replica: int  # replica slot within the shard (0 = initial primary)

    def as_dict(self) -> dict[str, int]:
        return {"epoch": self.epoch, "shard": self.shard,
                "replica": self.replica}


@dataclass(frozen=True)
class RackLossPlan:
    """A deterministic schedule of rack losses for one service run."""

    losses: tuple[RackLoss, ...] = ()
    #: heal at epoch boundaries: provision replacement racks for dead
    #: slots (only where a surviving replica exists to copy from)
    rebalance: bool = True

    @classmethod
    def empty(cls) -> "RackLossPlan":
        return cls()

    def for_epoch(self, epoch: int) -> list[RackLoss]:
        return [l for l in self.losses if l.epoch == epoch]

    def as_dict(self) -> dict[str, Any]:
        return {
            "losses": [l.as_dict() for l in self.losses],
            "rebalance": self.rebalance,
        }


#: named schedules shared by the cluster and faults sweeps
RACK_LOSS_SCENARIOS = ("none", "one-rack", "rolling", "shard-wipe")


def rack_loss_schedule(
    name: str, *, num_shards: int, replication: int, epoch: int = 2
) -> RackLossPlan:
    """The named schedule, scaled to the cluster's shape.

    * ``none`` — fault-free control;
    * ``one-rack`` — the primary rack of shard 0 dies once (the
      headline scenario: K>=2 must keep availability at 1.0);
    * ``rolling`` — one rack per epoch, walking across shards, each
      healed by rebalancing before the next strikes;
    * ``shard-wipe`` — every *original* replica of shard 0 dies, one
      per alternating epoch.  Rebalancing refills each dead slot from a
      survivor before the next strike, so with K>=2 the shard outlives
      the loss of all K racks it started with — answers after the last
      loss come entirely from replacement racks rebuilt off the replica
      log.  With K=1 the first loss has no survivor and the shard (and
      its keys) is gone for good: the availability floor rebalancing
      cannot save.
    """
    if name == "none":
        return RackLossPlan.empty()
    if name == "one-rack":
        return RackLossPlan(losses=(RackLoss(epoch, 0, 0),))
    if name == "rolling":
        return RackLossPlan(
            losses=tuple(
                RackLoss(epoch + i, i % num_shards, 0)
                for i in range(min(3, num_shards) if num_shards > 1 else 1)
            )
        )
    if name == "shard-wipe":
        # alternate epochs: the heal at each epoch boundary refills the
        # previous victim's slot before the next original rack dies
        return RackLossPlan(
            losses=tuple(
                RackLoss(epoch + 2 * r, 0, r) for r in range(replication)
            )
        )
    raise ValueError(f"unknown rack-loss scenario {name!r}")
