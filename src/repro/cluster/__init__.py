"""repro.cluster — a multi-rack sharded PIM cluster with K-way
replication and rack-loss failover.

Scales the single-system reproduction out: N shards × K replicas of
independent :class:`~repro.pim.PIMSystem` + :class:`~repro.core.PIMTrie`
racks behind a host router (:mod:`~repro.cluster.cluster`), with
pluggable sharding (:mod:`~repro.cluster.sharding` — skew-flat
hash-of-prefix vs baseline-like prefix-range), deterministic rack-loss
schedules (:mod:`~repro.cluster.plan`), a serve-layer frontend that
runs each shard as per-shard epochs under the continuous-batching
scheduler (:mod:`~repro.cluster.service`), and the E17 availability /
imbalance sweep (:mod:`~repro.cluster.bench` →
``BENCH_cluster.json``).

Entry point: ``python -m repro bench cluster [--smoke]``.
"""

from .cluster import PIMCluster, Rack, ShardUnavailable
from .plan import RACK_LOSS_SCENARIOS, RackLoss, RackLossPlan, rack_loss_schedule
from .service import ClusterService
from .sharding import (
    HashSharding,
    RangeSharding,
    ShardingPolicy,
    derive_rack_seed,
    policy_from_name,
)

__all__ = [
    "PIMCluster",
    "Rack",
    "ShardUnavailable",
    "RACK_LOSS_SCENARIOS",
    "RackLoss",
    "RackLossPlan",
    "rack_loss_schedule",
    "ClusterService",
    "HashSharding",
    "RangeSharding",
    "ShardingPolicy",
    "derive_rack_seed",
    "policy_from_name",
]
