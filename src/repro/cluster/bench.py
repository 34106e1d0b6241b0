"""The cluster bench (E17): sharding skew-resistance and availability
under rack loss (``python -m repro bench cluster`` →
``BENCH_cluster.json``).

Three sections, all driven through :class:`ClusterService` with the
same continuous-batching policy as the serve and faults sweeps, each
row checked against a direct sequential replay on a single faultless
trie (``answers_match_replay``):

* **skew** — hash vs range sharding under uniform / Zipf / flood
  traffic: per-shard traffic and its max/mean imbalance.  Range
  sharding reproduces the range-partitioned baseline's failure mode at
  rack scale (the hot range serializes on one shard); hash stays flat
  (the ``skew_resistant`` gate);
* **parity** — both policies × shard counts: the answer digest must be
  identical for every shard count and policy (the cluster is an
  execution strategy, not a semantic change; the ``digest_consistent``
  gate).  ``tests/test_cluster.py`` re-checks these digests through
  :func:`row`;
* **availability** — shards × replication × rack-loss scenario
  (:func:`repro.cluster.plan.rack_loss_schedule` — definitions shared
  with ``BENCH_faults``): K>=2 must hold availability at 1.0 through
  every scenario (the ``k2_fully_available`` gate), K=1 shows the floor
  (a lost shard takes its keys, and every broadcast read, down with
  it).

Every quantity reported is simulated (counts and simulated time
units), so the JSON is byte-deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import Any

from ..perf import fresh_trie, replies_match, reset_id_counters, service_row
from ..serve import answers_digest, make_trace, policy_from_name
from ..workloads import uniform_keys
from .cluster import PIMCluster
from .plan import RACK_LOSS_SCENARIOS, rack_loss_schedule
from .service import ClusterService
from .sharding import policy_from_name as sharding_from_name

__all__ = ["PROFILES", "row", "run"]

_BASE = {"P_rack": 4, "length": 64, "rate": 0.25, "policy": "deadline:20"}
PROFILES = {
    "smoke": {**_BASE, "resident": 128, "n_ops": 96,
              "parity_shards": (1, 2), "avail_shards": (2,),
              "scenarios": ("one-rack",)},
    "full": {**_BASE, "resident": 384, "n_ops": 256,
             "parity_shards": (1, 2, 4, 8), "avail_shards": (2, 4),
             "scenarios": tuple(s for s in RACK_LOSS_SCENARIOS
                                if s != "none")},
}


def row(
    cfg: dict[str, Any],
    seed: int,
    *,
    sharding: str,
    shards: int,
    replication: int = 1,
    skew: str = "uniform",
    scenario: str = "none",
) -> dict[str, Any]:
    """One cluster configuration end to end; returns its JSON row."""
    keys = uniform_keys(cfg["resident"], cfg["length"], seed=seed + 1)
    trace = make_trace(
        cfg["n_ops"], length=cfg["length"], rate=cfg["rate"], skew=skew,
        seed=seed, name=f"cluster-{skew}",
    )

    reset_id_counters()
    policy = sharding_from_name(sharding, shards, resident_keys=keys)
    cluster = PIMCluster(
        policy, replication=replication, modules_per_rack=cfg["P_rack"],
        root_seed=seed, keys=keys, values=keys,
    )
    plan = rack_loss_schedule(
        scenario, num_shards=shards, replication=replication
    )
    service = ClusterService(
        cluster, policy_from_name(cfg["policy"]), plan=plan
    )
    mark = cluster.mark()
    report = service.run(trace)
    shard_traffic = cluster.shard_traffic(mark)
    mean = sum(shard_traffic) / len(shard_traffic) if shard_traffic else 0

    # ground truth: the same trace applied sequentially to one trie
    twin = fresh_trie(cfg["P_rack"], keys, keys)
    return service_row(
        report, plan, replies_match(twin, trace, report),
        sharding=sharding,
        shards=shards,
        replication=replication,
        skew=skew,
        scenario=scenario,
        answers_digest=answers_digest(report),
        rack_losses=report.faults.get("rack_losses", 0),
        rebuilds=report.faults.get("rebuilds", 0),
        lost_shards=sorted(cluster.lost_shards),
        shard_traffic=shard_traffic,
        shard_imbalance=max(shard_traffic) / mean if mean > 0 else 1.0,
    )


def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """The skew, parity and availability sections, and the headline."""
    skew_rows = [
        row(cfg, seed, sharding=pol, shards=4, skew=skew)
        for pol in ("hash", "range")
        for skew in ("uniform", "zipf", "flood")
    ]
    parity_rows = [
        row(cfg, seed, sharding=pol, shards=s)
        for pol in ("hash", "range")
        for s in cfg["parity_shards"]
    ]
    avail_rows = [
        row(cfg, seed, sharding="hash", shards=s, replication=k, scenario=sc)
        for s in cfg["avail_shards"]
        for k in (1, 2)
        for sc in cfg["scenarios"]
    ]

    rows = skew_rows + parity_rows + avail_rows
    digests = {r["answers_digest"] for r in parity_rows}
    imb = {(r["sharding"], r["skew"]): r["shard_imbalance"] for r in skew_rows}
    headline = {
        "all_correct": all(r["answers_match_replay"] for r in rows),
        "parity_digests": sorted(digests),
        "digest_consistent": len(digests) == 1,
        "availability_k2": min(
            r["availability"] for r in avail_rows if r["replication"] >= 2
        ),
        "availability_k1": min(
            r["availability"] for r in avail_rows if r["replication"] == 1
        ),
        "zipf_imbalance_hash": imb["hash", "zipf"],
        "zipf_imbalance_range": imb["range", "zipf"],
        "flood_imbalance_hash": imb["hash", "flood"],
        "flood_imbalance_range": imb["range", "flood"],
        "skew_resistant": (
            imb["hash", "zipf"] < imb["range", "zipf"]
            and imb["hash", "flood"] < imb["range", "flood"]
        ),
    }
    return {
        "skew": skew_rows,
        "parity": parity_rows,
        "availability": avail_rows,
        "headline": headline,
        "gates": {
            "all_correct": headline["all_correct"],
            "digest_consistent": headline["digest_consistent"],
            "k2_fully_available": headline["availability_k2"] == 1.0,
            "skew_resistant": headline["skew_resistant"],
        },
    }
