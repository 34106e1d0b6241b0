"""The cluster benchmark (E17): sharding skew-resistance and
availability under rack loss.

Writes ``BENCH_cluster.json``.  Three sections, all driven through
:class:`ClusterService` with the same continuous-batching policy as
the serve and faults sweeps, each row checked against a direct
sequential replay on a single faultless trie
(``answers_match_replay``):

* **skew** — hash vs range sharding under uniform / Zipf / flood
  traffic: per-shard traffic and its max/mean imbalance.  Range
  sharding reproduces the range-partitioned baseline's failure mode at
  rack scale (the hot range serializes on one shard); hash stays flat;
* **parity** — both policies × shard counts {1, 2, 4, 8}: the answer
  digest must be identical for every shard count and policy (the
  cluster is an execution strategy, not a semantic change).  These
  digests are the determinism contract ``tests/test_cluster.py``
  re-checks;
* **availability** — shards × replication × rack-loss scenario
  (:func:`repro.cluster.plan.rack_loss_schedule` — definitions shared
  with ``BENCH_faults``): K>=2 must hold availability at 1.0 through
  every scenario, K=1 shows the floor (a lost shard takes its keys,
  and every broadcast read, down with it).

Every quantity reported is simulated (counts and simulated time
units), so the JSON is byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from ..core import PIMTrie, PIMTrieConfig
from ..perf import reset_id_counters
from ..pim import PIMSystem
from ..serve import answers_digest, make_trace, policy_from_name, replay_direct
from ..workloads import uniform_keys
from .cluster import PIMCluster
from .plan import RACK_LOSS_SCENARIOS, rack_loss_schedule
from .service import ClusterService
from .sharding import policy_from_name as sharding_from_name

__all__ = ["bench_cluster_run", "run_bench_cluster"]

FULL = {"P_rack": 4, "resident": 384, "n_ops": 256, "length": 64,
        "rate": 0.25}
SMOKE = {"P_rack": 4, "resident": 128, "n_ops": 96, "length": 64,
         "rate": 0.25}
POLICY = "deadline:20"


def bench_cluster_run(
    *,
    sharding: str,
    shards: int,
    replication: int,
    skew: str = "uniform",
    scenario: str = "none",
    P_rack: int,
    resident: int,
    n_ops: int,
    length: int,
    rate: float,
    seed: int = 7,
) -> dict[str, Any]:
    """One cluster configuration end to end; returns its JSON row."""
    keys = uniform_keys(resident, length, seed=seed + 1)
    trace = make_trace(
        n_ops, length=length, rate=rate, skew=skew, seed=seed,
        name=f"cluster-{skew}",
    )

    reset_id_counters()
    policy = sharding_from_name(sharding, shards, resident_keys=keys)
    cluster = PIMCluster(
        policy, replication=replication, modules_per_rack=P_rack,
        root_seed=seed, keys=keys, values=keys,
    )
    plan = rack_loss_schedule(
        scenario, num_shards=shards, replication=replication
    )
    service = ClusterService(
        cluster, policy_from_name(POLICY), plan=plan
    )
    mark = cluster.mark()
    report = service.run(trace)
    shard_traffic = cluster.shard_traffic(mark)
    mean = sum(shard_traffic) / len(shard_traffic) if shard_traffic else 0
    imbalance = max(shard_traffic) / mean if mean > 0 else 1.0

    # ground truth: the same trace applied sequentially to one trie
    reset_id_counters()
    twin = PIMTrie(
        PIMSystem(P_rack, seed=1), PIMTrieConfig(num_modules=P_rack),
        keys=keys, values=keys,
    )
    direct = dict(replay_direct(twin, trace.ops))
    served = {c.seq: c.reply for c in report.completed if c.ok}
    matches = all(direct[seq] == reply for seq, reply in served.items())

    lat = report.latency()
    return {
        "sharding": sharding,
        "shards": shards,
        "replication": replication,
        "skew": skew,
        "scenario": scenario,
        "plan": plan.as_dict(),
        "num_ops": report.num_ops,
        "completed": len(report.completed),
        "failed": report.failed,
        "availability": report.availability,
        "answers_match_replay": matches,
        "answers_digest": answers_digest(report),
        "rack_losses": report.faults.get("rack_losses", 0),
        "rebuilds": report.faults.get("rebuilds", 0),
        "lost_shards": sorted(cluster.lost_shards),
        "recovery_rounds": report.total_recovery_rounds,
        "degraded_epochs": report.degraded_epochs,
        "makespan": report.makespan,
        "latency": {k: lat[k] for k in ("p50", "p95", "p99", "max")},
        "io_rounds": report.metrics.io_rounds,
        "communication": report.metrics.total_communication,
        "shard_traffic": shard_traffic,
        "shard_imbalance": imbalance,
    }


def run_bench_cluster(
    out: Optional[str] = "BENCH_cluster.json",
    *,
    smoke: bool = False,
    seed: int = 7,
) -> dict[str, Any]:
    """The full sweep; writes ``out`` and returns the report dict."""
    cfg = dict(SMOKE if smoke else FULL)
    run = lambda **kw: bench_cluster_run(seed=seed, **cfg, **kw)  # noqa: E731

    skew_rows = [
        run(sharding=pol, shards=4, replication=1, skew=skew)
        for pol in ("hash", "range")
        for skew in ("uniform", "zipf", "flood")
    ]

    shard_counts = (1, 2) if smoke else (1, 2, 4, 8)
    parity_rows = [
        run(sharding=pol, shards=s, replication=1)
        for pol in ("hash", "range")
        for s in shard_counts
    ]

    scenarios = ("one-rack",) if smoke else tuple(
        s for s in RACK_LOSS_SCENARIOS if s != "none"
    )
    avail_shards = (2,) if smoke else (2, 4)
    avail_rows = [
        run(sharding="hash", shards=s, replication=k, scenario=sc)
        for s in avail_shards
        for k in (1, 2)
        for sc in scenarios
    ]

    rows = skew_rows + parity_rows + avail_rows
    digests = {r["answers_digest"] for r in parity_rows}

    def _imb(pol: str, skew: str) -> float:
        return next(
            r["shard_imbalance"]
            for r in skew_rows
            if r["sharding"] == pol and r["skew"] == skew
        )

    k2 = [r for r in avail_rows if r["replication"] >= 2]
    k1 = [r for r in avail_rows if r["replication"] == 1]
    headline = {
        "all_correct": all(r["answers_match_replay"] for r in rows),
        "parity_digests": sorted(digests),
        "digest_consistent": len(digests) == 1,
        "availability_k2": min(r["availability"] for r in k2),
        "availability_k1": min(r["availability"] for r in k1),
        "zipf_imbalance_hash": _imb("hash", "zipf"),
        "zipf_imbalance_range": _imb("range", "zipf"),
        "flood_imbalance_hash": _imb("hash", "flood"),
        "flood_imbalance_range": _imb("range", "flood"),
        "skew_resistant": (
            _imb("hash", "zipf") < _imb("range", "zipf")
            and _imb("hash", "flood") < _imb("range", "flood")
        ),
    }
    report = {
        "bench": "cluster",
        "profile": "smoke" if smoke else "full",
        "config": {**cfg, "policy": POLICY, "seed": seed},
        "skew": skew_rows,
        "parity": parity_rows,
        "availability": avail_rows,
        "headline": headline,
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True))
    return report
