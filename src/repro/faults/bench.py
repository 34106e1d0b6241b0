"""The fault-tolerance bench (E16): availability and latency under
crashes, stragglers, lossy transport, and whole-rack loss
(``python -m repro bench faults`` → ``BENCH_faults.json``).

Each scenario builds a fresh resident index and a seeded online trace,
installs a fault plan, replays the trace through the serve layer (which
recovers and retries), and records

* **correctness** — every completed op's reply is compared against a
  direct sequential replay of the same trace on a faultless twin
  (``answers_match_replay``, the ``all_correct`` gate);
* **availability** — fraction of ops answered (vs ``OP_FAILED``);
* **degradation** — degraded epochs, segment retries, recovery rounds,
  and the injector's raw event counters;
* **latency** — p50/p95/p99 in simulated units, so the tail cost of
  crash recovery and stragglers is visible next to the fault-free
  baseline scenario.

Scenario plans are expressed on injected-round indices (round 0 =
first round after install, i.e. the first online round — the resident
build is not subject to faults).  The ``rack-loss`` scenario steps up
a level: instead of killing modules inside one system it kills an
entire rack of a small replicated cluster (``repro.cluster``), using
the same ``one-rack`` schedule as the E17 cluster sweep — one scenario
definition, two benchmarks.
"""

from __future__ import annotations

from typing import Any

from ..perf import fresh_trie, replies_match, reset_id_counters, service_row
from ..serve import EpochServer, policy_from_name
from ..serve.trace import make_trace
from ..workloads import uniform_keys
from .plan import FaultPlan, StragglerSpec

__all__ = ["PROFILES", "SCENARIOS", "bench_scenario", "run"]

_BASE = {"length": 64, "rate": 0.25, "policy": "deadline:20"}
PROFILES = {
    "smoke": {"P": 8, "resident": 192, "n_ops": 160, **_BASE},
    "full": {"P": 16, "resident": 512, "n_ops": 512, **_BASE},
}


def _scenario_plan(name: str, P: int) -> FaultPlan:
    """The named fault schedule, scaled to ``P`` modules."""
    if name == "none":
        return FaultPlan.empty()
    if name == "crash":
        return FaultPlan(crashes={1: 5, P - 1: 40})
    if name == "straggler":
        return FaultPlan(
            stragglers=(
                StragglerSpec(module=0, factor=4.0, start_round=0, end_round=80),
                StragglerSpec(module=2 % P, factor=2.0, start_round=20,
                              end_round=120),
            )
        )
    if name == "crash+straggler":
        return FaultPlan(
            crashes={1: 5, P - 1: 40},
            stragglers=(
                StragglerSpec(module=0, factor=4.0, start_round=0, end_round=80),
            ),
        )
    if name == "lossy":
        return FaultPlan(
            drop_requests={(10, 0), (55, 1 % P)},
            drop_replies={(25, m) for m in range(P)},
            duplicate_replies={(35, 0), (35, 1 % P)},
            transient_errors={(70, 2 % P)},
        )
    raise ValueError(f"unknown fault scenario {name!r}")


#: shards / replication shape of the ``rack-loss`` scenario (module
#: crashes strike one system; this one kills an entire rack of a small
#: replicated cluster instead — the schedule itself comes from
#: ``repro.cluster.plan.rack_loss_schedule``, shared with E17)
RACK_LOSS_SHARDS = 2
RACK_LOSS_REPLICATION = 2

SCENARIOS = ("none", "crash", "straggler", "crash+straggler", "lossy",
             "rack-loss")


def bench_scenario(name: str, cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """Run one fault scenario; returns its JSON row.

    ``cfg["policy"]`` is any :func:`repro.serve.policy_from_name` spec —
    e.g. ``"deadline:20@deg=8"`` to exercise degraded-mode admission
    while the scenario's faults are live.
    """
    P = cfg["P"]
    keys = uniform_keys(cfg["resident"], cfg["length"], seed=seed + 1)
    trace = make_trace(
        cfg["n_ops"], length=cfg["length"], rate=cfg["rate"], seed=seed,
        name=f"faults-{name}",
    )
    policy = policy_from_name(cfg["policy"])
    if name == "rack-loss":
        # one rack of a 2-shard, K=2 cluster dies mid-epoch; reads fail
        # over and rebalancing rebuilds the slot from the survivor's log
        from ..cluster import (
            ClusterService,
            HashSharding,
            PIMCluster,
            rack_loss_schedule,
        )

        plan = rack_loss_schedule(
            "one-rack", num_shards=RACK_LOSS_SHARDS,
            replication=RACK_LOSS_REPLICATION,
        )
        reset_id_counters()
        cluster = PIMCluster(
            HashSharding(RACK_LOSS_SHARDS), replication=RACK_LOSS_REPLICATION,
            modules_per_rack=P, root_seed=seed, keys=keys, values=keys,
        )
        server = ClusterService(cluster, policy, plan=plan)
    else:
        plan = _scenario_plan(name, P)
        trie = fresh_trie(P, keys, keys)
        trie.system.install_faults(plan)
        server = EpochServer(trie, policy)
    report = server.run(trace)
    # ground truth: the same trace applied sequentially, fault-free
    matches = replies_match(fresh_trie(P, keys, keys), trace, report)
    return service_row(
        report, plan, matches,
        scenario=name,
        policy=report.policy,
        retries=report.total_retries,
        faults=dict(report.faults),
    )


def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """Every scenario, and the headline across them."""
    rows = [bench_scenario(name, cfg, seed) for name in SCENARIOS]
    baseline = next(r for r in rows if r["scenario"] == "none")
    headline = {
        "all_correct": all(r["answers_match_replay"] for r in rows),
        "min_availability": min(r["availability"] for r in rows),
        "baseline_p99": baseline["latency"]["p99"],
        "worst_p99": max(r["latency"]["p99"] for r in rows),
        "total_recovery_rounds": sum(r["recovery_rounds"] for r in rows),
    }
    return {
        "scenarios": rows,
        "headline": headline,
        "gates": {"all_correct": headline["all_correct"]},
    }
