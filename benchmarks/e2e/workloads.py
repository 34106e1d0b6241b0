"""The four traffic mixes of the e2e benchmark and the stacks they drive.

Each :class:`Workload` turns a seed into :class:`Inputs` (an arrival
trace plus the resident key set) and builds the program under test from
those inputs alone — the program never sees the seed or the workload
name.  Arrivals are an open loop on the simulated clock (Poisson at a
fixed rate, latency timed from the arrival stamp); the host clock sees a
closed loop with one client, ``service.run(trace)``.

Sizes are what the driver's time cap allows: three measured repetitions
of (set-up + run) per invocation, about ten measured seconds on two
shared cores.  README.md records how they were chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Optional

import numpy as np

from repro.adapt import AdaptPolicy, ClusterAdaptiveController
from repro.bits import BitString
from repro.cluster import ClusterService, HashSharding, PIMCluster
from repro.cluster.plan import RackLoss, RackLossPlan
from repro.core import PIMTrie, PIMTrieConfig
from repro.obs import Tracer
from repro.pim import PIMSystem
from repro.serve import (
    EpochServer,
    Trace,
    make_trace,
    policy_from_name,
    trace_from_stream,
)
from repro.workloads import operation_stream, uniform_keys, zipf_prefix

LENGTH = 64
MAX_BATCH = 256
#: per-op host phases of the pipelined service model (simulated units)
PREP_TIME = 0.002
ASM_TIME = 0.0005
#: ``--smoke`` divides every size by this
SMOKE_DIVISOR = 4
#: The stored data belongs to the workload, not to the seed: every seed
#: drives different traffic (arrival times, op kinds, query keys, which
#: keys are deleted) over the same resident keys and the same sequence
#: of fresh insert keys, the way YCSB loads one dataset and varies the
#: request stream.  With the data drawn per seed, the handful of
#: repartition / HVM-rebuild events in a ten-second run differed so much
#: from seed to seed (``io_words_per_op`` spread 73 % on ordered_scan)
#: that no bound the driver accepts could hold.
DATASET_SEED = 20230617
#: share of the uniform workloads' deletes that name a resident key
DELETE_HIT_SHARE = 0.5

#: single-server stack: one EpochServer over one PIMTrie
SERVER_MODULES = 16
SERVER_POLICY = "deadline:20"
#: cluster stack: hash-sharded racks behind ClusterService
SHARDS, REPLICATION, RACK_MODULES, BLOCK_BOUND = 4, 2, 8, 256
CLUSTER_POLICY = "adaptive:100"
LOST_RACK = (1, 0)  # (shard, replica slot)


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives."""

    trace: Trace
    keys: list[BitString]
    values: list[str]


class Stack:
    """A built program: the service to drive plus read-only taps."""

    def __init__(
        self,
        service: Any,
        *,
        cluster: Optional[PIMCluster] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.service = service
        self.cluster = cluster
        #: ``repro.obs`` on a single server (a cluster's racks carry their own)
        self._tracer = tracer
        self._mark = cluster.mark() if cluster is not None else None

    def tracers(self) -> list[Tracer]:
        """The attached ``repro.obs`` tracers, one per PIM system."""
        if self.cluster is None:
            return [self._tracer] if self._tracer is not None else []
        racks = chain(self.cluster.iter_racks(), self.cluster.retired)
        return [r.tracer for r in racks if r.tracer is not None]

    def shard_imbalance(self) -> float:
        """max ÷ mean words moved per shard since the build (0: no cluster)."""
        if self.cluster is None:
            return 0.0
        traffic = self.cluster.shard_traffic(self._mark)
        mean = sum(traffic) / len(traffic)
        return max(traffic) / mean if mean > 0 else 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    resident: int
    n_ops: int
    rate: float
    mix: dict[str, float]
    #: latency limit for ``slo_attainment`` (simulated units), frozen at
    #: 1.5 × the first recorded p99, rounded up to a multiple of 10
    slo_limit: float
    cluster: bool = False

    def scaled(self, divisor: int) -> "Workload":
        return replace(
            self, resident=self.resident // divisor, n_ops=self.n_ops // divisor
        )

    # -- inputs ---------------------------------------------------------
    def generate(self, seed: int) -> Inputs:
        base = seed * 1_000_003
        if self.cluster:
            trace, keys = self._drifting_inputs(base)
        else:
            keys = sorted(set(uniform_keys(self.resident, LENGTH, seed=DATASET_SEED)))
            trace = make_trace(
                self.n_ops, length=LENGTH, mix=self.mix, rate=self.rate,
                skew="uniform", seed=base, name="e2e",
            )
            trace = _bind_writes(trace, keys, base + 700_001)
        return Inputs(trace, keys, [f"r{i}" for i in range(len(keys))])

    def _drifting_inputs(self, base: int) -> tuple[Trace, list[BitString]]:
        # the key sequence of workloads.drifting_zipf_stream (equal phases,
        # each a fresh Zipf choice over its own hot prefixes), drawn from
        # the dataset seed; the run seed draws kinds and arrival times
        phases, hot, theta = 4, 8, 1.2
        drift: list[BitString] = []
        for p in range(phases):
            m = self.n_ops // phases + (p < self.n_ops % phases)
            drift += zipf_prefix(
                m, LENGTH, num_hot=hot, theta=theta, seed=DATASET_SEED + 101 * p
            )
        stream = operation_stream(
            self.n_ops, LENGTH, mix=self.mix, rate=self.rate, kind_corr=0.9,
            seed=base, keys=drift,
        )
        trace = trace_from_stream(stream, seed=base, name="e2e")
        # half the resident keys sit under the stream's own hot prefixes,
        # so a phase's hot range is dense on few blocks — the layout the
        # adapt controller exists to dismantle.  Half of the stream's keys
        # are resident themselves (so about half of its inserts overwrite
        # and half of its deletes remove); the rest of the hot half are
        # fresh suffixes under prefixes drawn with the stream's own skew.
        rng = np.random.default_rng(DATASET_SEED)
        pool = list(dict.fromkeys(drift))
        rng.shuffle(pool)
        half = LENGTH // 2
        keys = pool[: min(self.resident, len(pool)) // 2]
        fresh = self.resident // 2 - len(keys)
        keys += [
            pool[d].prefix(half) + BitString(int(s), half)
            for d, s in zip(
                rng.integers(len(pool), size=fresh),
                rng.integers(1 << half, size=fresh),
            )
        ]
        keys += uniform_keys(self.resident - len(keys), LENGTH, seed=DATASET_SEED + 1)
        return trace, sorted(set(keys))

    # -- program --------------------------------------------------------
    def build(self, inputs: Inputs, *, traced: bool = False) -> Stack:
        if self.cluster:
            return self._build_cluster(inputs, traced)
        system = PIMSystem(SERVER_MODULES, seed=1)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=SERVER_MODULES),
            keys=inputs.keys, values=inputs.values,
        )
        server = EpochServer(
            trie, policy_from_name(SERVER_POLICY, max_batch=MAX_BATCH),
            pipelined=True, prep_time=PREP_TIME, asm_time=ASM_TIME,
        )
        return Stack(server, tracer=Tracer(system) if traced else None)

    def _build_cluster(self, inputs: Inputs, traced: bool) -> Stack:
        cluster = PIMCluster(
            HashSharding(SHARDS), replication=REPLICATION,
            modules_per_rack=RACK_MODULES, root_seed=1,
            config=PIMTrieConfig(
                num_modules=RACK_MODULES, block_bound=BLOCK_BOUND
            ),
            keys=inputs.keys, values=inputs.values, trace=traced,
        )
        # the BENCH_adapt policy (repro.adapt.bench._adapt_policy)
        adapt = ClusterAdaptiveController(
            cluster,
            AdaptPolicy(
                hot_fraction=0.10, cold_fraction=0.02, min_window=24.0,
                cooldown=1, max_replicas=2,
                split_bound=max(8, BLOCK_BOUND // 8),
                max_actions_per_epoch=4,
            ),
        )
        # one rack dies about a fifth of the way in (epochs hold ≈14 ops)
        loss = RackLoss(max(1, self.n_ops // 70), *LOST_RACK)
        service = ClusterService(
            cluster, policy_from_name(CLUSTER_POLICY, max_batch=MAX_BATCH),
            plan=RackLossPlan(losses=(loss,)), adapt=adapt,
            pipelined=True, prep_time=PREP_TIME, asm_time=ASM_TIME,
        )
        return Stack(service, cluster=cluster)


def _bind_writes(trace: Trace, keys: list[BitString], seed: int) -> Trace:
    """Point the uniform trace's writes at the dataset: the i-th insert
    adds the dataset's i-th fresh key, and a share of the deletes names a
    resident key (a uniform 64-bit draw never would)."""
    fresh = iter(uniform_keys(len(trace.ops), LENGTH, seed=DATASET_SEED + 1))
    rng = np.random.default_rng(seed)
    aimed = rng.random(len(trace.ops)) < DELETE_HIT_SHARE
    picks = rng.integers(len(keys), size=len(trace.ops))
    ops = []
    for i, op in enumerate(trace.ops):
        if op.kind == "insert":
            op = replace(op, key=next(fresh))
        elif op.kind == "delete" and aimed[i]:
            op = replace(op, key=keys[picks[i]])
        ops.append(op)
    return Trace(ops, name=trace.name, params=trace.params)


#: why each exists is recorded beside its name in BENCHMARK.json
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "read_point", resident=8192, n_ops=24000, rate=1.5,
            mix={"lcp": 0.90, "subtree": 0.10}, slo_limit=100.0,
        ),
        Workload(
            "write_churn", resident=1024, n_ops=1500, rate=0.25,
            mix={"insert": 0.45, "delete": 0.25, "lcp": 0.30},
            slo_limit=90.0,
        ),
        Workload(
            "ordered_scan", resident=1024, n_ops=12000, rate=1.0,
            mix={
                "pred": 0.25, "succ": 0.15, "range": 0.20, "count": 0.15,
                "topk": 0.10, "lcp": 0.10, "insert": 0.03, "delete": 0.02,
            },
            slo_limit=60.0,
        ),
        Workload(
            "cluster_drift", resident=4096, n_ops=1500, rate=1.0,
            mix={
                "lcp": 0.50, "insert": 0.12, "delete": 0.08,
                "subtree": 0.05, "pred": 0.08, "succ": 0.05,
                "range": 0.05, "count": 0.04, "topk": 0.03,
            },
            slo_limit=160.0, cluster=True,
        ),
    )
}
