"""Cluster-mode tests: differential parity against the dict oracle,
rack-loss failover, rebalancing, determinism, and per-rack span sums.

The cluster must be an *execution strategy*, never a semantic change:
every sharding policy, shard count, replication factor, and rack-loss
schedule (with K>=2) has to produce exactly the single-trie oracle's
answers.  The quick tier replays CLUSTER_SEEDS adversarial sequences
over both policies x shard counts {1, 2, 4, 8}; the slow tier extends
the seed range (nightly via ``pytest -m slow``).
"""

import pytest

from repro.cluster import (
    ClusterService,
    HashSharding,
    PIMCluster,
    ShardUnavailable,
    derive_rack_seed,
    rack_loss_schedule,
)
from repro.obs import root_metric_sums
from repro.perf import reset_id_counters
from repro.pim import MetricsSnapshot
from repro.serve.server import segments

from tests import harness

#: >= 8 seeds x both policies x shard counts {1,2,4,8} (tentpole gate)
CLUSTER_SEEDS = tuple(range(8))
SLOW_CLUSTER_SEEDS = tuple(range(8, 24))


def check_cluster_seeds(seeds, **target_kw):
    targets = harness.cluster_targets(**target_kw)
    for seed in seeds:
        ops = harness.gen_ops(seed)
        bad = harness.divergences(ops, targets=targets)
        if bad:
            small = harness.shrink(
                ops,
                lambda o: bool(harness.divergences(o, targets=targets)),
            )
            raise AssertionError(
                f"seed {seed} diverged:\n" + "\n".join(bad[:4])
                + "\nminimal repro:\n" + harness.format_ops(small)
                + "\n"
                + "\n".join(
                    harness.divergences(small, targets=targets)[:4]
                )
            )


# ----------------------------------------------------------------------
# differential parity (tentpole: answer-identical to the oracle)
# ----------------------------------------------------------------------
class TestClusterDifferential:
    @pytest.mark.parametrize("seed", CLUSTER_SEEDS)
    def test_all_policies_and_shard_counts_match_oracle(self, seed):
        check_cluster_seeds([seed])

    def test_replicated_cluster_matches_oracle(self):
        # K=2: every write lands on two racks, reads come from one
        check_cluster_seeds(
            CLUSTER_SEEDS[:3], shard_counts=(2, 4), replication=2
        )


@pytest.mark.slow
class TestClusterDifferentialSlow:
    @pytest.mark.parametrize("seed", SLOW_CLUSTER_SEEDS)
    def test_extended_seeds(self, seed):
        check_cluster_seeds([seed])

    @pytest.mark.parametrize("seed", SLOW_CLUSTER_SEEDS[:8])
    def test_extended_replicated(self, seed):
        check_cluster_seeds([seed], shard_counts=(2, 8), replication=2)


# ----------------------------------------------------------------------
# determinism (satellite: seeds from identity, answers from keys only)
# ----------------------------------------------------------------------
class TestClusterDeterminism:
    @pytest.mark.parametrize("seed", CLUSTER_SEEDS[:4])
    def test_answers_identical_across_shard_counts(self, seed):
        ops = harness.gen_ops(seed)
        runs = {
            (pol, s): harness.run_sequence(
                lambda: harness.make_cluster(pol, s), ops
            )
            for pol in harness.CLUSTER_POLICIES
            for s in harness.CLUSTER_SHARD_COUNTS
        }
        reference = runs[("hash", 1)]
        for key, replies in runs.items():
            assert replies == reference, f"{key} diverged from 1-shard"

    def test_rack_seeds_derive_from_identity_not_shard_order(self):
        # the seed of rack (shard, slot) must not depend on how many
        # shards exist or in which order racks were provisioned
        assert derive_rack_seed(7, 1, 0) == derive_rack_seed(7, 1, 0)
        small = PIMCluster(HashSharding(2), root_seed=7)
        large = PIMCluster(HashSharding(8), root_seed=7)
        for s in range(2):
            assert (
                small.racks[s][0].seed == large.racks[s][0].seed
                == derive_rack_seed(7, s, 0)
            )
        # distinct racks, distinct streams; replacements re-roll
        seeds = {
            derive_rack_seed(7, s, r, i)
            for s in range(4)
            for r in range(3)
            for i in range(2)
        }
        assert len(seeds) == 4 * 3 * 2

    def test_bench_summary_invariant_across_shard_counts(self):
        from repro.cluster.bench import PROFILES, row

        digests = {
            (pol, s): row(
                PROFILES["smoke"], 7, sharding=pol, shards=s, replication=1
            )["answers_digest"]
            for pol in ("hash", "range")
            for s in (1, 2, 4)
        }
        assert len(set(digests.values())) == 1, digests


# ----------------------------------------------------------------------
# failover, rebalancing, and loss semantics
# ----------------------------------------------------------------------
def _fresh_oracle_and_cluster(shards=4, replication=2, policy="hash"):
    oracle = harness.DictOracle()
    cluster = harness.make_cluster(policy, shards, replication)
    return oracle, cluster


class TestRackLoss:
    @pytest.mark.parametrize("policy", ["hash", "range"])
    def test_failover_and_rebuild_keep_oracle_parity(self, policy):
        # kill racks between batches: primary first, then (after the
        # heal) the survivor — the final answers come entirely from
        # replacement racks rebuilt off the replica log
        ops = harness.gen_ops(3, batches=10)
        oracle, cluster = _fresh_oracle_and_cluster(policy=policy)
        for i, (kind, payload) in enumerate(ops):
            want = harness.apply_batch(oracle, kind, payload)
            got = harness.apply_batch(cluster, kind, payload)
            if got is not None:
                assert got == want, f"batch {i} ({kind})"
            if i == 2:
                cluster.fail_rack(0, 0)
            elif i == 4:
                assert cluster.rebalance() >= 0
                cluster.fail_rack(0, 1)  # the original survivor
            elif i == 6:
                cluster.rebalance()
        cluster.validate()
        incarnations = {r.incarnation for r in cluster.racks[0]}
        assert incarnations == {1}, "both slots must be replacements"

    def test_lost_shard_raises_shard_unavailable(self):
        _, cluster = _fresh_oracle_and_cluster(shards=2, replication=1)
        keys = [harness._rand_key(__import__("random").Random(5))
                for _ in range(8)]
        cluster.insert_batch(keys, [str(k) for k in keys])
        dead = cluster.policy.home(keys[0])
        cluster.fail_rack(dead, 0)
        assert dead in cluster.lost_shards
        with pytest.raises(ShardUnavailable):
            cluster.lookup_batch([keys[0]])
        # LCP broadcasts, so it needs the lost shard too
        with pytest.raises(ShardUnavailable):
            cluster.lcp_batch([keys[0]])
        # a no-survivor shard is not rebuilt from nothing
        assert cluster.rebalance() == 0
        assert not cluster.alive_racks(dead)

    @pytest.mark.parametrize("kind", ["insert", "delete"])
    def test_refused_write_changes_no_live_shard(self, kind):
        """The router refuses a batch that needs a lost shard before any
        rack runs, so the live shard's keys stay as they were."""
        import random

        _, cluster = _fresh_oracle_and_cluster(shards=2, replication=1)
        rng = random.Random(5)
        resident = [harness._rand_key(rng) for _ in range(24)]
        cluster.insert_batch(resident, [str(k) for k in resident])
        fresh = [k for k in (harness._rand_key(rng) for _ in range(24))
                 if k not in resident]
        cluster.fail_rack(0, 0)
        batch = fresh if kind == "insert" else resident
        assert {cluster.policy.home(k) for k in batch} == {0, 1}
        live = cluster.racks[1][0].trie
        before = (live.num_keys(), live.replica_log_items())
        with pytest.raises(ShardUnavailable):
            if kind == "insert":
                cluster.insert_batch(batch, [str(k) for k in batch])
            else:
                cluster.delete_batch(batch)
        assert (live.num_keys(), live.replica_log_items()) == before

    def test_fail_rack_is_idempotent(self):
        _, cluster = _fresh_oracle_and_cluster(shards=2, replication=2)
        assert cluster.fail_rack(0, 0) is not None
        assert cluster.fail_rack(0, 0) is None
        assert len([e for e in cluster.events
                    if e["event"] == "rack-loss"]) == 1


# ----------------------------------------------------------------------
# serve wiring: per-shard epochs, mid-epoch loss, availability
# ----------------------------------------------------------------------
class TestClusterService:
    def _run(self, scenario, replication, shards=2, pipelined=False):
        from repro import PIMSystem, PIMTrie, PIMTrieConfig
        from repro.serve import make_trace, policy_from_name, replay_direct
        from repro.workloads import uniform_keys

        P, resident, n_ops, length = 4, 96, 80, 64
        keys = uniform_keys(resident, length, seed=8)
        trace = make_trace(n_ops, length=length, rate=0.25, seed=7)
        reset_id_counters()
        cluster = PIMCluster(
            HashSharding(shards), replication=replication,
            modules_per_rack=P, root_seed=3, keys=keys, values=keys,
        )
        plan = rack_loss_schedule(
            scenario, num_shards=shards, replication=replication
        )
        service = ClusterService(
            cluster, policy_from_name("deadline:20"), plan=plan,
            pipelined=pipelined,
            prep_time=0.2 if pipelined else 0.0,
            asm_time=0.05 if pipelined else 0.0,
        )
        report = service.run(trace)
        reset_id_counters()
        twin = PIMTrie(
            PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P),
            keys=keys, values=keys,
        )
        direct = dict(replay_direct(twin, trace.ops))
        served = {c.seq: c.reply for c in report.completed if c.ok}
        assert all(direct[s] == r for s, r in served.items()), scenario
        return report, cluster, trace

    @pytest.mark.parametrize(
        "scenario", ["none", "one-rack", "rolling", "shard-wipe"]
    )
    def test_k2_keeps_availability_at_one(self, scenario):
        report, cluster, _ = self._run(scenario, replication=2)
        assert report.availability == 1.0
        assert not cluster.lost_shards
        if scenario != "none":
            assert report.faults["rack_losses"] >= 1
            assert report.faults["rebuilds"] >= 1
            assert report.total_recovery_rounds > 0

    def test_k1_loss_drops_availability(self):
        report, cluster, trace = self._run("one-rack", replication=1)
        assert cluster.lost_shards == {0}
        assert 0 < report.availability < 1.0
        assert report.failed > 0
        # exactly the ops that need the lost shard fail: every failed op
        # routes there, and after the loss's epoch every op routing
        # there fails
        (loss,) = [e.index for e in report.epochs if e.causes]
        shards = ClusterService(cluster, None)._shards
        ops = {op.seq: op for op in trace.ops}
        for c in report.completed:
            needs_lost = 0 in shards(ops[c.seq])
            if not c.ok:
                assert needs_lost and c.epoch >= loss, c
            elif c.epoch > loss:
                assert not needs_lost, c
        # hash sharding broadcasts this trace's match runs, so they fail
        # whole, while write runs split op by op
        after = {
            (c.kind in ("lcp", "subtree"), c.ok)
            for c in report.completed if c.epoch > loss
        }
        assert {(True, False), (False, True), (False, False)} <= after

    def test_shard_wipe_replaces_every_original_rack(self):
        _, cluster, _ = self._run("shard-wipe", replication=2)
        assert {r.incarnation for r in cluster.racks[0]} == {1}

    @pytest.mark.parametrize(
        "scenario", ["none", "one-rack", "rolling"]
    )
    def test_pipelined_router_keeps_oracle_parity(self, scenario):
        """Pipelining the router host phases is an execution strategy:
        answers stay oracle-identical even while racks are being lost
        and rebuilt mid-overlap, and host prep genuinely overlaps the
        racks' module rounds."""
        report, _, _ = self._run(scenario, replication=2, pipelined=True)
        assert report.availability == 1.0
        assert report.pipelined
        assert report.host_overlap >= 0.0
        for prev, cur in zip(report.epochs, report.epochs[1:]):
            # racks' rounds never overlap: BSP rounds serialize even
            # though host prep of cur ran during prev's rounds
            assert cur.rounds_start >= prev.completion - prev.asm - 1e-9


# ----------------------------------------------------------------------
# one epoch loop: the cluster is an executor of EpochServer's loop
# ----------------------------------------------------------------------
def _schedule(report):
    """What the loop decided and what clients saw, per epoch / per op."""
    return (
        [
            (e.launch, e.completion, e.size, e.kinds, e.io_rounds, e.io_time)
            for e in report.epochs
        ],
        [(c.seq, c.reply, c.completion) for c in report.completed],
    )


class TestOneEpochLoop:
    P, ROOT_SEED, LENGTH = 4, 3, 64

    def _inputs(self):
        from repro.serve import make_trace
        from repro.workloads import uniform_keys

        keys = uniform_keys(96, self.LENGTH, seed=8)
        mix = {k: 1.0 for k in (
            "lcp", "insert", "delete", "subtree", "pred", "succ",
            "range", "count", "topk",
        )}
        # seed 4: eager and deadline:20 cut 3-6 epochs whose match run
        # holds both LCP and subtree reads, which the last assertion of
        # test_one_by_one_cluster_is_the_single_server needs
        trace = make_trace(
            240, length=self.LENGTH, rate=1.0, mix=mix, seed=4
        )
        return keys, trace

    def _timing(self, pipelined):
        return dict(
            pipelined=pipelined,
            prep_time=0.2 if pipelined else 0.0,
            asm_time=0.05 if pipelined else 0.0,
        )

    def _cluster_run(self, spec, pipelined):
        from repro.serve import policy_from_name

        keys, trace = self._inputs()
        reset_id_counters()
        cluster = PIMCluster(
            HashSharding(1), replication=1, modules_per_rack=self.P,
            root_seed=self.ROOT_SEED, keys=keys, values=keys,
        )
        service = ClusterService(
            cluster, policy_from_name(spec, max_batch=32),
            **self._timing(pipelined),
        )
        return service.run(trace)

    def _server_run(self, spec, pipelined):
        """An EpochServer over the trie a 1 x 1 cluster's rack holds."""
        from repro import PIMSystem, PIMTrie, PIMTrieConfig
        from repro.serve import EpochServer, policy_from_name

        keys, trace = self._inputs()
        reset_id_counters()
        trie = PIMTrie(
            PIMSystem(
                self.P, seed=derive_rack_seed(self.ROOT_SEED, 0, 0, 0)
            ),
            PIMTrieConfig(num_modules=self.P), keys=keys, values=keys,
        )
        return EpochServer(
            trie, policy_from_name(spec, max_batch=32),
            **self._timing(pipelined),
        ).run(trace)

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("spec", ["eager", "deadline:20", "affinity:10"])
    def test_one_by_one_cluster_is_the_single_server(self, spec, pipelined):
        """A 1 shard x 1 replica cluster and an EpochServer over the
        same-seeded trie cut the same epochs and stamp the same replies:
        they run one loop, only the executor differs."""
        clustered = self._cluster_run(spec, pipelined)
        single = self._server_run(spec, pipelined)
        _, trace = self._inputs()
        assert len(clustered.epochs) >= 8
        assert _schedule(clustered) == _schedule(single)
        # the epochs must hold a gap with both LCP and subtree reads, so
        # a cluster that matched them apart would run different rounds;
        # affinity cuts single-kind epochs, so only it holds none
        by_seq = {op.seq: op for op in trace.ops}
        epochs: dict[int, list] = {}  # epoch -> its batch, in order
        for c in single.completed:
            epochs.setdefault(c.epoch, []).append(by_seq[c.seq])
        mixed = any(
            {batch[i].kind for i in positions} == {"lcp", "subtree"}
            for batch in epochs.values()
            for kind, positions in segments(batch)
            if kind == "match"
        )
        assert mixed != spec.startswith("affinity")

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_adaptive_is_the_affinity_alias(self, pipelined):
        """``adaptive:<t>`` cuts epoch for epoch like ``affinity:<t/2>``,
        on the cluster and on the single server."""
        assert _schedule(self._cluster_run("adaptive:20", pipelined)) == \
            _schedule(self._cluster_run("affinity:10", pipelined))
        assert _schedule(self._server_run("adaptive:20", pipelined)) == \
            _schedule(self._server_run("affinity:10", pipelined))


# ----------------------------------------------------------------------
# observability: shard-tagged spans, per-rack span-sum exactness
# ----------------------------------------------------------------------
class TestClusterObservability:
    def test_per_rack_span_sums_and_shard_tags(self):
        import random

        rng = random.Random(11)
        keys = [harness._rand_key(rng) for _ in range(24)]
        reset_id_counters()
        cluster = PIMCluster(
            HashSharding(2), replication=2, modules_per_rack=2,
            root_seed=5, keys=keys, values=[str(k) for k in keys],
            trace=True,
        )
        cluster.lcp_batch(keys[:8])
        cluster.insert_batch(keys[:4], ["x"] * 4)
        cluster.subtree_batch([k.prefix(2) for k in keys[:3]])
        cluster.fail_rack(0, 0)
        cluster.delete_batch(keys[:6])
        cluster.rebalance()
        cluster.lcp_batch(keys[:8])

        racks = list(cluster.iter_racks()) + cluster.retired
        assert any(r.incarnation == 1 for r in racks)
        for rack in racks:
            snap = rack.system.snapshot()
            want = {
                "io_rounds": snap.io_rounds,
                "io_time": snap.io_time,
                "words": snap.total_communication,
                "pim_time": snap.pim_time,
                "cpu_work": snap.cpu_work,
            }
            got = root_metric_sums(rack.tracer.spans)
            assert got == want, f"span sums diverge on {rack!r}"
            # every span carries the rack's identity tags
            for span in rack.tracer.spans:
                assert span.args["shard"] == rack.shard
                assert span.args["replica"] == rack.slot
                assert span.args["incarnation"] == rack.incarnation
        rebuilt = [r for r in racks if r.incarnation == 1]
        assert any(
            s.name == "rack.rebuild" and s.cat == "recovery"
            for r in rebuilt
            for s in r.tracer.spans
        )

    def test_cluster_delta_merges_rack_deltas(self):
        reset_id_counters()
        cluster = PIMCluster(
            HashSharding(2), replication=1, modules_per_rack=2,
            root_seed=5,
        )
        import random

        rng = random.Random(3)
        keys = [harness._rand_key(rng) for _ in range(12)]
        mark = cluster.mark()
        cluster.insert_batch(keys, [str(k) for k in keys])
        merged = cluster.delta(mark)
        per_rack = cluster.delta_by_rack(mark)
        assert merged == MetricsSnapshot.merge(
            *(per_rack[u] for u in sorted(per_rack))
        )
        assert merged.io_rounds == sum(
            d.io_rounds for d in per_rack.values()
        )
        assert len(merged.per_module_traffic) == 2 * 2  # racks x modules
        assert sum(cluster.shard_traffic(mark)) == (
            merged.total_communication
        )


# ----------------------------------------------------------------------
# ordered reads: cross-shard range stitching (regression)
# ----------------------------------------------------------------------
class TestCrossShardRangeStitching:
    """A range that straddles a shard boundary under the prefix-range
    policy must come back globally key-ordered and honor ``limit``
    exactly — the fan-in merges per-shard runs by key instead of
    concatenating them in shard order.
    """

    def _boundary_cluster(self):
        from repro.cluster import RangeSharding
        from repro import BitString

        reset_id_counters()
        # separator at 10000000: shard 0 holds keys below, shard 1 above
        pol = RangeSharding(2, [BitString(0x80, 8)])
        cluster = PIMCluster(
            pol, replication=1, modules_per_rack=harness.CLUSTER_P_RACK,
            root_seed=1,
        )
        # interleave around the boundary so a shard-order concat would
        # be out of order: lows on shard 0, highs on shard 1
        keys = [BitString(v, 8) for v in
                (0x10, 0x42, 0x7E, 0x7F, 0x81, 0x90, 0xC3, 0xF0)]
        cluster.insert_batch(keys, [f"v{v:02x}" for v in
                                    (0x10, 0x42, 0x7E, 0x7F, 0x81, 0x90,
                                     0xC3, 0xF0)])
        assert cluster.policy.home(keys[0]) != cluster.policy.home(keys[-1])
        return cluster, sorted(keys)

    def test_straddling_range_is_globally_ordered(self):
        from repro import BitString

        cluster, keys = self._boundary_cluster()
        lo, hi = BitString(0x40, 8), BitString(0xD0, 8)
        want = [k for k in keys if lo <= k <= hi]
        got = cluster.range_batch([(lo, hi)])[0]
        assert [k for k, _ in got] == want  # global key order, both shards

    @pytest.mark.parametrize("limit", (1, 2, 3, 4, 5))
    def test_straddling_range_honors_limit_exactly(self, limit):
        from repro import BitString

        cluster, keys = self._boundary_cluster()
        lo, hi = BitString(0x40, 8), BitString(0xD0, 8)
        want = [k for k in keys if lo <= k <= hi][:limit]
        got = cluster.range_batch([(lo, hi)], limit=limit)[0]
        # exactly min(limit, matches) items, the globally smallest ones —
        # NOT shard 1's keys ahead of shard 0's, NOT limit-per-shard
        assert [k for k, _ in got] == want

    def test_boundary_topk_merges_across_shards(self):
        from repro import BitString

        cluster, keys = self._boundary_cluster()
        # the 1-bit prefixes each straddle nothing, the empty-side
        # prefix 0b1 spans the separator side; top-k over prefix "1"
        p = BitString(1, 1)
        want = sorted(k for k in keys if k.starts_with(p))[:3]
        got = cluster.topk_batch([p], 3)[0]
        assert [k for k, _ in got] == want
