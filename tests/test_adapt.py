"""Adaptive skew defense tests (repro.adapt): maintenance ops are
answer-preserving, the controller's actions are invisible to clients
(differential adapt-on == adapt-off == dict oracle over adversarial
sequences), adapt.* spans keep the span-sum invariant exact, recovery
works under faults, and the cluster roll-up merges per-rack sketches.
"""

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.adapt import (
    AdaptiveController,
    AdaptPolicy,
    ClusterAdaptiveController,
)
from repro.faults import FaultPlan
from repro.obs import Tracer, root_metric_sums
from repro.perf import reset_id_counters
from repro.serve import (
    EpochServer,
    policy_from_name,
    replay_direct,
    trace_from_stream,
)
from repro.workloads import flash_crowd_stream, uniform_keys, zipf_prefix

from .harness import DictOracle, apply_batch, gen_ops, make_cluster

P = 4
LENGTH = 32

#: trigger-happy policy so tiny test workloads exercise every action
EAGER = AdaptPolicy(
    hot_fraction=0.05,
    cold_fraction=0.02,
    min_window=4.0,
    cooldown=0,
    max_replicas=2,
    split_min_keys=2,
    max_actions_per_epoch=8,
)


def fresh_trie(n=96, block_bound=None, seed=5):
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    cfg = (
        PIMTrieConfig(num_modules=P, block_bound=block_bound)
        if block_bound
        else PIMTrieConfig(num_modules=P)
    )
    keys = zipf_prefix(n, LENGTH, 4, 1.3, seed=seed)
    keys = sorted(set(keys))
    return PIMTrie(system, cfg, keys=keys, values=[str(k) for k in keys]), keys


def hottest(trie):
    """The block holding the most keys."""
    return max(trie.blocks, key=lambda b: len(trie.blocks[b].items))


def replicated(trie):
    return sum(1 for entry in trie.blocks.values() if entry.replicas)


def snapshot_answers(trie, keys):
    probes = keys[::3] + uniform_keys(16, LENGTH, seed=77)
    return (
        list(trie.lcp_batch(probes)),
        list(trie.lookup_batch(probes)),
        [sorted((str(k), v) for k, v in items)
         for items in trie.subtree_batch([k.prefix(3) for k in keys[:4]])],
    )


# ----------------------------------------------------------------------
class TestMaintenanceOps:
    def test_split_preserves_answers_and_validates(self):
        trie, keys = fresh_trie(block_bound=128)
        before = snapshot_answers(trie, keys)
        hot = hottest(trie)
        made = trie.split_block(hot, bound=8)
        assert made > 0
        trie.validate()
        assert snapshot_answers(trie, keys) == before

    def test_replicate_then_dereplicate_roundtrip(self, monkeypatch):
        trie, keys = fresh_trie()
        before = snapshot_answers(trie, keys)
        bid = hottest(trie)
        primary = trie.blocks[bid].module
        # the copy goes beside neither the primary nor the root block,
        # which every LCP batch reads too
        busy = {primary, trie.blocks[trie.root_block_id].module}
        spare = next(m for m in range(P) if m not in busy)
        m = trie.replicate_block(bid, spare)
        assert m == spare
        assert trie.blocks[bid].replicas == [m]
        trie.validate()
        assert snapshot_answers(trie, keys) == before
        # a batch of the block's own keys loads both copies alike, so
        # the tie rotates: two batches read both copies
        hot = [trie.blocks[bid].root + rel for rel in trie.blocks[bid].items]
        reached = []
        real_round = trie.system.round

        def round_(kernel, requests, **kw):
            if kernel == "pimtrie.block":
                reached.extend(m for m, reqs in requests.items()
                               if any(r.block_id == bid for r in reqs))
            return real_round(kernel, requests, **kw)

        monkeypatch.setattr(trie.system, "round", round_)
        trie.lcp_batch(hot)
        trie.lcp_batch(hot)
        monkeypatch.undo()
        assert sorted(reached) == sorted([primary, m])
        assert trie.dereplicate_block(bid) == 1
        assert not trie.blocks[bid].replicas
        trie.validate()
        assert snapshot_answers(trie, keys) == before

    def test_writes_reach_replicas(self):
        trie, keys = fresh_trie()
        bid = hottest(trie)
        trie.replicate_block(bid)
        extra = uniform_keys(24, LENGTH, seed=91)
        trie.insert_batch(extra, [f"x{i}" for i in range(len(extra))])
        trie.delete_batch(keys[:10] + extra[:5])
        trie.validate()  # replica copies must equal the primary

    def test_merge_reverses_split(self):
        trie, keys = fresh_trie(block_bound=128)
        before = snapshot_answers(trie, keys)
        hot = hottest(trie)
        trie.split_block(hot, bound=8)
        assert trie.blocks[hot].children
        absorbed = trie.merge_block(hot)
        assert absorbed > 0
        trie.validate()
        assert snapshot_answers(trie, keys) == before

    def test_structural_ops_survive_rebuild_from_mirror(self):
        trie, keys = fresh_trie(block_bound=128)
        before = snapshot_answers(trie, keys)
        hot = hottest(trie)
        trie.split_block(hot, bound=8)
        other = hottest(trie)
        trie.replicate_block(other)
        trie.rebuild_from_mirror()
        trie.validate()
        assert not replicated(trie)  # rebuild drops the overlay
        assert snapshot_answers(trie, keys) == before


# ----------------------------------------------------------------------
class TestControllerLoop:
    def test_hot_blocks_get_defended_and_cold_ones_released(self):
        trie, keys = fresh_trie(n=160, block_bound=256)
        ctl = AdaptiveController(trie, EAGER)
        hot_keys = [k for k in keys if k.value >> (LENGTH - 2) == keys[0].value >> (LENGTH - 2)] or keys[:20]
        for _ in range(6):
            trie.lcp_batch(hot_keys * 2)
            ctl.step()
        assert ctl.counts["split"] + ctl.counts["replicate"] > 0
        trie.validate()
        replicated_at_peak = replicated(trie)
        # traffic shifts elsewhere: the old hot set's share collapses
        # and its defenses retire (shares are relative, so a pure stop
        # freezes them — only *displacement* makes a block cold)
        cold_probes = uniform_keys(60, LENGTH, seed=123)
        for _ in range(12):
            trie.lcp_batch(cold_probes * 3)
            ctl.step()
        assert (
            ctl.counts["dereplicate"] + ctl.counts["merge"] > 0
            or replicated(trie) < replicated_at_peak
        )
        trie.validate()

    def test_decisions_are_free_actions_are_accounted(self):
        trie, keys = fresh_trie()
        ctl = AdaptiveController(trie, AdaptPolicy(min_window=1e9))
        trie.lcp_batch(keys)
        before = trie.system.snapshot()
        ctl.step()  # window never reaches min_window => observe only
        delta = trie.system.snapshot().delta(before)
        assert delta.io_rounds == 0 and delta.io_time == 0

    def test_summary_counts_match_log(self):
        trie, keys = fresh_trie(n=160, block_bound=256)
        ctl = AdaptiveController(trie, EAGER)
        for _ in range(5):
            trie.lcp_batch(keys[:30] * 2)
            ctl.step()
        s = ctl.summary()
        for kind in ("split", "replicate", "dereplicate", "merge"):
            assert s[kind] == sum(1 for e in ctl.log if e[1] == kind)
        assert s["epochs"] == ctl.epoch


# ----------------------------------------------------------------------
class TestDifferentialAdapt:
    """The ISSUE's core promise: adversarial sequences replayed across
    adapt-on and adapt-off produce identical answers (and both match
    the dict oracle)."""

    SEEDS = (0, 1, 2, 5, 11, 17, 23, 31)

    @staticmethod
    def replay(ops, adaptive: bool):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=P))
        ctl = AdaptiveController(trie, EAGER) if adaptive else None
        replies = []
        for kind, payload in ops:
            replies.append(apply_batch(trie, kind, payload))
            if ctl is not None:
                ctl.step()  # controller acts between every client batch
        if ctl is not None:
            trie.validate()
        return replies, ctl

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adapt_on_equals_adapt_off_equals_oracle(self, seed):
        ops = gen_ops(seed, batches=10, batch_size=6)
        oracle = DictOracle()
        expected = [apply_batch(oracle, kind, p) for kind, p in ops]
        on, ctl = self.replay(ops, adaptive=True)
        off, _ = self.replay(ops, adaptive=False)
        assert on == off
        assert on == expected
        assert ctl.epoch == len(ops)

    def test_controller_really_acts_on_some_sequence(self):
        # guard against the suite passing vacuously: across the seeds,
        # at least one sequence must trigger structural actions
        acted = 0
        for seed in self.SEEDS:
            ops = gen_ops(seed, batches=10, batch_size=6)
            _, ctl = self.replay(ops, adaptive=True)
            acted += sum(ctl.counts.values())
        assert acted > 0


# ----------------------------------------------------------------------
class TestServeIntegration:
    def make_trace(self, n=220, seed=3):
        stream = flash_crowd_stream(
            n, LENGTH, num_crowds=2, crowd_fraction=0.9, rate=4.0, seed=seed
        )
        return trace_from_stream(stream, seed=seed, name="flash")

    def served_answers(self, adaptive: bool, tracer=False):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        tr = Tracer(system) if tracer else None
        keys = sorted(set(uniform_keys(80, LENGTH, seed=5)))
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P),
            keys=keys, values=[str(k) for k in keys],
        )
        ctl = AdaptiveController(trie, EAGER) if adaptive else None
        server = EpochServer(
            trie, policy_from_name("eager", max_batch=24), adapt=ctl
        )
        report = server.run(self.make_trace())
        return report, trie, tr

    def test_adapt_on_off_same_answers_and_extra_summary(self):
        rep_on, trie, _ = self.served_answers(True)
        rep_off, _, _ = self.served_answers(False)
        on = {c.seq: c.reply for c in rep_on.completed if c.ok}
        off = {c.seq: c.reply for c in rep_off.completed if c.ok}
        assert on == off
        trie.validate()
        assert "adapt" in rep_on.extra
        assert rep_on.extra["adapt"]["epochs"] == len(rep_on.epochs)
        assert "adapt" not in rep_off.extra

    def test_adapt_spans_present_and_span_sums_exact(self):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        tracer = Tracer(system)
        before = system.snapshot()
        keys = sorted(set(uniform_keys(80, LENGTH, seed=5)))
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P),
            keys=keys, values=[str(k) for k in keys],
        )
        ctl = AdaptiveController(trie, EAGER)
        EpochServer(
            trie, policy_from_name("eager", max_batch=24), adapt=ctl
        ).run(self.make_trace())
        delta = system.snapshot().delta(before)
        adapt_spans = [s for s in tracer.spans if s.cat == "adapt"]
        if sum(ctl.counts.values()):
            assert adapt_spans
            assert all(s.name.startswith("adapt.") for s in adapt_spans)
        # the invariant the obs layer enforces everywhere else: root
        # spans (including adapt.*) sum exactly to the measured delta
        assert root_metric_sums(tracer.spans) == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }

    def test_adapt_under_faults_still_matches_direct_replay(self):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = sorted(set(uniform_keys(80, LENGTH, seed=5)))
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P),
            keys=keys, values=[str(k) for k in keys],
        )
        trie.system.install_faults(FaultPlan(
            crashes={1: 3}, drop_replies={(12, m) for m in range(P)},
        ))
        ctl = AdaptiveController(trie, EAGER)
        trace = self.make_trace()
        report = EpochServer(
            trie, policy_from_name("eager", max_batch=24), adapt=ctl
        ).run(trace)
        assert report.failed == 0

        reset_id_counters()
        twin_sys = PIMSystem(P, seed=1)
        twin = PIMTrie(
            twin_sys, PIMTrieConfig(num_modules=P),
            keys=keys, values=[str(k) for k in keys],
        )
        direct = dict(replay_direct(twin, trace.ops))
        served = {c.seq: c.reply for c in report.completed if c.ok}
        assert served == {seq: direct[seq] for seq in served}
        trie.validate()


# ----------------------------------------------------------------------
class TestClusterAdapt:
    def test_per_rack_controllers_and_router_rollup(self):
        cluster = make_cluster("hash", 4)
        ctl = ClusterAdaptiveController(cluster, EAGER)
        keys = zipf_prefix(120, 24, 4, 1.3, seed=3)
        cluster.insert_batch(keys, [str(k) for k in keys])
        for _ in range(4):
            cluster.lcp_batch(keys[:40])
            s = ctl.step()
        assert s["racks"] == 4
        assert len(ctl._by_rack) == 4
        merged = ctl.router_sketch()
        assert merged is not None
        assert merged.total == pytest.approx(
            sum(c.sketch.total for c in ctl._by_rack.values())
        )
        # the router view dominates every rack's estimate (merge adds)
        probe = keys[0].prefix(8)
        for c in ctl._by_rack.values():
            assert merged.estimate(probe) >= c.sketch.estimate(probe)
        summary = ctl.summary()
        for kind in ("split", "replicate", "dereplicate", "merge"):
            assert summary[kind] == sum(
                c.counts[kind] for c in ctl._by_rack.values()
            )

    def test_step_actions_are_per_step_and_quiet_epochs_overlap(self):
        """``ClusterAdaptiveController.step`` reports the actions taken
        in *this* step, not the cumulative counters; and once adapt goes
        quiet, the ordered-read epoch after a read-only epoch is cut
        while that epoch's rounds still run."""
        from repro.cluster import ClusterService, HashSharding, PIMCluster
        from repro.serve.server import WRITE_KINDS

        acted: list[int] = []

        class Recording(ClusterAdaptiveController):
            def step(self):
                stats = super().step()
                acted.append(stats["actions"])
                return stats

        reset_id_counters()
        keys = sorted(set(uniform_keys(80, LENGTH, seed=5)))
        cluster = PIMCluster(
            HashSharding(2), modules_per_rack=P, root_seed=1,
            keys=keys, values=keys,
        )
        # backlogged read-only traffic: every cut happens the moment the
        # loop is ready, so any wait shows up as a later launch
        stream = flash_crowd_stream(
            240, LENGTH, num_crowds=1, crowd_fraction=0.9, rate=4.0,
            mix={"lcp": 0.7, "pred": 0.3}, seed=3,
        )
        ctl = Recording(cluster, EAGER)
        report = ClusterService(
            cluster, policy_from_name("eager", max_batch=8), adapt=ctl,
            pipelined=True, prep_time=0.05, asm_time=0.01,
        ).run(trace_from_stream(stream, seed=3, name="flash"))

        summary = ctl.summary()
        assert sum(acted) == sum(
            summary[k] for k in ("split", "replicate", "dereplicate", "merge")
        ) > 0
        first = next(i for i, a in enumerate(acted) if a)
        quiet_pairs = [
            (prev, cur)
            for i, (prev, cur) in enumerate(zip(report.epochs, report.epochs[1:]))
            if i > first and not acted[i]
            and not set(prev.kinds) & WRITE_KINDS
            and "pred" in cur.kinds  # the stream's one ordered kind
        ]
        assert quiet_pairs
        # cur was cut before prev's rounds ended
        assert any(
            cur.launch < prev.completion - prev.asm - 1e-9
            for prev, cur in quiet_pairs
        )

    def test_cluster_adapt_preserves_oracle_answers(self):
        cluster = make_cluster("hash", 2)
        ctl = ClusterAdaptiveController(cluster, EAGER)
        ops = gen_ops(7, batches=8, batch_size=5)
        oracle = DictOracle()
        for kind, payload in ops:
            got = apply_batch(cluster, kind, payload)
            expected = apply_batch(oracle, kind, payload)
            assert got == expected, kind
            ctl.step()

    def test_dead_racks_are_skipped(self):
        cluster = make_cluster("hash", 2, replication=2)
        ctl = ClusterAdaptiveController(cluster, EAGER)
        keys = uniform_keys(40, 24, seed=4)
        cluster.insert_batch(keys, [str(k) for k in keys])
        ctl.step()
        racks = [r for r in cluster.iter_racks()]
        cluster.fail_rack(racks[0].shard, racks[0].slot)
        s = ctl.step()
        assert s["racks"] == sum(1 for r in cluster.iter_racks() if r.alive)
