"""Unit tests for the fault layer: plans, the injector's per-round
semantics and accounting, and the recovery protocol on a PIMTrie."""

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    RoundAborted,
    StragglerSpec,
    recover,
    run_with_recovery,
)
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys

bs = BitString.from_str


def echo(ctx, reqs):
    ctx.tick(len(reqs))
    return list(reqs)


def fresh_trie(P=4, n=48, length=32, seed=11):
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    keys = uniform_keys(n, length, seed=seed)
    trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys, values=keys)
    return system, trie, keys


def stored_count(system) -> int:
    """Keys stored over every module's block copies (module memory)."""
    return sum(
        blk.trie.num_keys
        for module in system.modules
        for blk in module.context.scratch.get("blocks", {}).values()
    )


def write_round(fn, *args) -> int:
    """Index, counted from the call, of the first round whose kernels
    change the stored key count while ``fn(*args)`` runs."""
    system = fn.__self__.system
    real_round = system.round
    changed: list[bool] = []

    def round_(kernel, requests):
        before = stored_count(system)
        out = real_round(kernel, requests)
        changed.append(stored_count(system) != before)
        return out

    system.round = round_
    try:
        fn(*args)
    finally:
        del system.round
    return changed.index(True)


# ----------------------------------------------------------------------
class TestPlan:
    def test_empty_and_is_empty(self):
        assert FaultPlan.empty().is_empty()
        assert not FaultPlan(crashes={0: 3}).is_empty()
        assert not FaultPlan(
            stragglers=(StragglerSpec(0, 2.0),)
        ).is_empty()

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes={-1: 0})
        with pytest.raises(ValueError):
            FaultPlan(crashes={0: -2})
        with pytest.raises(ValueError):
            FaultPlan(drop_replies={(-1, 0)})
        with pytest.raises(TypeError):
            FaultPlan(stragglers=({"module": 0, "factor": 2.0},))

    def test_straggler_spec_validation_and_window(self):
        with pytest.raises(ValueError):
            StragglerSpec(0, 0.5)
        with pytest.raises(ValueError):
            StragglerSpec(0, 2.0, start_round=5, end_round=3)
        s = StragglerSpec(1, 2.0, start_round=2, end_round=4)
        assert [s.active(r) for r in range(5)] == \
            [False, False, True, True, False]
        forever = StragglerSpec(1, 2.0, start_round=1)
        assert forever.active(10**6)

    def test_random_is_deterministic_and_keeps_a_survivor(self):
        a = FaultPlan.random(8, seed=42)
        b = FaultPlan.random(8, seed=42)
        assert a.as_dict() == b.as_dict()
        assert a.as_dict() != FaultPlan.random(8, seed=43).as_dict()
        dense = FaultPlan.random(4, seed=0, crash_rate=1.0)
        assert len(dense.crashes) <= 3  # at most P-1 modules crash

    def test_as_dict_is_json_friendly(self):
        import json

        plan = FaultPlan.random(4, seed=9)
        assert json.loads(json.dumps(plan.as_dict())) is not None


class TestStats:
    def test_round_trip(self):
        s = FaultStats(crashes=2, retries=5, rebuild_rounds=7)
        assert FaultStats.from_dict(s.as_dict()) == s

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown FaultStats"):
            FaultStats.from_dict({"crashes": 1, "meltdowns": 3})

    def test_any_faults(self):
        assert not FaultStats().any_faults()
        assert FaultStats(straggle_events=1).any_faults()


# ----------------------------------------------------------------------
class TestInjectorRounds:
    def test_crash_aborts_pre_kernel_and_charges_words_to(self):
        system = PIMSystem(2, seed=1)
        inj = system.install_faults(FaultPlan(crashes={0: 0}))
        before = system.snapshot()
        with pytest.raises(RoundAborted) as e:
            system.round(echo, {0: [1, 2], 1: [3]})
        assert e.value.cause == "crash" and not e.value.kernels_ran
        d = system.snapshot().delta(before)
        assert d.io_rounds == 1  # the failed round is on the books
        assert d.total_communication > 0  # host->module words crossed
        assert d.pim_work == 0  # but no kernel ever ran
        assert inj.crashed == {0}
        assert inj.stats.crashes == 1 and inj.stats.aborted_rounds == 1

    def test_crash_wipes_module_memory(self):
        system = PIMSystem(2, seed=1)
        system.modules[0].context.scratch["x"] = 1
        system.install_faults(FaultPlan(crashes={0: 0}))
        with pytest.raises(RoundAborted):
            system.round(echo, {0: [1]})
        assert system.modules[0].context.scratch == {}

    def test_transient_then_retry_succeeds(self):
        system = PIMSystem(2, seed=1)
        inj = system.install_faults(FaultPlan(transient_errors={(0, 0)}))
        with pytest.raises(RoundAborted) as e:
            system.round(echo, {0: [1]})
        assert e.value.cause == "transient"
        assert system.round(echo, {0: [1]}) == {0: [1]}  # round 1: clean
        assert inj.stats.transient_errors == 1

    def test_request_lost(self):
        system = PIMSystem(2, seed=1)
        inj = system.install_faults(FaultPlan(drop_requests={(0, 1)}))
        with pytest.raises(RoundAborted) as e:
            system.round(echo, {1: [1]})
        assert e.value.cause == "request_lost" and e.value.modules == (1,)
        assert inj.stats.dropped_requests == 1

    def test_reply_lost_is_post_kernel(self):
        system = PIMSystem(1, seed=1)
        inj = system.install_faults(FaultPlan(drop_replies={(0, 0)}))
        before = system.snapshot()
        with pytest.raises(RoundAborted) as e:
            system.round(echo, {0: [1, 2]})
        assert e.value.cause == "reply_lost" and e.value.kernels_ran
        d = system.snapshot().delta(before)
        assert d.pim_work > 0  # the kernel really ran (crash-before-ack)
        assert inj.stats.dropped_replies == 1

    def test_duplicate_reply_doubles_words_from(self):
        def run(plan):
            system = PIMSystem(1, seed=1)
            system.install_faults(plan)
            before = system.snapshot()
            system.round(echo, {0: [1, 2, 3]})
            return system.snapshot().delta(before)

        clean = run(FaultPlan.empty())
        duped = run(FaultPlan(duplicate_replies={(0, 0)}))
        # words_to identical; module->host reply words counted twice
        assert duped.total_communication == \
            clean.total_communication + clean.total_communication // 2

    def test_straggler_penalty_accrues_and_is_consumed(self):
        system = PIMSystem(2, seed=1)
        inj = system.install_faults(
            FaultPlan(stragglers=(StragglerSpec(0, 3.0, 0, 2),))
        )
        system.round(echo, {0: [1]})  # round 0: +2.0
        system.round(echo, {1: [1]})  # module 0 not addressed: no penalty
        system.round(echo, {0: [1]})  # round 2: window closed
        assert inj.take_straggle_penalty() == pytest.approx(2.0)
        assert inj.take_straggle_penalty() == 0.0
        assert inj.stats.straggle_events == 1

    def test_rounds_count_from_install_and_suspend_freezes_clock(self):
        system = PIMSystem(1, seed=1)
        system.round(echo, {0: [1]})  # pre-install rounds don't count
        inj = system.install_faults(FaultPlan.empty())
        assert inj.round_index == -1
        system.round(echo, {0: [1]})
        assert inj.round_index == 0
        with inj.suspended():
            system.round(echo, {0: [1]})
        assert inj.round_index == 0  # suspended rounds are off the clock

    def test_suspended_rounds_do_not_fire_events(self):
        system = PIMSystem(1, seed=1)
        inj = system.install_faults(FaultPlan(crashes={0: 0}))
        with inj.suspended():
            assert system.round(echo, {0: [7]}) == {0: [7]}
        assert inj.crashed == set()

    def test_clear_faults(self):
        system = PIMSystem(1, seed=1)
        system.install_faults(FaultPlan(crashes={0: 0}))
        system.clear_faults()
        assert system.round(echo, {0: [1]}) == {0: [1]}


# ----------------------------------------------------------------------
class TestSystemValidation:
    def test_bad_module_id_raises_before_any_kernel_runs(self):
        system = PIMSystem(2, seed=1)
        ran = []

        def spy(ctx, reqs):
            ran.append(reqs)
            return []

        before = system.snapshot()
        with pytest.raises(IndexError, match="module id 5"):
            system.round(spy, {0: [1], 5: [2]})
        assert ran == []  # no partial side effects
        assert system.snapshot().delta(before).io_rounds == 0

    def test_register_kernel_reload_error_names_kernel(self):
        system = PIMSystem(1, seed=1)
        system.register_kernel("k", echo)
        system.register_kernel("k", echo)  # same object: idempotent no-op
        with pytest.raises(ValueError, match="'k' already registered"):
            system.register_kernel("k", lambda ctx, reqs: [])


# ----------------------------------------------------------------------
class TestRecovery:
    def test_recover_is_a_noop_when_healthy(self):
        system, trie, _ = fresh_trie()
        system.install_faults(FaultPlan.empty())
        assert recover(trie) == 0
        assert system.faults.stats.recoveries == 0

    def test_crash_during_insert_then_full_recovery(self):
        system, trie, keys = fresh_trie()
        inj = system.install_faults(FaultPlan(crashes={1: 0}))
        extra = uniform_keys(8, 32, seed=99)
        out = run_with_recovery(
            trie, trie.insert_batch, extra, [str(k) for k in extra]
        )
        assert out == len(set(extra) - set(keys))
        assert inj.crashed == set()
        assert inj.stats.crashes == 1
        assert inj.stats.restarts == 1
        assert inj.stats.retries >= 1
        assert inj.stats.recoveries >= 1
        assert inj.stats.rebuild_rounds > 0
        trie.validate()
        assert trie.lookup_batch(extra) == [str(k) for k in extra]
        assert trie.lookup_batch(keys) == [k for k in keys]

    def test_reply_lost_retry_is_idempotent(self):
        system, trie, keys = fresh_trie()
        n0 = trie.num_keys()
        system.install_faults(FaultPlan(drop_replies={
            (0, m) for m in range(4)
        }))
        k = bs("1100110011001100")
        run_with_recovery(trie, trie.insert_batch, [k], ["v"])
        assert trie.num_keys() == n0 + 1  # applied exactly once
        assert trie.lookup_batch([k]) == ["v"]
        trie.validate()

    @pytest.mark.parametrize("m", range(4))
    def test_delete_whose_reply_is_lost_still_leaves_the_log(self, m):
        """Regression: the round that deletes the keys ran its kernels
        but lost a reply, so the retry's matching finds the keys gone.
        The retry must still drop them from the replica log, or
        ``validate()`` finds the log diverging from the block."""
        _, probe, keys = fresh_trie()
        rnd = write_round(probe.delete_batch, keys[:10])
        system, trie, keys = fresh_trie()
        inj = system.install_faults(FaultPlan(drop_replies={(rnd, m)}))
        run_with_recovery(trie, trie.delete_batch, keys[:10])
        assert inj.stats.dropped_replies == 1 and inj.stats.retries == 1
        system.clear_faults()
        trie.validate()
        assert sorted(trie.keys()) == sorted(set(keys) - set(keys[:10]))
        assert trie.lookup_batch(keys[:10]) == [None] * 10

    def test_dirty_structure_triggers_full_rebuild(self):
        system, trie, keys = fresh_trie()
        system.install_faults(FaultPlan.empty())
        trie._dirty_structure = True  # as an aborted maintenance leaves it
        rounds = recover(trie)
        assert rounds > 0
        assert not trie._dirty_structure
        trie.validate()
        assert sorted(map(str, trie.keys())) == sorted(map(str, keys))
        assert trie.lookup_batch(keys) == [k for k in keys]

    def test_state_lost_in_a_crash_faults_loudly_after_recovery(self):
        # recovery re-ships the trie's own state to a crashed module and
        # nothing else: a read of other state written there before the
        # crash raises KeyError, never silently finds it again
        system, trie, keys = fresh_trie()

        def writer(ctx, reqs):
            ctx.scratch["tenant"] = reqs[0]
            return []

        def reader(ctx, reqs):
            return [ctx.scratch["tenant"]]

        system.round(writer, {1: ["pre-crash"]})
        inj = system.install_faults(FaultPlan(crashes={1: 0}))
        with pytest.raises(RoundAborted):
            trie.lcp_batch(keys[:4])
        recover(trie)
        assert inj.crashed == set()
        trie.validate()  # module 1 holds the trie's state again
        with inj.suspended():
            with pytest.raises(KeyError, match="tenant"):
                system.round(reader, {1: [0]})
            system.round(writer, {1: ["post-crash"]})
            assert system.round(reader, {1: [0]})[1] == ["post-crash"]

    def test_run_with_recovery_exhausts_and_raises(self):
        system, trie, _ = fresh_trie()
        # a transient error on every round the op will ever try
        system.install_faults(FaultPlan(
            transient_errors={(r, m) for r in range(64) for m in range(4)}
        ))
        with pytest.raises(RoundAborted):
            run_with_recovery(trie, trie.lcp_batch, [bs("0101")],
                              max_retries=2)

    def test_random_plan_recovers_to_correct_state(self):
        plan = FaultPlan.random(4, seed=5, crash_rate=0.5, drop_rate=0.02,
                                transient_rate=0.02)
        system, trie, keys = fresh_trie()
        system.install_faults(plan)
        extra = uniform_keys(12, 32, seed=101)
        run_with_recovery(trie, trie.insert_batch, extra,
                          [str(k) for k in extra], max_retries=32)
        run_with_recovery(trie, trie.delete_batch, keys[:10], max_retries=32)
        system.clear_faults()
        trie.validate()
        expect = sorted(
            map(str, (set(keys) - set(keys[:10])) | set(extra))
        )
        assert sorted(map(str, trie.keys())) == expect
