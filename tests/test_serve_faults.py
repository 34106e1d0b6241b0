"""Property tests for serve-layer fault recovery.

The load-bearing property extends the serve equivalence guarantee to
faulted runs: under every scheduler policy, a run with crashes,
stragglers, lossy transport, and transient errors — recovered and
retried by the server — completes every operation with exactly the
answers of a faultless direct sequential replay.  Placement may differ
after rebuilds and metrics legitimately grow; answers never change.
"""

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import FaultPlan, StragglerSpec
from repro.perf import reset_id_counters
from repro.serve import (
    OP_FAILED,
    ContinuousBatchingScheduler,
    EpochServer,
    Operation,
    SchedulerPolicy,
    Trace,
    make_trace,
    policy_from_name,
    replay_direct,
)
from repro.workloads import uniform_keys

bs = BitString.from_str

P = 4
RESIDENT = 64
LENGTH = 32


def fresh_trie():
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    keys = uniform_keys(RESIDENT, LENGTH, seed=11)
    return PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys, values=keys)


def op(seq, time, kind, key, value=None):
    if isinstance(key, str):
        key = bs(key)
    return Operation(seq=seq, client_id=0, time=time, kind=kind,
                     key=key, value=value)


def normalize(reply):
    if isinstance(reply, list):
        return sorted((str(k), str(v)) for k, v in reply)
    return reply


FAULTY_PLAN = FaultPlan(
    crashes={1: 3, 3: 40},
    drop_replies={(12, m) for m in range(P)},
    drop_requests={(25, 0)},
    duplicate_replies={(30, 0)},
    transient_errors={(55, 2)},
    stragglers=(StragglerSpec(0, 3.0, 0, 30),),
)

POLICIES = [
    policy_from_name("eager"),
    policy_from_name("deadline:20"),
    policy_from_name("deadline:500"),
    policy_from_name("affinity"),
    policy_from_name("affinity:50"),
    policy_from_name("eager", max_batch=4),
    SchedulerPolicy("deg", max_batch=8, max_wait=20.0,
                    queue_capacity=64, degraded_capacity=8),
]


# ----------------------------------------------------------------------
class TestFaultedEquivalence:
    @pytest.mark.parametrize("seed", [3, 9])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_faulted_run_matches_faultless_replay(self, policy, seed):
        trace = make_trace(120, length=LENGTH, rate=1.0, seed=seed)
        trie = fresh_trie()
        trie.system.install_faults(FAULTY_PLAN)
        report = EpochServer(trie, policy).run(trace)

        served = {c.seq: c.reply for c in report.completed if c.ok}
        twin = fresh_trie()
        admitted = [o for o in trace.ops
                    if o.seq in {c.seq for c in report.completed}]
        direct = dict(replay_direct(twin, admitted))

        assert report.availability == 1.0  # recovery saved every op
        assert report.failed == 0
        assert set(served) == set(direct)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq
        # the plan really fired and the server really healed
        assert report.faults["crashes"] == 2
        assert report.faults["restarts"] == 2
        assert report.total_recovery_rounds > 0
        assert report.degraded_epochs > 0
        trie.validate()

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: p.name)
    def test_final_state_matches_faultless_twin(self, policy):
        trace = make_trace(120, length=LENGTH, rate=1.0, seed=5)
        trie = fresh_trie()
        trie.system.install_faults(FAULTY_PLAN)
        EpochServer(trie, policy).run(trace)
        twin = fresh_trie()
        replay_direct(twin, trace.ops)
        assert sorted(map(str, trie.keys())) == sorted(map(str, twin.keys()))


# ----------------------------------------------------------------------
class TestCrashBeforeAck:
    def write_round_count(self, key, value):
        """Injected rounds one single-key insert consumes (twin probe)."""
        trie = fresh_trie()
        inj = trie.system.install_faults(FaultPlan.empty())
        trie.insert_batch([key], [value])
        return inj.round_index + 1

    def test_insert_retried_exactly_once_no_duplicates(self):
        k = bs("1100110011001100")
        n = self.write_round_count(k, "v")
        # lose the commit round's reply on every module: the write lands
        # on the module, the ack does not — the canonical ambiguous case
        plan = FaultPlan(drop_replies={(n - 1, m) for m in range(P)})
        trie = fresh_trie()
        n0 = trie.num_keys()
        inj = trie.system.install_faults(plan)
        trace = Trace([op(0, 1.0, "insert", k, "v"),
                       op(1, 2.0, "lcp", k)], name="ack")
        report = EpochServer(trie, policy_from_name("eager")).run(trace)

        assert inj.stats.dropped_replies >= 1
        assert inj.stats.retries == 1  # retried exactly once
        assert trie.num_keys() == n0 + 1  # applied exactly once
        assert trie.lookup_batch([k]) == ["v"]
        replies = {c.seq: c.reply for c in report.completed}
        assert replies[0] is True and replies[1] == len(k)
        assert report.availability == 1.0
        trie.validate()

    def test_last_write_wins_across_faulted_retry(self):
        k = bs("1010101010101010")
        n = self.write_round_count(k, "v1")
        plan = FaultPlan(drop_replies={(n - 1, m) for m in range(P)})
        trie = fresh_trie()
        trie.system.install_faults(plan)
        trace = Trace([op(0, 1.0, "insert", k, "v1"),
                       op(1, 2.0, "insert", k, "v2")], name="lww")
        EpochServer(trie, policy_from_name("eager")).run(trace)
        assert trie.lookup_batch([k]) == ["v2"]

    def test_retry_exhaustion_fails_ops_but_heals(self):
        trie = fresh_trie()
        # abort every round the first op can ever reach
        trie.system.install_faults(FaultPlan(
            transient_errors={(r, m) for r in range(64) for m in range(P)}
        ))
        trace = Trace([op(0, 1.0, "lcp", "0101")], name="doom")
        report = EpochServer(
            trie, policy_from_name("eager"), max_retries=2
        ).run(trace)
        assert report.failed == 1
        assert report.availability == 0.0
        assert report.completed[0].reply is OP_FAILED
        assert not report.completed[0].ok
        assert repr(OP_FAILED) == "OP_FAILED"

    def test_exhausted_gathered_run_fails_exactly_its_ops(self):
        """A gathered read run that exhausts ``max_retries`` answers
        OP_FAILED at exactly its ops' positions; the epoch's other runs
        answer as the faultless replay does."""
        k = bs("1100110011001100")
        near = bs("1100110011001101")
        script = [
            ("insert", k, "v"), ("lcp", k, None), ("subtree", bs("1100"), None),
            ("lcp", near, None), ("delete", k, None), ("lcp", k, None),
        ]
        ops = [op(i, 1.0 + 0.1 * i, kind, key, value)
               for i, (kind, key, value) in enumerate(script)]
        # the insert run's rounds (twin probe); the gathered match run
        # (lcp ops 1 and 3, subtree op 2) starts right after them
        n = self.write_round_count(k, "v")
        retries = 2
        trie = fresh_trie()
        inj = trie.system.install_faults(FaultPlan(transient_errors={
            (r, m) for r in range(n, n + retries + 1) for m in range(P)
        }))
        report = EpochServer(
            trie, policy_from_name("deadline:50"), max_retries=retries
        ).run(Trace(ops, name="gathered-doom"))

        assert len(report.epochs) == 1
        assert report.epochs[0].kinds == (
            "insert", "match", "delete", "match"
        )
        assert inj.stats.transient_errors > 0
        replies = {c.seq: c.reply for c in report.completed}
        failed = {s for s, r in replies.items() if r is OP_FAILED}
        assert failed == {1, 2, 3} and report.failed == 3
        direct = dict(replay_direct(fresh_trie(), ops))
        for seq in set(replies) - failed:
            assert normalize(replies[seq]) == normalize(direct[seq]), seq
        assert replies[5] < len(k)  # the delete still ran after the failure
        trie.validate()

    def test_retried_match_run_answers_like_faultless(self):
        """A transient error inside a match run (LCP and subtree ops of
        one gap) aborts the shared matching; the retry answers every op
        of the run as the faultless run does."""
        k = bs("1100110011001100")
        script = [
            ("insert", k, "v"), ("lcp", k, None), ("subtree", bs("1100"), None),
            ("lcp", bs("0110"), None), ("subtree", bs("11"), None),
        ]
        ops = [op(i, 1.0 + 0.1 * i, kind, key, value)
               for i, (kind, key, value) in enumerate(script)]

        def serve(plan):
            trie = fresh_trie()
            inj = trie.system.install_faults(plan)
            report = EpochServer(
                trie, policy_from_name("deadline:50")
            ).run(Trace(ops, name="match-retry"))
            assert report.epochs[0].kinds == ("insert", "match")
            return report, inj, {c.seq: c.reply for c in report.completed}

        # the match run's first round aborts on every module
        n = self.write_round_count(k, "v")
        report, inj, faulted = serve(FaultPlan(
            transient_errors={(n, m) for m in range(P)}
        ))
        assert inj.stats.transient_errors > 0 and report.epochs[0].retries == 1
        assert report.failed == 0
        assert faulted == serve(FaultPlan.empty())[2]
        direct = dict(replay_direct(fresh_trie(), ops))
        assert {s: normalize(r) for s, r in faulted.items()} == {
            s: normalize(r) for s, r in direct.items()
        }


# ----------------------------------------------------------------------
class TestPipelinedFaults:
    """The equivalence guarantee survives pipelining × faults.

    Crashes land mid-overlap (an epoch's rounds abort while the next
    epoch's host prep may already have run against pre-crash state),
    stragglers stretch the module stage — and still: exactly-once
    replies, availability 1.0, answers equal to a faultless sequential
    replay.
    """

    #: crash early (epoch overlap is warming up) and late (steady
    #: state), with a straggler stretching the stage in between
    PLAN = FaultPlan(
        crashes={1: 3, 3: 40},
        stragglers=(StragglerSpec(0, 3.0, 0, 30),),
    )

    @pytest.mark.parametrize("seed", [3, 9])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_pipelined_faulted_matches_faultless_replay(self, policy, seed):
        from tests.harness import run_serve_differential

        trace = make_trace(120, length=LENGTH, rate=1.0, seed=seed)
        report, served, direct = run_serve_differential(
            trace, policy, make_index=fresh_trie, fault_plan=self.PLAN,
            pipelined=True, prep_time=0.1, asm_time=0.05,
        )
        assert report.availability == 1.0
        assert report.failed == 0
        # exactly-once: every admitted op answered exactly one time
        seqs = [c.seq for c in report.completed]
        assert len(seqs) == len(set(seqs))
        assert len(seqs) + report.dropped == len(trace)
        assert set(served) == set(direct)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq
        # the plan really fired on the pipelined path
        assert report.faults["crashes"] == 2
        assert report.total_recovery_rounds > 0

    def test_crash_mid_overlap_keeps_rounds_serialized(self):
        # an epoch that recovers a crash mutates the index: the next
        # epoch's rounds must still start after its rounds end
        trace = make_trace(120, length=LENGTH, rate=1.0, seed=3)
        trie = fresh_trie()
        trie.system.install_faults(self.PLAN)
        report = EpochServer(
            trie, policy_from_name("deadline:20"), pipelined=True,
            prep_time=0.1, asm_time=0.05,
        ).run(trace)
        assert report.degraded_epochs > 0
        # module rounds stay serialized through the recovery epochs
        for prev, cur in zip(report.epochs, report.epochs[1:]):
            assert cur.rounds_start >= prev.completion - prev.asm
        trie.validate()


@pytest.mark.slow
class TestPipelinedFaultsSlow:
    """Nightly profile: extended seeds for pipelined × faults parity."""

    @pytest.mark.parametrize("seed", list(range(10, 26)))
    def test_extended_pipelined_seeds(self, seed):
        from tests.harness import run_serve_differential

        trace = make_trace(120, length=LENGTH, rate=1.0, seed=seed)
        policy = policy_from_name("deadline:20")
        report, served, direct = run_serve_differential(
            trace, policy, make_index=fresh_trie,
            fault_plan=TestPipelinedFaults.PLAN,
            pipelined=True, prep_time=0.1, asm_time=0.05,
        )
        assert report.availability == 1.0
        assert set(served) == set(direct)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq


# ----------------------------------------------------------------------
class TestDegradedAdmission:
    def test_degraded_capacity_sheds_load(self):
        policy = SchedulerPolicy("t", max_batch=4, queue_capacity=8,
                                 degraded_capacity=2)
        s = ContinuousBatchingScheduler(policy)
        assert s.admit(op(0, 0.0, "lcp", "01"), degraded=True)
        assert s.admit(op(1, 0.1, "lcp", "10"), degraded=True)
        assert not s.admit(op(2, 0.2, "lcp", "11"), degraded=True)
        assert s.admit(op(3, 0.3, "lcp", "11"), degraded=False)
        assert len(s.dropped) == 1

    def test_degraded_capacity_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy("t", degraded_capacity=0)
        with pytest.raises(ValueError):
            SchedulerPolicy("t", max_batch=2, queue_capacity=4,
                            degraded_capacity=8)

    def test_describe_mentions_degraded_only_when_set(self):
        assert "degraded=2" in SchedulerPolicy(
            "t", max_batch=2, queue_capacity=4, degraded_capacity=2
        ).describe()
        assert "degraded" not in policy_from_name("eager").describe()

    def test_cli_constructed_policy_engages_degraded_admission(self):
        """Regression: ``policy_from_name`` accepted no degraded bound,
        so no CLI-reachable policy could ever shed load while healing.
        Now a spec-built policy under a crash plan must engage it.

        The crash is chosen to fire on a round that does *not* address
        the dying module: no abort fires, the module stays silently
        crashed through the rest of its epoch, and the next epoch's
        admissions run against a degraded server — exactly the window
        ``degraded_capacity`` exists for (a crash that aborts mid-round
        is healed by the retry loop before any further admission).
        """
        crash_round = 2
        addressed: dict[int, set] = {}
        degraded_admissions: list[int] = []

        def run(spec):
            trace = make_trace(120, length=LENGTH, rate=1.0, seed=3)
            trie = fresh_trie()
            inj = trie.system.install_faults(FaultPlan(crashes={0: crash_round}))
            real_begin = inj.begin_round

            def begin_round(modules):
                verdict = real_begin(modules)
                addressed.setdefault(inj.round_index, set(modules))
                return verdict

            inj.begin_round = begin_round
            policy = policy_from_name(spec, max_batch=64, queue_capacity=64)
            server = EpochServer(trie, policy)
            real_degraded = server.degraded

            def degraded_():
                healing = real_degraded()
                degraded_admissions[-1] += healing
                return healing

            server.degraded = degraded_
            degraded_admissions.append(0)
            return server.run(trace)

        degraded = run("eager@deg=1")
        # the premise: the crash round does not address the dying
        # module, and admissions then run against the degraded server
        assert 0 not in addressed[crash_round]
        assert degraded_admissions[-1] > 0
        plain = run("eager")
        # the tighter bound only applies while the server is healing —
        # so the crash plan is what makes these drops happen
        assert degraded.dropped > 0
        assert plain.dropped == 0
        assert "degraded=1" in degraded.policy
        assert degraded.availability == 1.0
        # and the surviving answers are still exact
        served = {c.seq: c.reply for c in degraded.completed if c.ok}
        twin = fresh_trie()
        trace = make_trace(120, length=LENGTH, rate=1.0, seed=3)
        direct = dict(replay_direct(
            twin, [o for o in trace.ops if o.seq in served]
        ))
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq


# ----------------------------------------------------------------------
class TestReportGating:
    def run(self, plan):
        trace = make_trace(60, length=LENGTH, rate=1.0, seed=4)
        trie = fresh_trie()
        if plan is not None:
            trie.system.install_faults(plan)
        return EpochServer(trie, policy_from_name("deadline:5")).run(trace)

    def test_fault_free_report_has_no_fault_keys(self):
        r = self.run(None)
        d = r.as_dict()
        assert "availability" not in d and "faults" not in d
        assert "faults:" not in r.format_summary()

    def test_empty_plan_report_identical_to_no_plan(self):
        import json

        a = self.run(None)
        b = self.run(FaultPlan.empty())
        # wall-clock fields vary run to run; everything simulated must
        # be byte-identical
        assert json.dumps(a.as_dict(include_wall=False), sort_keys=True) == \
            json.dumps(b.as_dict(include_wall=False), sort_keys=True)

    def test_faulted_report_surfaces_recovery(self):
        r = self.run(FAULTY_PLAN)
        d = r.as_dict()
        assert d["availability"] == 1.0
        assert d["faults"]["crashes"] == 2
        assert d["recovery_rounds"] == r.total_recovery_rounds > 0
        text = r.format_summary()
        assert "faults: availability 1.0000" in text
        assert "recovery rounds" in text
