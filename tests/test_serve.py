"""Tests for the serve layer: scheduler policies, the epoch server, and
the server-vs-direct equivalence guarantee.

The load-bearing property: replaying any trace through
:class:`EpochServer` under *any* scheduler policy yields exactly the
per-op answers of applying the same ops to a ``PIMTrie`` directly in
arrival order — batching is an execution strategy, never a semantic
change.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.perf import reset_id_counters
from repro.serve import (
    ContinuousBatchingScheduler,
    EpochServer,
    Operation,
    SchedulerPolicy,
    Trace,
    latency_stats,
    make_trace,
    percentile,
    policy_from_name,
    replay_direct,
)
from repro.serve.server import MATCH_KINDS, WRITE_KINDS, segments
from repro.workloads import uniform_keys

P = 4
RESIDENT = 64
LENGTH = 32


def fresh_trie() -> PIMTrie:
    """A deterministic resident index (same bytes every call)."""
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    keys = uniform_keys(RESIDENT, LENGTH, seed=11)
    return PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys, values=keys)


def op(seq, time, kind, key, value=None):
    from repro.bits import BitString

    if isinstance(key, str):
        key = BitString.from_str(key)
    return Operation(seq=seq, client_id=0, time=time, kind=kind,
                     key=key, value=value)


# ----------------------------------------------------------------------
class TestPolicy:
    def test_parse_eager(self):
        p = policy_from_name("eager")
        assert p.max_wait == 0 and not p.affinity

    def test_parse_deadline(self):
        assert policy_from_name("deadline:2.5").max_wait == 2.5
        assert policy_from_name("deadline").max_wait == 1.0

    def test_parse_affinity(self):
        p = policy_from_name("affinity:3")
        assert p.affinity and p.max_wait == 3.0
        assert policy_from_name("affinity").max_wait == 0.0

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            policy_from_name("eager:5")
        with pytest.raises(ValueError):
            policy_from_name("lifo")
        # non-finite specs fail at parse, naming the field — not
        # several epochs into a run
        with pytest.raises(ValueError, match="max_wait"):
            policy_from_name("deadline:nan")
        with pytest.raises(ValueError, match="max_wait"):
            policy_from_name("affinity:nan")
        with pytest.raises(ValueError, match="max_wait"):
            policy_from_name("adaptive:nan")  # the affinity alias
        assert policy_from_name("deadline:inf").max_wait == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy("x", max_batch=0)
        with pytest.raises(ValueError):
            SchedulerPolicy("x", max_wait=-1)
        with pytest.raises(ValueError, match="max_wait"):
            SchedulerPolicy("x", max_wait=float("nan"))
        with pytest.raises(ValueError):
            SchedulerPolicy("x", max_batch=8, queue_capacity=4)

    def test_describe_mentions_knobs(self):
        d = policy_from_name("deadline:7", queue_capacity=300).describe()
        assert "max_wait=7" in d and "capacity=300" in d

    def test_parse_adaptive(self):
        # an alias: adaptive:<t> is exactly the affinity:<t/2> policy
        assert policy_from_name("adaptive:80") == policy_from_name("affinity:40")
        assert policy_from_name("adaptive") == policy_from_name("affinity:25")
        assert policy_from_name("adaptive:0.3@deg=4", max_batch=8) == \
            policy_from_name("affinity:0.15@deg=4", max_batch=8)

    def test_adaptive_alias_validation(self):
        # the alias inherits the affinity checks on its halved deadline
        with pytest.raises(ValueError, match="max_wait"):
            policy_from_name("adaptive:-2")
        with pytest.raises(ValueError):
            policy_from_name("adaptive:x")
        with pytest.raises(ValueError):
            policy_from_name("adaptive:80@deg=0")
        assert policy_from_name("adaptive:inf") == \
            policy_from_name("affinity:inf")
        assert policy_from_name("adaptive:0").max_wait == 0.0

    def test_parse_degraded_suffix(self):
        p = policy_from_name("deadline:20@deg=8")
        assert p.max_wait == 20.0 and p.degraded_capacity == 8
        assert "degraded=8" in p.describe()

    def test_degraded_keyword_and_suffix_precedence(self):
        # the keyword is the programmatic route; the suffix wins if both
        assert policy_from_name("eager", degraded_capacity=6) \
            .degraded_capacity == 6
        assert policy_from_name("eager@deg=4", degraded_capacity=6) \
            .degraded_capacity == 4

    def test_degraded_suffix_errors(self):
        with pytest.raises(ValueError):
            policy_from_name("eager@deg")  # no value
        with pytest.raises(ValueError):
            policy_from_name("eager@cap=4")  # unknown key
        with pytest.raises(ValueError):
            policy_from_name("deadline:5@deg=0")  # must be >= 1
        with pytest.raises(ValueError):
            # degradation sheds load; it cannot add headroom
            policy_from_name("eager@deg=500", queue_capacity=300)

    @pytest.mark.parametrize("spec,want", [
        # spec: (max_wait, affinity, degraded_capacity)
        ("eager", (0.0, False, None)),
        ("deadline:2.5", (2.5, False, None)),
        ("deadline:0", (0.0, False, None)),
        ("affinity", (0.0, True, None)),
        ("affinity:3", (3.0, True, None)),
        ("affinity:0", (0.0, True, None)),
        ("adaptive:80", (40.0, True, None)),
        ("eager@deg=8", (0.0, False, 8)),
        ("deadline:20@deg=8", (20.0, False, 8)),
        ("affinity:3@deg=16", (3.0, True, 16)),
        ("adaptive:80@deg=8", (40.0, True, 8)),
    ])
    def test_spec_parses(self, spec, want):
        p = policy_from_name(spec, max_batch=64, queue_capacity=128)
        assert (p.max_wait, p.affinity, p.degraded_capacity) == want
        assert (p.max_batch, p.queue_capacity) == (64, 128)


class TestScheduler:
    def make(self, **kw):
        return ContinuousBatchingScheduler(SchedulerPolicy("t", **kw))

    def test_admission_drops_when_full(self):
        s = self.make(max_batch=2, queue_capacity=2)
        assert s.admit(op(0, 0.0, "lcp", "01"))
        assert s.admit(op(1, 0.1, "lcp", "10"))
        assert not s.admit(op(2, 0.2, "lcp", "11"))
        assert len(s.dropped) == 1 and s.admitted == 2

    def test_take_epoch_respects_causality(self):
        s = self.make()
        s.admit(op(0, 1.0, "lcp", "01"))
        s.admit(op(1, 5.0, "lcp", "10"))
        batch = s.take_epoch(2.0)
        assert [o.seq for o in batch] == [0]
        assert len(s) == 1  # the future op stays queued

    def test_take_epoch_caps_at_max_batch(self):
        s = self.make(max_batch=3)
        for i in range(5):
            s.admit(op(i, float(i), "lcp", "01"))
        assert [o.seq for o in s.take_epoch(10.0)] == [0, 1, 2]

    def test_affinity_takes_leading_run_only(self):
        s = self.make(affinity=True)
        for i, kind in enumerate(["lcp", "lcp", "insert", "lcp"]):
            s.admit(op(i, float(i), kind, "01", "v" if kind == "insert" else None))
        assert [o.seq for o in s.take_epoch(10.0)] == [0, 1]
        assert [o.seq for o in s.take_epoch(10.0)] == [2]

    def test_fill_arrival(self):
        s = self.make(max_batch=2)
        s.admit(op(0, 1.0, "lcp", "01"))
        assert not s.full()
        s.admit(op(1, 3.0, "lcp", "10"))
        assert s.full() and s.fill_arrival() == 3.0

    def test_affinity_run_stops_at_future_arrival(self):
        # the causality bound cuts a same-kind run short; the next cut
        # resumes it, and the kind switch still splits epochs
        s = self.make(affinity=True)
        for i, (t, kind) in enumerate([(1.0, "lcp"), (5.0, "lcp"),
                                       (6.0, "insert")]):
            s.admit(op(i, t, kind, "01", "v" if kind == "insert" else None))
        assert [o.seq for o in s.take_epoch(2.0)] == [0]
        assert [o.seq for o in s.take_epoch(10.0)] == [1]
        assert [o.seq for o in s.take_epoch(10.0)] == [2]
        assert s.take_epoch(10.0) == []


# ----------------------------------------------------------------------
def normalize(reply):
    """Subtree replies are key/value sets; order is not part of the API."""
    if isinstance(reply, list):
        return sorted((str(k), str(v)) for k, v in reply)
    return reply


POLICIES = [
    policy_from_name("eager"),
    policy_from_name("deadline:5"),
    policy_from_name("deadline:500"),  # one giant epoch per lull
    policy_from_name("affinity"),
    policy_from_name("affinity:50"),
    policy_from_name("eager", max_batch=4),  # forces mid-run epoch splits
    policy_from_name("deadline:50", max_batch=8, queue_capacity=8),
    policy_from_name("affinity:20"),
    policy_from_name("deadline:5@deg=8", max_batch=16, queue_capacity=32),
]

#: op kinds answered from the host-side ordered snapshot
ORDERED_KINDS = frozenset(("pred", "succ", "range", "count", "topk"))

#: an op mix with ordered reads, so pipelined runs cut ordered-read
#: epochs behind write epochs, not just read-only overlap
MIX_ORDERED = {
    "lcp": 0.4, "insert": 0.15, "delete": 0.05, "subtree": 0.1,
    "pred": 0.1, "range": 0.1, "count": 0.05, "topk": 0.05,
}


class TestEquivalence:
    @pytest.mark.parametrize("pipelined", [False, True],
                             ids=["sequential", "pipelined"])
    @pytest.mark.parametrize("seed", [3, 9])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_server_matches_direct_replay(self, policy, seed, pipelined):
        trace = make_trace(100, length=LENGTH, rate=2.0, seed=seed)
        server = EpochServer(
            fresh_trie(), policy, pipelined=pipelined,
            prep_time=0.05 if pipelined else 0.0,
            asm_time=0.02 if pipelined else 0.0,
        )
        report = server.run(trace)

        served = {c.seq: c.reply for c in report.completed}
        # replay only the ops the server admitted (a bounded queue may
        # legitimately reject some; semantics are defined over admitted ops)
        direct_trie = fresh_trie()
        admitted = [o for o in trace.ops if o.seq in served]
        direct = dict(replay_direct(direct_trie, admitted))

        assert set(served) == set(direct)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq
        assert len(served) + report.dropped == len(trace)

    @pytest.mark.parametrize(
        "policy",
        [p for p in POLICIES if p.queue_capacity is None],
        ids=lambda p: p.describe(),
    )
    def test_pipelined_matches_sequential_with_ordered_ops(self, policy):
        """Pipelined replies equal the sequential run's, op for op, on a
        trace whose ordered reads follow writes.

        Restricted to unbounded queues: pipelining legitimately shifts
        cut times, so a bounded queue may shed a *different* (equally
        valid) subset — those policies are covered against the direct
        replay above instead.
        """
        trace = make_trace(100, length=LENGTH, rate=2.0, seed=6,
                           mix=MIX_ORDERED)
        seq_report = EpochServer(
            fresh_trie(), policy, prep_time=0.1, asm_time=0.05
        ).run(trace)
        pip_report = EpochServer(
            fresh_trie(), policy, pipelined=True,
            prep_time=0.1, asm_time=0.05,
        ).run(trace)
        seq = {c.seq: c.reply for c in seq_report.completed}
        pip = {c.seq: c.reply for c in pip_report.completed}
        assert set(seq) == set(pip)
        for s in seq:
            assert normalize(seq[s]) == normalize(pip[s]), s

    def test_final_state_matches(self):
        trace = make_trace(100, length=LENGTH, rate=2.0, seed=5)
        server_trie = fresh_trie()
        EpochServer(server_trie, policy_from_name("deadline:5")).run(trace)
        direct_trie = fresh_trie()
        replay_direct(direct_trie, trace.ops)
        assert sorted(map(str, server_trie.keys())) == \
            sorted(map(str, direct_trie.keys()))
        assert server_trie.num_keys() == direct_trie.num_keys()
        server_trie.validate()

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_interleaved_insert_lcp_delete_lcp(self, policy):
        """The issue's canonical sequence, explicit and hand-checkable."""
        from repro.bits import BitString

        k = BitString.from_str("1011" * (LENGTH // 4))
        ops = [
            op(0, 1.0, "insert", k, "payload"),
            op(1, 2.0, "lcp", k),
            op(2, 3.0, "delete", k),
            op(3, 4.0, "lcp", k),
        ]
        report = EpochServer(fresh_trie(), policy).run(Trace(ops, name="ilil"))
        replies = {c.seq: c.reply for c in report.completed}
        assert replies[0] is True and replies[2] is True
        assert replies[1] == LENGTH  # sees its own insert
        assert replies[3] < LENGTH  # and then its deletion
        direct = dict(replay_direct(fresh_trie(), ops))
        assert {s: normalize(r) for s, r in replies.items()} == \
            {s: normalize(r) for s, r in direct.items()}


# ----------------------------------------------------------------------
KINDS = ("lcp", "subtree", "pred", "succ", "range", "count", "topk",
         "insert", "delete")


class TestReadGathering:
    """The run rule both executors share: reads commute, writes keep
    order."""

    @given(st.lists(st.sampled_from(KINDS), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_segments_rule(self, kinds):
        batch = [op(i, float(i), k, "01") for i, k in enumerate(kinds)]
        runs = segments(batch)

        def slot(kind):  # the run kind an op of ``kind`` joins
            return "match" if kind in MATCH_KINDS else kind

        # every position exactly once; a match run holds only LCP and
        # subtree ops, every other run one kind
        flat = [i for _, positions in runs for i in positions]
        assert sorted(flat) == list(range(len(batch)))
        for kind, positions in runs:
            assert positions and all(slot(kinds[i]) == kind
                                     for i in positions)
            if kind == "match":
                assert {kinds[i] for i in positions} <= {"lcp", "subtree"}
            else:
                assert kind not in MATCH_KINDS

        # writes keep arrival order; a write run is one consecutive
        # same-kind stretch of the batch
        writes = [i for k, positions in runs if k in WRITE_KINDS
                  for i in positions]
        assert writes == sorted(writes)
        for kind, positions in runs:
            if kind in WRITE_KINDS:
                lo, hi = positions[0], positions[-1]
                assert positions == list(range(lo, hi + 1))
                assert lo == 0 or kinds[lo - 1] != kind
                assert hi + 1 == len(kinds) or kinds[hi + 1] != kind

        def gap(i):  # writes that arrived before position i
            return sum(k in WRITE_KINDS for k in kinds[:i])

        # no read crosses a write: each read runs after exactly the
        # writes that arrived before it
        done = 0
        for kind, positions in runs:
            if kind in WRITE_KINDS:
                done += len(positions)
            else:
                assert all(gap(i) == done for i in positions)

        # each (gap between writes, read slot) pair is exactly one run:
        # LCP and subtree share the gap's one match run
        read_runs = [(gap(positions[0]), kind) for kind, positions in runs
                     if kind not in WRITE_KINDS]
        pairs = {(gap(i), slot(k)) for i, k in enumerate(kinds)
                 if k not in WRITE_KINDS}
        assert len(read_runs) == len(set(read_runs)) == len(pairs)
        assert set(read_runs) == pairs

    def test_runs_follow_first_appearance(self):
        kinds = ["lcp", "subtree", "lcp", "insert", "insert", "pred",
                 "lcp", "pred", "delete", "lcp"]
        batch = [op(i, float(i), k, "01") for i, k in enumerate(kinds)]
        assert segments(batch) == [
            ("match", [0, 1, 2]), ("insert", [3, 4]),
            ("pred", [5, 7]), ("match", [6]), ("delete", [8]),
            ("match", [9]),
        ]

    @pytest.mark.parametrize("pipelined", [False, True],
                             ids=["sequential", "pipelined"])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_interleaved_reads_match_direct_replay(self, policy, pipelined):
        """Reads of four kinds interleaved between inserts and deletes.

        ``k`` is inserted, read, deleted and read again; the deadline
        policies cut all of it as one epoch.  The reads before the
        delete must still see ``k`` although later reads of the same
        kinds follow them in the epoch.
        """
        from repro.bits import BitString

        k = BitString.from_str("1011" * (LENGTH // 4))
        near = BitString.from_str("1011" * (LENGTH // 4 - 1) + "1010")
        above = BitString.from_str("1011" * (LENGTH // 4 - 1) + "1100")
        hi = BitString.from_str("1" * LENGTH)
        pre = BitString.from_str("1011" * 3)
        script = [
            ("lcp", k, None), ("insert", k, "payload"),
            ("lcp", k, None), ("subtree", pre, None),
            ("pred", near, None), ("range", k, (hi, 4)),
            ("lcp", near, None), ("subtree", pre, None),
            ("pred", above, None), ("range", near, (hi, 4)),
            ("delete", k, None),
            ("range", near, (hi, 4)), ("lcp", k, None),
            ("pred", above, None), ("subtree", pre, None),
            ("lcp", near, None), ("insert", near, "other"),
            ("pred", hi, None), ("lcp", near, None),
            ("delete", near, None), ("subtree", pre, None),
        ]
        ops = [op(i, 1.0 + 0.1 * i, kind, key, value)
               for i, (kind, key, value) in enumerate(script)]
        report = EpochServer(
            fresh_trie(), policy, pipelined=pipelined,
            prep_time=0.05 if pipelined else 0.0,
            asm_time=0.02 if pipelined else 0.0,
        ).run(Trace(ops, name="gather"))
        served = {c.seq: c.reply for c in report.completed}
        # a bounded queue may shed ops; semantics are over admitted ops
        direct = dict(replay_direct(
            fresh_trie(), [o for o in ops if o.seq in served]
        ))

        assert report.failed == 0
        assert set(served) == set(direct)
        assert len(served) + report.dropped == len(ops)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq
        if report.dropped:
            return
        # the reads around the delete of k saw the right side of it
        assert served[2] == LENGTH and served[12] < LENGTH
        assert served[8] is not None and served[8][0] == k
        assert served[13] is None or served[13][0] != k


# ----------------------------------------------------------------------
class TestServerBehavior:
    def run_smoke(self, policy_spec="deadline:5", **kw):
        trace = make_trace(80, length=LENGTH, rate=1.0, seed=4)
        policy = policy_from_name(policy_spec, **kw)
        return EpochServer(fresh_trie(), policy).run(trace)

    def test_report_accounting(self):
        r = self.run_smoke()
        assert len(r.completed) == r.num_ops == 80
        assert r.dropped == 0
        assert sum(e.size for e in r.epochs) == 80
        assert r.makespan > 0 and r.throughput > 0

    def test_epochs_and_latencies_monotone(self):
        r = self.run_smoke()
        for prev, cur in zip(r.epochs, r.epochs[1:]):
            assert cur.launch >= prev.completion  # one server, no overlap
            assert cur.completion >= prev.completion
        for e in r.epochs:
            assert e.io_rounds > 0 and e.service > 0
        for c in r.completed:
            assert c.latency >= 0
            assert c.arrival <= c.launch < c.completion
            # an op waits at least through its own epoch's rounds
            assert c.latency_rounds >= r.epochs[c.epoch].io_rounds
            assert c.wall_seconds >= r.epochs[c.epoch].wall_seconds

    def test_metrics_sum_over_epochs(self):
        r = self.run_smoke()
        assert r.metrics.io_rounds == sum(e.io_rounds for e in r.epochs)
        assert r.metrics.total_communication == \
            sum(e.communication for e in r.epochs)

    def test_deadline_batches_more_than_eager(self):
        eager = self.run_smoke("eager")
        slow = self.run_smoke("deadline:100")
        assert len(slow.epochs) < len(eager.epochs)
        assert slow.rounds_per_op < eager.rounds_per_op
        assert slow.latency()["p99"] > eager.latency()["p99"]

    def test_bounded_queue_sheds_load(self):
        trace = make_trace(200, length=LENGTH, rate=50.0, seed=8)
        policy = policy_from_name("deadline:100", max_batch=16,
                                  queue_capacity=16)
        r = EpochServer(fresh_trie(), policy).run(trace)
        assert r.dropped > 0
        assert len(r.completed) + r.dropped == 200

    def test_as_dict_roundtrips_to_json(self):
        import json

        r = self.run_smoke()
        d = r.as_dict(include_wall=True, include_per_module=True)
        assert json.loads(json.dumps(d)) == d
        assert len(d["metrics"]["per_module_traffic"]) == P
        assert d["completed"] == 80

    def test_max_batch_is_a_report_field(self):
        # the policy's batch cap must reach the report as a real field
        # (not an `extra` side-channel) so occupancy uses the true cap
        r = self.run_smoke("deadline:50", max_batch=8)
        assert r.max_batch == 8
        assert "max_batch" not in r.extra
        expected = sum(e.size for e in r.epochs) / (len(r.epochs) * 8)
        assert r.occupancy() == pytest.approx(expected)
        assert 0.0 < r.occupancy() <= 1.0
        assert r.as_dict()["max_batch"] == 8

    def test_format_summary_deterministic_mode(self):
        r = self.run_smoke()
        text = r.format_summary(deterministic_only=True)
        assert "wall-clock" not in text
        assert "latency (rounds)" in text
        assert "wall-clock" in r.format_summary()

    def test_service_model_validation(self):
        with pytest.raises(ValueError):
            EpochServer(fresh_trie(), policy_from_name("eager"),
                        round_time=-1.0)
        with pytest.raises(ValueError):
            EpochServer(fresh_trie(), policy_from_name("eager"),
                        prep_time=-0.1)
        with pytest.raises(ValueError):
            EpochServer(fresh_trie(), policy_from_name("eager"),
                        asm_time=-0.1)


# ----------------------------------------------------------------------
class TestPipelined:
    def run_pair(self, *, mix=None, rate=4.0, n=120, seed=4,
                 policy_spec="deadline:5"):
        trace = make_trace(n, length=LENGTH, rate=rate, seed=seed, mix=mix)
        kw = dict(prep_time=0.2, asm_time=0.05)
        seq = EpochServer(
            fresh_trie(), policy_from_name(policy_spec), **kw
        ).run(trace)
        pip = EpochServer(
            fresh_trie(), policy_from_name(policy_spec), pipelined=True, **kw
        ).run(trace)
        return seq, pip

    def test_overlap_and_speedup_under_load(self):
        seq, pip = self.run_pair()
        assert seq.host_overlap == 0.0  # sequential never hides prep
        assert pip.host_overlap > 0.0
        assert pip.makespan <= seq.makespan

    def test_module_rounds_never_overlap(self):
        # the modules are one resource: epoch k+1's rounds start only
        # after epoch k's rounds ended (prep may overlap; rounds cannot)
        _, pip = self.run_pair()
        for prev, cur in zip(pip.epochs, pip.epochs[1:]):
            prev_rounds_end = prev.completion - prev.asm
            assert cur.rounds_start >= prev_rounds_end
            assert cur.rounds_start >= cur.launch + cur.prep

    def test_pipelined_launch_can_precede_prev_completion(self):
        seq, pip = self.run_pair()
        # sequential: strictly serial epochs
        assert all(
            cur.launch >= prev.completion
            for prev, cur in zip(seq.epochs, seq.epochs[1:])
        )
        # pipelined under load: some epoch was cut while the previous
        # one was still in its module rounds — the overlap is real
        assert any(
            cur.launch < prev.completion
            for prev, cur in zip(pip.epochs, pip.epochs[1:])
        )

    def test_ordered_reads_serialize_after_write_hazards(self):
        # round serialization's observable guarantee: an ordered read's
        # snapshot, built inside the rounds phase, materializes no
        # earlier than the rounds-end of every preceding mutating epoch
        # (when its writes became final)
        _, pip = self.run_pair(mix=MIX_ORDERED, seed=6)
        from repro.serve.server import WRITE_KINDS

        saw_ordered_after_write = False
        hazard = 0.0
        for e in pip.epochs:
            if any(k in ORDERED_KINDS for k in e.kinds):
                assert e.rounds_start >= hazard
                saw_ordered_after_write = saw_ordered_after_write or hazard > 0
            if any(k in WRITE_KINDS for k in e.kinds):
                hazard = e.completion - e.asm
        assert saw_ordered_after_write, \
            "trace never exercised the write→ordered-read hazard"

    def test_ordered_read_epoch_cut_during_write_rounds(self):
        # the host cuts as soon as it is free: with the queue backlogged,
        # an ordered-read epoch is cut while the preceding write epoch's
        # rounds still run — and its replies still equal the direct replay
        from repro.serve.server import WRITE_KINDS

        trace = make_trace(120, length=LENGTH, rate=50.0, seed=6,
                           mix=MIX_ORDERED)
        report = EpochServer(
            fresh_trie(), policy_from_name("eager", max_batch=8),
            pipelined=True, prep_time=0.2, asm_time=0.05,
        ).run(trace)

        overlapped = False
        last_write = None
        for e in report.epochs:
            if last_write is not None and set(e.kinds) & ORDERED_KINDS:
                rounds_end = last_write.completion - last_write.asm
                overlapped = overlapped or e.launch < rounds_end
            if set(e.kinds) & WRITE_KINDS:
                last_write = e
        assert overlapped, "no ordered-read epoch was cut during write rounds"

        served = {c.seq: c.reply for c in report.completed}
        direct = dict(replay_direct(fresh_trie(), trace.ops))
        assert set(served) == set(direct)
        for seq in served:
            assert normalize(served[seq]) == normalize(direct[seq]), seq

    def test_report_pipeline_fields(self):
        seq, pip = self.run_pair()
        d = pip.as_dict()
        assert d["pipelined"] is True
        assert d["prep_time"] == 0.2 and d["asm_time"] == 0.05
        assert d["host_overlap"] == pip.host_overlap
        assert "pipeline" in pip.format_summary()
        # zero-host-cost sequential reports keep their original bytes
        plain = EpochServer(
            fresh_trie(), policy_from_name("deadline:5")
        ).run(make_trace(40, length=LENGTH, rate=1.0, seed=4))
        assert "pipelined" not in plain.as_dict()


# ----------------------------------------------------------------------
class TestAdaptiveAlias:
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_report_equals_affinity(self, pipelined):
        """``adaptive:<t>`` serves byte for byte like ``affinity:<t/2>``:
        same replies, same epochs, same report."""
        trace = make_trace(300, length=LENGTH, rate=2.0, seed=5)
        timing = {"pipelined": pipelined, "prep_time": 0.1, "asm_time": 0.05}
        alias = EpochServer(
            fresh_trie(), policy_from_name("adaptive:30"), **timing
        ).run(trace)
        fixed = EpochServer(
            fresh_trie(), policy_from_name("affinity:15"), **timing
        ).run(trace)
        assert [c.reply for c in alias.completed] == \
            [c.reply for c in fixed.completed]
        assert [(e.launch, e.size, e.kinds) for e in alias.epochs] == \
            [(e.launch, e.size, e.kinds) for e in fixed.epochs]
        assert alias.as_dict(include_wall=False) == \
            fixed.as_dict(include_wall=False)
        assert alias.extra == {}


# ----------------------------------------------------------------------
class TestSLO:
    def test_percentile_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100
        assert percentile([7.0], 99) == 7.0
        assert percentile([], 50) == 0.0

    def test_latency_stats_fields(self):
        s = latency_stats([1.0, 2.0, 3.0, 4.0])
        assert s["p50"] == 2.0 and s["max"] == 4.0
        assert s["mean"] == pytest.approx(2.5)

    def test_percentile_rejects_invalid_q(self):
        for bad in (-1, -0.001, 100.001, 150, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0, 2.0], bad)
        # the boundaries themselves are legal
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0

    def test_percentile_matches_exact_reference(self):
        """Property test against the definition: nearest-rank picks the
        smallest rank r with r * 100 >= q * n, via exact integer
        cross-multiplication (no float division anywhere)."""
        import random

        from fractions import Fraction

        def reference(values, q):
            if not values:
                return 0.0
            s = sorted(values)
            n = len(s)
            qf = Fraction(str(q)) if isinstance(q, float) else Fraction(q)
            for r in range(1, n + 1):
                if r * 100 >= qf * n:
                    return s[max(r, 1) - 1]
            return s[-1]

        rng = random.Random(42)
        qs = [0, 1, 25, 50, 75, 90, 95, 99, 100,
              0.1, 33.3, 99.9, 99.99, 50.5]
        for _ in range(200):
            n = rng.randrange(1, 40)
            vals = [rng.uniform(-100, 100) for _ in range(n)]
            for q in qs:
                assert percentile(vals, q) == reference(vals, q), (vals, q)

    def test_percentile_no_float_artifacts(self):
        # 99.9% of 1000 samples is exactly rank 999; binary-float
        # evaluation of 1000 * 99.9 / 100 lands at 999.0000000000001,
        # whose ceiling (rank 1000) would read the wrong element
        vals = list(range(1, 1001))
        assert percentile(vals, 99.9) == 999
        # 29 * 70 / 100 = 20.3 -> rank 21, robust to representation
        assert percentile(list(range(1, 30)), 70) == 21


# ----------------------------------------------------------------------
class TestTrace:
    def test_make_trace_deterministic(self):
        a = make_trace(50, seed=2)
        b = make_trace(50, seed=2)
        assert [(o.time, o.kind, str(o.key), o.client_id) for o in a.ops] == \
            [(o.time, o.kind, str(o.key), o.client_id) for o in b.ops]

    def test_ops_sorted_and_sequenced(self):
        t = make_trace(50, seed=2)
        times = [o.time for o in t.ops]
        assert times == sorted(times)
        assert [o.seq for o in t.ops] == list(range(50))
        assert t.duration() == times[-1]

    def test_kind_counts_cover_all_ops(self):
        t = make_trace(60, seed=3)
        counts = Counter(o.kind for o in t.ops)
        assert sum(counts.values()) == 60
        # the default mix: LCP, insert, delete and subtree only
        assert set(counts) <= {"lcp", "insert", "delete", "subtree"}

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            op(0, 0.0, "scan", "01")

    def test_clients_bounded(self):
        t = make_trace(50, num_clients=4, seed=2)
        assert {o.client_id for o in t.ops} <= set(range(4))
        with pytest.raises(ValueError):
            make_trace(5, num_clients=0)


# ----------------------------------------------------------------------
class TestCLISmoke:
    def test_serve_smoke_byte_deterministic(self, capsys):
        from repro.cli import main

        assert main(["serve", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--smoke"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "latency (rounds)" in first
        assert "wall-clock" not in first
