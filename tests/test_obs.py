"""Trace-layer tests (repro.obs): disabled tracing is a true no-op,
span metric deltas are exact (they sum to the measured snapshot
deltas), and the Chrome export is schema-valid.
"""

import json

import pytest

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import FaultPlan
from repro.obs import (
    METRIC_FIELDS,
    Tracer,
    chrome_trace,
    format_rollup,
    maybe_span,
    rollup,
    root_metric_sums,
    validate_chrome_trace,
)
from repro.perf import reset_id_counters
from repro.serve import EpochServer, make_trace, policy_from_name
from repro.workloads import uniform_keys

P = 4


def run_workload(traced: bool):
    """A small mixed workload; returns (overall delta, tracer or None)."""
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    tracer = Tracer(system) if traced else None
    before = system.snapshot()
    keys = uniform_keys(64, 32, seed=5)
    trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys, values=keys)
    q = uniform_keys(32, 32, seed=6)
    trie.lcp_batch(q)
    trie.insert_batch(q[:16], [str(k) for k in q[:16]])
    trie.delete_batch(q[:8])
    trie.subtree_batch([k.prefix(4) for k in q[:4]])
    return system.snapshot().delta(before), tracer


class TestDisabledTracingIsANoOp:
    def test_snapshots_byte_identical(self):
        d_traced, _ = run_workload(traced=True)
        d_plain, _ = run_workload(traced=False)
        assert d_traced == d_plain  # frozen dataclass: full field equality
        assert d_traced.as_dict(include_per_module=True) == d_plain.as_dict(
            include_per_module=True
        )

    def test_obs_defaults_to_none(self):
        assert PIMSystem(2).obs is None

    def test_maybe_span_without_tracer_is_shared_null(self):
        system = PIMSystem(2)
        a = maybe_span(system, "x")
        b = maybe_span(system, "y", cat="op")
        assert a is b  # one shared nullcontext, no per-call allocation
        with a as sp:
            assert sp is None


class TestSpanDeltas:
    def test_root_spans_sum_exactly_to_overall_delta(self):
        delta, tracer = run_workload(traced=True)
        sums = root_metric_sums(tracer.spans)
        assert sums == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }

    def test_op_span_matches_measured_snapshot_delta(self):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(64, 32, seed=5)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system)
        before = system.snapshot()
        trie.lcp_batch(uniform_keys(32, 32, seed=6))
        delta = system.snapshot().delta(before)
        (op_span,) = [s for s in tracer.spans if s.cat == "op"]
        assert op_span.name == "op.lcp"
        assert op_span.metric_deltas() == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }

    def test_every_span_equals_sum_of_descendant_rounds(self):
        # the IO metrics of any enclosing span must be exactly the sum
        # of the round leaves below it — nothing counted twice or lost
        _, tracer = run_workload(traced=True)
        by_sid = {s.sid: s for s in tracer.spans}
        acc = {
            s.sid: dict.fromkeys(("io_rounds", "io_time", "words", "pim_time"), 0)
            for s in tracer.spans
        }
        for s in tracer.spans:
            if s.cat != "round":
                continue
            p = s.parent
            while p is not None:
                for f in acc[p]:
                    acc[p][f] += getattr(s, f)
                p = by_sid[p].parent
        checked = 0
        for s in tracer.spans:
            if s.cat == "round":
                continue
            for f in acc[s.sid]:
                assert getattr(s, f) == acc[s.sid][f], (s.name, f)
            checked += 1
        assert checked > 10  # ops, phases, and maintenance all present

    def test_rollup_self_metrics_sum_to_total(self):
        delta, tracer = run_workload(traced=True)
        rows = rollup(tracer)
        assert sum(r["self_io_rounds"] for r in rows) == delta.io_rounds
        assert sum(r["self_words"] for r in rows) == delta.total_communication
        assert "round:pimtrie.match" in format_rollup(rows)

    def test_end_out_of_order_raises(self):
        tracer = Tracer(PIMSystem(2))
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError, match="out of order"):
            tracer.end(outer)


class TestChromeExport:
    def test_schema_valid_and_json_serializable(self):
        _, tracer = run_workload(traced=True)
        doc = chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        parsed = json.loads(json.dumps(doc))
        events = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(tracer.spans)
        for ev in events:
            for f in METRIC_FIELDS:
                assert isinstance(ev["args"][f], int)

    def test_children_nest_within_parents_on_the_timeline(self):
        _, tracer = run_workload(traced=True)
        by_sid = {s.sid: s for s in tracer.spans}
        for s in tracer.spans:
            if s.parent is None:
                continue
            parent = by_sid[s.parent]
            assert s.t0 >= parent.t0 - 1e-9
            assert s.t0 + s.dur <= parent.t0 + parent.dur + 1e-9

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad = chrome_trace([])
        bad["traceEvents"].append(
            {"name": "x", "cat": "op", "ph": "X", "ts": -1, "dur": 0,
             "pid": 1, "tid": 0, "args": {}}
        )
        assert validate_chrome_trace(bad) != []


class TestServeAndRecoverySpans:
    def run_serve(self, traced: bool):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(96, 32, seed=7)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system) if traced else None
        system.install_faults(FaultPlan(crashes={1: 2}))
        server = EpochServer(trie, policy_from_name("deadline:10"))
        report = server.run(make_trace(48, length=32, rate=0.25, seed=8))
        system.clear_faults()
        return report, tracer

    def test_epoch_records_link_to_spans(self):
        report, tracer = self.run_serve(traced=True)
        by_sid = {s.sid: s for s in tracer.spans}
        for e in report.epochs:
            sp = by_sid[e.span_id]
            assert sp.cat == "epoch"
            # the epoch span's delta is the epoch's recorded delta
            assert sp.io_rounds == e.io_rounds
            assert sp.io_time == e.io_time
            assert sp.words == e.communication
            assert sp.pim_time == e.pim_time

    def test_recovery_rounds_are_distinct_spans(self):
        report, tracer = self.run_serve(traced=True)
        assert any(e.degraded for e in report.epochs)
        rec = [s for s in tracer.spans if s.cat == "recovery"]
        assert rec and all(s.io_rounds > 0 for s in rec)
        assert any(s.name == "recovery.rebuild_modules" for s in rec)
        # recovery nests inside the degraded epoch's span
        by_sid = {s.sid: s for s in tracer.spans}
        degraded_sids = {
            e.span_id for e in report.epochs if e.degraded
        }
        for s in rec:
            p = s.parent
            while p is not None and by_sid[p].cat != "epoch":
                p = by_sid[p].parent
            assert p in degraded_sids

    def test_span_ids_none_when_untraced(self):
        report, _ = self.run_serve(traced=False)
        assert all(e.span_id is None for e in report.epochs)

    def test_serve_answers_unchanged_by_tracing(self):
        r1, _ = self.run_serve(traced=True)
        r0, _ = self.run_serve(traced=False)
        assert [c.reply for c in r1.completed] == [
            c.reply for c in r0.completed
        ]
        assert r1.metrics == r0.metrics


class TestRollupAccessors:
    """The obs-side accessors of a serve run: keyed rollup lookup and
    per-phase self-times — exercised on a pipelined serve run, the
    configuration that emits every span category at once."""

    def run_served(self, traced: bool):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(96, 32, seed=7)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system) if traced else None
        server = EpochServer(
            trie, policy_from_name("affinity:15"),
            pipelined=True, prep_time=0.1, asm_time=0.05,
        )
        report = server.run(make_trace(220, length=32, rate=2.0, seed=8))
        return report, tracer

    def test_rollup_index_keys_rows(self):
        from repro.obs import rollup_index

        _, tracer = self.run_served(traced=True)
        idx = rollup_index(tracer)
        assert idx[("epoch.prep", "phase")]["count"] == \
            idx[("epoch.rounds", "phase")]["count"]
        # accepts pre-computed rows too
        assert rollup_index(rollup(tracer)) == idx

    def test_phase_self_times_cover_all_three_phases(self):
        from repro.obs import phase_self_times

        report, tracer = self.run_served(traced=True)
        phases = phase_self_times(tracer)
        epoch_phases = {"epoch.prep", "epoch.rounds", "epoch.assemble"}
        # inner phases (match.*, query.fold, ...) show up too; the
        # three epoch-level phases must all be present
        assert epoch_phases <= set(phases)
        for name in epoch_phases:
            assert phases[name]["count"] == len(report.epochs)
        # all PIM work happens inside the rounds phase; the host phases
        # are metric-free by construction
        assert phases["epoch.prep"]["io_rounds"] == 0
        assert phases["epoch.assemble"]["io_rounds"] == 0
        assert phases["epoch.rounds"]["io_rounds"] == report.metrics.io_rounds

    def test_phase_spans_keep_sums_exact(self):
        # interposing phase spans must not break the accounting
        # identity: root spans still sum to the overall delta
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(96, 32, seed=7)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system)
        before = system.snapshot()
        EpochServer(
            trie, policy_from_name("affinity:15"),
            pipelined=True, prep_time=0.1, asm_time=0.05,
        ).run(make_trace(220, length=32, rate=2.0, seed=8))
        delta = system.snapshot().delta(before)
        sums = root_metric_sums(tracer.spans)
        assert sums["io_rounds"] == delta.io_rounds
        assert sums["words"] == delta.total_communication

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_epoch_phases_nest_in_their_epoch_span(self, pipelined):
        # each epoch span holds exactly one prep, rounds and assemble
        # phase, in that order, and those phases hang off nothing else
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(96, 32, seed=7)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system)
        report = EpochServer(
            trie, policy_from_name("affinity:15"),
            pipelined=pipelined, prep_time=0.1, asm_time=0.05,
        ).run(make_trace(220, length=32, rate=2.0, seed=8))
        by_sid = {s.sid: s for s in tracer.spans}
        children: dict[int, list[str]] = {e.span_id: [] for e in report.epochs}
        for s in tracer.spans:
            if s.cat == "phase" and s.name.startswith("epoch."):
                assert by_sid[s.parent].cat == "epoch"
                children[s.parent].append(s.name)
        assert set(children) == {
            s.sid for s in tracer.spans if s.cat == "epoch"
        }
        for names in children.values():
            assert names == ["epoch.prep", "epoch.rounds", "epoch.assemble"]

    def test_accessors_traced_equals_untraced_run(self):
        r1, _ = self.run_served(traced=True)
        r0, _ = self.run_served(traced=False)
        assert [c.reply for c in r1.completed] == \
            [c.reply for c in r0.completed]
        assert r1.extra == r0.extra
        assert r1.metrics == r0.metrics


class TestPostedWriteSpans:
    def test_flush_round_lies_inside_the_outermost_maint_span(self):
        """An edit's posted writes ride one round inside its outermost
        ``maint.*`` span, and that round span names every kernel it
        carried."""
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(48, 32, seed=9)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P, block_bound=16),
            keys=keys, values=keys,
        )
        tracer = Tracer(system)
        bid = max(trie.blocks, key=lambda b: len(trie.blocks[b].items))
        assert trie.split_block(bid, bound=8) > 0
        split = next(s for s in tracer.spans if s.name == "maint.split_block")
        assert split.parent is None
        carrying = [s for s in tracer.spans if "posted" in s.args]
        assert len(carrying) == 1
        flush = carrying[0]
        assert flush.cat == "round" and flush.parent == split.sid
        # the split's last round, after its nested maint spans closed
        assert flush is [s for s in tracer.spans if s.cat == "round"][-1]
        kernels = flush.args["posted"] + [flush.name.removeprefix("round:")]
        assert {"pimtrie.store", "pimtrie.piece"} <= set(kernels)
        # one fetch and one flush: the split's rounds
        assert split.io_rounds == 2
        assert root_metric_sums(tracer.spans)["io_rounds"] == 2


class TestTracerLifecycle:
    def test_attach_detach(self):
        system = PIMSystem(2)
        tracer = Tracer(system)
        assert system.obs is tracer
        tracer.detach()
        assert system.obs is None
        with pytest.raises(ValueError):
            Tracer(PIMSystem(2)).attach(PIMSystem(2))

    def test_aborted_rounds_marked_on_round_spans(self):
        reset_id_counters()
        system = PIMSystem(P, seed=1)
        keys = uniform_keys(48, 32, seed=9)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
        )
        tracer = Tracer(system)
        # every LCP batch matches against the root block, so its block
        # round addresses the root block's module
        target = trie.blocks[trie.root_block_id].module
        system.install_faults(FaultPlan(crashes={target: 0}))
        from repro.faults import RoundAborted

        with pytest.raises(RoundAborted):
            trie.lcp_batch(keys[:4])
        system.clear_faults()
        aborted = [
            s for s in tracer.spans
            if s.cat == "round" and "aborted" in s.args
        ]
        assert len(aborted) == 1
        assert aborted[0].args["aborted"] == "crash"
        assert tracer._stack == []  # exception unwound every open span
