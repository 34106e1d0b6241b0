"""Tests for the PIM Model simulator: rounds, metrics, isolation."""

import pytest

from repro.bits import BitString
from repro.faults import FaultPlan, RoundAborted
from repro.pim import PIMSystem, default_word_cost


def echo_kernel(ctx, reqs):
    ctx.tick(len(reqs))
    return list(reqs)


class TestRounds:
    def test_round_counts(self):
        sys = PIMSystem(4)
        sys.round(echo_kernel, {0: [1, 2], 2: [3]})
        snap = sys.snapshot()
        assert snap.io_rounds == 1
        # words: to {0:2, 2:1}, from the same -> io_time = max(2+2, 1+1) = 4
        assert snap.io_time == 4
        assert snap.total_communication == 6
        assert snap.pim_time == 2  # max kernel work
        assert snap.pim_work == 3

    def test_empty_requests_skip_module(self):
        sys = PIMSystem(2)
        replies = sys.round(echo_kernel, {0: [], 1: [7]})
        assert 0 not in replies
        assert replies[1] == [7]

    def test_dense_request_list(self):
        sys = PIMSystem(3)
        replies = sys.round(echo_kernel, [[1], [2], [3]])
        assert replies == {0: [1], 1: [2], 2: [3]}

    def test_named_kernel_registry(self):
        sys = PIMSystem(2)
        sys.register_kernel("echo", echo_kernel)
        assert sys.round("echo", {1: [5]}) == {1: [5]}

    def test_register_same_fn_is_noop(self):
        sys = PIMSystem(2)
        sys.register_kernel("echo", echo_kernel)
        sys.register_kernel("echo", echo_kernel)  # idempotent reload
        assert sys.round("echo", {0: [1]}) == {0: [1]}

    def test_register_different_fn_raises(self):
        sys = PIMSystem(2)
        sys.register_kernel("echo", echo_kernel)
        with pytest.raises(ValueError, match="already registered"):
            sys.register_kernel("echo", lambda ctx, reqs: reqs)

    def test_bad_module_id_raises_even_with_empty_requests(self):
        sys = PIMSystem(2)
        with pytest.raises(IndexError):
            sys.round(echo_kernel, {5: []})
        with pytest.raises(IndexError):
            sys.round(echo_kernel, {-3: []})
        # nothing was accounted for the failed round
        assert sys.snapshot().io_rounds == 0
        with pytest.raises(KeyError):
            sys.round("missing", {0: [1]})

    def test_kernel_decorator(self):
        sys = PIMSystem(1)

        @sys.kernel("double")
        def double(ctx, reqs):
            return [2 * r for r in reqs]

        assert sys.round("double", {0: [4]}) == {0: [8]}

    def test_duplicate_kernel_rejected(self):
        sys = PIMSystem(1)
        sys.register_kernel("k", echo_kernel)
        with pytest.raises(ValueError):
            sys.register_kernel("k", lambda c, r: r)

    def test_bad_module_id(self):
        sys = PIMSystem(2)
        with pytest.raises(IndexError):
            sys.round(echo_kernel, {5: [1]})


#: (module, request, tag) triples with modules interleaved
SENDS = [(2, "a", "ta"), (0, "b", "tb"), (2, "c", "tc"), (1, "d", "td"),
         (0, "e", "te")]


class TestExchange:
    def test_pairs_follow_first_send_then_send_order(self):
        sys = PIMSystem(3)
        pairs = sys.exchange(echo_kernel, SENDS)
        assert pairs == [("ta", "a"), ("tc", "c"), ("tb", "b"),
                         ("te", "e"), ("td", "d")]
        # one round, charged exactly like the grouped round() call
        ref = PIMSystem(3)
        ref.round(echo_kernel, {2: ["a", "c"], 0: ["b", "e"], 1: ["d"]})
        assert sys.snapshot() == ref.snapshot()
        assert sys.snapshot().io_rounds == 1

    def test_no_sends_run_no_round(self):
        sys = PIMSystem(2)
        assert sys.exchange(echo_kernel, []) == []
        assert sys.exchange(echo_kernel, iter(())) == []
        assert sys.snapshot().io_rounds == 0

    def test_tags_stay_aligned_under_duplicated_replies(self):
        sys = PIMSystem(3)
        sys.install_faults(FaultPlan(
            duplicate_replies=frozenset({(0, 0), (0, 2)})
        ))
        pairs = sys.exchange(echo_kernel, SENDS)
        assert pairs == PIMSystem(3).exchange(echo_kernel, SENDS)
        assert sys.faults.stats.duplicated_replies == 2
        # 5 words in; out, module 1's one word plus modules 0 and 2's
        # two-word buffers, each charged twice
        assert sys.snapshot().total_communication == 5 + 1 + 2 * (2 + 2)

    def test_transient_abort_propagates_with_the_round_recorded(self):
        plan = FaultPlan(transient_errors=frozenset({(0, 1)}))
        sys, ref = PIMSystem(3), PIMSystem(3)
        sys.install_faults(plan)
        ref.install_faults(plan)
        with pytest.raises(RoundAborted) as got:
            sys.exchange(echo_kernel, SENDS)
        with pytest.raises(RoundAborted) as want:
            ref.round(echo_kernel, {2: ["a", "c"], 0: ["b", "e"], 1: ["d"]})
        assert (got.value.cause, got.value.round_index, got.value.modules) == (
            "transient", 0, (1,)
        )
        assert str(got.value) == str(want.value)
        assert sys.snapshot() == ref.snapshot()
        assert sys.snapshot().io_rounds == 1
        assert sys.faults.round_index == 0

    def test_one_reply_too_few_raises(self):
        def short_kernel(ctx, reqs):
            return echo_kernel(ctx, reqs)[:-1]

        with pytest.raises(ValueError, match="1 replies to 2 requests"):
            PIMSystem(3).exchange(short_kernel, SENDS)


def write_kernel(ctx, reqs):
    """A write nobody reads: keeps its requests, replies with nothing."""
    ctx.tick(len(reqs))
    ctx.scratch.setdefault("log", []).extend(reqs)
    return []


class TestPostedWrites:
    def test_post_runs_nothing_until_the_next_round(self):
        sys = PIMSystem(3)
        sys.post(write_kernel, {0: ["w"]})
        assert sys.posted == 1
        assert "log" not in sys.modules[0].context.scratch
        assert sys.snapshot().io_rounds == 0
        assert sys.round(echo_kernel, {0: ["r"]}) == {0: ["r"]}
        assert sys.posted == 0
        assert sys.modules[0].context.scratch["log"] == ["w"]
        assert sys.snapshot().io_rounds == 1

    def test_each_module_runs_its_posts_in_order_before_the_round(self):
        sys = PIMSystem(2)
        seen = []

        def reader(ctx, reqs):
            seen.append(list(ctx.scratch.get("log", [])))
            return list(reqs)

        sys.post(write_kernel, {0: ["a"], 1: ["x"]})
        sys.post(write_kernel, {0: ["b", "c"]})
        sys.round(reader, {0: ["r"]})
        assert seen == [["a", "b", "c"]]
        assert sys.modules[1].context.scratch["log"] == ["x"]

    def test_flush_is_one_round_and_an_empty_flush_runs_none(self):
        sys = PIMSystem(3)
        sys.flush()
        assert sys.snapshot().io_rounds == 0
        sys.post(write_kernel, {0: ["a"]})
        sys.post(write_kernel, {1: ["b"], 2: ["c"]})
        sys.flush()
        assert sys.snapshot().io_rounds == 1
        assert sys.posted == 0
        assert [m.context.scratch["log"] for m in sys.modules] == [
            ["a"], ["b"], ["c"]
        ]
        sys.flush()
        assert sys.snapshot().io_rounds == 1

    @pytest.mark.parametrize("via", ["flush", "round"])
    def test_a_posted_kernel_that_replies_raises(self, via):
        sys = PIMSystem(2)
        sys.post(echo_kernel, {1: ["oops"]})
        with pytest.raises(ValueError, match="posted write replies with nothing"):
            if via == "flush":
                sys.flush()
            else:
                sys.round(echo_kernel, {0: ["r"]})
        assert sys.posted == 0

    def test_bad_module_id_raises_at_post(self):
        sys = PIMSystem(2)
        with pytest.raises(IndexError):
            sys.post(write_kernel, {2: ["w"]})
        with pytest.raises(KeyError):
            sys.post("missing", {0: ["w"]})
        assert sys.posted == 0

    def test_merged_round_charges_per_module_sums(self):
        """io_time and pim_time are the max over modules of each
        module's summed words and work, not a sum of per-kernel maxima."""
        sys = PIMSystem(3)
        sys.post(write_kernel, {0: [1, 2, 3], 1: [1]})   # 3 and 1 words in
        sys.post(write_kernel, {1: [1, 2]})              # 2 more on module 1
        sys.round(echo_kernel, {1: [9], 2: [1, 2]})      # 1+1 and 2+2 words
        snap = sys.snapshot()
        assert snap.io_rounds == 1
        # module 0: 3 in; module 1: 1 + 2 + 1 in, 1 out; module 2: 2 + 2
        assert snap.io_time == max(3, 1 + 2 + 1 + 1, 2 + 2) == 5
        assert snap.total_communication == 3 + 5 + 4
        # work: module 0 ticks 3, module 1 ticks 1 + 2 + 1, module 2 ticks 2
        assert snap.pim_time == 4
        assert snap.pim_work == 3 + 4 + 2
        # the three kernels as three rounds would cost more
        ref = PIMSystem(3)
        ref.round(write_kernel, {0: [1, 2, 3], 1: [1]})
        ref.round(write_kernel, {1: [1, 2]})
        ref.round(echo_kernel, {1: [9], 2: [1, 2]})
        assert ref.snapshot().io_time == 3 + 2 + 4 > snap.io_time
        assert ref.snapshot().pim_time == 3 + 2 + 2 > snap.pim_time

    def test_exchange_pairs_only_its_own_replies(self):
        """An exchange on ``pimtrie.block`` that drains a posted block
        free on the same module pairs each reply with its own tag."""
        from repro import PIMTrie, PIMTrieConfig
        from repro.core.pimtrie import _BlockOp

        sys = PIMSystem(4, seed=2)
        keys = [BitString.from_str(format(i * 7 % 256, "08b")) for i in range(64)]
        trie = PIMTrie(
            sys, PIMTrieConfig(num_modules=4, block_bound=8), keys=keys
        )
        by_module: dict = {}
        for bid, entry in sorted(trie.blocks.items()):
            by_module.setdefault(entry.module, []).append(bid)
        m, (doomed, *kept) = next(
            (m, bids) for m, bids in by_module.items() if len(bids) >= 3
        )
        sys.post("pimtrie.block", {m: [_BlockOp("free", doomed)]})
        pairs = sys.exchange("pimtrie.block", [
            (m, _BlockOp("fetch", bid), bid) for bid in kept
        ])
        assert [(tag, blk.block_id) for tag, blk in pairs] == [
            (bid, bid) for bid in kept
        ]
        assert doomed not in sys.modules[m].context.scratch["blocks"]

    @pytest.mark.parametrize("fault", [
        "crash", "transient", "request_lost", "reply_lost",
    ])
    def test_a_module_only_posts_address_is_addressed(self, fault):
        """The fault layer sees a module that only posted writes address
        as addressed: it can crash, fail, lose the buffer or the ack."""
        plan = {
            "crash": FaultPlan(crashes={1: 0}),
            "transient": FaultPlan(transient_errors=frozenset({(0, 1)})),
            "request_lost": FaultPlan(drop_requests=frozenset({(0, 1)})),
            "reply_lost": FaultPlan(drop_replies=frozenset({(0, 1)})),
        }[fault]
        sys = PIMSystem(3)
        sys.install_faults(plan)
        sys.post(write_kernel, {1: ["w"]})
        with pytest.raises(RoundAborted) as got:
            sys.round(echo_kernel, {0: ["r"]})
        assert (got.value.cause, got.value.modules) == (fault, (1,))
        assert got.value.kernels_ran == (fault == "reply_lost")
        # the aborted round took the queue with it; the write landed
        # only if the kernels ran
        assert sys.posted == 0
        assert ("log" in sys.modules[1].context.scratch) == (
            fault == "reply_lost"
        )
        assert sys.snapshot().io_rounds == 1


class TestModuleState:
    def test_scratch_write_then_read(self):
        sys = PIMSystem(1)

        def writer(ctx, reqs):
            ctx.scratch.setdefault("objs", []).extend(reqs)
            return []

        def reader(ctx, reqs):
            return [ctx.scratch["objs"][i] for i in reqs]

        sys.round(writer, {0: ["x", "y"]})
        assert sys.round(reader, {0: [0, 1]})[0] == ["x", "y"]

    def test_reading_missing_state_raises(self):
        sys = PIMSystem(1)

        def bad(ctx, reqs):
            return [ctx.scratch["absent"]]

        with pytest.raises(KeyError):
            sys.round(bad, {0: [1]})

    def test_state_persists_across_rounds(self):
        sys = PIMSystem(2)

        def put(ctx, reqs):
            ctx.scratch["v"] = reqs[0]
            return []

        def get(ctx, reqs):
            return [ctx.scratch["v"]]

        sys.round(put, {0: [11], 1: [22]})
        assert sys.round(get, {0: [0], 1: [0]}) == {0: [11], 1: [22]}

    def test_wipe_loses_module_memory(self):
        # state written before a crash must fault loudly after the
        # wipe, and only on the crashed module
        sys = PIMSystem(2)

        def put(ctx, reqs):
            ctx.scratch["v"] = reqs[0]
            return []

        def get(ctx, reqs):
            return [ctx.scratch["v"]]

        sys.round(put, {0: ["pre-crash"], 1: ["other"]})
        sys.modules[0].wipe()
        assert sys.modules[0].context.scratch == {}
        with pytest.raises(KeyError):
            sys.round(get, {0: [0]})
        assert sys.round(get, {1: [0]})[1] == ["other"]
        sys.round(put, {0: ["post-crash"]})
        assert sys.round(get, {0: [0]})[0] == ["post-crash"]


class TestWordCost:
    def test_scalars(self):
        assert default_word_cost(5) == 1
        assert default_word_cost(None) == 1
        assert default_word_cost(3.14) == 1

    def test_bitstring_cost_scales(self):
        short = BitString(0, 32)
        long = BitString(0, 640)
        assert default_word_cost(long) >= 10
        assert default_word_cost(short) == 1

    def test_containers_sum(self):
        assert default_word_cost([1, 2, 3]) == 3
        assert default_word_cost((1, (2, 3))) == 3
        assert default_word_cost({"a": 1}) >= 2

    def test_custom_word_cost_method(self):
        class Msg:
            def word_cost(self):
                return 17

        assert default_word_cost(Msg()) == 17


class TestMetrics:
    def test_snapshot_delta(self):
        sys = PIMSystem(2)
        sys.round(echo_kernel, {0: [1]})
        before = sys.snapshot()
        sys.round(echo_kernel, {0: [1, 2], 1: [3]})
        d = sys.snapshot().delta(before)
        assert d.io_rounds == 1
        assert d.total_communication == 6

    def test_io_time_is_per_round_max_summed(self):
        sys = PIMSystem(2)
        sys.round(echo_kernel, {0: [1, 2, 3]})   # io_time 3 + 3 (echoed)
        sys.round(echo_kernel, {1: [1]})          # io_time 1 + 1
        assert sys.snapshot().io_time == 8

    def test_load_balance_stats(self):
        sys = PIMSystem(4)
        sys.round(echo_kernel, {0: [1] * 40})  # all traffic to module 0
        snap = sys.snapshot()
        assert snap.traffic_imbalance() == pytest.approx(4.0)
        sys2 = PIMSystem(4)
        sys2.round(echo_kernel, {m: [1] * 10 for m in range(4)})
        assert sys2.snapshot().traffic_imbalance() == pytest.approx(1.0)

    def test_cpu_tick(self):
        sys = PIMSystem(1)
        sys.tick_cpu(5)
        assert sys.snapshot().cpu_work == 5

    def test_round_log(self):
        sys = PIMSystem(2)
        sys.round(echo_kernel, {0: [1]})
        s = sys.snapshot()
        assert s.io_rounds == 1
        assert s.io_time == 2  # 1 word in + 1 echoed out

    def test_reset(self):
        sys = PIMSystem(2)
        sys.round(echo_kernel, {0: [1]})
        sys.metrics.reset()
        assert sys.snapshot().io_rounds == 0
        assert sys.snapshot().total_communication == 0

    def test_memory_accounting(self):
        sys = PIMSystem(2)

        def store(ctx, reqs):
            ctx.scratch.setdefault("objs", []).extend(reqs)
            return []

        sys.round(store, {0: [BitString(0, 640)]})
        mem = sys.memory_words()
        assert mem[0] >= 10
        assert mem[1] == 0

    def test_as_dict(self):
        sys = PIMSystem(2)
        sys.round(echo_kernel, {0: [1]})
        d = sys.snapshot().as_dict()
        assert d["io_rounds"] == 1
        assert "traffic_imbalance" in d


class TestRandomPlacement:
    def test_random_module_in_range(self):
        sys = PIMSystem(8, seed=3)
        for _ in range(100):
            assert 0 <= sys.random_module() < 8

    def test_deterministic_with_seed(self):
        a = [PIMSystem(8, seed=5).random_module() for _ in range(3)]
        b = [PIMSystem(8, seed=5).random_module() for _ in range(3)]
        assert a == b

    def test_needs_one_module(self):
        with pytest.raises(ValueError):
            PIMSystem(0)
