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

    def test_broadcast(self):
        sys = PIMSystem(3)
        replies = sys.broadcast(echo_kernel, "hello")
        assert set(replies) == {0, 1, 2}
        assert sys.snapshot().io_rounds == 1


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


class TestModuleState:
    def test_heap_alloc_load_store(self):
        sys = PIMSystem(1)

        def writer(ctx, reqs):
            return [ctx.alloc(r) for r in reqs]

        def reader(ctx, reqs):
            return [ctx.load(a) for a in reqs]

        addrs = sys.round(writer, {0: ["x", "y"]})[0]
        assert sys.round(reader, {0: addrs})[0] == ["x", "y"]

    def test_load_missing_raises(self):
        sys = PIMSystem(1)

        def bad(ctx, reqs):
            return [ctx.load(999)]

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

    def test_wipe_never_reuses_local_addresses(self):
        # a stale host handle from before a crash must fault loudly
        # after the wipe, not silently resolve to a recycled address
        sys = PIMSystem(1)

        def writer(ctx, reqs):
            return [ctx.alloc(r) for r in reqs]

        old_addr = sys.round(writer, {0: ["pre-crash"]})[0][0]
        sys.modules[0].wipe()
        new_addr = sys.round(writer, {0: ["post-crash"]})[0][0]
        assert new_addr != old_addr

        def reader(ctx, reqs):
            return [ctx.load(a) for a in reqs]

        with pytest.raises(KeyError, match="no object at local address"):
            sys.round(reader, {0: [old_addr]})
        assert sys.round(reader, {0: [new_addr]})[0] == ["post-crash"]


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
            for r in reqs:
                ctx.alloc(r)
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
