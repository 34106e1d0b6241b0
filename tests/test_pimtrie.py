"""Integration tests: PIMTrie vs the sequential Patricia-trie oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.perf import reset_id_counters
from repro.trie import PatriciaTrie


def bs(s: str) -> BitString:
    return BitString.from_str(s)


def make_trie(keys, P=4, seed=1, **cfg_kw):
    system = PIMSystem(P, seed=seed)
    cfg = PIMTrieConfig(num_modules=P, **cfg_kw)
    keys = [bs(k) for k in keys]
    return PIMTrie(system, cfg, keys=keys, values=[k.to_str() for k in keys])


def make_index(kind, keys, P=4):
    """One trie, or a 3-shard cluster of ``P``-module racks holding the
    same items (``kind`` names the sharding)."""
    if kind == "trie":
        return make_trie(keys, P=P)
    from repro.cluster import HashSharding, PIMCluster, RangeSharding

    policy = HashSharding(3) if kind == "hash" else RangeSharding.uniform(3)
    keys = [bs(k) for k in keys]
    return PIMCluster(
        policy, modules_per_rack=P, keys=keys,
        values=[k.to_str() for k in keys],
    )


def oracle(keys):
    t = PatriciaTrie()
    for k in keys:
        t.insert(bs(k), k)
    return t


FIG1_KEYS = ["000010", "00001101", "1010000", "1010111", "101011"]

key_lists = st.lists(
    st.text(alphabet="01", min_size=0, max_size=40), min_size=1, max_size=50
)
query_lists = st.lists(
    st.text(alphabet="01", min_size=0, max_size=40), min_size=1, max_size=30
)


class TestConstruction:
    def test_empty(self):
        t = make_trie([])
        assert t.num_keys() == 0
        assert t.lcp_batch([bs("0101")]) == [0]

    def test_single_key(self):
        t = make_trie(["1011"])
        assert t.num_keys() == 1
        assert t.lcp_batch([bs("1011"), bs("1000"), bs("0")]) == [4, 2, 0]

    def test_figure1(self):
        t = make_trie(FIG1_KEYS)
        assert t.num_keys() == 5
        assert t.lcp_batch([bs("101001")]) == [5]

    def test_many_blocks(self):
        keys = [format(i, "012b") for i in range(256)]
        t = make_trie(keys, P=8)
        assert t.num_keys() == 256
        assert t.num_blocks() > 4  # decomposition really happened

    def test_long_keys_cut_edges(self):
        keys = ["1" * 4000, "1" * 4000 + "0", "0" * 3000]
        t = make_trie(keys, P=4)
        assert t.num_keys() == 3
        assert t.lcp_batch([bs("1" * 4000)]) == [4000]
        # long edges must have been cut into multiple blocks
        assert t.num_blocks() >= 3

    def test_config_module_mismatch_rejected(self):
        system = PIMSystem(4)
        with pytest.raises(ValueError):
            PIMTrie(system, PIMTrieConfig(num_modules=8))


class TestLCP:
    def test_exact_and_partial(self):
        t = make_trie(FIG1_KEYS)
        qs = ["000010", "000011", "10101", "11", "0000", ""]
        ref = oracle(FIG1_KEYS)
        assert t.lcp_batch([bs(q) for q in qs]) == [
            ref.lcp(bs(q)) for q in qs
        ]

    def test_duplicate_queries(self):
        t = make_trie(FIG1_KEYS)
        assert t.lcp_batch([bs("101011"), bs("101011")]) == [6, 6]

    @given(key_lists, query_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, keys, queries):
        t = make_trie(keys, P=4)
        ref = oracle(keys)
        got = t.lcp_batch([bs(q) for q in queries])
        want = [ref.lcp(bs(q)) for q in queries]
        assert got == want

    @given(key_lists, query_lists, st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_various_P(self, keys, queries, P):
        t = make_trie(keys, P=P, seed=P)
        ref = oracle(keys)
        assert t.lcp_batch([bs(q) for q in queries]) == [
            ref.lcp(bs(q)) for q in queries
        ]

    def test_deep_shared_prefix_adversarial(self):
        """Adversarial skew: all keys share a 200-bit prefix."""
        p = "10" * 100
        keys = [p + format(i, "08b") for i in range(64)]
        t = make_trie(keys, P=8)
        ref = oracle(keys)
        qs = [p + format(i, "08b") for i in range(0, 128, 3)] + [p[:50], "0"]
        assert t.lcp_batch([bs(q) for q in qs]) == [ref.lcp(bs(q)) for q in qs]

    def test_naive_mode_matches(self):
        t = make_trie(FIG1_KEYS, use_pivots=False)
        ref = oracle(FIG1_KEYS)
        qs = ["101001", "000011", "1010111", ""]
        assert t.lcp_batch([bs(q) for q in qs]) == [ref.lcp(bs(q)) for q in qs]

    def test_no_push_pull_matches(self):
        t = make_trie(FIG1_KEYS, use_push_pull=False)
        ref = oracle(FIG1_KEYS)
        qs = ["101001", "000011"]
        assert t.lcp_batch([bs(q) for q in qs]) == [ref.lcp(bs(q)) for q in qs]


class TestLookup:
    def test_lookup_values(self):
        t = make_trie(FIG1_KEYS)
        got = t.lookup_batch([bs("101011"), bs("101010"), bs("000010")])
        assert got == ["101011", None, "000010"]


class TestInsert:
    def test_insert_new(self):
        t = make_trie(["0000"])
        n = t.insert_batch([bs("0011"), bs("1111")], ["a", "b"])
        assert n == 2
        assert t.num_keys() == 3
        assert t.lookup_batch([bs("0011"), bs("1111")]) == ["a", "b"]

    def test_insert_existing_overwrites(self):
        t = make_trie(["0000"])
        n = t.insert_batch([bs("0000")], ["new"])
        assert n == 0
        assert t.num_keys() == 1
        assert t.lookup_batch([bs("0000")]) == ["new"]

    def test_insert_prefix_of_existing(self):
        t = make_trie(["0000"])
        t.insert_batch([bs("00")], ["p"])
        assert t.lookup_batch([bs("00"), bs("0000")]) == ["p", "0000"]

    def test_insert_extension_of_existing(self):
        t = make_trie(["00"])
        t.insert_batch([bs("0000")], ["e"])
        assert t.lookup_batch([bs("00"), bs("0000")]) == ["00", "e"]

    def test_insert_into_empty(self):
        t = make_trie([])
        t.insert_batch([bs("1"), bs("0")], ["x", "y"])
        assert t.num_keys() == 2
        assert t.lcp_batch([bs("10")]) == [1]

    def test_insert_triggers_repartition(self):
        t = make_trie(["0"], P=4)
        before = t.num_blocks()
        keys = [format(i, "012b") for i in range(512)]
        t.insert_batch([bs(k) for k in keys], keys)
        assert t.num_keys() == 513
        assert t.num_blocks() > before
        # everything still findable after the re-partitioning storm
        got = t.lookup_batch([bs(k) for k in keys[::37]])
        assert got == [k for k in keys[::37]]

    @given(key_lists, key_lists)
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, initial, inserts):
        t = make_trie(initial, P=4)
        ref = oracle(initial)
        t.insert_batch([bs(k) for k in inserts], list(inserts))
        for k in inserts:
            ref.insert(bs(k), k)
        queries = (initial + inserts)[:20]
        assert t.lcp_batch([bs(q) for q in queries]) == [
            ref.lcp(bs(q)) for q in queries
        ]
        assert t.num_keys() == len(ref)


class TestDelete:
    def test_delete_present(self):
        t = make_trie(FIG1_KEYS)
        assert t.delete_batch([bs("101011")]) == 1
        assert t.num_keys() == 4
        assert t.lookup_batch([bs("101011")]) == [None]
        assert t.lookup_batch([bs("1010111")]) == ["1010111"]

    def test_delete_absent(self):
        t = make_trie(["0000"])
        assert t.delete_batch([bs("1111"), bs("00")]) == 0
        assert t.num_keys() == 1

    def test_delete_all(self):
        t = make_trie(FIG1_KEYS)
        assert t.delete_batch([bs(k) for k in FIG1_KEYS]) == 5
        assert t.num_keys() == 0
        assert t.lcp_batch([bs("000010")]) == [0]

    def test_delete_then_reinsert(self):
        t = make_trie(["0101", "0110"])
        t.delete_batch([bs("0101")])
        t.insert_batch([bs("0101")], ["again"])
        assert t.lookup_batch([bs("0101")]) == ["again"]

    @given(key_lists, st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, keys, data):
        t = make_trie(keys, P=4)
        ref = oracle(keys)
        dels = data.draw(
            st.lists(st.sampled_from(sorted(set(keys))), max_size=10)
        )
        t.delete_batch([bs(k) for k in dels])
        for k in set(dels):
            ref.delete(bs(k))
        assert t.num_keys() == len(ref)
        queries = keys[:15]
        assert t.lcp_batch([bs(q) for q in queries]) == [
            ref.lcp(bs(q)) for q in queries
        ]


class TestSubtree:
    def test_subtree_basic(self):
        t = make_trie(["000", "001", "01", "1"])
        (got,) = t.subtree_batch([bs("0")])
        assert [(k.to_str(), v) for k, v in got] == [
            ("000", "000"),
            ("001", "001"),
            ("01", "01"),
        ]

    def test_subtree_whole_trie(self):
        t = make_trie(FIG1_KEYS)
        (got,) = t.subtree_batch([bs("")])
        assert sorted(k.to_str() for k, _ in got) == sorted(FIG1_KEYS)

    def test_subtree_no_match(self):
        t = make_trie(["000"])
        (got,) = t.subtree_batch([bs("1")])
        assert got == []

    def test_subtree_crosses_blocks(self):
        keys = [format(i, "012b") for i in range(256)]
        t = make_trie(keys, P=8)
        (got,) = t.subtree_batch([bs("0000")])
        want = sorted(k for k in keys if k.startswith("0000"))
        assert [k.to_str() for k, _ in got] == want

    @given(key_lists, st.lists(st.text(alphabet="01", max_size=8), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, keys, prefixes):
        t = make_trie(keys, P=4)
        ref = oracle(keys)
        got = t.subtree_batch([bs(p) for p in prefixes])
        for p, res in zip(prefixes, got):
            want = sorted(
                (k.to_str(), v) for k, v in ref.subtree_items(bs(p))
            )
            assert [(k.to_str(), v) for k, v in res] == want


class TestReadBatch:
    """One trie matching answers a batch's LCP and subtree reads."""

    BASE = [format(i, "012b") for i in range(256)]

    def twins(self, keys, P=8):
        """Two identically built tries: one per side of a comparison."""
        out = []
        for _ in range(2):
            reset_id_counters()
            out.append(make_trie(keys, P=P))
        return out

    @pytest.mark.parametrize("index", ["trie", "hash", "range"])
    @given(key_lists, query_lists, query_lists)
    @settings(max_examples=40, deadline=None)
    def test_answers_equal_separate_calls(self, index, keys, lcps, prefixes):
        # the queries repeat, and the prefixes reuse LCP queries (a key
        # that is both)
        lcps = lcps + lcps[:1]
        prefixes = prefixes + lcps[:2] + prefixes[:1]
        lq, pq = [bs(k) for k in lcps], [bs(p) for p in prefixes]
        one = make_trie(keys, P=4)
        want = (one.lcp_batch(lq), one.subtree_batch(pq))
        t = make_index(index, keys)
        assert t.read_batch(lq, pq) == (t.lcp_batch(lq), t.subtree_batch(pq))
        assert t.read_batch(lq, pq) == want
        assert t.read_batch(lq, []) == (want[0], [])
        assert t.read_batch([], pq) == ([], want[1])

    @pytest.mark.parametrize("index", ["trie", "hash", "range"])
    def test_empty_trie(self, index):
        t = make_index(index, [])
        assert t.read_batch([bs("01"), bs("01")], [bs("0"), bs("01")]) == (
            [0, 0], [[], []]
        )
        assert t.read_batch([], []) == ([], [])

    def test_one_match_for_a_mixed_batch(self):
        lcps = [bs(format(i, "012b")) for i in range(0, 4096, 97)]
        prefixes = [bs(format(i, "05b")) for i in range(0, 32, 3)]
        shared, apart = self.twins(self.BASE)
        before = shared.system.snapshot()
        shared.read_batch(lcps, prefixes)
        one = shared.system.snapshot().delta(before).io_rounds
        before = apart.system.snapshot()
        apart.lcp_batch(lcps)
        apart.subtree_batch(prefixes)
        assert one < apart.system.snapshot().delta(before).io_rounds

    @pytest.mark.parametrize("side", ["lcp", "subtree"])
    def test_one_side_costs_the_lone_call(self, side):
        keys = [bs(format(i, "06b")) for i in range(0, 64, 5)]
        combined, lone = self.twins(self.BASE)
        if side == "lcp":
            combined.read_batch(keys, [])
            lone.lcp_batch(keys)
        else:
            combined.read_batch([], keys)
            lone.subtree_batch(keys)
        assert combined.system.snapshot() == lone.system.snapshot()


class TestSubtreeRounds:
    """SubtreeQuery's first block answers ride the block matching: each
    prefix goes with the match request of the block holding its end."""

    KEYS = [format(i * 37 % 1024, "010b") + "1" * (i % 3) for i in range(200)]

    @staticmethod
    def edge_prefixes(t):
        """Prefixes at the block seams: every block root (a mirror leaf
        of its parent), one bit short of it (mid-edge above the mirror
        leaf) and one bit past it, plus the empty prefix, one longer
        than every key of KEYS, and duplicates."""
        roots = [e.root for e in t.blocks.values()]
        out = [bs(""), bs("1" * 20), bs("0")]
        for r in roots:
            out.append(r)
            if len(r) > 0:
                out.append(r.prefix(len(r) - 1))
            out.append(r + bs("0"))
        return out + out[:4]

    def check(self, t, prefixes):
        from repro.perf import DictOracle

        ref = DictOracle(t.replica_log_items().items())
        assert t.subtree_batch(prefixes) == ref.subtree_batch(prefixes)
        lcps = [bs(k) for k in self.KEYS[::7]]
        assert t.read_batch(lcps, prefixes) == (
            ref.lcp_batch(lcps), ref.subtree_batch(prefixes)
        )

    def test_seams_match_the_oracle(self):
        t = make_trie(self.KEYS, P=8)
        assert t.num_blocks() > 4
        self.check(t, self.edge_prefixes(t))

    def test_replicated_blocks_answer(self):
        t = make_trie(self.KEYS, P=8)
        for bid in list(t.blocks)[:4]:
            t.replicate_block(bid)
        assert any(e.replicas for e in t.blocks.values())
        self.check(t, self.edge_prefixes(t))

    def test_pulled_blocks_answer_on_the_host(self, monkeypatch):
        from repro.core import pimtrie

        t = make_trie(self.KEYS, P=8, block_bound=4)
        on_host = []
        helper = pimtrie._subtree_answer

        def spy(blk, rel, tick):
            on_host.append(tick == t.system.tick_cpu)
            return helper(blk, rel, tick)

        monkeypatch.setattr(pimtrie, "_subtree_answer", spy)
        self.check(t, self.edge_prefixes(t))
        assert any(on_host) and not all(on_host)

    @given(key_lists, st.lists(st.text(alphabet="01", max_size=12),
                               min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_small_blocks(self, keys, prefixes):
        t = make_trie(keys, P=4, block_bound=8)
        self.check(t, [bs(p) for p in prefixes] + self.edge_prefixes(t))

    def test_rounds_equal_lcp_within_one_block(self):
        """A prefix whose subtree stays inside one block costs no round
        beyond the matching: SubtreeQuery rounds == LCP rounds."""
        first, second = TestReadBatch().twins(self.KEYS)
        prefixes = [
            bs(k[:9]) for k in self.KEYS[::3]
            if not any(e.root.starts_with(bs(k[:9]))
                       for e in first.blocks.values())
        ]
        assert len(prefixes) > 10
        mark = first.system.snapshot()
        got = first.subtree_batch(prefixes)
        rounds = first.system.snapshot().delta(mark).io_rounds
        assert all(got)
        mark = second.system.snapshot()
        second.lcp_batch(prefixes)
        assert rounds == second.system.snapshot().delta(mark).io_rounds

    def test_traced_read_batch_has_no_roots_round(self):
        from repro.obs import Tracer, root_metric_sums

        t = make_trie(self.KEYS, P=8)
        tracer = Tracer(t.system)
        mark = t.system.snapshot()
        t.read_batch([bs(k) for k in self.KEYS[::9]],
                     [bs("0"), bs("101"), bs("0110")])
        delta = t.system.snapshot().delta(mark)
        names = {s.name for s in tracer.spans}
        assert {"match.blocks", "subtree.descend", "subtree.fetch"} <= names
        assert not any(n.startswith("subtree.roots") for n in names)
        assert root_metric_sums(tracer.spans) == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }


class TestHVMApply:
    """Every structural edit updates the HVM in one piece-path write:
    updated, new and gone records ship together, before any rebuild.
    The edit's writes nobody reads are posted, and they ride its reads
    and one last round."""

    KEYS = [format(i * 37 % 1024, "010b") + "1" * (i % 3) for i in range(200)]
    BOUNDS = dict(block_bound=8, meta_block_bound=8, small_meta_bound=4)

    def setup_trie(self):
        from repro.obs import Tracer
        from repro.perf import DictOracle

        t = make_trie(self.KEYS[:120], P=8, **self.BOUNDS)
        ref = DictOracle(t.replica_log_items().items())
        tracer = Tracer(t.system)
        #: one ``(kernel, requests, open maint spans)`` per post
        self.posts: list = []
        real_post = t.system.post

        def post(kernel, requests):
            frames = [sp for sp in tracer._stack if sp.cat == "maint"]
            self.posts.append((kernel, requests, frames))
            real_post(kernel, requests)

        t.system.post = post
        return t, ref, tracer

    def edit_piece_writes(self, tracer, name):
        """Per ``name`` span: the innermost frames of the
        ``pimtrie.piece`` writes it posted outside every rebuild span.
        Every edit's posted writes must also ride its rounds in post
        order, the last of them in its last round (:meth:`carried`)."""
        out = []
        for edit in (s for s in tracer.spans if s.name == name):
            frames = [
                fr for kernel, _, fr in self.posts
                if kernel == "pimtrie.piece" and edit in fr
            ]
            out.append([
                fr[-1].name for fr in frames
                if not any(f.name.startswith("maint.rebuild") for f in fr)
            ])
        outermost = {id(fr[0]): fr[0] for _, _, fr in self.posts}
        for edit in outermost.values():
            posted = [k for k, _, fr in self.posts if fr[0] is edit]
            assert self.carried(tracer, edit) == posted, edit.name
        return out

    @staticmethod
    def carried(tracer, edit):
        """The kernels of the posted writes ``edit``'s rounds carried, in
        order: each round's ``args["posted"]``, and the last round's own
        kernel — the flush of the edit's remaining writes."""
        kids: dict = {}
        for s in tracer.spans:
            kids.setdefault(s.parent, []).append(s)

        def rounds(s):
            for c in kids.get(s.sid, ()):
                if c.cat == "round":
                    yield c
                else:
                    yield from rounds(c)

        rs = list(rounds(edit))
        return [k for r in rs for k in r.args.get("posted", ())] + [
            rs[-1].name.removeprefix("round:")
        ]

    def check(self, t, ref):
        t.validate()
        keys = [bs(k) for k in self.KEYS]
        prefixes = [bs(k[:4]) for k in self.KEYS[::11]] + [bs("")]
        assert t.lcp_batch(keys) == ref.lcp_batch(keys)
        assert t.subtree_batch(prefixes) == ref.subtree_batch(prefixes)

    def test_repartition_is_one_piece_round(self):
        t, ref, tracer = self.setup_trie()
        before = t.num_blocks()
        extra = [bs(k) for k in self.KEYS[120:]]
        t.insert_batch(extra, [k.to_str() for k in extra])
        ref.insert_batch(extra, [k.to_str() for k in extra])
        assert t.num_blocks() > before
        edits = self.edit_piece_writes(tracer, "maint.repartition_blocks")
        assert edits and all(e == ["maint.hvm_apply"] for e in edits)
        self.check(t, ref)

    def test_insert_churn_never_rebuilds_the_whole_hvm(self, monkeypatch):
        """``write_churn``'s size (1,024 resident 64-bit keys, P = 16,
        default bounds, its ~675 inserts): the inserts repartition
        blocks, and every new record joins its parent's piece, which
        parent-first emission has placed — only a piece that empties or
        a tree root's block that goes rebuilds the whole HVM, and
        inserts do neither."""
        from repro.perf import DictOracle
        from repro.workloads import uniform_keys

        reset_id_counters()
        keys = uniform_keys(1024, 64, seed=8)
        t = PIMTrie(PIMSystem(16, seed=1), PIMTrieConfig(num_modules=16),
                    keys=keys, values=[str(k) for k in keys])
        ref = DictOracle(zip(keys, map(str, keys)))
        calls: dict[str, int] = {}
        for name in ("_rebuild_hvm", "_repartition_blocks"):
            real = getattr(PIMTrie, name)

            def counted(self, *args, _real=real, _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(self, *args, **kw)

            monkeypatch.setattr(PIMTrie, name, counted)
        extra = uniform_keys(675, 64, seed=9)
        for i in range(0, len(extra), 15):
            batch = extra[i:i + 15]
            new = len(set(batch) - set(ref.store))
            assert t.insert_batch(batch, [str(k) for k in batch]) == new
            ref.insert_batch(batch, [str(k) for k in batch])
        assert calls.get("_repartition_blocks", 0) > 0
        assert "_rebuild_hvm" not in calls, calls
        t.validate()
        probes = keys[::7] + extra[::5]
        assert t.lcp_batch(probes) == ref.lcp_batch(probes)

    def test_split_then_merge_with_grandchildren(self):
        t, ref, tracer = self.setup_trie()
        bid = max(t.blocks, key=lambda b: len(t.blocks[b].items))
        assert t.split_block(bid, bound=8) > 0
        self.check(t, ref)
        bid = next(
            b for b, e in sorted(t.blocks.items())
            if any(t.blocks[c].children for c in e.children)
        )
        before = t.num_blocks()
        absorbed = t.merge_block(bid)
        assert absorbed and t.num_blocks() == before - absorbed
        assert self.edit_piece_writes(tracer, "maint.merge_block") == [
            ["maint.hvm_apply"]
        ]
        self.check(t, ref)

    def test_collect_empty_blocks(self):
        t, ref, tracer = self.setup_trie()
        doomed = [bs(k) for k in self.KEYS[:120] if k.startswith("01")]
        before = t.num_blocks()
        t.delete_batch(doomed)
        ref.delete_batch(doomed)
        assert t.num_blocks() < before
        assert self.edit_piece_writes(
            tracer, "maint.collect_empty_blocks"
        ) == [["maint.hvm_apply"]]
        self.check(t, ref)

    def test_updated_tree_root_replaces_its_master_record(self):
        """Splitting a block re-sends its record as an update; for a
        tree root that update reaches every master copy, which must
        replace the held record rather than index a second beside it."""
        t, ref, _ = self.setup_trie()
        for bid in sorted(t.blocks):
            if bid in t.blocks:
                t.split_block(bid, bound=8)
            for m in t.system.modules:
                table = m.context.scratch["master"]
                indexed = [r.block_id for rs in table.by_fp.values() for r in rs]
                assert sorted(indexed) == sorted(table.by_id), m.module_id
            t.validate()
        updates = [
            rec.block_id
            for kernel, requests, _ in self.posts if kernel == "pimtrie.master"
            for msg in [requests[0][0]] if msg.add and not msg.remove
            for rec, _pid in msg.add
        ]
        assert updates
        self.check(t, ref)

    def test_recovery_rebuilds_every_copy_in_one_order(self):
        """A clean recovery re-ships a lost copy of a replicated piece
        on every copy, so all copies keep one record order (fetch
        replies and subtree walks follow it)."""
        t, ref, tracer = self.setup_trie()
        bid = max(t.blocks, key=lambda b: len(t.blocks[b].items))
        assert t.split_block(bid) > 0
        rounds = sum(s.name == "round:pimtrie.store" for s in tracer.spans)
        t.rebuild_modules([3])
        # the extra copies ride the recovery's one store round
        assert sum(
            s.name == "round:pimtrie.store" for s in tracer.spans
        ) == rounds + 1
        root = t._root_pid()
        copies = [m.context.scratch["pieces"][root] for m in t.system.modules]
        assert len(copies) == 8
        for piece in copies[1:]:
            assert list(piece.table.by_id) == list(copies[0].table.by_id)
            assert piece.kids == copies[0].kids
        self.check(t, ref)

    def test_validate_compares_copy_order(self):
        t, _ref, _ = self.setup_trie()
        t.validate()
        piece = t.system.modules[3].context.scratch["pieces"][t._root_pid()]
        first = next(iter(piece.table.by_id.values()))
        # re-adding a record moves it to the end of this copy's order
        piece.add_record(first, owned=first.block_id in piece.owned)
        with pytest.raises(AssertionError, match="diverges"):
            t.validate()

    def test_validate_rejects_a_key_mirror(self):
        """A mirror is a non-key leaf: every key at or below it is the
        child block's."""
        t = make_trie([format(i, "010b") for i in range(128)], P=4, block_bound=8)
        t.validate()
        bid = next(b for b, e in t.blocks.items() if e.children)
        for m in t.blocks[bid]._copies():
            blk = t.system.modules[m].context.scratch["blocks"][bid]
            mirror = next(
                n for n in blk.trie.iter_nodes() if n.mirror_child is not None
            )
            mirror.is_key = True
        with pytest.raises(AssertionError, match="non-key leaf"):
            t.validate()

    def test_validate_checks_s_last(self):
        """The S_last payload of every block is checked against the
        block's absolute root string, as its depth and hash are."""
        t = make_trie([format(i, "010b") for i in range(128)], P=4, block_bound=8)
        t.validate()
        bid = max(t.blocks, key=lambda b: len(t.blocks[b].root))
        root = t.blocks[bid].root
        for m in t.blocks[bid]._copies():
            blk = t.system.modules[m].context.scratch["blocks"][bid]
            blk.s_last = root.suffix_from(1)
        with pytest.raises(AssertionError):
            t.validate()


class TestMetrics:
    def test_lcp_batch_is_accounted(self):
        t = make_trie(FIG1_KEYS)
        before = t.system.snapshot()
        t.lcp_batch([bs("101001"), bs("000011")])
        d = t.system.snapshot().delta(before)
        assert d.io_rounds >= 2
        assert d.total_communication > 0

    def test_space_accounted(self):
        t = make_trie([format(i, "010b") for i in range(128)], P=8)
        assert t.space_words() > 100


class TestMixedWorkload:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_op_sequences(self, seed):
        import random

        rng = random.Random(seed)
        universe = [format(i, "08b") for i in range(64)]
        t = make_trie([], P=4, seed=seed % 7 + 2)
        ref = PatriciaTrie()
        for _ in range(6):
            op = rng.random()
            batch = rng.sample(universe, rng.randint(1, 12))
            if op < 0.45:
                t.insert_batch([bs(k) for k in batch], batch)
                for k in batch:
                    ref.insert(bs(k), k)
            elif op < 0.7:
                t.delete_batch([bs(k) for k in batch])
                for k in batch:
                    ref.delete(bs(k))
            elif op < 0.9:
                assert t.lcp_batch([bs(k) for k in batch]) == [
                    ref.lcp(bs(k)) for k in batch
                ]
            else:
                got = t.subtree_batch([bs(batch[0][:3])])
                want = sorted(
                    (k.to_str(), v)
                    for k, v in ref.subtree_items(bs(batch[0][:3]))
                )
                assert [(k.to_str(), v) for k, v in got[0]] == want
            assert t.num_keys() == len(ref)
