"""Ordered-index op surface: differential, metamorphic, and isolation
proofs for pred / succ / range / count / top-k.

Four layers of evidence, mirroring the suites of the point-op surface:

* **Differential** — adversarial sequences with ordered ops mixed in
  (``harness.gen_ops(ordered=True)``), replayed across both
  pipelines (columnar / object reference) × adapt on/off;
  replies must equal the bisect-based :class:`harness.DictOracle` and
  each other, and metrics must be byte-identical across pipelines.
* **Metamorphic** — algebraic laws relating the five ops to each other
  and to ``subtree_batch`` (``succ(pred(k)) == k`` for present keys;
  range == filtered enumeration; count == |subtree|; top-k is a prefix
  of the sorted range), checked on states reached *through* crash and
  straggler fault plans with recovery.
* **Snapshot isolation** — an :class:`repro.ordered.OrderedSnapshot`
  taken before a write answers from the pre-write state; version
  caching hands back the same object while the key set is unchanged.
* **Span-sum exactness** — with a tracer attached, root op spans over
  an ordered-only workload sum exactly to the system's metric delta
  (ordered reads are host-side: zero IO rounds, nonzero cpu_work).
"""

import json
from contextlib import nullcontext

import pytest

from repro import BitString
from repro.adapt import AdaptiveController, AdaptPolicy
from repro.faults import FaultPlan, RoundAborted, StragglerSpec, recover
from repro.obs.tracer import Tracer, root_metric_sums
from repro.ordered import OrderedSnapshot
from repro.perf import DictOracle

from tests import harness

ORDERED_SEEDS = (0, 1, 2, 3, 5, 8, 13, 21)  # >= 8, per the harness bar

EAGER = AdaptPolicy(
    hot_fraction=0.05,
    cold_fraction=0.02,
    min_window=4.0,
    cooldown=0,
    max_replicas=2,
    split_min_keys=2,
    max_actions_per_epoch=8,
)

_MODES = {
    "columnar": nullcontext,
    "object": harness.object_pipeline,
}


def _replay(ops, mode: str, adaptive: bool, fault_plan=None):
    """Replies + metrics JSON of one pipeline/adapt combination,
    recovering and retrying aborted batches (the serve-layer protocol)."""
    with _MODES[mode]():
        index = harness.make_pimtrie()
        if fault_plan is not None:
            index.system.install_faults(fault_plan)
        ctl = AdaptiveController(index, EAGER) if adaptive else None
        replies = []
        for kind, payload in ops:
            for _ in range(8):
                try:
                    replies.append(harness.apply_batch(index, kind, payload))
                    break
                except RoundAborted:
                    recover(index)
            else:
                raise AssertionError(f"batch {kind!r} never survived recovery")
            if ctl is not None:
                ctl.step()
        snap = index.system.snapshot().as_dict(include_per_module=True)
    return replies, json.dumps(snap, sort_keys=True), index


# ----------------------------------------------------------------------
class TestOrderedDifferential:
    """Both pipelines × adapt on/off vs the bisect oracle."""

    @pytest.mark.parametrize("seed", ORDERED_SEEDS)
    def test_pipelines_and_adapt_match_oracle(self, seed):
        ops = harness.gen_ops(seed, batches=12, batch_size=6, ordered=True)
        oracle, _ = harness._oracle_replies(ops)
        metrics = {}
        for mode in _MODES:
            for adaptive in (False, True):
                replies, snap_json, _ = _replay(ops, mode, adaptive)
                assert replies == oracle, (
                    f"{mode}/adapt={adaptive} diverged from the ordered "
                    f"oracle on seed {seed}:\n" + harness.format_ops(ops)
                )
                if not adaptive:
                    metrics[mode] = snap_json
        # answer parity is necessary, metric byte-identity is the full
        # contract: both pipelines did the same accounting
        assert metrics["columnar"] == metrics["object"]

    def test_ordered_ops_run_zero_pim_rounds(self):
        ops = harness.gen_ops(3, batches=10, ordered=True)
        _, _, index = _replay(ops, "columnar", adaptive=False)
        before = index.system.snapshot()
        index.predecessor_batch([BitString(5, 8)])
        index.prefix_count_batch([BitString(1, 2)])
        index.range_batch([(BitString(0, 4), BitString(15, 4))], limit=3)
        delta = index.system.snapshot().delta(before)
        assert delta.io_rounds == 0 and delta.total_communication == 0
        assert delta.cpu_work > 0  # host work is accounted, not free


@pytest.mark.slow
class TestOrderedDifferentialSlow:
    """Nightly profile: more seeds, longer sequences, cluster grid."""

    @pytest.mark.parametrize("start", (100, 110, 120, 130))
    def test_long_ordered_sequences(self, start):
        for seed in range(start, start + 10):
            ops = harness.gen_ops(
                seed, batches=16, batch_size=8, ordered=True
            )
            bad = harness.divergences(ops)
            assert not bad, f"seed {seed}:\n" + "\n".join(bad[:4])

    @pytest.mark.parametrize("seed", (0, 7, 19))
    def test_cluster_grid_ordered(self, seed):
        ops = harness.gen_ops(seed, batches=12, batch_size=6, ordered=True)
        bad = harness.divergences(ops, harness.cluster_targets())
        assert not bad, f"seed {seed}:\n" + "\n".join(bad[:4])


# ----------------------------------------------------------------------
def _fault_plans():
    P = harness.P
    return {
        "none": None,
        "crash": FaultPlan(crashes={1: 3, P - 1: 11}),
        "straggler": FaultPlan(
            stragglers=(
                StragglerSpec(
                    module=0, factor=4.0, start_round=0, end_round=40
                ),
            )
        ),
    }


class TestOrderedMetamorphic:
    """Algebraic laws over states reached through faulty executions."""

    @pytest.mark.parametrize("plan_name", list(_fault_plans()))
    @pytest.mark.parametrize("seed", (0, 5, 17))
    def test_laws_hold_after_recovery(self, seed, plan_name):
        ops = harness.gen_ops(seed, batches=10, batch_size=6, ordered=True)
        _, _, trie = _replay(
            ops, "columnar", adaptive=False,
            fault_plan=_fault_plans()[plan_name],
        )
        snap = trie.ordered_snapshot()
        full = snap.items()  # sorted (key, value) enumeration
        assert full == sorted(full, key=lambda kv: kv[0])
        keys = [k for k, _ in full]
        if not keys:
            pytest.skip("sequence emptied the index")

        # succ(pred(k)) == k for every present key with a predecessor
        preds = trie.predecessor_batch(keys)
        succs = trie.successor_batch(
            [p[0] for p in preds if p is not None]
        )
        expect = [
            (k, v) for (k, v), p in zip(full, preds) if p is not None
        ]
        assert succs == expect

        # range == filtered enumeration, and limits truncate in order
        lo, hi = keys[0], keys[-1]
        mid_lo, mid_hi = keys[len(keys) // 3], keys[(2 * len(keys)) // 3]
        for a, b in ((lo, hi), (mid_lo, mid_hi), (hi, lo)):
            got = trie.range_batch([(a, b)])[0]
            want = [(k, v) for k, v in full if a <= k <= b]
            assert got == want
            for lim in (0, 1, 2, len(want)):
                assert trie.range_batch([(a, b)], limit=lim)[0] == want[:lim]

        # count == |subtree| == |range over the prefix's interval|;
        # top-k is a prefix of the sorted subtree
        prefixes = sorted({k.prefix(min(3, len(k))) for k in keys})
        counts = trie.prefix_count_batch(prefixes)
        subtrees = trie.subtree_batch(prefixes)
        for p, c, st in zip(prefixes, counts, subtrees):
            assert c == len(st)
            st_sorted = sorted(st, key=lambda kv: kv[0])
            for k in (1, 2, c or 1):
                assert trie.top_k(p, k) == st_sorted[:k]


# ----------------------------------------------------------------------
class TestSnapshotIsolation:
    def test_snapshot_survives_later_writes(self):
        trie = harness.make_pimtrie()
        ka, kb = BitString(5, 8), BitString(9, 8)
        trie.insert_batch([ka], ["a"])
        snap = trie.ordered_snapshot()
        frozen = snap.items()
        trie.insert_batch([kb], ["b"])
        trie.delete_batch([ka])
        # the old snapshot still answers from its own version…
        assert snap.items() == frozen
        assert snap.predecessor(kb) == (ka, "a")
        # …while a fresh one sees the writes
        now = trie.ordered_snapshot()
        assert now.items() == [(kb, "b")]
        assert now.version != snap.version

    def test_version_caching_reuses_snapshot(self):
        trie = harness.make_pimtrie()
        trie.insert_batch([BitString(3, 4)], ["x"])
        s1 = trie.ordered_snapshot()
        trie.lcp_batch([BitString(3, 4)])  # reads do not invalidate
        assert trie.ordered_snapshot() is s1
        trie.insert_batch([BitString(7, 4)], ["y"])
        assert trie.ordered_snapshot() is not s1


# ----------------------------------------------------------------------
_EDGE_KEYS = ["", "0", "01", "011", "0110", "1", "10", "1101"]
# key sets: none, all of _EDGE_KEYS (the empty key included), the same
# without the empty key (so nothing precedes a query of ""), and a
# single key
_EDGE_SETS = pytest.mark.parametrize(
    "strs", [[], _EDGE_KEYS, _EDGE_KEYS[1:], ["0110"]],
    ids=["empty", "keys", "no_empty_key", "single"],
)


class TestSnapshotEdges:
    """An :class:`OrderedSnapshot` built directly, query by query, against
    the bisect oracle on inputs the trie-level suites rarely reach."""

    @staticmethod
    def _pair(strs):
        items = {BitString.from_str(s): f"v{s}" for s in strs}
        return OrderedSnapshot(items, version=3), DictOracle(items.items())

    @staticmethod
    def _queries(strs):
        # every stored key, its one-bit extensions, and a key longer
        # than any stored one
        qs = {BitString.from_str(s) for s in strs}
        qs |= {q + BitString(b, 1) for q in list(qs) for b in (0, 1)}
        qs |= {BitString.from_str(""), BitString.from_str("0110101011")}
        return sorted(qs)

    @_EDGE_SETS
    def test_point_queries_match_oracle(self, strs):
        snap, oracle = self._pair(strs)
        qs = self._queries(strs)
        assert len(snap) == len(strs)
        assert [snap.predecessor(q) for q in qs] == oracle.predecessor_batch(qs)
        assert [snap.successor(q) for q in qs] == oracle.successor_batch(qs)
        assert [snap.prefix_count(q) for q in qs] == \
            oracle.prefix_count_batch(qs)
        assert snap.items() == sorted(oracle.store.items())

    @_EDGE_SETS
    def test_range_and_top_k_bounds_match_oracle(self, strs):
        snap, oracle = self._pair(strs)
        qs = self._queries(strs)
        # lo < hi, lo == hi (stored and absent), and lo > hi
        bounds = [(lo, hi) for lo in qs for hi in qs]
        n = len(strs)
        for limit in (None, 0, -1, 1, n + 5):
            got = [snap.range(lo, hi, limit=limit) for lo, hi in bounds]
            assert got == oracle.range_batch(bounds, limit=limit), limit
        # ``k`` is an int (no "unbounded" top-k)
        for k in (0, -1, 1, n + 5):
            assert [snap.top_k(p, k) for p in qs] == \
                oracle.topk_batch(qs, k), k


# ----------------------------------------------------------------------
class TestOrderedSpanSums:
    def test_root_op_spans_sum_to_delta(self):
        ops = harness.gen_ops(1, batches=8, ordered=True)
        _, _, trie = _replay(ops, "columnar", adaptive=False)
        tracer = Tracer(trie.system)
        before = trie.system.snapshot()
        keys = [k for k, _ in trie.ordered_snapshot().items()][:8]
        if not keys:
            pytest.skip("sequence emptied the index")
        trie.predecessor_batch(keys)
        trie.successor_batch(keys)
        trie.range_batch([(keys[0], keys[-1])], limit=4)
        trie.prefix_count_batch([keys[0].prefix(2)])
        trie.topk_batch([keys[0].prefix(2)], 3)
        delta = trie.system.snapshot().delta(before)
        sums = root_metric_sums(tracer.spans)
        assert sums == {
            "io_rounds": delta.io_rounds,
            "io_time": delta.io_time,
            "words": delta.total_communication,
            "pim_time": delta.pim_time,
            "cpu_work": delta.cpu_work,
        }
        names = {s.name for s in tracer.spans if s.cat == "op"}
        assert {"op.pred", "op.succ", "op.range", "op.count",
                "op.topk"} <= names
