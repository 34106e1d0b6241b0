"""Differential parity suite for the columnar flat-array core.

The columnar pipeline (:mod:`repro.columnar`) — arena-based
struct-of-arrays query storage and fused batch phases — is what every
default-config trie runs.  Its contract is byte identity: every reply
and every PIM Model metric (including per-module word and kernel
counts) must equal the object pipeline's, on the same adversarial
differential sequences the oracle suite replays, with and without fault
injection.  Which of the two a trie runs is decided once, from its
config, by :func:`repro.core.pimtrie.columnar_applies`; the reference
side is reached here by patching that selector
(:func:`tests.harness.object_pipeline`).
"""

import random
from contextlib import nullcontext

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.columnar import QueryArena
from repro.core import pimtrie
from repro.faults import FaultPlan, StragglerSpec
from repro.perf import reset_id_counters
from repro.trie import PatriciaTrie

from tests import harness


def _evidence(ops, columnar: bool, fault_plan=None):
    with nullcontext() if columnar else harness.object_pipeline():
        return harness.run_pimtrie_evidence(ops, fault_plan)


# ----------------------------------------------------------------------
#: the three ablation configurations the columnar core does not cover
FALLBACK_CONFIGS = {
    "word_bits=8": dict(word_bits=8),
    "carryless": dict(hash_kind="carryless"),
    "no_pivots": dict(use_pivots=False),
}


class TestPipelineSelection:
    """The config alone decides the pipeline, and the kernels obey it."""

    def _run(self, monkeypatch, ops, **overrides):
        """Replies, query-trie types and warm_table calls of one trie."""
        warmed, built = [], []
        real_warm, real_build = pimtrie.warm_table, PIMTrie._build_query

        def counting_warm(table):
            warmed.append(table)
            return real_warm(table)

        def recording_build(trie, *args, **kwargs):
            built.append(real_build(trie, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(pimtrie, "warm_table", counting_warm)
        monkeypatch.setattr(PIMTrie, "_build_query", recording_build)
        trie = PIMTrie(
            PIMSystem(harness.P, seed=1),
            PIMTrieConfig(num_modules=harness.P, **overrides),
        )
        replies = [harness.apply_batch(trie, k, p) for k, p in ops]
        trie.validate()
        return replies, {type(q) for q in built}, len(warmed)

    def test_default_config_runs_columnar(self, monkeypatch):
        ops = harness.gen_ops(5)
        replies, kinds, warmed = self._run(monkeypatch, ops)
        assert kinds == {QueryArena}
        assert warmed > 0
        assert replies == harness._oracle_replies(ops)[0]

    @pytest.mark.parametrize("name", sorted(FALLBACK_CONFIGS))
    def test_fallback_config_runs_object_and_warms_nothing(
        self, monkeypatch, name
    ):
        ops = harness.gen_ops(5)
        replies, kinds, warmed = self._run(
            monkeypatch, ops, **FALLBACK_CONFIGS[name]
        )
        assert kinds == {PatriciaTrie}
        assert warmed == 0  # no columnar probe table is ever built
        assert replies == harness._oracle_replies(ops)[0]

    def test_probe_tables_are_built_on_first_probe_only(self, monkeypatch):
        """The lazy contract: mutation kernels build no probe table, so
        an HVM rebuild ships cache-free pieces; ``warm_table`` runs only
        inside a ``pimtrie.match`` round, on pieces that round probes."""
        rng = random.Random(3)
        keys = [BitString(rng.getrandbits(24), 24) for _ in range(600)]
        ops = [("insert", [(k, i) for i, k in enumerate(keys[300:])]),
               ("lcp", keys[250:350])]

        def build():
            reset_id_counters()
            return PIMTrie(
                PIMSystem(harness.P, seed=1),
                PIMTrieConfig(num_modules=harness.P),
                keys=keys[:300], values=list(range(300)),
            )

        in_match, probed, warmed, rebuilds = [], set(), [], []
        real_round, real_warm = PIMSystem.round, pimtrie.warm_table
        real_rebuild = PIMTrie._rebuild_hvm

        def round_(system, kernel, requests, **kw):
            if kernel != "pimtrie.match":
                return real_round(system, kernel, requests, **kw)
            probed.update(
                r.piece_id for reqs in requests.values() for r in reqs
                if r.scope == "piece"
            )
            in_match.append(kernel)
            try:
                return real_round(system, kernel, requests, **kw)
            finally:
                in_match.pop()

        def warm(table):
            assert in_match, "warm_table outside a pimtrie.match round"
            warmed.append(table)
            return real_warm(table)

        def rebuild(trie):
            rebuilds.append(trie)
            return real_rebuild(trie)

        def cached(trie):
            return {
                pid for m in trie.system.modules
                for pid, piece in m.context.scratch.get("pieces", {}).items()
                if piece._match_cache is not None
            }

        with monkeypatch.context() as mp:
            mp.setattr(PIMSystem, "round", round_)
            mp.setattr(pimtrie, "warm_table", warm)
            mp.setattr(PIMTrie, "_rebuild_hvm", rebuild)
            trie = build()
            assert len(rebuilds) == 1 and not warmed and not cached(trie)
            replies = [harness.apply_batch(trie, *ops[0])]
            assert len(rebuilds) == 2  # the insert forced a full rebuild
            assert warmed and not cached(trie)  # every piece is fresh
            replies.append(harness.apply_batch(trie, *ops[1]))
            assert cached(trie) and cached(trie) <= probed
            assert len(cached(trie)) < len(trie.piece_module)
            trie.validate()
        with harness.object_pipeline():
            reference = build()
        assert replies == [harness.apply_batch(reference, *op) for op in ops]
        assert trie.system.snapshot().as_dict(include_per_module=True) == (
            reference.system.snapshot().as_dict(include_per_module=True)
        )

    def test_reference_patch_selects_the_object_pipeline(self):
        """The parity suites below are not vacuous: the patched selector
        really routes a default-config trie to the object pipeline."""
        with harness.object_pipeline():
            reference = harness.make_pimtrie()
        assert not reference._columnar_ok
        assert harness.make_pimtrie()._columnar_ok

    def test_selector_reads_only_the_config(self):
        assert pimtrie.columnar_applies(PIMTrieConfig(num_modules=4))
        for overrides in FALLBACK_CONFIGS.values():
            assert not pimtrie.columnar_applies(
                PIMTrieConfig(num_modules=4, **overrides)
            )


# ----------------------------------------------------------------------
class TestColumnarParity:
    """Object pipeline vs columnar core: answers and metrics."""

    @pytest.mark.parametrize("seed", harness.COLUMNAR_PARITY_SEEDS)
    def test_replies_and_metrics_byte_identical(self, seed):
        ops = harness.gen_ops(seed)
        col_replies, col_json, _ = _evidence(ops, columnar=True)
        obj_replies, obj_json, _ = _evidence(ops, columnar=False)
        assert col_replies == obj_replies
        assert col_json == obj_json  # byte-identical accounting

    def test_longer_profile_single_seed(self):
        """More batches per sequence: respans, deletes, and piece churn
        interact across batches."""
        ops = harness.gen_ops(7, batches=12, batch_size=8)
        col = _evidence(ops, columnar=True)
        obj = _evidence(ops, columnar=False)
        assert col == obj


# ----------------------------------------------------------------------
def _fault_plans():
    P = harness.P
    return {
        "crash": FaultPlan(crashes={1: 3, P - 1: 11}),
        "straggler": FaultPlan(
            stragglers=(
                StragglerSpec(module=0, factor=4.0, start_round=0,
                              end_round=40),
            )
        ),
        "lossy": FaultPlan(
            drop_requests={(4, 0), (9, 1)},
            drop_replies={(6, m) for m in range(P)},
            duplicate_replies={(8, 0)},
        ),
        "random": FaultPlan.random(P, seed=13),
    }


class TestColumnarParityUnderFaults:
    """Fault injection and recovery must be mode-invariant too: the
    columnar core sees the same aborted rounds, retries, and recovery
    re-stores as the object pipeline, with identical accounting."""

    @pytest.mark.parametrize("seed", harness.COLUMNAR_FAULT_SEEDS)
    @pytest.mark.parametrize("scenario", sorted(_fault_plans()))
    def test_replies_and_metrics_identical(self, seed, scenario):
        ops = harness.gen_ops(seed)
        plan = _fault_plans()[scenario]
        col = _evidence(ops, columnar=True, fault_plan=plan)
        obj = _evidence(ops, columnar=False, fault_plan=plan)
        assert col[0] == obj[0], f"replies diverge under {scenario}"
        assert col[1] == obj[1], f"metrics diverge under {scenario}"
        assert col[2] == obj[2], f"recovery rounds diverge under {scenario}"

    def test_faulty_run_differs_from_clean_run(self):
        """Sanity: the injected plans actually perturb accounting (the
        parity above is not vacuous)."""
        ops = harness.gen_ops(0)
        clean = _evidence(ops, columnar=True)
        faulty = _evidence(
            ops, columnar=True, fault_plan=_fault_plans()["crash"]
        )
        assert clean[1] != faulty[1]
