"""Differential parity suite for the columnar flat-array core.

The columnar pipeline (:mod:`repro.columnar`) — arena-based
struct-of-arrays query storage and fused batch phases — is what every
PIM-trie runs, whatever its configuration.  Its contract is byte
identity: every reply and every PIM Model metric (including per-module
word and kernel counts) must equal the object reference pipeline's
(``tests/reference``), on the same adversarial differential sequences
the oracle suite replays, with and without fault injection.  The
reference side is reached by rebinding the names ``repro.core.pimtrie``
imports from ``repro.columnar`` (:func:`tests.harness.object_pipeline`).
"""

import random
from contextlib import nullcontext

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.columnar import QueryArena
from repro.core import pimtrie
from repro.faults import FaultPlan, StragglerSpec
from repro.perf import reset_id_counters

from tests import harness, reference


def _evidence(ops, columnar: bool, fault_plan=None, **config):
    with nullcontext() if columnar else harness.object_pipeline():
        return harness.run_pimtrie_evidence(ops, fault_plan, **config)


# ----------------------------------------------------------------------
#: the paper's matching ablations (E14: pivots off; E14c: the CRC-style
#: hash family), alone and together, beside the default configuration
CONFIGS = {
    "default": {},
    "carryless": dict(hash_kind="carryless"),
    "no_pivots": dict(use_pivots=False),
    "carryless+no_pivots": dict(hash_kind="carryless", use_pivots=False),
}


def _record_queries(monkeypatch):
    """Patch ``PIMTrie._build_query`` to record the query tries built."""
    built = []
    real_build = PIMTrie._build_query

    def recording_build(trie, *args, **kwargs):
        built.append(real_build(trie, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(PIMTrie, "_build_query", recording_build)
    return built


class TestOnePipeline:
    """Every configuration runs the columnar core; the reference is
    reached only through the harness."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_config_builds_an_arena_and_warms_tables(
        self, monkeypatch, name
    ):
        ops = harness.gen_ops(5)
        built, warmed = _record_queries(monkeypatch), []
        real_warm = pimtrie.warm_table
        monkeypatch.setattr(
            pimtrie, "warm_table", lambda t: (warmed.append(t), real_warm(t))[1]
        )
        trie = harness.make_pimtrie(**CONFIGS[name])
        replies = [harness.apply_batch(trie, k, p) for k, p in ops]
        trie.validate()
        assert {type(q) for q in built} == {QueryArena}
        assert warmed
        assert replies == harness._oracle_replies(ops)[0]

    def test_object_pipeline_routes_through_the_reference(self, monkeypatch):
        """The parity suites below are not vacuous: inside
        ``object_pipeline()`` no arena is built (columnar span and
        matching cannot run without one) and the reference matcher
        probes the record tables."""
        ops = harness.gen_ops(5)
        built = _record_queries(monkeypatch)
        matched = []
        real_edge = reference.hashmatch._match_edge_pivot
        monkeypatch.setattr(
            reference.hashmatch, "_match_edge_pivot",
            lambda *a, **kw: (matched.append(a[1]), real_edge(*a, **kw))[1],
        )
        with harness.object_pipeline():
            trie = harness.make_pimtrie()
            replies = [harness.apply_batch(trie, k, p) for k, p in ops]
        assert built and {type(q) for q in built} == {reference.ObjectQuery}
        assert matched
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
            reference_trie = build()
            ref_replies = [
                harness.apply_batch(reference_trie, *op) for op in ops
            ]
        assert replies == ref_replies
        assert trie.system.snapshot().as_dict(include_per_module=True) == (
            reference_trie.system.snapshot().as_dict(include_per_module=True)
        )


class TestHashFamilies:
    def test_per_bit_probe_hashes_through_the_configured_family(self):
        """Without pivots every position is fingerprinted by the trie's
        own hasher, so the CRC-style family finds exactly the cuts the
        modular one does: same replies, rounds, words and PIM work."""
        rng = random.Random(26)
        keys = [BitString(rng.getrandbits(128), 128) for _ in range(400)]
        queries = keys[::5] + [
            BitString(rng.getrandbits(128), 128) for _ in range(18)
        ]
        runs = {}
        for kind in ("modular", "carryless"):
            reset_id_counters()
            system = PIMSystem(8, seed=1)
            trie = PIMTrie(
                system,
                PIMTrieConfig(num_modules=8, hash_kind=kind, use_pivots=False),
                keys=keys,
            )
            before = system.snapshot()
            replies = trie.lcp_batch(queries)
            m = system.snapshot().delta(before)
            runs[kind] = (
                replies, m.io_rounds, m.total_communication, m.pim_work
            )
        assert runs["carryless"] == runs["modular"]


# ----------------------------------------------------------------------
class TestColumnarParity:
    """Object pipeline vs columnar core: answers and metrics."""

    @pytest.mark.parametrize("seed", harness.COLUMNAR_PARITY_SEEDS)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_replies_and_metrics_byte_identical(self, name, seed):
        ops = harness.gen_ops(seed)
        col = _evidence(ops, columnar=True, **CONFIGS[name])
        obj = _evidence(ops, columnar=False, **CONFIGS[name])
        assert col[0] == obj[0]
        assert col[1] == obj[1]  # byte-identical accounting
        assert col[2] == obj[2]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_meta_descent_respans_byte_identical(self, monkeypatch, name):
        """Deep meta-block trees (many pieces per tree, a low pull
        threshold) send big fragments down Algorithm 5's descent, whose
        respans the short sequences above never reach."""
        rng = random.Random(4)
        keys = [BitString(rng.getrandbits(24), 24) for _ in range(400)]
        ops = [
            ("insert", [(k, f"v{i}") for i, k in enumerate(keys[:200])]),
            ("insert", [(k, f"w{i}") for i, k in enumerate(keys[200:])]),
            ("lcp", keys[::3] + [BitString(rng.getrandbits(24), 24)
                                 for _ in range(60)]),
            ("delete", keys[::7]),
            ("lookup", keys[1::4]),
        ]
        config = dict(
            CONFIGS[name], pull_threshold=4, meta_block_bound=64,
            small_meta_bound=4,
        )
        respans = []
        real_respan = pimtrie.respan_columnar
        monkeypatch.setattr(
            pimtrie, "respan_columnar",
            lambda f, c: (respans.append(1), real_respan(f, c))[1],
        )
        col = _evidence(ops, columnar=True, **config)
        assert respans
        assert col == _evidence(ops, columnar=False, **config)

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
    re-stores as the object reference, with identical accounting."""

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
