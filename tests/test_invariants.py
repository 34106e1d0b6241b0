"""Structural-invariant tests: PIMTrie.validate() after every kind of
mutation, including adversarial churn that forces re-partitioning,
HVM rebuilds, scapegoat splits, and block garbage collection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.workloads import shared_prefix_flood, uniform_keys

bs = BitString.from_str


def make(P=4, seed=1, keys=(), **cfg):
    system = PIMSystem(P, seed=seed)
    return PIMTrie(
        system,
        PIMTrieConfig(num_modules=P, **cfg),
        keys=list(keys),
    )


class TestValidateAfterMutations:
    def test_fresh_build(self):
        t = make(keys=[bs(format(i, "08b")) for i in range(64)])
        t.validate()

    def test_empty_build(self):
        t = make()
        t.validate()
        assert t.keys() == []

    def test_after_inserts(self):
        t = make(keys=[bs("0")])
        t.insert_batch([bs(format(i, "010b")) for i in range(256)])
        t.validate()
        assert t.num_keys() == 257

    def test_after_deletes(self):
        keys = [bs(format(i, "08b")) for i in range(64)]
        t = make(keys=keys)
        t.delete_batch(keys[:48])
        t.validate()
        assert t.num_keys() == 16

    def test_after_delete_everything(self):
        keys = [bs(format(i, "06b")) for i in range(64)]
        t = make(keys=keys)
        t.delete_batch(keys)
        t.validate()
        assert t.num_keys() == 0
        # and the structure remains usable
        t.insert_batch([bs("111")])
        t.validate()
        assert t.lcp_batch([bs("1111")]) == [3]

    def test_after_adversarial_inserts(self):
        """A shared-prefix flood forces deep chains + repartitioning."""
        t = make(P=8, keys=uniform_keys(64, 64, seed=3))
        t.insert_batch(shared_prefix_flood(256, 128, 32, seed=4))
        t.validate()

    def test_keys_roundtrip(self):
        keys = sorted(set(uniform_keys(128, 24, seed=5)))
        t = make(P=8, keys=keys)
        assert t.keys() == keys

    @given(st.integers(0, 5_000))
    @settings(max_examples=12, deadline=None)
    def test_churn_keeps_invariants(self, seed):
        rng = random.Random(seed)
        universe = [bs(format(i, "09b")) for i in range(128)]
        t = make(P=rng.choice([2, 4, 8]), seed=seed)
        alive = set()
        for _ in range(5):
            batch = rng.sample(universe, rng.randint(1, 30))
            if rng.random() < 0.55:
                t.insert_batch(batch)
                alive |= set(batch)
            else:
                t.delete_batch(batch)
                alive -= set(batch)
            t.validate()
            assert t.keys() == sorted(alive)


class TestConfigSurface:
    def test_defaults_derive_from_P(self):
        cfg = PIMTrieConfig(num_modules=64)
        assert cfg.block_bound == 36  # ceil(log2 64)^2
        assert cfg.meta_block_bound == 64
        assert cfg.small_meta_bound == 36
        assert cfg.pull_threshold == 6**4

    def test_small_P_clamps(self):
        cfg = PIMTrieConfig(num_modules=2)
        assert cfg.block_bound >= 8
        assert cfg.meta_block_bound >= 8
        assert cfg.pull_threshold >= 16

    def test_validation(self):
        with pytest.raises(ValueError):
            PIMTrieConfig(num_modules=0)
        with pytest.raises(ValueError):
            PIMTrieConfig(num_modules=4, alpha=0.5)
        with pytest.raises(ValueError):
            PIMTrieConfig(num_modules=4, alpha=1.0)
        with pytest.raises(ValueError):
            PIMTrieConfig(num_modules=4, block_bound=1)

    def test_log_p(self):
        assert PIMTrieConfig(num_modules=16).log_p == 4
        assert PIMTrieConfig(num_modules=1).log_p == 1

    def test_make_hasher_kinds(self):
        from repro.bits import CarrylessHasher, IncrementalHasher

        assert isinstance(
            PIMTrieConfig(num_modules=4).make_hasher(), IncrementalHasher
        )
        assert isinstance(
            PIMTrieConfig(num_modules=4, hash_kind="carryless").make_hasher(),
            CarrylessHasher,
        )


class TestVerificationToggle:
    def test_verify_off_still_correct_wide_hash(self):
        """With 61-bit fingerprints collisions are whp absent, so
        disabling verification must not change answers."""
        keys = uniform_keys(128, 48, seed=7)
        a = make(P=4, keys=keys, verify=True)
        b = make(P=4, keys=keys, verify=False)
        qs = keys[:32] + uniform_keys(32, 48, seed=8)
        assert a.lcp_batch(qs) == b.lcp_batch(qs)

    def test_narrow_width_verified_correct(self):
        from repro.trie import PatriciaTrie

        keys = uniform_keys(256, 48, seed=9)
        t = make(P=4, keys=keys, hash_width=12, verify=True)
        ref = PatriciaTrie()
        for k in keys:
            ref.insert(k)
        qs = keys[:64]
        assert t.lcp_batch(qs) == [ref.lcp(q) for q in qs]
        t.validate()
