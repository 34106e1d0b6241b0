"""E13 — §4.4.3 verification under injected hash collisions.

The paper keeps hash collisions at bay with Θ(log N)-bit hashes plus an
S_last verification step and re-hash on detected collisions.  Here we
narrow the fingerprint width to force collisions and measure:

* how many candidate matches the S_last check rejects (detected
  collisions) as a function of width;
* that the final LCP answers remain correct despite collisions (the
  inline redo walks to the next-shallower candidate);
* that the wide default width observes zero collisions.
"""

from __future__ import annotations

import pytest

from conftest import measure
from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.columnar import QueryArena
from repro.trie import PatriciaTrie
from repro.workloads import uniform_keys

P = 8
N_KEYS = 512
N_QUERIES = 256
LEN = 64


def run_with_width(width: int):
    keys = uniform_keys(N_KEYS, LEN, seed=500)
    queries = keys[: N_QUERIES // 2] + uniform_keys(
        N_QUERIES // 2, LEN, seed=501
    )
    system = PIMSystem(P, seed=1)
    cfg = PIMTrieConfig(num_modules=P, hash_width=width, verify=True)
    trie = PIMTrie(system, cfg, keys=keys)
    qt = QueryArena.build(queries)
    outcome = trie.match_batch(qt)
    folded = qt.fold(outcome, trie.root_block_id)
    got = [folded[q][0] for q in queries]
    ref = PatriciaTrie()
    for k in keys:
        ref.insert(k)
    want = [ref.lcp(q) for q in queries]
    correct = sum(g == w for g, w in zip(got, want))
    return outcome.collisions, correct, len(queries)


@pytest.mark.parametrize("width", [10, 14, 20, 61])
def test_collisions_vs_width(benchmark, width):
    collisions, correct, total = benchmark.pedantic(
        run_with_width, args=(width,), iterations=1, rounds=1
    )
    print(
        f"\n[E13] width={width:>2} bits: detected collisions={collisions:>4}  "
        f"correct LCPs={correct}/{total}"
    )
    if width >= 61:
        assert collisions == 0
        assert correct == total
    if width <= 12:
        # narrow fingerprints must actually collide, or the experiment
        # isn't exercising the verification path
        assert collisions > 0
    # S_last verification keeps answers correct despite collisions
    assert correct == total


def test_rehash_changes_fingerprints(benchmark):
    """A global re-hash (new seed) redraws all comparisons: with a
    narrow width, the *set of colliding pairs* changes across seeds."""

    def run():
        from repro.bits import IncrementalHasher
        from repro.workloads import uniform_keys as uk

        keys = uk(400, 48, seed=510)
        out = []
        for seed in (1, 2):
            h = IncrementalHasher(seed=seed, width=12)
            fps = {}
            pairs = set()
            for k in keys:
                fp = h.fingerprint_of(k)
                if fp in fps:
                    pairs.add((min(fps[fp], k), max(fps[fp], k)))
                else:
                    fps[fp] = k
            out.append(pairs)
        return out

    pairs_a, pairs_b = benchmark.pedantic(run, iterations=1, rounds=1)
    print(
        f"\n[E13] 12-bit collision pairs: seed1={len(pairs_a)} "
        f"seed2={len(pairs_b)} shared={len(pairs_a & pairs_b)}"
    )
    assert pairs_a and pairs_b
    assert pairs_a != pairs_b  # re-hash actually resolves collisions
