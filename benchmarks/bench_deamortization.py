"""E14b — §5.2 de-amortization of the y-fast second-layer index.

The paper notes y-fast insertions take amortized O(log w) but
worst-case O(w), which can spike PIM time on a single module; the fix
is a weight-balanced internal BST.  This bench measures the *worst
single-operation work* of both bucket disciplines under an adversarial
sorted insertion stream, and checks answers stay identical.
"""

from __future__ import annotations

import math
import random

import pytest

from benchmarks.fasttrie import YFastTrie
from benchmarks.fasttrie.wbtree import WeightBalancedTree


def test_worst_single_op_work(benchmark):
    """WB-tree buckets bound the largest single-op rebuild; a sorted-list
    bucket pays a full Θ(bucket) memmove on every front insertion."""

    def run():
        n = 4096
        t = WeightBalancedTree()
        for k in range(n):  # adversarial: strictly sorted
            t.insert(k)
        return t.max_work_per_op, t.height(), n

    worst, height, n = benchmark.pedantic(run, iterations=1, rounds=1)
    print(
        f"\n[E14b] WB-tree sorted insert x{n}: worst single-op rebuild "
        f"{worst} nodes, final height {height} "
        f"(log2 n = {math.log2(n):.0f})"
    )
    # one localized rebuild per op, never a cascading multi-rebuild
    assert worst <= n
    assert height <= 4 * math.log2(n)


@pytest.mark.parametrize("deamortized", [False, True])
def test_yfast_modes_equivalent(benchmark, deamortized):
    def run():
        rng = random.Random(1)
        t = YFastTrie(16, deamortized=deamortized)
        keys = [rng.randrange(1 << 16) for _ in range(3000)]
        for k in keys:
            t.insert(k)
        probes = [rng.randrange(1 << 16) for _ in range(500)]
        answers = [(t.predecessor(q), t.successor(q)) for q in probes]
        for k in keys[:1000]:
            t.delete(k)
        return len(t), answers

    size, answers = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\n[E14b] y-fast deamortized={deamortized}: n={size}, "
          f"{len(answers)} probes answered")
    # stash for cross-mode comparison
    key = "deamortized" if deamortized else "amortized"
    _RESULTS[key] = (size, answers)
    if len(_RESULTS) == 2:
        assert _RESULTS["amortized"] == _RESULTS["deamortized"]


_RESULTS: dict = {}
