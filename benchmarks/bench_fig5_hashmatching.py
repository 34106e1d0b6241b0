"""E9 — Figure 5: the two-layer HashMatching index.

Figure 5 shows the efficient HashMatching path: pivot nodes on word
boundaries, a first-layer hash table keyed by hash(S_pre), and a second
layer that maps S_rem suffixes to meta-tree nodes using a padded y-fast
trie plus validity vectors.  This bench validates

* the paper's literal w=3 example (query "0" padded to "011"/"000"
  resolving to the child with S_rem="01");
* the second-layer semantics (max-LCP member, shortest on ties, no
  same-LCP proper-prefix winner) against brute force at scale;
* the O(log w) probe behaviour of the structures involved.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.fasttrie import ValidityIndex, XFastTrie, YFastTrie, ZFastTrie
from repro import BitString

bs = BitString.from_str


def test_figure5_example(benchmark):
    """The w=3 worked example of Figure 5."""

    def run():
        # second layer holding S_rem strings "" and "01" (the meta-tree
        # node for hash("000000") and its child)
        vi = ValidityIndex(3)
        vi.insert(bs(""))
        vi.insert(bs("01"))
        # S'_rem = "0" gathered below the critical pivot
        return vi.query(bs("0"))

    got = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\n[E9] Figure 5 example: query '0' -> member '{got.to_str()}'")
    # the returned member leads to the target node or its direct child:
    # here the child with S_rem = "01" wins over the root "" since its
    # LCP with the padded query is longer
    assert got == bs("01") or got == bs("")
    assert got == bs("01")


@pytest.mark.parametrize("w", [8, 16, 32])
def test_second_layer_semantics(benchmark, w):
    """Validity-index answers match brute force over random member sets."""

    def run():
        rng = np.random.default_rng(w)
        failures = 0
        cases = 0
        for _ in range(60):
            members = set()
            vi = ValidityIndex(w)
            for _ in range(int(rng.integers(1, 20))):
                ln = int(rng.integers(0, w))
                v = int(rng.integers(0, 1 << ln)) if ln else 0
                m = BitString(v, ln)
                members.add(m)
                vi.insert(m)
            for _ in range(10):
                ln = int(rng.integers(0, w + 1))
                v = int(rng.integers(0, 1 << ln)) if ln else 0
                q = BitString(v, ln)
                got = vi.query(q)
                best = max(m.lcp_len(q) for m in members)
                cases += 1
                if got.lcp_len(q) != best:
                    failures += 1
        return cases, failures

    cases, failures = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\n[E9] w={w}: {cases} queries, {failures} mismatches")
    assert failures == 0


def test_probe_counts_logarithmic(benchmark):
    """x-fast level probes and z-fast handle probes are O(log w)."""

    def run():
        w = 32
        x = XFastTrie(w)
        rng = np.random.default_rng(5)
        for v in rng.integers(0, 1 << w, size=500):
            x.insert(int(v))
        before = x.probes
        for v in rng.integers(0, 1 << w, size=200):
            x.predecessor(int(v))
        x_per_query = (x.probes - before) / 200

        z = ZFastTrie()
        members = set()
        for v in rng.integers(0, 1 << 32, size=200):
            shift = int(rng.integers(0, 24))
            members.add(BitString(int(v) >> (shift + 1), 31 - shift))
        z.bulk_build({m: None for m in members})
        before = z.probes
        for v in rng.integers(0, 1 << 31, size=200):
            z.lookup_deepest_prefix(BitString(int(v), 31))
        z_per_query = (z.probes - before) / 200
        return x_per_query, z_per_query

    x_per_query, z_per_query = benchmark.pedantic(run, iterations=1, rounds=1)
    print(
        f"\n[E9] probes/query: x-fast={x_per_query:.1f} "
        f"z-fast={z_per_query:.1f} (log2 w = 5)"
    )
    assert x_per_query <= 8  # ~log2(32) + slack
    assert z_per_query <= 10


def test_yfast_space_advantage(benchmark):
    """The y-fast layer keeps the index O(n) where x-fast pays Θ(n·w)."""

    def run():
        w = 20
        rng = np.random.default_rng(6)
        keys = [int(v) for v in rng.integers(0, 1 << w, size=3000)]
        x = XFastTrie(w)
        y = YFastTrie(w)
        for k in keys:
            x.insert(k)
            y.insert(k)
        return x.space_entries(), y.space_entries()

    xe, ye = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\n[E9] space entries: x-fast={xe} y-fast={ye} (ratio {xe / ye:.1f})")
    assert xe > 3 * ye
