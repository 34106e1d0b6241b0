"""A pinned replay of the three Table-1 baselines.

Seeded P=8 instances of :class:`DistributedRadixTree`,
:class:`RangePartitionedIndex` and :class:`DistributedXFastTrie` (which
stores every level in a :class:`PIMHashTable`, so that class is covered
too) are driven through build, insert, lcp, lookup, delete and subtree.
Each step logs the op's reply and the metrics it added
(``as_dict(include_per_module=True)`` of the step's delta), and the
sha256 of that entry must equal ``PIN[baseline][step]``: a refactor of
the baselines' round plumbing has to keep every reply, message order
and PIM Model count bit for bit, and a deliberate change to one op moves
only that op's entry.  ``tests/test_bench.py`` recomputes the digests
under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import PIMSystem
from repro.baselines import (
    DistributedRadixTree,
    DistributedXFastTrie,
    RangePartitionedIndex,
)
from repro.workloads import uniform_keys

from .test_maintenance_pin import _plain

P = 8
LENGTH = 32

BUILD = {
    "radix": lambda system, keys, vals: DistributedRadixTree(
        system, span=4, keys=keys, values=vals
    ),
    "range": lambda system, keys, vals: RangePartitionedIndex(
        system, keys=keys, values=vals
    ),
    "xfast": lambda system, keys, vals: DistributedXFastTrie(
        system, LENGTH, keys=keys, values=vals
    ),
}

#: sha256 (first 16 hex digits) of each step's log entry, per baseline
PIN = {
    "radix": {
        "build": "9bcac8b631d05359",
        "insert": "abcf98bcfd1880fa",
        "lcp": "9779d43368127305",
        "delete": "d5ff1c3100b2403b",
        "subtree": "f63f4fde8deca8e8",
    },
    "range": {
        "build": "e601dfc63e67da9e",
        "insert": "709e421462106196",
        "lcp": "3ff30298b6aaf099",
        "lookup": "01bfab463367a325",
        "delete": "d4fbbf81550de470",
        "subtree": "cf527efdf13a8f60",
    },
    "xfast": {
        "build": "dd2df2fd64a78fe1",
        "insert": "70a3952e5a091779",
        "lcp": "9eb676f2cda14756",
        "lookup": "2d9b9d262a2ec3a2",
        "delete": "7a4227bb39544e41",
        "subtree": "fefa75677f03e2ad",
    },
}


def replay(name: str) -> dict[str, str]:
    """Drive baseline ``name``; returns its per-step digests."""
    system = PIMSystem(P, seed=11)
    keys = uniform_keys(64, LENGTH, seed=5)
    fresh = uniform_keys(16, LENGTH, seed=6)
    digests: dict[str, str] = {}
    mark = system.snapshot()

    def step(label: str, reply) -> None:
        nonlocal mark
        now = system.snapshot()
        entry = [label, _plain(reply),
                 now.delta(mark).as_dict(include_per_module=True)]
        digests[label] = hashlib.sha256(
            json.dumps(entry, sort_keys=True).encode()
        ).hexdigest()[:16]
        mark = now

    index = BUILD[name](system, keys, [str(k) for k in keys])
    step("build", index.num_keys)
    step("insert", index.insert_batch(
        fresh[:12] + keys[:4], [f"i{j}" for j in range(16)]
    ))
    # stored and fresh queries, so searches take many distinct paths
    queries = keys[::4] + fresh[12:]
    step("lcp", index.lcp_batch(queries))
    if name != "radix":  # the radix tree answers no exact lookups
        step("lookup", index.lookup_batch(queries + fresh[:4]))
    step("delete", index.delete_batch(keys[1::4] + fresh[12:14]))
    step("subtree", index.subtree_batch(
        [keys[0].prefix(4), fresh[0].prefix(8)]
    ))
    return digests


@pytest.mark.parametrize("name", sorted(BUILD))
def test_baseline_replays_the_pinned_digests(name):
    assert replay(name) == PIN[name]
