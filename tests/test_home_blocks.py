"""A key's home block holds still between structural edits.

The home block of a key is where the batch ops send it: the block the
trie matching's fold names, with the block-base tie redirected to the
child block based at the key, as ``insert_batch`` and ``delete_batch``
do.  Block roots change only in structural edits (repartition, merge,
empty-block collection and the adapt ops), so while the block roots
stand still every key's home must too, inserts and deletes inside the
blocks included.  This is the premise a once-per-epoch matching would
rest on; the property runs over the harness's adversarial sequences.
"""

from __future__ import annotations

import pytest

from tests import harness

SEEDS = range(24)
#: small bounds, so the sequences repartition and collect blocks
BOUNDS = dict(block_bound=8, meta_block_bound=8, small_meta_bound=4)


def homes(t, keys):
    """Each key's home block (the fold's block, base tie redirected)."""
    folded, _ = t._match_keys(keys)
    base_owner = t._base_owners(keys)
    return {k: base_owner.get(k, folded[k][1]) for k in keys}


def roots(t):
    return {bid: entry.root for bid, entry in t.blocks.items()}


def batch_keys(kind, payload):
    if kind == "insert":
        return [k for k, _ in payload]
    if kind.startswith("range"):
        return [k for pair in payload for k in pair]
    return list(payload)


@pytest.mark.parametrize("seed", SEEDS)
def test_home_block_is_unchanged_between_structural_edits(seed):
    ops = harness.gen_ops(seed, batches=12, batch_size=6, ordered=True)
    keys = list(dict.fromkeys(
        k for kind, payload in ops for k in batch_keys(kind, payload)
    ))
    t = harness.make_pimtrie(**BOUNDS)
    kind, payload = ops[0]
    harness.apply_batch(t, kind, payload)
    before, at = roots(t), homes(t, keys)
    for kind, payload in ops[1:]:
        harness.apply_batch(t, kind, payload)
        now = roots(t)
        after = homes(t, keys)
        if now == before:
            moved = {k: (at[k], after[k]) for k in keys if at[k] != after[k]}
            assert not moved, (kind, moved)
        before, at = now, after
    t.validate()


def test_sequences_reach_several_blocks():
    """The property is not vacuous: the sequences grow past one block
    and run structural edits between quiet stretches."""
    edits = quiet = 0
    for seed in SEEDS:
        ops = harness.gen_ops(seed, batches=12, batch_size=6, ordered=True)
        t = harness.make_pimtrie(**BOUNDS)
        before = roots(t)
        for kind, payload in ops:
            harness.apply_batch(t, kind, payload)
            now = roots(t)
            if now != before:
                edits += 1
            elif len(now) > 1:
                quiet += 1
            before = now
    assert edits >= len(SEEDS) and quiet >= 2 * len(SEEDS), (edits, quiet)
