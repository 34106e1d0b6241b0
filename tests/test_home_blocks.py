"""The trie matching names each key's home block.

The home block of a key is where the batch ops send it: the block the
trie matching's fold names.  A key equal to a block base reaches two
blocks at one depth: the parent block's mirror leaf and the child
block's root.  The local match lands on a mirror with a cutoff, so only
the child block matches the key fully there, and the match merge (full
beats cutoff at one depth) names the child block, whose root holds the
key if it is stored.  No query node gets a full match from two blocks
at one depth, which is the premise of that single merge rule.

Block roots change only in structural edits (repartition, merge,
empty-block collection and the adapt ops), so while the block roots
stand still every key's home must too, inserts and deletes inside the
blocks included.  This is the premise a once-per-epoch matching would
rest on.  Both properties run over the harness's adversarial sequences.
"""

from __future__ import annotations

import pytest

from repro.core import pimtrie
from tests import harness

SEEDS = range(24)
#: the nightly sweep of the base-key property, disjoint from SEEDS
SLOW_SEEDS = range(24, 224)
GROUP = 10  # seeds per slow test item
#: small bounds, so the sequences repartition and collect blocks
BOUNDS = dict(block_bound=8, meta_block_bound=8, small_meta_bound=4)


def sequence(seed):
    """The seed's ops and every key they name, in first-use order."""
    ops = harness.gen_ops(seed, batches=12, batch_size=6, ordered=True)
    keys = list(dict.fromkeys(
        k for kind, payload in ops for k in batch_keys(kind, payload)
    ))
    return ops, keys


def homes(t, keys):
    """Each key's home block: the block the fold names."""
    folded, _ = t._match_keys(keys)
    return {k: folded[k][1] for k in keys}


def roots(t):
    return {bid: entry.root for bid, entry in t.blocks.items()}


def bases(t):
    """Every non-root block's base string, mapped to the block."""
    return {
        entry.root: bid for bid, entry in t.blocks.items()
        if bid != t.root_block_id
    }


def batch_keys(kind, payload):
    if kind == "insert":
        return [k for k, _ in payload]
    if kind.startswith("range"):
        return [k for pair in payload for k in pair]
    return list(payload)


@pytest.mark.parametrize("seed", SEEDS)
def test_home_block_is_unchanged_between_structural_edits(seed):
    ops, keys = sequence(seed)
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


def check_base_keys(seed):
    """After each batch of the seed's sequence, match every non-root
    block base together with the sequence's keys: the fold must name
    the block based there."""
    ops, keys = sequence(seed)
    t = harness.make_pimtrie(**BOUNDS)
    for kind, payload in ops:
        harness.apply_batch(t, kind, payload)
        based = bases(t)
        got = homes(t, [*keys, *based])
        wrong = {
            str(k): (bid, got[k]) for k, bid in based.items() if got[k] != bid
        }
        assert not wrong, (seed, kind, wrong)
    t.validate()


@pytest.mark.parametrize("seed", SEEDS)
def test_block_base_key_homes_in_the_block_based_there(seed):
    check_base_keys(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_no_two_blocks_match_a_node_fully_at_one_depth(seed, monkeypatch):
    """Spy on the block replies of each trie matching while the
    base-key property runs: no query node may get a full match from
    two blocks at one depth."""
    replies: list = []
    ties: list = []
    matchings = []
    local = pimtrie.local_match_columnar
    match_blocks = pimtrie.PIMTrie._match_blocks

    def spy_local(*args, **kwargs):
        res = local(*args, **kwargs)
        replies.append(res)
        return res

    def spy_match_blocks(self, *args, **kwargs):
        replies.clear()
        match_blocks(self, *args, **kwargs)
        matchings.append(len(replies))
        full: dict = {}
        for res in replies:
            for uid, (depth, _has_key, _value) in res.node_matches.items():
                bid = full.setdefault((uid, depth), res.block_id)
                if bid != res.block_id:
                    ties.append((uid, depth, bid, res.block_id))

    monkeypatch.setattr(pimtrie, "local_match_columnar", spy_local)
    monkeypatch.setattr(pimtrie.PIMTrie, "_match_blocks", spy_match_blocks)
    check_base_keys(seed)
    assert not ties, (seed, ties)
    # the spy is bound: the matchings ran through it
    assert sum(matchings) >= len(matchings) > 0, matchings


@pytest.mark.slow
@pytest.mark.parametrize(
    "start", list(SLOW_SEEDS)[::GROUP], ids=lambda s: f"seeds{s}"
)
def test_block_base_key_sweep(start):
    for seed in range(start, start + GROUP):
        check_base_keys(seed)


def test_sequences_reach_several_blocks():
    """The properties are not vacuous: the sequences grow past one
    block, run structural edits between quiet stretches, and leave
    block bases for the base-key test to check after many batches."""
    edits = quiet = based = 0
    for seed in SEEDS:
        ops, _ = sequence(seed)
        t = harness.make_pimtrie(**BOUNDS)
        before = roots(t)
        for kind, payload in ops:
            harness.apply_batch(t, kind, payload)
            now = roots(t)
            if now != before:
                edits += 1
            elif len(now) > 1:
                quiet += 1
            based += len(bases(t))
            before = now
    assert edits >= len(SEEDS) and quiet >= 2 * len(SEEDS), (edits, quiet)
    assert based >= 40 * len(SEEDS), based
