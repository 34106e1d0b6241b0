"""Posted writes under faults.

A structural edit posts its writes nobody reads and flushes them as one
round when its outermost frame exits; a read round inside the edit
drains the queue too.  Whichever way a round carrying posted writes
aborts — crash, transient kernel error, lost request, lost reply — the
abort unwinds the structural frame, the queue is dropped, and recovery
rebuilds from the replica log: ``validate()`` passes, answers equal a
faultless replay, and no posted write outlives its edit.
"""

from __future__ import annotations

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import FaultPlan, RoundAborted, recover, run_with_recovery
from repro.obs import Tracer
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys

P = 8
KEYS = uniform_keys(96, 32, seed=5)
KINDS = ("crash", "transient", "request_lost", "reply_lost")


def fresh_trie() -> PIMTrie:
    reset_id_counters()
    system = PIMSystem(P, seed=3)
    cfg = PIMTrieConfig(
        num_modules=P, block_bound=16, meta_block_bound=8, small_meta_bound=4
    )
    trie = PIMTrie(system, cfg, keys=KEYS, values=[str(k) for k in KEYS])
    # no posted write outlives a structural frame: checked at every round
    real_round = system.round

    def round_(kernel, requests):
        assert trie._maint_depth > 0 or not system.posted
        return real_round(kernel, requests)

    system.round = round_
    return trie


def plan_for(kind: str, rnd: int, modules) -> FaultPlan:
    if kind == "crash":
        return FaultPlan(crashes={m: rnd for m in modules})
    events = frozenset((rnd, m) for m in modules)
    field = {
        "transient": "transient_errors",
        "request_lost": "drop_requests",
        "reply_lost": "drop_replies",
    }[kind]
    return FaultPlan(**{field: events})


def answers(trie: PIMTrie):
    probes = KEYS[::5] + uniform_keys(8, 32, seed=77)
    prefixes = [k.prefix(3) for k in KEYS[::17]] + [BitString(0, 0)]
    return (
        trie.lcp_batch(probes),
        trie.lookup_batch(KEYS),
        trie.subtree_batch(prefixes),
        sorted(map(str, trie.keys())),
    )


def split_replicated(trie: PIMTrie) -> tuple[int, int]:
    """Replicate the fullest block; returns (block, replica module)."""
    bid = max(trie.blocks, key=lambda b: len(trie.blocks[b].items))
    return bid, trie.replicate_block(bid)


def test_split_of_a_replicated_block_is_a_drain_and_a_flush():
    """The schedule the fault cases below rely on: the split's fetch
    drains the posted replica free, and one flush carries the rest."""
    trie = fresh_trie()
    bid, replica = split_replicated(trie)
    tracer = Tracer(trie.system)
    inj = trie.system.install_faults(FaultPlan.empty())
    assert trie.split_block(bid, bound=8) > 0
    assert inj.round_index == 1
    rounds = [s for s in tracer.spans if s.cat == "round"]
    assert [r.args.get("posted") for r in rounds[:1]] == [["pimtrie.block"]]
    assert rounds[0].args["modules"] == 2  # primary fetch + replica free
    assert replica != trie.blocks[bid].module
    # the flush lies inside the outermost maint span
    split = next(s for s in tracer.spans if s.name == "maint.split_block")
    assert rounds[1].parent == split.sid
    assert len(rounds[1].args["posted"]) >= 3


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", ["drain", "flush"])
def test_aborted_round_with_posted_writes_recovers(where, kind):
    twin = fresh_trie()
    bid, _ = split_replicated(twin)
    twin.split_block(bid, bound=8)
    want = answers(twin)

    trie = fresh_trie()
    bid, replica = split_replicated(trie)
    if where == "drain":
        # the fetch round, at the module only the posted free addresses
        plan = plan_for(kind, 0, [replica])
    else:
        primary = trie.blocks[bid].module
        plan = plan_for(kind, 1, [primary] if kind == "crash" else range(P))
    inj = trie.system.install_faults(plan)
    with pytest.raises(RoundAborted) as got:
        trie.split_block(bid, bound=8)
    assert got.value.cause == kind
    assert got.value.round_index == (0 if where == "drain" else 1)
    if where == "drain":
        assert got.value.modules == (replica,)
    assert trie.system.posted == 0
    assert trie._maint_depth == 0 and trie._dirty_structure

    assert recover(trie) > 0
    assert not inj.crashed and not trie._dirty_structure
    assert trie.system.posted == 0
    trie.validate()
    assert answers(trie) == want

    # the healed index keeps working, through more structural edits
    extra = uniform_keys(24, 32, seed=41)
    for t in (trie, twin):
        run_with_recovery(t, t.insert_batch, extra, [str(k) for k in extra])
        run_with_recovery(t, t.delete_batch, KEYS[::4])
        assert t.system.posted == 0
        t.validate()
    assert answers(trie) == answers(twin)


def insert_rounds(extra) -> int:
    """Injected rounds one repartitioning insert batch consumes."""
    trie = fresh_trie()
    tracer = Tracer(trie.system)
    inj = trie.system.install_faults(FaultPlan.empty())
    trie.insert_batch(extra, [str(k) for k in extra])
    last = [s for s in tracer.spans if s.cat == "round"][-1]
    # the batch ends on the flush of the repartition it triggered
    assert tracer.spans[last.parent].name == "maint.repartition_blocks"
    assert last.args["posted"]
    return inj.round_index + 1


@pytest.mark.parametrize("kind", KINDS)
def test_insert_retried_after_its_flush_aborts(kind):
    extra = uniform_keys(40, 32, seed=42)
    n = insert_rounds(extra)
    twin = fresh_trie()
    twin.insert_batch(extra, [str(k) for k in extra])

    trie = fresh_trie()
    inj = trie.system.install_faults(plan_for(kind, n - 1, range(P)))
    run_with_recovery(trie, trie.insert_batch, extra, [str(k) for k in extra])
    assert inj.stats.aborted_rounds == 1 and inj.stats.retries == 1
    assert inj.stats.recoveries == 1  # the abort left the structure dirty
    assert trie.system.posted == 0 and not trie._dirty_structure
    trie.validate()
    assert answers(trie) == answers(twin)
