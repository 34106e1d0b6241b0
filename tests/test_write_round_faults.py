"""Faults on the block round a write run rides.

An insert or delete run sends each key to its home block in its
matching's block round, so that round is both a read (the matches) and
a write.  Whichever way it aborts — crash, transient kernel error, lost
request, lost reply (the kernels ran and applied the writes) — the
batch is retried by ``run_with_recovery`` and ends ``validate()``-clean
with the answers of a faultless replay, and the retried run returns the
faultless run's count of new or removed keys.
"""

from __future__ import annotations

import pytest

from repro import PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import FaultPlan, run_with_recovery
from repro.obs import Tracer
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys

P = 8
KINDS = ("crash", "transient", "request_lost", "reply_lost")


def fresh_trie(seed: int) -> tuple[PIMTrie, list]:
    reset_id_counters()
    keys = uniform_keys(96, 32, seed=seed)
    cfg = PIMTrieConfig(
        num_modules=P, block_bound=16, meta_block_bound=8, small_meta_bound=4
    )
    trie = PIMTrie(PIMSystem(P, seed=3), cfg, keys=keys,
                   values=[str(k) for k in keys])
    return trie, keys


def write_run(trie: PIMTrie, keys: list, op: str, seed: int):
    """The op's batch: fresh keys to insert, or stored keys and one
    absent key to delete."""
    if op == "insert":
        extra = uniform_keys(12, 32, seed=1000 + seed)
        return trie.insert_batch, (extra, [f"v{k}" for k in extra])
    return trie.delete_batch, (keys[seed % 7::5] + uniform_keys(1, 32, seed=seed),)


def block_round(seed: int, op: str) -> tuple[int, list[int]]:
    """The write run's last ``match.blocks`` round, counted from the
    plan's install, and the modules it addresses with a write."""
    trie, keys = fresh_trie(seed)
    tracer = Tracer(trie.system)
    inj = trie.system.install_faults(FaultPlan.empty())
    writers: dict[int, list[int]] = {}
    real_round = trie.system.round

    def round_(kernel, requests):
        if kernel == "pimtrie.block":
            writers[inj.round_index + 1] = sorted(
                m for m, reqs in requests.items()
                if any(r.op == op or r.write is not None for r in reqs)
            )
        return real_round(kernel, requests)

    trie.system.round = round_
    fn, args = write_run(trie, keys, op, seed)
    fn(*args)
    rounds = [s for s in tracer.spans if s.cat == "round"]
    under = [tracer.spans[s.parent].name for s in rounds]
    rnd = max(i for i, u in enumerate(under) if u == "match.blocks")
    assert writers[rnd], "the block round carries no write"
    return rnd, writers[rnd]


def plan_for(kind: str, rnd: int, writers: list[int]) -> FaultPlan:
    if kind == "crash":
        return FaultPlan(crashes={writers[0]: rnd})
    events = frozenset((rnd, m) for m in range(P))
    field = {
        "transient": "transient_errors",
        "request_lost": "drop_requests",
        "reply_lost": "drop_replies",
    }[kind]
    return FaultPlan(**{field: events})


def answers(trie: PIMTrie, keys: list):
    probes = keys[::3] + uniform_keys(8, 32, seed=77)
    prefixes = [k.prefix(3) for k in keys[::17]]
    return (
        trie.lcp_batch(probes),
        trie.lookup_batch(keys),
        trie.subtree_batch(prefixes),
        sorted(map(str, trie.keys())),
    )


def check(seed: int, op: str, kind: str) -> None:
    rnd, writers = block_round(seed, op)
    twin, keys = fresh_trie(seed)
    fn, args = write_run(twin, keys, op, seed)
    count = fn(*args)
    assert count > 0
    twin.validate()
    want = answers(twin, keys + list(args[0]))

    trie, keys = fresh_trie(seed)
    inj = trie.system.install_faults(plan_for(kind, rnd, writers))
    fn, args = write_run(trie, keys, op, seed)
    assert run_with_recovery(trie, fn, *args) == count
    assert inj.stats.aborted_rounds == 1 and inj.stats.retries == 1
    assert not inj.crashed and not trie._dirty_structure
    assert trie.system.posted == 0
    trie.system.clear_faults()
    trie.validate()
    assert answers(trie, keys + list(args[0])) == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_an_aborted_write_round_is_retried_to_a_faultless_state(op, kind):
    check(5, op, kind)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_aborted_write_rounds_over_seeds(op, kind, seed):
    check(seed, op, kind)
