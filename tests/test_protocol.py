"""The CPU-PIM protocol: a module write carries only what a kernel reads,
and a write run costs only its matching rounds.

Every maintenance write (block and piece stores, frees, mirror drops,
piece record edits, master deltas) replies with nothing, as no caller
reads its reply, so it costs no reply words.  Reads reply once per
request (:meth:`PIMSystem.exchange` refuses a module that does not reply
once per request; see ``tests/test_pim_system.py``).

Insert and Delete start with the trie matching (§5.2), and each key
rides the block round of that matching to its home block: the routed
copy's match request carries the write, which the kernel applies after
every match of the round, and each other copy of the home, and every
copy of a home the matching pulls, gets the write as a plain request in
the same round.  A match carrying a write replies as a match does,
plus, for an insert, the one value the host cannot know: the block's
word size, for its oversize check; so does a plain insert.  A plain
delete replies with nothing: the fold tells the host which keys were
stored.  :class:`TestWriteRunRounds` pins the rounds.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.obs import Tracer
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys

KEYS = [format(i * 37 % 1024, "010b") + "1" * (i % 3) for i in range(200)]
BOUNDS = dict(block_bound=8, meta_block_bound=8, small_meta_bound=4)

#: kernel -> the ops of its requests that are writes nobody reads
#: (None: every request of the kernel is one).  An insert replies with
#: the block's word size, and a match replies whatever write it carries
WRITES = {
    "pimtrie.store": None,
    "pimtrie.master": None,
    "pimtrie.wipe": None,
    "pimtrie.block": {"delete", "free", "drop_mirror"},
    "pimtrie.piece": {"add", "remove", "free"},
}


def bs(s: str) -> BitString:
    return BitString.from_str(s)


def write_kind(kernel: str, req) -> str | None:
    """``kernel:op`` when ``req`` is a write nobody reads, else None."""
    if kernel not in WRITES:
        return None
    ops = WRITES[kernel]
    if ops is None:
        return f"{kernel}:{type(req).__name__}"
    return f"{kernel}:{req.op}" if req.op in ops else None


@pytest.fixture(scope="module")
def driven():
    """Build, then run every write path once, logging each kernel call:
    ``(trie, [(kernel, {module: requests}, {module: replies})])``.  The
    log is per kernel call, not per round, so the writes a round
    carries as posted writes are in it too."""
    reset_id_counters()
    system = PIMSystem(8, seed=1)
    log: list = []
    real_register = system.register_kernel

    def register(name, fn):
        def logged(ctx, reqs):
            out = fn(ctx, reqs) or []
            log.append((name, {ctx.module_id: reqs}, {ctx.module_id: out}))
            return out

        real_register(name, logged)

    system.register_kernel = register
    keys = [bs(k) for k in KEYS[:120]]
    t = PIMTrie(
        system, PIMTrieConfig(num_modules=8, **BOUNDS),
        keys=keys, values=[k.to_str() for k in keys],
    )
    extra = [bs(k) for k in KEYS[120:]]
    t.insert_batch(extra, [k.to_str() for k in extra])
    t.delete_batch([bs(k) for k in KEYS[:120] if k.startswith("01")])
    bid = max(t.blocks, key=lambda b: len(t.blocks[b].items))
    assert t.split_block(bid) > 0
    hot = next(b for b in sorted(t.blocks) if t.blocks[b].children)
    assert t.replicate_block(hot) is not None
    assert t.merge_block(hot) > 0
    t._rebuild_hvm()
    t.validate()
    return t, log


class TestWritesReplyWithNothing:
    def test_every_write_replies_with_zero_words(self, driven):
        t, log = driven
        wc = t.system.word_cost
        seen: set[str] = set()
        for kernel, requests, replies in log:
            for m, reqs in requests.items():
                if not reqs:
                    continue
                kinds = [write_kind(kernel, r) for r in reqs]
                seen.update(k for k in kinds if k is not None)
                reads = sum(k is None for k in kinds)
                assert len(replies[m]) == reads, (kernel, kinds)
                if not reads:
                    assert sum(map(wc, replies[m])) == 0, kernel
        assert seen >= {
            "pimtrie.store:_StoreBlock", "pimtrie.store:_StorePiece",
            "pimtrie.master:_MasterDelta",
            "pimtrie.block:delete", "pimtrie.block:free",
            "pimtrie.block:drop_mirror",
            "pimtrie.piece:add", "pimtrie.piece:remove",
            "pimtrie.piece:free",
        }, seen

    def test_insert_replies_one_word_size(self, driven):
        """An insert's reply is the block's word size, a scalar of one
        word: alone for a plain insert, after the match reply for one
        that rides a match."""
        t, log = driven
        sizes = []
        for kernel, requests, replies in log:
            if kernel != "pimtrie.block":
                continue
            for m, reqs in requests.items():
                replied = [r for r in reqs if write_kind(kernel, r) is None]
                assert len(replies[m]) == len(replied)
                for r, reply in zip(replied, replies[m]):
                    if r.op == "insert":
                        sizes.append(reply)
                    elif r.write is not None and r.write.op == "insert":
                        sizes.append(reply[-1])
        assert sizes
        assert all(
            isinstance(w, int) and t.system.word_cost(w) == 1 for w in sizes
        ), sizes

    def test_no_block_op_sets_a_parent(self, driven):
        _t, log = driven
        ops = {
            r.op for kernel, requests, _ in log if kernel == "pimtrie.block"
            for reqs in requests.values() for r in reqs
        }
        assert ops <= {
            "match", "insert", "delete", "subtree", "fetch",
            "free", "drop_mirror",
        }, ops


# ----------------------------------------------------------------------
# a write run costs only its matching rounds
# ----------------------------------------------------------------------
RUN_KEYS = uniform_keys(256, 32, seed=5)
RUN_BOUNDS = dict(block_bound=32, meta_block_bound=16, small_meta_bound=8)


def run_trie() -> PIMTrie:
    reset_id_counters()
    return PIMTrie(
        PIMSystem(8, seed=1), PIMTrieConfig(num_modules=8, **RUN_BOUNDS),
        keys=RUN_KEYS, values=[str(k) for k in RUN_KEYS],
    )


def home_of(t: PIMTrie, key: BitString) -> int:
    """The block based at the deepest root prefixing ``key`` (host side,
    no round)."""
    return max(
        (b for b, e in t.blocks.items() if key.starts_with(e.root)),
        key=lambda b: len(t.blocks[b].root),
    )


def rounds_of(t: PIMTrie, fn, *args):
    """Run ``fn(*args)``; returns its result, the span each of its
    rounds ran under and each ``pimtrie.block`` round's requests."""
    tracer = Tracer(t.system)
    blocks: list[dict[int, list]] = []
    real_round = t.system.round

    def round_(kernel, requests):
        if kernel == "pimtrie.block":
            blocks.append({m: list(r) for m, r in requests.items()})
        return real_round(kernel, requests)

    t.system.round = round_
    try:
        out = fn(*args)
    finally:
        del t.system.round
        t.system.obs = None
    under = [tracer.spans[s.parent].name for s in tracer.spans if s.cat == "round"]
    return out, under, blocks


def under_block(t: PIMTrie, keys, n: int) -> list[BitString]:
    """``n`` fresh keys under the root of the block holding most keys,
    so the batch's fragment there outgrows the push threshold."""
    bid = max(sorted(t.blocks), key=lambda b: len(t.blocks[b].items))
    root = t.blocks[bid].root
    fresh = [
        root + k.suffix_from(len(root))
        for k in uniform_keys(4 * n, 32, seed=61)
    ]
    return [k for k in dict.fromkeys(fresh) if k not in keys][:n]


def batch(t: PIMTrie, op: str, home: str) -> tuple[list, list]:
    """``(setup inserts, the write run's keys)`` for one case."""
    spread = uniform_keys(3, 32, seed=77)
    if home == "pulled":
        many = under_block(t, set(RUN_KEYS), 40)
        if op == "insert":
            return [], many + spread[:1]
        return many, many[:30] + RUN_KEYS[:1]
    if op == "insert":
        return [], spread
    return [], RUN_KEYS[:3] + spread[:1]  # an absent key too


class TestWriteRunRounds:
    """Insert and delete runs with pushed homes, a pulled home and a
    replicated home: each costs exactly the rounds of matching its keys,
    none runs under ``insert.apply`` / ``delete.apply``, the block
    round carries every write, and every copy stays equal."""

    @pytest.mark.parametrize("home", ["pushed", "pulled", "replicated"])
    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_a_write_run_costs_its_matching_rounds(self, op, home):
        t, twin = run_trie(), run_trie()
        setup, keys = batch(t, op, home)
        oracle = dict(zip(RUN_KEYS, map(str, RUN_KEYS)))
        for x in (t, twin):
            if setup:
                x.insert_batch(setup, [str(k) for k in setup])
            if home == "replicated":
                assert x.replicate_block(home_of(x, keys[0])) is not None
        oracle.update(zip(setup, map(str, setup)))
        homes = {k: home_of(t, k) for k in keys}
        copies = {b: t.blocks[b]._copies() for b in homes.values()}

        _, want, _ = rounds_of(twin, twin.lcp_batch, keys)
        if op == "insert":
            got, under, blocks = rounds_of(
                t, t.insert_batch, keys, [str(k) for k in keys]
            )
            assert got == len(set(keys) - set(oracle))
            oracle.update(zip(keys, map(str, keys)))
        else:
            got, under, blocks = rounds_of(t, t.delete_batch, keys)
            assert got == len(set(keys) & set(oracle))
            for k in keys:
                oracle.pop(k, None)

        # the matching rounds, then only the structural edits the write
        # triggers: no round of its own
        matching = [u for u in under if u.startswith("match.")]
        assert matching == want
        assert under[:len(matching)] == matching
        assert all(u.startswith("maint.") for u in under[len(matching):])
        assert not any(u.endswith(".apply") for u in under)

        # the last matching round is a block round, and it carries each
        # key's write to every copy of its home
        assert want[-1] == "match.blocks"
        n_block_rounds = sum(u == "match.blocks" for u in want)
        last = blocks[n_block_rounds - 1]
        carried: dict[int, list[int]] = defaultdict(list)
        riding = 0
        for m, reqs in last.items():
            for r in reqs:
                w = r if r.op == op else r.write
                if w is not None:
                    assert w.op == op
                    carried[w.block_id].append(m)
                    riding += r is not w
        assert riding > 0
        for bid, ms in copies.items():
            assert sorted(carried[bid]) == sorted(ms)
        if home == "pulled":
            fetched = {
                r.block_id for rnd in blocks[:n_block_rounds - 1]
                for reqs in rnd.values() for r in reqs if r.op == "fetch"
            }
            assert fetched & set(homes.values())
        if home == "replicated":
            bid = homes[keys[0]]
            assert len(copies[bid]) == 2
            kinds = sorted(
                r.op for m in copies[bid] for r in last[m]
                if (r.write or r).block_id == bid
            )
            assert kinds == sorted(["match", op])

        t.validate()
        probes = list(dict.fromkeys(keys + RUN_KEYS[::9]))
        assert t.lookup_batch(probes) == [oracle.get(k) for k in probes]
