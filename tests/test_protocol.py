"""The CPU-PIM protocol: a module write carries only what a kernel reads.

Every maintenance write (block and piece stores, frees, mirror drops,
piece record edits, master deltas) and the delete replies with nothing,
as no caller reads its reply, so it costs no reply words: the trie
matching already found every key a delete sends stored, so the host
knows the count.  Reads reply once per request, and so does the insert,
with the one value the host cannot know: the block's word size, for
its oversize check (:meth:`PIMSystem.exchange` refuses a module that
does not reply once per request; see ``tests/test_pim_system.py``).
"""

from __future__ import annotations

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.perf import reset_id_counters

KEYS = [format(i * 37 % 1024, "010b") + "1" * (i % 3) for i in range(200)]
BOUNDS = dict(block_bound=8, meta_block_bound=8, small_meta_bound=4)

#: kernel -> the ops of its requests that are writes nobody reads
#: (None: every request of the kernel is one)
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
        """An insert round's one reply per request is the block's word
        size: a scalar, one word."""
        t, log = driven
        rounds = [
            (requests, replies) for kernel, requests, replies in log
            if kernel == "pimtrie.block" and any(
                r.op == "insert" for reqs in requests.values() for r in reqs
            )
        ]
        assert rounds
        for requests, replies in rounds:
            for m, reqs in requests.items():
                assert {r.op for r in reqs} == {"insert"}
                assert len(replies[m]) == len(reqs)
                assert all(
                    isinstance(w, int) and t.system.word_cost(w) == 1
                    for w in replies[m]
                ), replies[m]

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
