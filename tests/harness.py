"""Differential-testing harness: seeded op sequences, reference oracle,
divergence detection, and shrinking.

The harness generates randomized-but-reproducible sequences of batched
operations (insert / delete / lcp / lookup / subtree, plus the ordered
kinds pred / succ / range / count / topk when ``gen_ops(...,
ordered=True)``) and replays each sequence through every registered
index implementation plus a plain in-memory oracle
(:class:`DictOracle`).  All indexes must produce the oracle's answers —
batching, distribution, and placement are execution strategies, never
semantic changes.

The oracle answers ordered queries by *independent* means — ``bisect``
over a freshly sorted key list for pred/succ/range, a
``starts_with`` filter for count/topk — so agreement with the trie's
treap-backed :class:`repro.ordered.OrderedSnapshot` is evidence, not
tautology.  Range and top-k batches encode their per-batch parameter in
the kind string (``"range:3"`` = limit 3, ``"range:0"`` = unlimited,
``"topk:4"`` = k 4) so the ``(kind, payload)`` sequence shape — and
with it :func:`shrink` and :func:`format_ops` — stays unchanged.

Key-generation is adversarial on purpose: keys are drawn from a small
pool of shared anchors, bit-flipped and prefix-extended variants of
those anchors, previously inserted keys (hits), and fresh random keys
(misses), with variable lengths — so LCP collisions, prefix-of-a-key
queries, deletes of absent keys, and duplicate inserts inside one batch
all occur with high probability in every sequence.

When a sequence diverges, :func:`shrink` greedily minimizes it (drop
whole batches, then single ops) while preserving the failure, so the
pytest assertion message contains a small hand-checkable repro.

Used by ``tests/test_differential.py``; importable from other tests.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import pytest

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.baselines import DistributedRadixTree, RangePartitionedIndex
from repro import perf
from repro.perf import reset_id_counters

__all__ = [
    "DictOracle",
    "TARGETS",
    "CLUSTER_POLICIES",
    "CLUSTER_SHARD_COUNTS",
    "cluster_targets",
    "gen_ops",
    "make_cluster",
    "run_sequence",
    "run_serve_differential",
    "divergences",
    "shrink",
    "format_ops",
]

P = 4  # small on purpose: more cross-module interaction per key
MAX_BITS = 24


# ----------------------------------------------------------------------
class DictOracle(perf.DictOracle):
    """:class:`repro.perf.DictOracle` plus point lookup and the path set
    of every key ever inserted (what a lazy-deletion structure's LCP
    ranges over)."""

    def __init__(self) -> None:
        super().__init__()
        #: every key ever inserted — the path set of a lazy-deletion
        #: structure (dist-radix unmarks keys but keeps their paths)
        self.ever: set[BitString] = set()

    def lcp_ever_batch(self, keys: list[BitString]) -> list[int]:
        return [
            max((k.lcp_len(s) for s in self.ever), default=0) for k in keys
        ]

    def lookup_batch(self, keys: list[BitString]) -> list[Any]:
        return [self.store.get(k) for k in keys]

    def insert_batch(self, keys: list[BitString], values: list[Any]) -> None:
        super().insert_batch(keys, values)
        self.ever.update(keys)


# ----------------------------------------------------------------------
def make_pimtrie(**config: Any) -> PIMTrie:
    """A fresh P-module PIM-trie; ``config`` overrides PIMTrieConfig
    fields (the ablation configurations, e.g. ``use_pivots=False``)."""
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    return PIMTrie(system, PIMTrieConfig(num_modules=P, **config))


def make_radix() -> DistributedRadixTree:
    # span=1 is the binary radix tree, whose LCP/subtree semantics are
    # exact for arbitrary-length keys (wider spans are chunk-aligned)
    return DistributedRadixTree(PIMSystem(P, seed=1), span=1)


def make_range() -> RangePartitionedIndex:
    return RangePartitionedIndex(PIMSystem(P, seed=1))


#: name -> zero-arg factory for every differential target
TARGETS: dict[str, Callable[[], Any]] = {
    "pim-trie": make_pimtrie,
    "dist-radix": make_radix,
    "range-partition": make_range,
}


# ----------------------------------------------------------------------
# cluster mode: the same oracle comparison, run against multi-rack
# clusters over both sharding policies and a spread of shard counts
# ----------------------------------------------------------------------
CLUSTER_POLICIES = ("hash", "range")
CLUSTER_SHARD_COUNTS = (1, 2, 4, 8)
#: modules per rack — small for the same reason P is
CLUSTER_P_RACK = 2


def make_cluster(policy: str, shards: int, replication: int = 1) -> Any:
    """A fresh empty cluster target (PIMTrieConfig-default racks).

    ``range`` uses uniform bootstrap separators (the cluster starts
    empty, so there are no resident keys to split) — routing is still
    non-trivial because the harness keys are 4..MAX_BITS bits.
    """
    from repro.cluster import HashSharding, PIMCluster, RangeSharding

    reset_id_counters()
    if policy == "hash":
        pol = HashSharding(shards)
    elif policy == "range":
        pol = RangeSharding.uniform(shards)
    else:
        raise ValueError(f"unknown cluster policy {policy!r}")
    return PIMCluster(
        pol, replication=replication, modules_per_rack=CLUSTER_P_RACK,
        root_seed=1,
    )


def cluster_targets(
    *,
    policies: tuple = CLUSTER_POLICIES,
    shard_counts: tuple = CLUSTER_SHARD_COUNTS,
    replication: int = 1,
) -> dict[str, Callable[[], Any]]:
    """Factories for :func:`divergences` covering the cluster grid."""
    return {
        f"cluster-{p}-s{s}": (
            lambda p=p, s=s: make_cluster(p, s, replication)
        )
        for p in policies
        for s in shard_counts
    }


# ----------------------------------------------------------------------
# op-sequence generation
# ----------------------------------------------------------------------
def _rand_key(rng: random.Random, bits: Optional[int] = None) -> BitString:
    n = bits if bits is not None else rng.randint(4, MAX_BITS)
    return BitString(rng.getrandbits(n), n)


def _collision_key(
    rng: random.Random, anchors: list[BitString], inserted: list[BitString]
) -> BitString:
    """A key engineered to collide with existing paths."""
    roll = rng.random()
    if inserted and roll < 0.35:
        return rng.choice(inserted)  # exact hit
    base = rng.choice(anchors if not inserted or roll < 0.7 else inserted)
    mode = rng.randrange(3)
    if mode == 0 and len(base) > 1:  # flip one bit: long shared prefix
        i = rng.randrange(len(base))
        return BitString(base.value ^ (1 << (len(base) - 1 - i)), len(base))
    if mode == 1:  # extend: base becomes a proper prefix
        extra = rng.randint(1, 6)
        return base + BitString(rng.getrandbits(extra), extra)
    return base.prefix(rng.randint(1, len(base)))  # truncate: query above


def gen_ops(
    seed: int, *, batches: int = 8, batch_size: int = 5,
    ordered: bool = False,
) -> list[tuple[str, list]]:
    """A reproducible sequence of (kind, payload) batches.

    Payloads are ``[(key, value), ...]`` for inserts, ``[(lo, hi), ...]``
    for ranges, and ``[key, ...]`` otherwise.  Values are unique strings
    so lookup answers are unambiguous (a ``None`` reply always means
    "absent").  ``ordered=True`` mixes in the ordered kinds — pred /
    succ / count plus parameterized ``"range:<limit>"`` and
    ``"topk:<k>"`` batches (``range:0`` = unlimited); the default keeps
    every pre-existing seeded sequence byte-identical.
    """
    rng = random.Random(seed)
    anchors = [_rand_key(rng) for _ in range(4)]
    inserted: list[BitString] = []
    serial = 0
    ops: list[tuple[str, list]] = []
    kinds = ["insert", "delete", "lcp", "lookup", "subtree"]
    weights = [4, 2, 3, 2, 2]
    if ordered:
        kinds += ["pred", "succ", "count", "range", "topk"]
        weights += [2, 2, 1, 2, 2]
    for b in range(batches):
        # front-load writes so reads have something to find
        kind = rng.choices(
            kinds,
            weights=weights if b else [1] + [0] * (len(kinds) - 1),
        )[0]
        size = rng.randint(1, batch_size)
        if kind == "insert":
            payload = []
            for _ in range(size):
                k = _collision_key(rng, anchors, inserted)
                payload.append((k, f"v{serial}"))
                serial += 1
                inserted.append(k)
        elif kind in ("subtree", "count", "topk"):
            payload = []
            for _ in range(size):
                k = _collision_key(rng, anchors, inserted)
                payload.append(k.prefix(rng.randint(1, min(8, len(k)))))
            if kind == "topk":
                kind = f"topk:{rng.randint(1, 5)}"
        elif kind == "range":
            # collision-derived endpoints: bounds brush stored keys and
            # their prefixes, and occasionally invert (empty answer)
            kind = f"range:{rng.randint(1, 6) if rng.random() < 0.7 else 0}"
            payload = []
            for _ in range(size):
                a = _collision_key(rng, anchors, inserted)
                c = _collision_key(rng, anchors, inserted)
                payload.append((a, c) if a <= c or rng.random() < 0.1
                               else (c, a))
        else:  # delete / lcp / lookup / pred / succ
            payload = [
                _collision_key(rng, anchors, inserted) for _ in range(size)
            ]
            if kind == "delete":
                gone = set(payload)
                inserted = [k for k in inserted if k not in gone]
        ops.append((kind, payload))
    return ops


# ----------------------------------------------------------------------
# replay and comparison
# ----------------------------------------------------------------------
def _normalize(kind: str, reply: Any) -> Any:
    base = kind.split(":", 1)[0]
    if base == "subtree":
        return [sorted((str(k), v) for k, v in items) for items in reply]
    if base in ("range", "topk"):
        # answer order is part of the contract: stringify, do NOT sort
        return [[(str(k), v) for k, v in items] for items in reply]
    if base in ("pred", "succ"):
        return [None if r is None else (str(r[0]), r[1]) for r in reply]
    return reply


def apply_batch(index: Any, kind: str, payload: list) -> Any:
    """Run one batch; returns the normalized reply (None for writes
    and for ops the target does not expose)."""
    if kind == "insert":
        index.insert_batch([k for k, _ in payload], [v for _, v in payload])
        return None
    if kind == "delete":
        index.delete_batch(list(payload))
        return None
    if kind == "lookup":
        if not hasattr(index, "lookup_batch"):
            return None  # dist-radix exposes no point lookup
        return list(index.lookup_batch(list(payload)))
    if kind == "lcp":
        return list(index.lcp_batch(list(payload)))
    if kind == "subtree":
        return _normalize("subtree", index.subtree_batch(list(payload)))
    base = kind.split(":", 1)[0]
    if base in ("pred", "succ", "count", "range", "topk"):
        # the flat baselines expose no ordered surface — skip, as with
        # lookup on dist-radix
        if not hasattr(index, "predecessor_batch"):
            return None
        if base == "pred":
            return _normalize(kind, index.predecessor_batch(list(payload)))
        if base == "succ":
            return _normalize(kind, index.successor_batch(list(payload)))
        if base == "count":
            return list(index.prefix_count_batch(list(payload)))
        param = int(kind.split(":", 1)[1])
        if base == "range":
            return _normalize(
                kind,
                index.range_batch(list(payload), limit=param or None),
            )
        return _normalize(kind, index.topk_batch(list(payload), param))
    raise ValueError(f"unknown op kind {kind!r}")


def run_sequence(factory: Callable[[], Any], ops: list) -> list[Any]:
    """Replies of one target over a full sequence, batch by batch."""
    index = factory()
    return [apply_batch(index, kind, payload) for kind, payload in ops]


# ----------------------------------------------------------------------
# serve-layer differential support
# ----------------------------------------------------------------------
def run_serve_differential(
    trace: Any,
    policy: Any,
    *,
    make_index: Callable[[], Any],
    fault_plan: Any = None,
    pipelined: bool = False,
    prep_time: float = 0.0,
    asm_time: float = 0.0,
):
    """One serve-layer differential leg: ``trace`` through
    :class:`repro.serve.EpochServer` — optionally faulted and/or
    pipelined — against a faultless direct sequential replay on a twin
    index from the same factory.

    Returns ``(report, served, direct)`` where ``served`` maps seq →
    server reply over all completed ops and ``direct`` maps seq →
    reference reply over the ops the server admitted (a bounded queue
    may legitimately shed the rest).  Callers assert ``served`` equals
    ``direct`` op for op — the equivalence guarantee, parameterized over
    execution mode.
    """
    from repro.serve import EpochServer, replay_direct

    index = make_index()
    if fault_plan is not None:
        index.system.install_faults(fault_plan)
    report = EpochServer(
        index, policy, pipelined=pipelined,
        prep_time=prep_time, asm_time=asm_time,
    ).run(trace)
    served = {c.seq: c.reply for c in report.completed}
    twin = make_index()
    direct = dict(
        replay_direct(twin, [o for o in trace.ops if o.seq in served])
    )
    return report, served, direct


# ----------------------------------------------------------------------
# columnar differential support
# ----------------------------------------------------------------------
@contextmanager
def object_pipeline() -> Iterator[None]:
    """Inside the block every PIM-trie batch runs the object reference
    pipeline of ``tests/reference``, whatever the trie's config: the
    names ``repro.core.pimtrie`` imports from ``repro.columnar`` are
    rebound to the reference's adapters.  The choice is made per call,
    so build and drive the trie inside the block."""
    from repro.core import pimtrie
    from tests.reference import ADAPTERS

    with pytest.MonkeyPatch.context() as mp:
        for name, adapter in ADAPTERS.items():
            mp.setattr(pimtrie, name, adapter)
        yield


#: seeds for the object-vs-columnar parity sweep
COLUMNAR_PARITY_SEEDS = (0, 1, 2, 5, 11, 17, 23, 31)

#: seeds crossed with repro.faults scenarios in the columnar sweep
#: (kept small: each run replays the sequence four times)
COLUMNAR_FAULT_SEEDS = (0, 5, 17)


def run_pimtrie_evidence(
    ops: list, fault_plan: Any = None, **config: Any
) -> tuple:
    """Replay ``ops`` on a fresh PIM-trie (``config`` as for
    :func:`make_pimtrie`) and return the full parity evidence:
    ``(repr(replies), metrics_json, recovery_rounds)`` with per-module
    counts.

    The caller picks the pipeline (:func:`object_pipeline` for the
    reference, nothing for the shipped one); ``fault_plan`` (a
    :class:`repro.faults.FaultPlan`) is installed before the first
    batch, so fault handling and recovery are part of the replayed —
    and compared — behaviour.  Aborted batches follow the serve layer's
    protocol (``repro.serve.server``): catch :class:`RoundAborted`,
    :func:`repro.faults.recover` the trie, and retry the batch — every
    PIMTrie batch op is idempotent, so the retry is safe.
    """
    import json

    from repro.faults import RoundAborted, recover

    index = make_pimtrie(**config)
    if fault_plan is not None:
        index.system.install_faults(fault_plan)
    replies = []
    recovery_rounds = 0
    for kind, payload in ops:
        for attempt in range(8):
            try:
                replies.append(apply_batch(index, kind, payload))
                break
            except RoundAborted:
                recovery_rounds += recover(index)
        else:
            raise AssertionError(f"batch {kind!r} never survived recovery")
    snap = index.system.snapshot().as_dict(include_per_module=True)
    return repr(replies), json.dumps(snap, sort_keys=True), recovery_rounds


#: targets whose deletion is lazy (paths survive), making their LCP
#: range over every key ever inserted rather than the live key set —
#: dist-radix documents this as the standard radix-tree trade-off
LAZY_LCP = {"dist-radix"}


def _oracle_replies(ops: list) -> tuple[list[Any], list[Any]]:
    """Oracle replies under live-key LCP and ever-inserted LCP."""
    oracle = DictOracle()
    live: list[Any] = []
    ever: list[Any] = []
    for kind, payload in ops:
        reply = apply_batch(oracle, kind, payload)
        live.append(reply)
        ever.append(
            oracle.lcp_ever_batch(list(payload)) if kind == "lcp" else reply
        )
    return live, ever


def divergences(
    ops: list, targets: Optional[dict[str, Callable[[], Any]]] = None
) -> list[str]:
    """Run ``ops`` on the oracle and every target; describe mismatches."""
    targets = TARGETS if targets is None else targets
    live, ever = _oracle_replies(ops)
    out: list[str] = []
    for name, factory in targets.items():
        expected = ever if name in LAZY_LCP else live
        got = run_sequence(factory, ops)
        for i, (kind, payload) in enumerate(ops):
            if got[i] is None:  # write batch or unsupported op
                continue
            if got[i] != expected[i]:
                out.append(
                    f"{name}: batch {i} ({kind}) -> {got[i]!r}, "
                    f"oracle -> {expected[i]!r}"
                )
    return out


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink(
    ops: list, failing: Callable[[list], bool], *, rounds: int = 4
) -> list:
    """Greedy delta-debugging: smallest sub-sequence still failing."""
    cur = list(ops)
    for _ in range(rounds):
        changed = False
        # pass 1: drop whole batches
        i = 0
        while i < len(cur):
            cand = cur[:i] + cur[i + 1:]
            if cand and failing(cand):
                cur = cand
                changed = True
            else:
                i += 1
        # pass 2: drop single ops inside batches
        for i, (kind, payload) in enumerate(cur):
            j = 0
            while j < len(cur[i][1]):
                payload = cur[i][1]
                cand_payload = payload[:j] + payload[j + 1:]
                if not cand_payload:
                    j += 1
                    continue
                cand = cur[:i] + [(kind, cand_payload)] + cur[i + 1:]
                if failing(cand):
                    cur = cand
                    changed = True
                else:
                    j += 1
        if not changed:
            break
    return cur


def format_ops(ops: list) -> str:
    """Readable repro script for an assertion message."""
    lines = []
    for kind, payload in ops:
        if kind == "insert":
            body = ", ".join(f"({k!s}, {v!r})" for k, v in payload)
        elif kind.startswith("range"):
            body = ", ".join(f"[{lo!s} .. {hi!s}]" for lo, hi in payload)
        else:
            body = ", ".join(str(k) for k in payload)
        lines.append(f"  {kind}: [{body}]")
    return "\n".join(lines)
