"""Multi-rack PIM cluster: shards of replicated ``PIMTrie`` racks
behind a host-side router.

A :class:`PIMCluster` is N *shards* × K *replica slots* of
:class:`Rack`s, where each rack is a full, independent
:class:`~repro.pim.PIMSystem` running its own
:class:`~repro.core.PIMTrie`.  The router owns a
:class:`~repro.cluster.sharding.ShardingPolicy` and exposes the batch
APIs of a single trie — ``read_batch`` included, so the serve layer's
``execute_segment`` drives a cluster exactly as it drives one trie.
Every one of them is a thin wrapper over the routed boundary
:meth:`PIMCluster._execute`:

* the batch is split into per-shard sub-batches (input order preserved
  inside each sub-batch),
* each sub-batch runs on its shard's racks — reads on the first alive
  replica starting at the primary slot (failover read-routing), writes
  on *every* alive replica (K-way replication),
* replies fan back in preserving input order; multi-shard reads
  combine pointwise (LCP takes the per-key max across probed shards,
  subtree merges the per-shard item lists — key sets are disjoint
  across shards, so the merge is a sort, never a dedup).

The result is answer-identical to one big trie: routing is
deterministic in the key alone, every key lives on exactly one shard
(times K replicas), and per-shard sub-batches preserve arrival order —
the differential harness replays the same adversarial sequences
against a dict oracle to prove it (``tests/test_cluster.py``).

**Failure model.**  :meth:`fail_rack` kills a whole rack (system,
trie, replica log — everything), modeling a rack-scale outage rather
than the module-scale faults of :mod:`repro.faults`.  Reads fail over
to surviving replicas; :meth:`rebalance` then provisions a replacement
rack into the dead slot and rebuilds it from a survivor's host replica
log (``PIMTrie.replica_log_items`` — the same log module-crash
recovery replays, reused at rack scale).  A shard whose last replica
dies is *lost*: its keys are unrecoverable, and a batch with any
operation needing it raises :class:`ShardUnavailable` before any rack
runs, so the failed batch changes nothing.  (The serve wrapper keeps
such operations from the router and answers them ``OP_FAILED``, which
is where the availability numbers in ``BENCH_cluster.json`` come
from.)

Every rack's RNG seed derives from the cluster root seed and the
rack's identity (:func:`~repro.cluster.sharding.derive_rack_seed`), so
cluster behaviour is a pure function of ``(root_seed, policy, keys,
ops, loss plan)`` — independent of shard count for the answers, and
bit-reproducible for the metrics.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterator, Optional, Sequence

from ..bits import BitString
from ..core import PIMTrie, PIMTrieConfig
from ..obs import Tracer, maybe_span
from ..pim import MetricsSnapshot, PIMSystem
from .sharding import ShardingPolicy, derive_rack_seed

__all__ = ["PIMCluster", "Rack", "ShardUnavailable"]

#: router CPU work per (op, target-shard) routing decision
_ROUTE_TICKS = 1


def _stitch(old: list, new: list, limit: Optional[int]) -> list:
    """Cross-shard merge of ordered item lists: re-sort by key and keep
    the first ``limit``.  Under hash sharding consecutive keys
    interleave across shards, so concatenating per-shard answers in
    shard order would both break the global order and over-fill the
    limit; the merge-then-truncate keeps exactly the answer a single
    trie would return."""
    return sorted([*old, *new], key=lambda kv: kv[0])[:limit]


#: read kind -> (the rack trie's batch method, the rule folding one
#: shard's answer into the running one).  Shards hold disjoint key
#: sets, so every rule is exact: LCP takes the max, a lookup has one
#: owner, the global predecessor is the largest per-shard predecessor
#: (the successor the smallest), counts add, and item lists stitch.
_FAN_IN = {
    "lcp": ("lcp_batch", lambda old, new, _limit: max(old, new)),
    "lookup": ("lookup_batch", lambda old, new, _limit: new),
    "pred": ("predecessor_batch", lambda old, new, _limit: (
        new if new is not None and (old is None or new[0] > old[0]) else old
    )),
    "succ": ("successor_batch", lambda old, new, _limit: (
        new if new is not None and (old is None or new[0] < old[0]) else old
    )),
    "count": ("prefix_count_batch", lambda old, new, _limit: old + new),
    "range": ("range_batch", _stitch),
    "topk": ("topk_batch", _stitch),
    "subtree": ("subtree_batch", _stitch),
}


class ShardUnavailable(RuntimeError):
    """Raised when an operation needs a shard with no alive replica."""

    def __init__(self, shard: int):
        super().__init__(f"shard {shard} has no alive replica")
        self.shard = shard


class Rack:
    """One rack: a private PIM system running one trie replica."""

    def __init__(
        self,
        shard: int,
        slot: int,
        incarnation: int,
        *,
        num_modules: int,
        seed: int,
        config: Optional[PIMTrieConfig] = None,
        keys: Optional[Sequence[BitString]] = None,
        values: Optional[Sequence[Any]] = None,
        trace: bool = False,
        build_span: str = "rack.build",
        build_cat: str = "op",
    ):
        self.shard = shard
        self.slot = slot
        self.incarnation = incarnation
        self.seed = seed
        self.alive = True
        self.system = PIMSystem(num_modules, seed=seed)
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = Tracer(
                self.system,
                tags={"shard": shard, "replica": slot,
                      "incarnation": incarnation},
            )
        cfg = config if config is not None else PIMTrieConfig(
            num_modules=num_modules
        )
        span = (
            self.tracer.span(build_span, cat=build_cat,
                             keys=len(keys) if keys is not None else 0)
            if self.tracer is not None
            else nullcontext()
        )
        with span:
            self.trie = PIMTrie(self.system, cfg, keys=keys, values=values)

    @property
    def uid(self) -> tuple[int, int, int]:
        """Stable identity: ``(shard, slot, incarnation)``."""
        return (self.shard, self.slot, self.incarnation)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"Rack(shard={self.shard}, slot={self.slot}, "
                f"inc={self.incarnation}, {state})")


class PIMCluster:
    """Sharded, K-way replicated cluster of PIM-trie racks."""

    def __init__(
        self,
        policy: ShardingPolicy,
        *,
        replication: int = 1,
        modules_per_rack: int = 4,
        root_seed: int = 0,
        config: Optional[PIMTrieConfig] = None,
        keys: Optional[Sequence[BitString]] = None,
        values: Optional[Sequence[Any]] = None,
        trace: bool = False,
    ):
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.policy = policy
        self.num_shards = policy.num_shards
        self.replication = replication
        self.modules_per_rack = modules_per_rack
        self.root_seed = root_seed
        self.config = config
        self.trace = trace
        #: shards irrecoverably lost (every replica died before heal)
        self.lost_shards: set[int] = set()
        #: loss / rebuild / shard-lost event records, in order
        self.events: list[dict[str, Any]] = []
        #: racks that died and were replaced (kept for metrics history)
        self.retired: list[Rack] = []

        if keys is not None:
            keys = list(keys)
            vals = (
                list(values) if values is not None else [None] * len(keys)
            )
            by_shard: dict[int, tuple[list, list]] = {}
            for k, v in zip(keys, vals):
                bucket = by_shard.setdefault(self.policy.home(k), ([], []))
                bucket[0].append(k)
                bucket[1].append(v)
        else:
            by_shard = {}

        self.racks: list[list[Rack]] = []
        for s in range(self.num_shards):
            sk, sv = by_shard.get(s, ([], []))
            self.racks.append(
                [
                    self._provision(s, r, 0, keys=sk, values=sv)
                    for r in range(replication)
                ]
            )
        #: host-cached per-shard live-key census (routing metadata,
        #: like the range baseline's ``_counts``)
        self._counts = [
            self.racks[s][0].trie.num_keys() for s in range(self.num_shards)
        ]

    # ------------------------------------------------------------------
    # provisioning / topology
    # ------------------------------------------------------------------
    def _provision(
        self,
        shard: int,
        slot: int,
        incarnation: int,
        *,
        keys: Sequence[BitString],
        values: Sequence[Any],
        build_span: str = "rack.build",
        build_cat: str = "op",
    ) -> Rack:
        return Rack(
            shard,
            slot,
            incarnation,
            num_modules=self.modules_per_rack,
            seed=derive_rack_seed(self.root_seed, shard, slot, incarnation),
            config=self.config,
            keys=keys,
            values=values,
            trace=self.trace,
            build_span=build_span,
            build_cat=build_cat,
        )

    def iter_racks(self) -> Iterator[Rack]:
        """Every current rack (alive or dead), shard-major order."""
        for row in self.racks:
            yield from row

    def alive_racks(self, shard: int) -> list[Rack]:
        return [r for r in self.racks[shard] if r.alive]

    def read_rack(self, shard: int) -> Rack:
        """Failover read-routing: primary slot first, then survivors."""
        for rack in self.racks[shard]:
            if rack.alive:
                return rack
        raise ShardUnavailable(shard)

    # ------------------------------------------------------------------
    # failure and healing
    # ------------------------------------------------------------------
    def fail_rack(self, shard: int, slot: int) -> Optional[Rack]:
        """Kill the rack in ``(shard, slot)``: system, trie, replica
        log — all of it.  Idempotent on an already-dead slot."""
        rack = self.racks[shard][slot]
        if not rack.alive:
            return None
        rack.alive = False
        self.events.append(
            {"event": "rack-loss", "shard": shard, "replica": slot,
             "incarnation": rack.incarnation}
        )
        if not self.alive_racks(shard):
            self.lost_shards.add(shard)
            self.events.append({"event": "shard-lost", "shard": shard})
        return rack

    def rebalance(self) -> int:
        """Heal dead slots: provision replacement racks re-replicated
        from a surviving replica's host log.

        Returns the IO rounds spent rebuilding (the cluster's recovery
        cost; the serve wrapper charges them to epoch service time).
        Shards with no survivor are skipped — their keys are gone, and
        an empty stand-in that answered wrongly would be worse than
        :class:`ShardUnavailable`.
        """
        rounds = 0
        for s in range(self.num_shards):
            survivors = self.alive_racks(s)
            if not survivors:
                continue
            for slot in range(self.replication):
                old = self.racks[s][slot]
                if old.alive:
                    continue
                items = survivors[0].trie.replica_log_items()
                ordered = sorted(items)
                fresh = self._provision(
                    s, slot, old.incarnation + 1,
                    keys=ordered, values=[items[k] for k in ordered],
                    build_span="rack.rebuild", build_cat="recovery",
                )
                rounds += fresh.system.snapshot().io_rounds
                self.racks[s][slot] = fresh
                self.retired.append(old)
                self.events.append(
                    {"event": "rebuild", "shard": s, "replica": slot,
                     "incarnation": fresh.incarnation,
                     "keys": len(ordered)}
                )
        return rounds

    @property
    def degraded(self) -> bool:
        """Any dead slot that rebalancing could still heal?"""
        return any(
            not r.alive and self.alive_racks(r.shard)
            for r in self.iter_racks()
        )

    # ------------------------------------------------------------------
    # metrics aggregation
    # ------------------------------------------------------------------
    def snapshots(self) -> dict[tuple[int, int, int], MetricsSnapshot]:
        """Current cumulative snapshot of every rack ever provisioned
        (dead and retired racks freeze at their final counters)."""
        out = {r.uid: r.system.snapshot() for r in self.iter_racks()}
        for r in self.retired:
            out[r.uid] = r.system.snapshot()
        return out

    def mark(self) -> dict[tuple[int, int, int], MetricsSnapshot]:
        """A resumable measurement point for :meth:`delta`."""
        return self.snapshots()

    def delta_by_rack(
        self, mark: dict[tuple[int, int, int], MetricsSnapshot]
    ) -> dict[tuple[int, int, int], MetricsSnapshot]:
        """Per-rack metric deltas since ``mark`` (racks provisioned
        after the mark report their full counters)."""
        out = {}
        for uid, snap in self.snapshots().items():
            base = mark.get(uid)
            out[uid] = snap if base is None else snap.delta(base)
        return out

    def delta(
        self, mark: dict[tuple[int, int, int], MetricsSnapshot]
    ) -> MetricsSnapshot:
        """Cluster-wide metric delta since ``mark``: the per-rack
        deltas merged rack-major (``MetricsSnapshot.merge``)."""
        deltas = self.delta_by_rack(mark)
        return MetricsSnapshot.merge(*(deltas[u] for u in sorted(deltas)))

    def shard_traffic(
        self, mark: dict[tuple[int, int, int], MetricsSnapshot]
    ) -> list[int]:
        """Per-shard words moved since ``mark`` (replicas included) —
        the numerator of the cross-shard imbalance table in E17."""
        out = [0] * self.num_shards
        for (s, _r, _i), d in self.delta_by_rack(mark).items():
            out[s] += d.total_communication
        return out

    # ------------------------------------------------------------------
    # routed batch execution
    # ------------------------------------------------------------------
    def _targets(self, kind: str, key: Any) -> list[int]:
        if kind in ("insert", "delete", "lookup"):
            return [self.policy.home(key)]
        if kind == "lcp":
            return self.policy.lcp_targets(key, self._counts)
        if kind in ("subtree", "count", "topk"):
            return self.policy.subtree_targets(key)
        if kind == "pred":
            return self.policy.pred_targets(key)
        if kind == "succ":
            return self.policy.succ_targets(key)
        if kind == "range":  # routed on the bound pair, not one key
            lo, hi = key
            return self.policy.range_targets(lo, hi)
        raise ValueError(f"unknown op kind {kind!r}")

    def _execute(
        self,
        kind: str,
        keys: Sequence[Any],
        values: Optional[Sequence[Any]] = None,
        *,
        extra: Optional[int] = None,
    ) -> tuple[list[Any], int]:
        """Route, fan out, fan in: the one routed boundary behind every
        public batch call.

        Returns ``(replies, changed)``: per-op replies in input order
        and, for write kinds, the number of keys actually
        added/removed.  If any op needs a shard with no alive replica
        it raises :class:`ShardUnavailable` before any rack runs, so a
        failed batch changes nothing (a partial LCP or subtree answer
        would be silently wrong, a partial write half-committed).

        ``keys`` entries are ``(lo, hi)`` bound pairs for ``range``,
        ``(op kind, key)`` pairs for ``"match"`` (the LCP and subtree
        ops of :meth:`read_batch`: each op routes and fans in by its
        own kind, and each shard's read rack answers its share with one
        ``read_batch`` call) and plain keys otherwise; ``extra``
        carries the per-call scalar of the ordered kinds (``range``'s
        limit, ``topk``'s k).
        """
        if kind == "match":
            kinds = [k for k, _ in keys]
            keys = [key for _, key in keys]
        else:
            keys = list(keys)
            kinds = [kind] * len(keys)
        vals = list(values) if values is not None else [None] * len(keys)
        sends: dict[int, list[int]] = {}
        for i, k in enumerate(keys):
            for s in self._targets(kinds[i], k):
                if s in self.lost_shards:
                    raise ShardUnavailable(s)
                sends.setdefault(s, []).append(i)

        replies: list[Any] = [
            None if k in ("lookup", "pred", "succ") else
            True if k in ("insert", "delete") else
            [] if k in ("subtree", "range", "topk") else 0
            for k in kinds
        ]
        changed = 0
        for s in sorted(sends):
            slots = sends[s]
            sub_keys = [keys[i] for i in slots]
            if kind in ("insert", "delete"):
                primary_reply: Optional[int] = None
                for rack in self.alive_racks(s):
                    # the cluster span keeps router CPU ticks inside a
                    # root span, so per-rack span sums stay exact
                    with maybe_span(
                        rack.system, f"cluster.{kind}", cat="op",
                        ops=len(slots),
                    ):
                        rack.system.tick_cpu(_ROUTE_TICKS * len(slots))
                        if kind == "insert":
                            r = rack.trie.insert_batch(
                                sub_keys, [vals[i] for i in slots]
                            )
                        else:
                            r = rack.trie.delete_batch(sub_keys)
                    if primary_reply is None:
                        primary_reply = r
                changed += primary_reply or 0
                self._counts[s] = self.read_rack(s).trie.num_keys()
            else:
                rack = self.read_rack(s)
                with maybe_span(
                    rack.system, f"cluster.{kind}", cat="op",
                    ops=len(slots),
                ):
                    rack.system.tick_cpu(_ROUTE_TICKS * len(slots))
                    if kind == "match":
                        lcp = [i for i in slots if kinds[i] == "lcp"]
                        sub = [i for i in slots if kinds[i] == "subtree"]
                        depths, items = rack.trie.read_batch(
                            [keys[i] for i in lcp], [keys[i] for i in sub]
                        )
                        answered = [(lcp, depths), (sub, items)]
                    else:
                        call = getattr(rack.trie, _FAN_IN[kind][0])
                        # ``extra`` is range's limit or topk's k
                        answered = [(slots, (
                            call(sub_keys) if extra is None
                            else call(sub_keys, extra)
                        ))]
                    for part, answers in answered:
                        for i, r in zip(part, answers):
                            replies[i] = _FAN_IN[kinds[i]][1](
                                replies[i], r, extra
                            )
        return replies, changed

    # -- the single-trie batch surface ---------------------------------
    def lcp_batch(self, keys: Sequence[BitString]) -> list[int]:
        return self._execute("lcp", keys)[0]

    def lookup_batch(self, keys: Sequence[BitString]) -> list[Any]:
        return self._execute("lookup", keys)[0]

    def insert_batch(
        self,
        keys: Sequence[BitString],
        values: Optional[Sequence[Any]] = None,
    ) -> int:
        return self._execute("insert", keys, values)[1]

    def delete_batch(self, keys: Sequence[BitString]) -> int:
        return self._execute("delete", keys)[1]

    def subtree_batch(
        self, prefixes: Sequence[BitString]
    ) -> list[list[tuple[BitString, Any]]]:
        return self._execute("subtree", prefixes)[0]

    def read_batch(
        self, lcp_keys: Sequence[BitString], prefixes: Sequence[BitString]
    ) -> tuple[list[int], list[list[tuple[BitString, Any]]]]:
        """``(lcp_batch(lcp_keys), subtree_batch(prefixes))`` from one
        routed call: each shard's read rack answers its share of both
        lists with one :meth:`PIMTrie.read_batch`."""
        replies = self._execute(
            "match",
            [("lcp", k) for k in lcp_keys] + [("subtree", p) for p in prefixes],
        )[0]
        return replies[:len(lcp_keys)], replies[len(lcp_keys):]

    # -- the ordered-index surface (repro.ordered) ---------------------
    def predecessor_batch(
        self, keys: Sequence[BitString]
    ) -> list[Optional[tuple[BitString, Any]]]:
        return self._execute("pred", keys)[0]

    def successor_batch(
        self, keys: Sequence[BitString]
    ) -> list[Optional[tuple[BitString, Any]]]:
        return self._execute("succ", keys)[0]

    def range_batch(
        self,
        bounds: Sequence[tuple[BitString, BitString]],
        limit: Optional[int] = None,
    ) -> list[list[tuple[BitString, Any]]]:
        return self._execute("range", bounds, extra=limit)[0]

    def prefix_count_batch(self, prefixes: Sequence[BitString]) -> list[int]:
        return self._execute("count", prefixes)[0]

    def topk_batch(
        self, prefixes: Sequence[BitString], k: int
    ) -> list[list[tuple[BitString, Any]]]:
        return self._execute("topk", prefixes, extra=k)[0]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cross-rack invariants (test oracle, not an accounted op):
        every alive trie validates, replicas of a shard hold identical
        items, every stored key routes home, and the census is live."""
        for s in range(self.num_shards):
            racks = self.alive_racks(s)
            if not racks:
                assert s in self.lost_shards
                continue
            reference: Optional[dict] = None
            for rack in racks:
                rack.trie.validate()
                items = rack.trie.replica_log_items()
                if reference is None:
                    reference = items
                else:
                    assert items == reference, (
                        f"shard {s}: replica {rack.slot} diverges"
                    )
            assert reference is not None
            for k in reference:
                assert self.policy.home(k) == s, (
                    f"key {k} stored on shard {s}, routes to "
                    f"{self.policy.home(k)}"
                )
            assert self._counts[s] == len(reference)

    def __repr__(self) -> str:
        alive = sum(1 for r in self.iter_racks() if r.alive)
        return (
            f"PIMCluster({self.policy.describe()}, S={self.num_shards}, "
            f"K={self.replication}, racks={alive}/"
            f"{self.num_shards * self.replication} alive)"
        )
