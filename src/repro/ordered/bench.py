"""E19 bench: the ordered-index op surface (``python -m repro bench
ordered`` → ``BENCH_ordered.json``).

One seeded mixed op sequence (writes + pred / succ / range / count /
top-k) is replayed across the full execution grid —

* single trie with the adaptive controller off and on;
* cluster × {hash, range} sharding × adapt off/on —

and every execution must produce the *same* replies as
:class:`repro.perf.DictOracle`: the report carries one
``answer_digest`` (sha256 over the canonicalized reply stream) and the
``all_digests_match`` gate.  A traced single-trie run additionally
checks span-sum exactness (root spans sum to the metrics delta,
integer-for-integer; the ``span_sums_exact`` gate).

The wall-clock headline times the snapshot-backed ordered reads against
a naive linear-scan reference answering the same queries; the committed
report's *naive* ops/sec is the floor the optimized path must clear on
later runs (:func:`against` — a floor recorded from a slower
reference, so the guard has honest machine-variance headroom).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any

from ..bits import BitString
from ..obs.tracer import Tracer, root_metric_sums
from ..perf import DictOracle, fresh_trie, reset_id_counters

__all__ = ["PROFILES", "against", "run"]

PROFILES = {
    "smoke": dict(P=4, resident=96, batches=6, batch_size=8, length=24,
                  timed_queries=400),
    "full": dict(P=8, resident=512, batches=12, batch_size=32, length=32,
                 timed_queries=4000),
}


# ----------------------------------------------------------------------
# op sequence
# ----------------------------------------------------------------------
def _gen_sequence(seed: int, cfg: dict) -> tuple[list, list]:
    """Resident (key, value) load plus mixed write/ordered-read batches.

    Keys cluster on shared prefixes (the skew adversary), so ranges and
    prefix counts straddle dense regions rather than empty space.
    """
    rng = random.Random(seed)
    length = cfg["length"]

    def key() -> BitString:
        if rng.random() < 0.6:  # hot region: shared 6-bit prefix
            hot = rng.randrange(4)
            return BitString(
                (hot << (length - 2)) | rng.getrandbits(length - 2), length
            )
        n = rng.randint(6, length)
        return BitString(rng.getrandbits(n), n)

    resident = sorted({key() for _ in range(cfg["resident"])})
    load = [(k, f"r{i}") for i, k in enumerate(resident)]

    batches: list[tuple[str, Any]] = []
    serial = 0
    pool = list(resident)
    for _ in range(cfg["batches"]):
        kind = rng.choices(
            ["insert", "delete", "pred", "succ", "range", "count", "topk"],
            weights=[2, 1, 3, 3, 3, 2, 2],
        )[0]
        size = rng.randint(1, cfg["batch_size"])
        if kind == "insert":
            payload = []
            for _ in range(size):
                k = key()
                payload.append((k, f"v{serial}"))
                serial += 1
                pool.append(k)
        elif kind == "delete":
            payload = [rng.choice(pool) if pool and rng.random() < 0.7
                       else key() for _ in range(size)]
        elif kind == "range":
            payload = []
            for _ in range(size):
                a, b = key(), key()
                payload.append((a, b) if a <= b else (b, a))
            payload = (payload, rng.choice([None, 1, 4, 16]))
        elif kind == "topk":
            payload = (
                [key().prefix(rng.randint(1, 6)) for _ in range(size)],
                rng.randint(1, 8),
            )
        elif kind == "count":
            payload = [key().prefix(rng.randint(1, 8)) for _ in range(size)]
        else:  # pred / succ
            payload = [rng.choice(pool) if pool and rng.random() < 0.5
                       else key() for _ in range(size)]
        batches.append((kind, payload))
    return load, batches


def _canon(reply: Any) -> Any:
    """Canonical JSON-able form of one batch reply (keys stringified)."""
    if reply is None:
        return None
    out = []
    for r in reply:
        if r is None or isinstance(r, int):
            out.append(r)
        elif isinstance(r, tuple):
            out.append([str(r[0]), r[1]])
        else:  # list of (key, value) pairs, order-significant
            out.append([[str(k), v] for k, v in r])
    return out


def _apply(index: Any, kind: str, payload: Any) -> Any:
    if kind == "insert":
        index.insert_batch([k for k, _ in payload], [v for _, v in payload])
        return None
    if kind == "delete":
        index.delete_batch(list(payload))
        return None
    if kind == "pred":
        return index.predecessor_batch(list(payload))
    if kind == "succ":
        return index.successor_batch(list(payload))
    if kind == "count":
        return index.prefix_count_batch(list(payload))
    if kind == "range":
        bounds, limit = payload
        return index.range_batch(list(bounds), limit=limit)
    if kind == "topk":
        prefixes, k = payload
        return index.topk_batch(list(prefixes), k)
    raise ValueError(f"unknown bench op kind {kind!r}")


# ----------------------------------------------------------------------
# execution grid
# ----------------------------------------------------------------------
def _digest(replies: list) -> str:
    blob = json.dumps([_canon(r) for r in replies], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _eager_policy():
    from ..adapt import AdaptPolicy

    return AdaptPolicy(
        hot_fraction=0.05, cold_fraction=0.02, min_window=4.0, cooldown=0,
        max_replicas=2, split_min_keys=2, max_actions_per_epoch=8,
    )


def _build(load, cfg):
    return fresh_trie(cfg["P"], [k for k, _ in load], [v for _, v in load])


def _run_single(load, batches, cfg, *, adaptive: bool):
    from ..adapt import AdaptiveController

    trie = _build(load, cfg)
    ctl = AdaptiveController(trie, _eager_policy()) if adaptive else None
    replies = []
    for kind, payload in batches:
        replies.append(_apply(trie, kind, payload))
        if ctl is not None:
            ctl.step()
    return replies, trie


def _run_cluster(load, batches, cfg, *, policy: str, adaptive: bool):
    from ..adapt import ClusterAdaptiveController
    from ..cluster import PIMCluster
    from ..cluster.sharding import policy_from_name

    reset_id_counters()
    cluster = PIMCluster(
        policy_from_name(
            policy, 4, resident_keys=[k for k, _ in load]
        ),
        replication=1, modules_per_rack=max(2, cfg["P"] // 4), root_seed=1,
        keys=[k for k, _ in load], values=[v for _, v in load],
    )
    ctl = (
        ClusterAdaptiveController(cluster, _eager_policy())
        if adaptive else None
    )
    replies = []
    for kind, payload in batches:
        replies.append(_apply(cluster, kind, payload))
        if ctl is not None:
            ctl.step()
    return replies


def _span_sum_check(load, batches, cfg) -> bool:
    """Replay ordered reads under a tracer: root spans must sum exactly
    (integer equality, field for field) to the system's metric delta."""
    trie = _build(load, cfg)
    system = trie.system
    tracer = Tracer(system)
    before = system.snapshot()
    for kind, payload in batches:
        _apply(trie, kind, payload)
    delta = system.snapshot().delta(before)
    return root_metric_sums(tracer.spans) == {
        "io_rounds": delta.io_rounds,
        "io_time": delta.io_time,
        "words": delta.total_communication,
        "pim_time": delta.pim_time,
        "cpu_work": delta.cpu_work,
    }


# ----------------------------------------------------------------------
# wall-clock: snapshot-backed ordered reads vs naive linear scan
# ----------------------------------------------------------------------
def _timed_queries(trie, cfg, seed: int) -> dict[str, Any]:
    rng = random.Random(seed + 101)
    keys = [k for k, _ in trie.ordered_snapshot().items()]
    probes = [rng.choice(keys) for _ in range(cfg["timed_queries"])]

    t0 = time.perf_counter()
    got = trie.predecessor_batch(probes)
    fast = time.perf_counter() - t0

    items = trie.ordered_snapshot().items()
    t0 = time.perf_counter()
    naive = []
    for q in probes:  # O(n) scan per probe: the unindexed reference
        best = None
        for k, v in items:
            if k < q:
                best = (k, v)
            else:
                break
        naive.append(best)
    slow = time.perf_counter() - t0
    assert naive == got, "naive reference diverged from snapshot path"
    n = len(probes)
    return {
        "queries": n,
        "ordered": {"seconds": round(fast, 6),
                    "ops_per_sec": round(n / max(fast, 1e-9), 1)},
        "naive": {"seconds": round(slow, 6),
                  "ops_per_sec": round(n / max(slow, 1e-9), 1)},
        "speedup": round(slow / max(fast, 1e-9), 2),
    }


# ----------------------------------------------------------------------
def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """Execution grid against the oracle, span sums, and timed reads."""
    load, batches = _gen_sequence(seed, cfg)
    oracle = DictOracle(load)
    oracle_digest = _digest([_apply(oracle, k, p) for k, p in batches])

    runs: list[dict[str, Any]] = []
    for adaptive in (False, True):
        replies, trie = _run_single(load, batches, cfg, adaptive=adaptive)
        runs.append({
            "target": "single" + ("-adapt" if adaptive else ""),
            "digest": _digest(replies),
        })
        if not adaptive:
            timed_trie = trie
    for policy in ("hash", "range"):
        for adaptive in (False, True):
            replies = _run_cluster(
                load, batches, cfg, policy=policy, adaptive=adaptive
            )
            runs.append({
                "target": f"cluster-{policy}" + ("-adapt" if adaptive else ""),
                "digest": _digest(replies),
            })

    span_ok = _span_sum_check(load, batches, cfg)
    timing = _timed_queries(timed_trie, cfg, seed)
    headline = {
        "answer_digest": oracle_digest,
        "all_digests_match": all(r["digest"] == oracle_digest for r in runs),
        "targets": len(runs),
        "span_sums_exact": span_ok,
        "ordered": timing["ordered"],
        "naive": timing["naive"],
        "speedup_vs_naive": timing["speedup"],
    }
    return {
        "runs": runs,
        "timing": timing,
        "headline": headline,
        "gates": {
            k: headline[k] for k in ("all_digests_match", "span_sums_exact")
        },
    }


def against(report: dict[str, Any], recorded: dict[str, Any]) -> list[str]:
    """Snapshot-backed ordered reads at or above the *naive linear-scan*
    ops/sec recorded — the optimized path must never regress below what
    the unindexed reference achieved on the recording machine."""
    floor = recorded["headline"]["naive"]["ops_per_sec"]
    got = report["headline"]["ordered"]["ops_per_sec"]
    if got < floor:
        return [f"ordered reads {got:.0f} ops/s are below the recorded "
                f"naive-scan floor {floor:.0f} ops/s"]
    return []
