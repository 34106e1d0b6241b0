"""The adaptive-skew benchmark (E18): adapt-on vs static layout under
time-varying skew.

Writes ``BENCH_adapt.json``.  For each drift pattern (drifting Zipf
hot set, moving flash crowd, diurnal day/night mix) the same trace runs
twice through :class:`repro.serve.EpochServer` on identically-built
tries — once with an :class:`~repro.adapt.AdaptiveController` stepping
every epoch, once static — and the row reports rounds/op, simulated
latency percentiles, and the controller's action counts.

Three correctness gates ride every row:

* **digest parity** — the order-independent answer digest of the
  adapt-on run must equal the adapt-off run's (split / replicate /
  merge change placement, never answers);
* **oracle match** — both runs' replies are checked against a plain
  dict-of-BitString reference (the same semantics as the differential
  harness's oracle);
* **exactness** — the adapted trie passes ``PIMTrie.validate()`` at
  the end (replica copies content-identical, registries consistent).

The skewed traffic concentrates on few blocks by construction: the
trie is built with a large ``block_bound`` and the resident keys are
drawn from the *same* hot-prefix distributions as the queries, so a
phase's hot range is one dense block on one module — the static
worst-case the controller is supposed to dismantle.  The service model
weights ``io_time`` heavily (``word_time=0.05``), so per-module word
bottlenecks show up directly in the simulated percentiles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..bits import BitString
from ..core import PIMTrie, PIMTrieConfig
from ..perf import reset_id_counters
from ..pim import PIMSystem
from ..serve import (
    ServiceReport,
    answers_digest,
    policy_from_name,
    replay_direct,
    trace_from_stream,
)
from ..serve.server import EpochServer
from ..workloads import (
    diurnal_stream,
    drifting_zipf_stream,
    flash_crowd_stream,
    uniform_keys,
)
from .controller import AdaptiveController, AdaptPolicy

__all__ = ["PATTERNS", "bench_adapt_run", "run_bench_adapt"]

PATTERNS = ("drifting-zipf", "flash-crowd", "diurnal")

FULL = {"P": 32, "resident": 300, "n_ops": 1600, "length": 48,
        "rate": 4.0, "block_bound": 256, "word_time": 0.05,
        "max_batch": 32}
SMOKE = {"P": 16, "resident": 150, "n_ops": 400, "length": 48,
         "rate": 4.0, "block_bound": 128, "word_time": 0.05,
         "max_batch": 32}
POLICY = "eager"
#: op mix: lcp-heavy with a write trickle (subtree floods would swamp
#: the word counts and hide the placement signal)
MIX = {"lcp": 0.75, "insert": 0.15, "delete": 0.10}


class _DictOracle:
    """Reference semantics over a plain dict (mirrors tests/harness.py;
    duck-compatible with :func:`repro.serve.replay_direct`)."""

    def __init__(self, items: dict[BitString, Any]):
        self.store = dict(items)

    def lcp_batch(self, keys):
        return [
            max((k.lcp_len(s) for s in self.store), default=0) for k in keys
        ]

    def insert_batch(self, keys, values):
        for k, v in zip(keys, values):
            self.store[k] = v

    def delete_batch(self, keys):
        for k in keys:
            self.store.pop(k, None)

    def subtree_batch(self, prefixes):
        return [
            sorted(
                ((k, v) for k, v in self.store.items() if k.starts_with(p)),
                key=lambda kv: kv[0],
            )
            for p in prefixes
        ]


def _pattern_stream(pattern: str, *, n_ops, length, rate, seed):
    if pattern == "drifting-zipf":
        return drifting_zipf_stream(
            n_ops, length, num_phases=3, num_hot=4, theta=1.4,
            rate=rate, mix=MIX, seed=seed,
        )
    if pattern == "flash-crowd":
        return flash_crowd_stream(
            n_ops, length, num_crowds=3, crowd_fraction=0.9,
            rate=rate, mix=MIX, seed=seed,
        )
    if pattern == "diurnal":
        return diurnal_stream(
            n_ops, length, periods=2.0, num_hot=4, theta=1.4,
            rate=rate, rate_swing=0.6, mix=MIX, seed=seed,
        )
    raise ValueError(f"unknown drift pattern {pattern!r}")


def _resident_keys(stream, resident: int, length: int, seed: int):
    """Resident key set drawn from the stream's own key material, so
    the hot ranges are *dense* — the static layout's worst case.  Padded
    with uniform keys if the stream is key-poor."""
    pool = list(dict.fromkeys(t.key for t in stream if len(t.key) == length))
    rng = np.random.default_rng(seed + 0xBEEF)
    rng.shuffle(pool)
    keys = pool[:resident]
    if len(keys) < resident:
        keys += uniform_keys(resident - len(keys), length, seed=seed + 29)
    return sorted(set(keys))


def _build_trie(keys, *, P: int, block_bound: int) -> PIMTrie:
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    cfg = PIMTrieConfig(num_modules=P, block_bound=block_bound)
    return PIMTrie(
        system, cfg, keys=keys, values=[f"r{i}" for i in range(len(keys))]
    )


def _adapt_policy(block_bound: int) -> AdaptPolicy:
    return AdaptPolicy(
        hot_fraction=0.10,
        cold_fraction=0.02,
        min_window=24.0,
        cooldown=1,
        max_replicas=2,
        split_bound=max(8, block_bound // 8),
        max_actions_per_epoch=4,
    )


def bench_adapt_run(
    pattern: str,
    *,
    P: int,
    resident: int,
    n_ops: int,
    length: int,
    rate: float,
    block_bound: int,
    word_time: float,
    max_batch: int = 32,
    seed: int = 7,
) -> dict[str, Any]:
    """One drift pattern, adapt-on vs adapt-off; returns the JSON row."""
    stream = _pattern_stream(
        pattern, n_ops=n_ops, length=length, rate=rate, seed=seed
    )
    trace = trace_from_stream(stream, seed=seed, name=pattern)
    keys = _resident_keys(stream, resident, length, seed)

    def serve(adaptive: bool):
        trie = _build_trie(keys, P=P, block_bound=block_bound)
        ctl = (
            AdaptiveController(trie, _adapt_policy(block_bound))
            if adaptive
            else None
        )
        server = EpochServer(
            trie, policy_from_name(POLICY, max_batch=max_batch),
            word_time=word_time, adapt=ctl,
        )
        report = server.run(trace)
        return report, trie, ctl

    rep_on, trie_on, ctl = serve(True)
    rep_off, _, _ = serve(False)
    trie_on.validate()

    # oracle: replies must match the dict reference exactly (both runs)
    oracle_replies = dict(
        replay_direct(
            _DictOracle({k: f"r{i}" for i, k in enumerate(keys)}), trace.ops
        )
    )
    def _matches(rep):
        return all(
            oracle_replies[c.seq] == c.reply for c in rep.completed if c.ok
        )

    def _side(rep: ServiceReport) -> dict[str, Any]:
        lat = rep.latency()
        done = max(1, len(rep.completed))
        return {
            "completed": len(rep.completed),
            "io_rounds": rep.metrics.io_rounds,
            "io_time": rep.metrics.io_time,
            "rounds_per_op": round(rep.metrics.io_rounds / done, 3),
            "words_per_op": round(rep.metrics.io_time / done, 2),
            "makespan": round(rep.makespan, 3),
            "latency": {
                k: round(lat[k], 3) for k in ("p50", "p95", "p99", "max")
            },
            "epochs": len(rep.epochs),
        }

    adaptive = _side(rep_on)
    static = _side(rep_off)
    row = {
        "pattern": pattern,
        "seed": seed,
        "adaptive": adaptive,
        "static": static,
        "adapt_actions": ctl.summary(),
        "digest_adaptive": answers_digest(rep_on),
        "digest_static": answers_digest(rep_off),
        "digest_match": answers_digest(rep_on) == answers_digest(rep_off),
        "oracle_match": _matches(rep_on) and _matches(rep_off),
        "p99_speedup": round(
            static["latency"]["p99"] / max(1e-9, adaptive["latency"]["p99"]), 3
        ),
        "rounds_per_op_ratio": round(
            static["rounds_per_op"] / max(1e-9, adaptive["rounds_per_op"]), 3
        ),
    }
    row["adaptive_wins"] = bool(
        row["p99_speedup"] > 1.0 or row["rounds_per_op_ratio"] > 1.0
    )
    return row


def run_bench_adapt(
    out: Optional[str] = "BENCH_adapt.json",
    *,
    smoke: bool = False,
    seed: int = 7,
) -> dict[str, Any]:
    """All drift patterns; writes ``out`` and returns the report dict."""
    cfg = dict(SMOKE if smoke else FULL)
    rows = [bench_adapt_run(p, seed=seed, **cfg) for p in PATTERNS]
    wins = sum(1 for r in rows if r["adaptive_wins"])
    headline = {
        "all_digests_match": all(r["digest_match"] for r in rows),
        "all_oracle_match": all(r["oracle_match"] for r in rows),
        "patterns_won": wins,
        "adaptive_beats_static": wins >= 2,
        "p99_speedups": {r["pattern"]: r["p99_speedup"] for r in rows},
    }
    report = {
        "bench": "adapt",
        "profile": "smoke" if smoke else "full",
        "config": {**cfg, "policy": POLICY, "mix": MIX, "seed": seed},
        "patterns": rows,
        "headline": headline,
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True))
    return report
