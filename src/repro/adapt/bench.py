"""The adaptive-skew bench (E18): adapt-on vs static layout under
time-varying skew (``python -m repro bench adapt`` →
``BENCH_adapt.json``).

For each drift pattern (drifting Zipf hot set, moving flash crowd,
diurnal day/night mix) the same trace runs twice through
:class:`repro.serve.EpochServer` on identically-built tries — once with
an :class:`~repro.adapt.AdaptiveController` stepping every epoch, once
static — and the row reports rounds/op, simulated latency percentiles,
and the controller's action counts.

Three correctness checks ride every row:

* **digest parity** — the order-independent answer digest of the
  adapt-on run must equal the adapt-off run's (split / replicate /
  merge change placement, never answers; the ``all_digests_match``
  gate);
* **oracle match** — both runs' replies are checked against
  :class:`repro.perf.DictOracle` (the ``all_oracle_match`` gate);
* **exactness** — the adapted trie passes ``PIMTrie.validate()`` at
  the end (replica copies content-identical, host records consistent).

The performance claim — adaptive beats static on p99 or rounds/op
under at least two patterns — is a gate on the full profile only
(``gate_wins``): the smoke profile is too small to amortize
maintenance.

The skewed traffic concentrates on few blocks by construction: the
trie is built with a large ``block_bound`` and the resident keys are
drawn from the *same* hot-prefix distributions as the queries, so a
phase's hot range is one dense block on one module — the static
worst-case the controller is supposed to dismantle.  The service model
weights ``io_time`` heavily (``word_time=0.05``), so per-module word
bottlenecks show up directly in the simulated percentiles.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..perf import DictOracle, fresh_trie, replies_match
from ..serve import (
    ServiceReport,
    answers_digest,
    policy_from_name,
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

__all__ = ["PATTERNS", "PROFILES", "run"]

PATTERNS = ("drifting-zipf", "flash-crowd", "diurnal")

#: op mix: lcp-heavy with a write trickle (subtree floods would swamp
#: the word counts and hide the placement signal)
MIX = {"lcp": 0.75, "insert": 0.15, "delete": 0.10}
_BASE = {"length": 48, "rate": 4.0, "word_time": 0.05, "max_batch": 32,
         "policy": "eager", "mix": MIX}
PROFILES = {
    "smoke": {**_BASE, "P": 16, "resident": 150, "n_ops": 400,
              "block_bound": 128, "gate_wins": False},
    "full": {**_BASE, "P": 32, "resident": 300, "n_ops": 1600,
             "block_bound": 256, "gate_wins": True},
}


def _pattern_stream(pattern: str, cfg: dict[str, Any], seed: int):
    common = {"rate": cfg["rate"], "mix": cfg["mix"], "seed": seed}
    n_ops, length = cfg["n_ops"], cfg["length"]
    if pattern == "drifting-zipf":
        return drifting_zipf_stream(
            n_ops, length, num_phases=3, num_hot=4, theta=1.4, **common
        )
    if pattern == "flash-crowd":
        return flash_crowd_stream(
            n_ops, length, num_crowds=3, crowd_fraction=0.9, **common
        )
    if pattern == "diurnal":
        return diurnal_stream(
            n_ops, length, periods=2.0, num_hot=4, theta=1.4,
            rate_swing=0.6, **common
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


def _pattern_row(pattern: str, cfg: dict[str, Any], seed: int) -> dict:
    """One drift pattern, adapt-on vs adapt-off; returns the JSON row."""
    stream = _pattern_stream(pattern, cfg, seed)
    trace = trace_from_stream(stream, seed=seed, name=pattern)
    keys = _resident_keys(stream, cfg["resident"], cfg["length"], seed)
    values = [f"r{i}" for i in range(len(keys))]

    def serve(adaptive: bool):
        trie = fresh_trie(
            cfg["P"], keys, values, block_bound=cfg["block_bound"]
        )
        ctl = (
            AdaptiveController(trie, _adapt_policy(cfg["block_bound"]))
            if adaptive
            else None
        )
        server = EpochServer(
            trie, policy_from_name(cfg["policy"], max_batch=cfg["max_batch"]),
            word_time=cfg["word_time"], adapt=ctl,
        )
        return server.run(trace), trie, ctl

    rep_on, trie_on, ctl = serve(True)
    rep_off, _, _ = serve(False)
    trie_on.validate()

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
        "oracle_match": replies_match(
            DictOracle(zip(keys, values)), trace, rep_on, rep_off
        ),
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


def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """Every drift pattern, and the headline across them."""
    rows = [_pattern_row(p, cfg, seed) for p in PATTERNS]
    wins = sum(1 for r in rows if r["adaptive_wins"])
    headline = {
        "all_digests_match": all(r["digest_match"] for r in rows),
        "all_oracle_match": all(r["oracle_match"] for r in rows),
        "patterns_won": wins,
        "adaptive_beats_static": wins >= 2,
        "p99_speedups": {r["pattern"]: r["p99_speedup"] for r in rows},
    }
    gates = {k: headline[k] for k in ("all_digests_match", "all_oracle_match")}
    if cfg["gate_wins"]:
        gates["adaptive_beats_static"] = headline["adaptive_beats_static"]
    return {"patterns": rows, "headline": headline, "gates": gates}
