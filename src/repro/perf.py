"""Wall-clock performance harness: ``python -m repro perf``.

Every other benchmark in this repository reports *simulated* PIM Model
counts (IO rounds, words, kernel work).  This module instead times the
simulator itself — how many operations per second the Python process
sustains — so regressions in the hot loop (word-cost accounting,
hashing, fragment matching) are visible as wall-clock, not just as
noise.

One mode is measured — the shipped one: the :mod:`repro.columnar`
flat-array query core (struct-of-arrays query trie, index-arithmetic
span/respan, fused batch matching) over cached word costs.  The
baseline and object-fast tiers it was once timed against are retired
(PRs 1 and 5 recorded the three-way proof); what they left behind is the
committed ``BENCH_wallclock.json``, whose PIM Model counts were recorded
with all three tiers agreeing.  Optimizations change wall-clock, never
accounting, so :func:`check_floor` requires a run's counts
(:func:`counts`) to equal the recorded ones exactly, and its batched-LCP
rate to stay above the recorded floor.  With ``reps > 1`` the run is
repeated that many times and both the min (the headline, least-noise
estimate) and the median wall-clock per phase are reported.

Determinism note: trie-node, block, and meta-piece uids come from
process-global counters, and uid *values* feed set-iteration order in
block extraction, which feeds the random-module placement draws.  Two
in-process runs therefore only produce identical snapshots if the
counters are reset first — :func:`reset_id_counters` does exactly
that before every measured run.  (Within one run the simulation is
fully deterministic given the PIMSystem seed.)
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from .bits import BitString
from .core import blocks as _blocks
from .core import meta as _meta
from .core.pimtrie import PIMTrie, PIMTrieConfig
from .pim import PIMSystem
from .trie import nodes as _nodes
from .workloads import single_range_flood, uniform_keys

__all__ = [
    "bench_config",
    "run_bench",
    "main",
    "counts",
    "check_floor",
    "reset_id_counters",
    "HEADLINE",
    "SMOKE",
]

#: The acceptance workload: batched ops at P=32, n=4096, l=256.
HEADLINE = {"P": 32, "n": 4096, "l": 256}

#: CI-sized workload (seconds of wall-clock).
SMOKE = {"P": 8, "n": 512, "l": 64}

#: ``--check-floor`` floor for the SMOKE batched-LCP rate, written into
#: every smoke report: the ops/sec the retired object fast tier recorded
#: next to columnar's 30284 (PR 5), i.e. a ~4x machine-variance margin.
SMOKE_LCP_FLOOR = 7705.4


def reset_id_counters() -> None:
    """Reset the process-global uid counters (see module docstring).

    Shared by every harness that needs run-to-run byte determinism in
    one process (this module and the serve layer's smoke/bench).
    """
    _nodes.TrieNode._next_uid = 0
    _blocks._block_ids = itertools.count(1)
    _meta._piece_ids = itertools.count(1)


# ----------------------------------------------------------------------
def _run_phases(
    P: int, n: int, l: int, seed: int
) -> tuple[dict[str, dict[str, Any]], list, dict[str, Any]]:
    """One full measured run: build, LCP, insert, delete, subtree, and
    the E10 skew flood, all timed, with a metrics snapshot per phase.

    Returns ``(phases, snapshots, results)`` where ``snapshots`` and
    ``results`` are the determinism evidence (compared across reps).
    """
    reset_id_counters()
    keys = uniform_keys(n, l, seed=seed)
    queries = uniform_keys(n, l, seed=seed + 1)
    extra = uniform_keys(max(2, n // 2), l, seed=seed + 2)
    flood = single_range_flood(n, l, seed=seed + 3)
    prefixes = [k.prefix(min(12, l)) for k in keys[: min(32, n)]]

    phases: dict[str, dict[str, Any]] = {}
    snapshots: list = []
    results: dict[str, Any] = {}

    system = PIMSystem(P, seed=1)

    def timed(name, ops, fn):
        before = system.snapshot()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        after = system.snapshot()
        d = after.delta(before)
        phases[name] = {
            "seconds": round(dt, 6),
            "ops": ops,
            "ops_per_sec": round(ops / max(dt, 1e-9), 1),
            "metrics": {
                "io_rounds": d.io_rounds,
                "io_time": d.io_time,
                "communication": d.total_communication,
                "pim_time": d.pim_time,
            },
        }
        snapshots.append(after)
        return out

    trie = timed("build", n, lambda: PIMTrie(
        system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
    ))
    results["lcp"] = timed("lcp", n, lambda: trie.lcp_batch(queries))
    timed("insert", len(extra), lambda: trie.insert_batch(extra))
    half = extra[: len(extra) // 2]
    timed("delete", len(half), lambda: trie.delete_batch(half))
    results["subtree_sizes"] = timed(
        "subtree",
        len(prefixes),
        lambda: [len(r) for r in trie.subtree_batch(prefixes)],
    )
    results["skew_flood"] = timed(
        "skew_flood", n, lambda: trie.lcp_batch(flood)
    )

    return phases, snapshots, results


def _median(values: list[float]) -> float:
    s = sorted(values)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def _measure(
    P: int, n: int, l: int, seed: int, reps: int
) -> tuple[dict[str, dict[str, Any]], list]:
    """``reps`` timed runs per phase: min wall-clock is the headline
    figure, the median is reported alongside as the noise estimate
    (counts are rep-invariant — any drift raises)."""
    first: Optional[dict[str, dict[str, Any]]] = None
    first_snaps: list = []
    first_results: dict[str, Any] = {}
    secs: dict[str, list[float]] = {}
    for rep in range(reps):
        phases, snaps, results = _run_phases(P, n, l, seed)
        if first is None:
            first, first_snaps, first_results = phases, snaps, results
        elif snaps != first_snaps or results != first_results:
            raise AssertionError(
                f"non-deterministic metrics across reps (P={P}, n={n}, "
                f"l={l}, rep={rep})"
            )
        for name, ph in phases.items():
            secs.setdefault(name, []).append(ph["seconds"])
    assert first is not None
    for name, ph in first.items():
        ss = secs[name]
        mn, med = min(ss), _median(ss)
        ph["seconds"] = round(mn, 6)
        ph["ops_per_sec"] = round(ph["ops"] / max(mn, 1e-9), 1)
        ph["seconds_median"] = round(med, 6)
        ph["ops_per_sec_median"] = round(ph["ops"] / max(med, 1e-9), 1)
    return first, first_snaps


# ----------------------------------------------------------------------
def bench_config(
    P: int, n: int, l: int, seed: int = 7, reps: int = 1
) -> dict[str, Any]:
    """Benchmark one (P, n, l) point.

    Raises ``AssertionError`` if two reps disagree on any per-phase
    :class:`MetricsSnapshot` or any query result.
    """
    phases, snaps = _measure(P, n, l, seed, reps)
    return {
        "P": P,
        "n": n,
        "l": l,
        "seed": seed,
        "reps": reps,
        "columnar": phases,
        "metrics": snaps[-1].as_dict(),
    }


def counts(head: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a :func:`bench_config` result: its
    size, the cumulative PIM Model metrics and each phase's delta."""
    return {
        "config": {k: head[k] for k in ("P", "n", "l", "seed")},
        "metrics": head["metrics"],
        "phases": {
            name: ph["metrics"] for name, ph in head["columnar"].items()
        },
    }


def run_bench(
    out: Optional[str] = "BENCH_wallclock.json",
    smoke: bool = False,
    reps: Optional[int] = None,
    quiet: bool = False,
) -> dict[str, Any]:
    """Run the full harness (or the CI smoke) and write the JSON report.

    A smoke report carries :data:`SMOKE_LCP_FLOOR`, so the committed
    file is all :func:`check_floor` needs.
    """
    reps = reps if reps is not None else (1 if smoke else 3)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cfg = SMOKE if smoke else HEADLINE

    def say(msg: str) -> None:
        if not quiet:
            print(msg, flush=True)

    say(f"headline: P={cfg['P']} n={cfg['n']} l={cfg['l']} reps={reps}...")
    head = bench_config(**cfg, reps=reps)
    if smoke:
        head["lcp_floor_ops_per_sec"] = SMOKE_LCP_FLOOR
    say("  " + ", ".join(
        f"{name} {ph['ops_per_sec']:.0f} ops/s"
        for name, ph in head["columnar"].items()
    ))

    report: dict[str, Any] = {
        "bench": "wallclock",
        "command": "python -m repro perf" + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "headline": head,
    }

    if not smoke:
        sweep: list[dict[str, Any]] = []
        base = {"P": 16, "n": 1024, "l": 128}
        seen: set[tuple[int, int, int]] = set()
        for dim, values in (
            ("P", (8, 16, 32)),
            ("n", (512, 1024, 2048)),
            ("l", (64, 128, 256)),
        ):
            for v in values:
                c = dict(base)
                c[dim] = v
                key = (c["P"], c["n"], c["l"])
                if key in seen:
                    continue
                seen.add(key)
                point = bench_config(**c, reps=1)
                say(f"  sweep P={c['P']:>2} n={c['n']:>4} l={c['l']:>3}: "
                    f"lcp {point['columnar']['lcp']['ops_per_sec']:.0f} ops/s")
                sweep.append(point)
        report["sweep"] = sweep

    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        say(f"wrote {out}")
    return report


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_wallclock",
        description="Wall-clock perf harness (ops/sec per phase, with "
        "recorded-count proof)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (~seconds, headline point only)",
    )
    parser.add_argument(
        "--out", default="BENCH_wallclock.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="wall-clock reps; min and median are reported "
        "(default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--check-floor", metavar="RECORDED_JSON", default=None,
        help="regression guard: exit 1 unless this run's PIM Model "
        "counts equal those in RECORDED_JSON (the committed "
        "BENCH_wallclock.json) and its batched-LCP ops/sec stays at or "
        "above the floor recorded there",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    report = run_bench(out=args.out, smoke=args.smoke, reps=args.reps)
    if args.check_floor:
        return check_floor(report, args.check_floor)
    return 0


def check_floor(report: dict, recorded_path: str) -> int:
    """Regression guard shared by the CLI entry points.

    Returns 0 when this run's :func:`counts` equal those recorded in
    ``recorded_path`` (the committed ``BENCH_wallclock.json``, whose
    counts the retired baseline and object-fast tiers also produced)
    and its batched-LCP ops/sec is at or above the floor recorded
    there, and 1 otherwise.
    """
    recorded = json.loads(Path(recorded_path).read_text())["headline"]
    head = report["headline"]
    got_counts, want_counts = counts(head), counts(recorded)
    if got_counts != want_counts:
        print(
            f"FAIL: PIM Model counts differ from the recorded run "
            f"({recorded_path}): got {got_counts}, recorded {want_counts}",
            file=sys.stderr,
        )
        return 1
    floor = recorded["lcp_floor_ops_per_sec"]
    got = head["columnar"]["lcp"]["ops_per_sec"]
    if got < floor:
        print(
            f"FAIL: batched-LCP {got:.0f} ops/s dropped below the "
            f"recorded floor {floor:.0f} ops/s ({recorded_path})",
            file=sys.stderr,
        )
        return 1
    print(f"floor check OK: counts equal the recorded run, lcp "
          f"{got:.0f} ops/s >= recorded floor {floor:.0f} ops/s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
