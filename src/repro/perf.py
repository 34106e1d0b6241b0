"""One bench runner, the helpers its scenarios share, and the wall-clock
bench: ``python -m repro bench <name>``.

A bench is a scenario module — this one for ``wallclock``,
``repro.<name>.bench`` for the other :data:`BENCHES` — exposing

* ``PROFILES = {"smoke": {...}, "full": {...}}``: the whole shape of a
  run, so a scenario never branches on the profile name;
* ``run(cfg, seed) -> report``: named sections, a ``headline`` and a
  ``gates`` dict of ``name -> bool`` — the bench's claims, re-proved
  on every run;
* optionally ``against(report, recorded) -> list[str]``: what fails a
  comparison with a recorded report (``--check-floor RECORDED_JSON``).

:func:`bench` runs one: it resets the uid counters, writes one header
(``bench``, ``profile``, ``seed``, ``config``, ``command``) above the
report, prints the headline and gates, and returns 1 on any false gate
or failed comparison.  Scenario modules are imported on first use, so
importing this module loads none of them.

The wall-clock bench
--------------------
Every other bench reports *simulated* PIM Model counts (IO rounds,
words, kernel work).  This one also times the simulator itself — how
many operations per second the Python process sustains for batched
build, LCP, insert, delete, subtree and the E10 skew flood — so
regressions in the hot loop show as wall-clock, not noise.  Each phase
runs :data:`REPS` times: the min wall-clock is the headline, the median
the noise estimate.  Optimizations change wall-clock, never accounting,
so :func:`against` requires a run's :func:`counts` to equal the
recorded ones exactly (the committed ``BENCH_wallclock.json``, whose
counts the retired baseline and object-fast tiers also produced) and
its batched-LCP rate to stay above the floor recorded there.

Determinism note: trie-node, block, and meta-piece uids come from
process-global counters, and uid *values* feed set-iteration order in
block extraction, which feeds the random-module placement draws.  Two
in-process runs therefore only produce identical snapshots if the
counters are reset first — :func:`reset_id_counters`, which
:func:`fresh_trie` calls before every build.  (Within one run the
simulation is fully deterministic given the PIMSystem seed.)
"""

from __future__ import annotations

import bisect
import gc
import importlib
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Optional

from .bits import BitString
from .core import blocks as _blocks
from .core import meta as _meta
from .core.pimtrie import PIMTrie, PIMTrieConfig
from .pim import PIMSystem
from .serve import replay_direct
from .trie import nodes as _nodes
from .workloads import single_range_flood, uniform_keys

__all__ = [
    "BENCHES",
    "DictOracle",
    "PROFILES",
    "against",
    "bench",
    "counts",
    "fresh_trie",
    "replies_match",
    "reset_id_counters",
    "run",
    "service_row",
]

BENCHES = ("wallclock", "serve", "faults", "cluster", "adapt", "ordered")


def reset_id_counters() -> None:
    """Reset the process-global uid counters (see module docstring)."""
    _nodes.TrieNode._next_uid = 0
    _blocks._block_ids = itertools.count(1)
    _meta._piece_ids = itertools.count(1)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _scenario(name: str) -> Any:
    """The scenario module of bench ``name``, imported on first use."""
    if name == "wallclock":
        return sys.modules[__name__]
    return importlib.import_module(f"{__package__}.{name}.bench")


def _short(value: Any, width: int = 96) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= width else text[: width - 3] + "..."


def bench(
    name: str,
    *,
    smoke: bool = False,
    seed: int = 7,
    out: Optional[str] = None,
    check_floor: Optional[str] = None,
) -> int:
    """Run bench ``name``; returns the exit code (0 only if every gate
    holds and, with ``check_floor``, the run passes ``against`` the
    report recorded at that path)."""
    mod = _scenario(name)
    if check_floor and not hasattr(mod, "against"):
        print(f"bench {name} keeps no recorded report to check against",
              file=sys.stderr)
        return 2
    profile = "smoke" if smoke else "full"
    cfg = mod.PROFILES[profile]
    reset_id_counters()
    report = mod.run(dict(cfg), seed)
    command = f"python -m repro bench {name}" + " --smoke" * smoke
    if seed != 7:
        command += f" --seed {seed}"
    doc = {"bench": name, "profile": profile, "seed": seed, "config": cfg,
           "command": command, **report}

    failures = [f"gate {g} is false" for g, ok in report["gates"].items()
                if not ok]
    if check_floor:
        recorded = json.loads(Path(check_floor).read_text())
        failures += [f"{msg} ({check_floor})"
                     for msg in mod.against(report, recorded)]

    print(f"bench {name} ({profile} profile, seed {seed})")
    for key, value in report["headline"].items():
        print(f"  {key}: {_short(value)}")
    print("gates: " + ", ".join(
        f"{g}={ok}" for g, ok in report["gates"].items()
    ))
    if out:
        Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    for msg in failures:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# shared scenario helpers
# ----------------------------------------------------------------------
def fresh_trie(
    P: int,
    keys: Iterable[BitString] = (),
    values: Optional[Iterable[Any]] = None,
    **config: Any,
) -> PIMTrie:
    """A trie built from ``keys`` / ``values`` on a new
    ``PIMSystem(P, seed=1)``, uid counters reset first, so equal inputs
    give byte-identical runs.  ``config`` sets further
    :class:`PIMTrieConfig` fields."""
    reset_id_counters()
    return PIMTrie(
        PIMSystem(P, seed=1), PIMTrieConfig(num_modules=P, **config),
        keys=keys, values=values,
    )


def replies_match(reference: Any, trace: Any, *reports: Any) -> bool:
    """Every reply the ``reports`` served equals a direct sequential
    replay of ``trace`` on ``reference`` (a faultless twin index or a
    :class:`DictOracle`)."""
    direct = dict(replay_direct(reference, trace.ops))
    return all(
        direct[c.seq] == c.reply for r in reports for c in r.completed if c.ok
    )


def service_row(
    report: Any, plan: Any, matches: bool, **extra: Any
) -> dict[str, Any]:
    """The JSON row of one served trace under a fault / rack-loss
    ``plan``: availability, correctness, recovery, latency and traffic,
    plus the caller's ``extra`` fields."""
    lat = report.latency()
    return {
        "plan": plan.as_dict(),
        "num_ops": report.num_ops,
        "completed": len(report.completed),
        "failed": report.failed,
        "availability": report.availability,
        "answers_match_replay": matches,
        "degraded_epochs": report.degraded_epochs,
        "recovery_rounds": report.total_recovery_rounds,
        "makespan": report.makespan,
        "latency": {k: lat[k] for k in ("p50", "p95", "p99", "max")},
        "io_rounds": report.metrics.io_rounds,
        "communication": report.metrics.total_communication,
        **extra,
    }


class DictOracle:
    """Reference semantics over a plain dict of BitString -> value.

    Answers by independent means: ``lcp`` against every stored key
    (a trie's paths are the union of its keys' prefixes), ``bisect``
    over a freshly sorted key list for pred / succ / range, a
    ``starts_with`` filter for subtree / count / top-k.  Duck-compatible
    with :func:`repro.serve.replay_direct` and the ordered op surface.
    """

    def __init__(self, items: Iterable[tuple[BitString, Any]] = ()) -> None:
        self.store: dict[BitString, Any] = dict(items)

    def lcp_batch(self, keys: list[BitString]) -> list[int]:
        return [
            max((k.lcp_len(s) for s in self.store), default=0) for k in keys
        ]

    def insert_batch(self, keys: list[BitString], values: list[Any]) -> None:
        for k, v in zip(keys, values):  # in order: last write wins
            self.store[k] = v

    def delete_batch(self, keys: list[BitString]) -> None:
        for k in keys:
            self.store.pop(k, None)

    def _under(self, prefix: BitString) -> list[tuple[BitString, Any]]:
        return sorted(
            ((k, v) for k, v in self.store.items() if k.starts_with(prefix)),
            key=lambda kv: kv[0],
        )

    def subtree_batch(self, prefixes: list[BitString]) -> list[list]:
        return [self._under(p) for p in prefixes]

    def prefix_count_batch(self, prefixes: list[BitString]) -> list[int]:
        return [
            sum(1 for k in self.store if k.starts_with(p)) for p in prefixes
        ]

    def topk_batch(self, prefixes: list[BitString], k: int) -> list[list]:
        return [self._under(p)[: max(0, k)] for p in prefixes]

    def predecessor_batch(self, keys: list[BitString]) -> list:
        s = sorted(self.store)
        return [
            None if (i := bisect.bisect_left(s, k)) == 0
            else (s[i - 1], self.store[s[i - 1]])
            for k in keys
        ]

    def successor_batch(self, keys: list[BitString]) -> list:
        s = sorted(self.store)
        return [
            None if (i := bisect.bisect_right(s, k)) == len(s)
            else (s[i], self.store[s[i]])
            for k in keys
        ]

    def range_batch(
        self, bounds: list[tuple[BitString, BitString]],
        limit: Optional[int] = None,
    ) -> list[list]:
        s = sorted(self.store)
        out = []
        for lo, hi in bounds:
            # an inverted interval slices empty, same as the trie walk
            i, j = bisect.bisect_left(s, lo), bisect.bisect_right(s, hi)
            items = [(k, self.store[k]) for k in s[i:j]]
            out.append(items if limit is None else items[: max(0, limit)])
        return out


# ----------------------------------------------------------------------
# the wall-clock bench
# ----------------------------------------------------------------------
#: timed runs per headline phase (sweep points run once)
REPS = 3

#: recorded floor for the smoke batched-LCP rate: the ops/sec the
#: retired object fast tier recorded next to columnar's 30284, i.e. a
#: ~4x machine-variance margin
SMOKE_LCP_FLOOR = 7705.4

PROFILES = {
    "smoke": {"P": 8, "n": 512, "l": 64, "lcp_floor": SMOKE_LCP_FLOOR,
              "sweep": []},
    # the acceptance workload, then (P, n, l) around (16, 1024, 128)
    # one dimension at a time
    "full": {"P": 32, "n": 4096, "l": 256, "sweep": [
        (8, 1024, 128), (16, 1024, 128), (32, 1024, 128),
        (16, 512, 128), (16, 2048, 128), (16, 1024, 64), (16, 1024, 256),
    ]},
}


def _run_phases(
    P: int, n: int, l: int, seed: int
) -> tuple[dict[str, dict[str, Any]], list, dict[str, Any]]:
    """One full measured run: build, LCP, insert, delete, subtree, and
    the E10 skew flood, all timed, with a metrics snapshot per phase.

    Returns ``(phases, snapshots, results)`` where ``snapshots`` and
    ``results`` are the determinism evidence (compared across reps).
    """
    keys = uniform_keys(n, l, seed=seed)
    queries = uniform_keys(n, l, seed=seed + 1)
    extra = uniform_keys(max(2, n // 2), l, seed=seed + 2)
    flood = single_range_flood(n, l, seed=seed + 3)
    prefixes = [k.prefix(min(12, l)) for k in keys[: min(32, n)]]

    phases: dict[str, dict[str, Any]] = {}
    snapshots: list = []
    results: dict[str, Any] = {}

    def record(name, ops, t0):
        dt = time.perf_counter() - t0
        after = trie.system.snapshot()
        # a fresh system starts at zero, so the build's delta is `after`
        d = after.delta(snapshots[-1]) if snapshots else after
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

    def timed(name, ops, fn):
        # collect outside the timer, so no phase pays for the garbage
        # an earlier one left
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        record(name, ops, t0)
        return out

    gc.collect()
    t0 = time.perf_counter()
    trie = fresh_trie(P, keys, keys)
    record("build", n, t0)
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


def _measure(
    P: int, n: int, l: int, seed: int, reps: int
) -> tuple[dict[str, Any], bool]:
    """``reps`` timed runs of one (P, n, l) point.  Returns the point's
    record and whether every rep reproduced the first one's per-phase
    snapshots and query results."""
    runs = [_run_phases(P, n, l, seed) for _ in range(reps)]
    phases, snaps, results = runs[0]
    agree = all((s, r) == (snaps, results) for _, s, r in runs[1:])
    for name, ph in phases.items():
        secs = [run_phases[name]["seconds"] for run_phases, _, _ in runs]
        mn, med = min(secs), statistics.median(secs)
        ph["seconds"] = round(mn, 6)
        ph["ops_per_sec"] = round(ph["ops"] / max(mn, 1e-9), 1)
        ph["seconds_median"] = round(med, 6)
        ph["ops_per_sec_median"] = round(ph["ops"] / max(med, 1e-9), 1)
    point = {"P": P, "n": n, "l": l, "seed": seed, "reps": reps,
             "columnar": phases, "metrics": snaps[-1].as_dict()}
    return point, agree


def counts(head: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a measured point: its size, the
    cumulative PIM Model metrics and each phase's delta."""
    return {
        "config": {k: head[k] for k in ("P", "n", "l", "seed")},
        "metrics": head["metrics"],
        "phases": {
            name: ph["metrics"] for name, ph in head["columnar"].items()
        },
    }


def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """The headline point (and, on the full profile, the sweep)."""
    head, agree = _measure(cfg["P"], cfg["n"], cfg["l"], seed, REPS)
    if "lcp_floor" in cfg:
        head["lcp_floor_ops_per_sec"] = cfg["lcp_floor"]
    sweep = [_measure(P, n, l, seed, 1)[0] for P, n, l in cfg["sweep"]]
    return {
        "headline": head,
        "sweep": sweep,
        "gates": {"reps_agree": agree},
    }


def against(report: dict[str, Any], recorded: dict[str, Any]) -> list[str]:
    """Counts equal to the recorded run's, and batched LCP at or above
    the floor recorded there."""
    head, want = report["headline"], recorded["headline"]
    failures = []
    if counts(head) != counts(want):
        failures.append(
            f"PIM Model counts differ from the recorded run: got "
            f"{counts(head)}, recorded {counts(want)}"
        )
    got = head["columnar"]["lcp"]["ops_per_sec"]
    floor = want["lcp_floor_ops_per_sec"]
    if got < floor:
        failures.append(
            f"batched LCP {got:.0f} ops/s is below the recorded floor "
            f"{floor:.0f} ops/s"
        )
    return failures
