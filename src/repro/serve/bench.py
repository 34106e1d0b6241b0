"""The serve-layer benchmark: arrival rate × batching policy × key skew.

Writes ``BENCH_serve.json``.  Each sweep point builds a fresh resident
index, generates a seeded online trace, replays it through
:class:`EpochServer` under one scheduler policy, and records service
metrics (latency percentiles, throughput, IO rounds per op, batch
occupancy, queue depth) next to the PIM Model metrics — including the
per-module traffic/work arrays, so the balance *distribution* under
each policy is preserved, not just the max/mean ratio.

Three headline measurements:

* **the batching trade-off** — for every (rate, skew) pair, eager vs a
  large max-wait deadline: amortization bought (fewer rounds/op) at a
  tail-latency cost (higher p99) — the continuous-batching bargain;
* **pipelined vs sequential** — the same loaded trace replayed with
  per-op host phase costs, sequential vs two-stage pipelined (host prep
  of epoch k+1 under module rounds of epoch k): answers must stay
  byte-identical (digest check) while makespan and p99 improve;
* **adaptive vs fixed** — the ``adaptive:<target_p99>`` closed-loop
  policy against every fixed policy on the (rounds/op, p99) plane: the
  report records, per (rate, skew) cell, which fixed policies the
  adaptive point *dominates* (≤ in both coordinates, < in one) and
  whether any fixed policy dominates it — the Pareto-frontier claim
  ``--check-floor`` enforces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from ..core import PIMTrie, PIMTrieConfig
from ..perf import reset_id_counters
from ..pim import PIMSystem
from ..workloads import uniform_keys
from .scheduler import policy_from_name
from .server import EpochServer
from .slo import answers_digest
from .trace import make_trace

__all__ = [
    "bench_point",
    "check_floor_serve",
    "run_bench_serve",
]

#: Full sweep dimensions.  The rates sit below the single-op service
#: rate (an op alone in an epoch costs a few simulated units), so the
#: eager policy degenerates to tiny epochs and a max-wait deadline has
#: real rounds to amortize — the regime where the batching trade-off
#: is visible rather than swamped by queueing.
RATES = (0.05, 0.25)
SKEWS = ("uniform", "flood")
POLICIES = ("eager", "deadline:20", "deadline:80", "affinity:80")
#: The pair the trade-off is judged on.
TRADEOFF_PAIR = ("eager", "deadline:80")
#: One overload point per skew: arrivals outpace service capacity and a
#: bounded queue sheds load (admission control / backpressure).
OVERLOAD = {"rate": 1.0, "policy_spec": "deadline:20", "queue_capacity": 384}

#: The closed-loop policy the frontier claim is made for: p99 target of
#: 100 simulated units, affinity grouping, max_wait/max_batch steered
#: per epoch from observed queue depth, arrival rate, and latency.
ADAPTIVE_SPEC = "adaptive:100"
#: Pipelined-vs-sequential comparison: loaded rates where epochs queue
#: back-to-back (overlap needs a busy module to hide host work behind)
#: and per-op host-phase costs large enough that hiding them matters.
PIPELINE = {
    "policy_spec": "deadline:20",
    "rates": (0.5, 1.0),
    "prep_time": 0.4,
    "asm_time": 0.1,
}

FULL = {"P": 16, "resident": 1024, "n_ops": 1536, "length": 64}
SMOKE = {"P": 8, "resident": 192, "n_ops": 160, "length": 64, "rate": 0.25}


def bench_point(
    *,
    P: int,
    resident: int,
    n_ops: int,
    length: int,
    rate: float,
    skew: str,
    policy_spec: str,
    max_batch: int = 256,
    queue_capacity: Optional[int] = None,
    degraded_capacity: Optional[int] = None,
    pipelined: bool = False,
    prep_time: float = 0.0,
    asm_time: float = 0.0,
    seed: int = 7,
) -> dict[str, Any]:
    """Run one (rate, skew, policy) sweep point on a fresh index."""
    reset_id_counters()
    system = PIMSystem(P, seed=1)
    keys = uniform_keys(resident, length, seed=seed + 1)
    trie = PIMTrie(
        system, PIMTrieConfig(num_modules=P), keys=keys, values=keys
    )
    trace = make_trace(
        n_ops, length=length, rate=rate, skew=skew, seed=seed,
        name=f"{skew}-r{rate:g}",
    )
    policy = policy_from_name(
        policy_spec, max_batch=max_batch, queue_capacity=queue_capacity,
        degraded_capacity=degraded_capacity,
    )
    server = EpochServer(
        trie, policy,
        pipelined=pipelined, prep_time=prep_time, asm_time=asm_time,
    )
    report = server.run(trace)
    out = report.as_dict(include_wall=True, include_per_module=True)
    out.update({"P": P, "resident": resident, "rate": rate, "skew": skew,
                "policy_spec": policy_spec, "seed": seed,
                "answers_digest": answers_digest(report)})
    return out


def _dominates(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Pareto dominance on the (rounds/op, p99 latency) plane."""
    ar, br = a["rounds_per_op"], b["rounds_per_op"]
    ap, bp = a["latency"]["p99"], b["latency"]["p99"]
    return ar <= br and ap <= bp and (ar < br or ap < bp)


def run_bench_serve(
    out: Optional[str] = "BENCH_serve.json",
    smoke: bool = False,
    quiet: bool = False,
) -> dict[str, Any]:
    """Run the sweep (or a smoke-sized subset) and write the report."""
    cfg = SMOKE if smoke else FULL
    rates = (cfg.get("rate", 0.25),) if smoke else RATES
    skews = ("uniform", "flood") if not smoke else ("uniform",)
    policies = TRADEOFF_PAIR if smoke else POLICIES
    base = {k: cfg[k] for k in ("P", "resident", "n_ops", "length")}

    def say(msg: str) -> None:
        if not quiet:
            print(msg, flush=True)

    points: list[dict[str, Any]] = []
    for skew in skews:
        for rate in rates:
            for spec in policies:
                pt = bench_point(
                    rate=rate, skew=skew, policy_spec=spec, **base
                )
                say(
                    f"  {skew:<8} rate={rate:<4g} {spec:<12} "
                    f"rounds/op {pt['rounds_per_op']:.3f}  "
                    f"p99 {pt['latency']['p99']:.2f}  "
                    f"occupancy {pt['occupancy']:.3f}"
                )
                points.append(pt)

    # overload: arrivals outpace service capacity, the bounded queue
    # sheds load, and the report records how many ops were rejected
    overload: list[dict[str, Any]] = []
    if not smoke:
        for skew in skews:
            pt = bench_point(
                rate=OVERLOAD["rate"], skew=skew,
                policy_spec=OVERLOAD["policy_spec"],
                queue_capacity=OVERLOAD["queue_capacity"], **base,
            )
            say(
                f"  {skew:<8} OVERLOAD rate={OVERLOAD['rate']:g} "
                f"cap={OVERLOAD['queue_capacity']} "
                f"dropped {pt['dropped']}/{pt['num_ops']}"
            )
            overload.append(pt)

    # the batching trade-off, judged per (rate, skew)
    tradeoffs: list[dict[str, Any]] = []
    by_key = {
        (p["skew"], p["rate"], p["policy_spec"]): p for p in points
    }
    for skew in skews:
        for rate in rates:
            eager = by_key.get((skew, rate, TRADEOFF_PAIR[0]))
            slow = by_key.get((skew, rate, TRADEOFF_PAIR[1]))
            if eager is None or slow is None:
                continue
            tradeoffs.append({
                "skew": skew,
                "rate": rate,
                "policies": list(TRADEOFF_PAIR),
                "rounds_per_op": [eager["rounds_per_op"], slow["rounds_per_op"]],
                "p99_latency": [eager["latency"]["p99"], slow["latency"]["p99"]],
                "amortization_improved":
                    slow["rounds_per_op"] < eager["rounds_per_op"],
                "tail_latency_degraded":
                    slow["latency"]["p99"] > eager["latency"]["p99"],
            })

    # pipelined vs sequential on the same loaded trace: answers must be
    # byte-identical (digest), makespan/p99 should improve
    pipeline: list[dict[str, Any]] = []
    pipe_rates = (PIPELINE["rates"][-1],) if smoke else PIPELINE["rates"]
    pipe_base = {
        "policy_spec": PIPELINE["policy_spec"],
        "prep_time": PIPELINE["prep_time"],
        "asm_time": PIPELINE["asm_time"],
    }
    for skew in skews:
        for rate in pipe_rates:
            seq = bench_point(rate=rate, skew=skew, **pipe_base, **base)
            pip = bench_point(
                rate=rate, skew=skew, pipelined=True, **pipe_base, **base
            )
            comp = {
                "skew": skew,
                "rate": rate,
                **pipe_base,
                "answers_match":
                    seq["answers_digest"] == pip["answers_digest"],
                "answers_digest": pip["answers_digest"],
                "makespan": [seq["makespan"], pip["makespan"]],
                "makespan_speedup": (
                    seq["makespan"] / pip["makespan"]
                    if pip["makespan"] else 1.0
                ),
                "p99_latency":
                    [seq["latency"]["p99"], pip["latency"]["p99"]],
                "throughput": [seq["throughput"], pip["throughput"]],
                "host_overlap": pip["host_overlap"],
            }
            say(
                f"  {skew:<8} rate={rate:<4g} PIPELINE  "
                f"answers {'==' if comp['answers_match'] else '!='}  "
                f"speedup {comp['makespan_speedup']:.3f}x  "
                f"p99 {seq['latency']['p99']:.1f} -> "
                f"{pip['latency']['p99']:.1f}  "
                f"overlap {comp['host_overlap']:.1f}"
            )
            pipeline.append(comp)

    # adaptive vs every fixed policy on the (rounds/op, p99) plane
    adaptive: list[dict[str, Any]] = []
    for skew in skews:
        for rate in rates:
            apt = bench_point(
                rate=rate, skew=skew, policy_spec=ADAPTIVE_SPEC, **base
            )
            fixed = {
                spec: by_key[(skew, rate, spec)]
                for spec in policies
                if (skew, rate, spec) in by_key
            }
            dominates = sorted(
                spec for spec, p in fixed.items() if _dominates(apt, p)
            )
            dominated_by = sorted(
                spec for spec, p in fixed.items() if _dominates(p, apt)
            )
            cell = {
                "skew": skew,
                "rate": rate,
                "policy_spec": ADAPTIVE_SPEC,
                "rounds_per_op": apt["rounds_per_op"],
                "p99_latency": apt["latency"]["p99"],
                "fixed": {
                    spec: [p["rounds_per_op"], p["latency"]["p99"]]
                    for spec, p in fixed.items()
                },
                "dominates": dominates,
                "dominated_by": dominated_by,
                "on_frontier": bool(dominates) and not dominated_by,
                "sched": apt.get("sched"),
            }
            say(
                f"  {skew:<8} rate={rate:<4g} ADAPTIVE  "
                f"rounds/op {apt['rounds_per_op']:.3f}  "
                f"p99 {apt['latency']['p99']:.2f}  "
                f"dominates {dominates or '[]'}  "
                f"dominated_by {dominated_by or '[]'}"
            )
            adaptive.append(cell)

    report = {
        "bench": "serve",
        "command": "python benchmarks/perf/bench_serve.py"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "config": cfg,
        "points": points,
        "overload": overload,
        "tradeoffs": tradeoffs,
        "pipeline": pipeline,
        "adaptive": adaptive,
        "tradeoff_shown_everywhere": all(
            t["amortization_improved"] and t["tail_latency_degraded"]
            for t in tradeoffs
        ) and bool(tradeoffs),
        "pipeline_answers_match_everywhere": all(
            c["answers_match"] for c in pipeline
        ) and bool(pipeline),
        "adaptive_on_frontier_everywhere": all(
            c["on_frontier"] for c in adaptive
        ) and bool(adaptive),
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        say(f"wrote {out}")
    return report


def check_floor_serve(report: dict[str, Any]) -> int:
    """Enforce the serve-bench floors on a freshly produced report.

    Every quantity checked is computed on the simulated clock, so the
    gate is deterministic — no recorded-file comparison, the claims are
    re-proved on each run:

    * the batching trade-off shows in every (rate, skew) cell;
    * pipelined answers are digest-identical to sequential everywhere;
    * the adaptive policy sits on the (rounds/op, p99) Pareto frontier
      in every cell: it dominates at least one fixed policy and no
      fixed policy dominates it.

    Returns 0 when all floors hold, 1 otherwise (failures on stderr).
    """
    import sys

    failures: list[str] = []
    if not report.get("tradeoff_shown_everywhere"):
        failures.append(
            "batching trade-off not shown in every (rate, skew) cell"
        )
    if not report.get("pipeline_answers_match_everywhere"):
        bad = [
            f"({c['skew']}, r={c['rate']:g})"
            for c in report.get("pipeline", [])
            if not c["answers_match"]
        ]
        failures.append(
            "pipelined answers diverge from sequential: "
            + (", ".join(bad) if bad else "no pipeline section")
        )
    for c in report.get("pipeline", []):
        if c["makespan_speedup"] < 1.0:
            failures.append(
                f"pipeline slower than sequential at "
                f"({c['skew']}, r={c['rate']:g}): "
                f"{c['makespan_speedup']:.3f}x"
            )
    if not report.get("adaptive_on_frontier_everywhere"):
        bad = [
            f"({c['skew']}, r={c['rate']:g}) dominates={c['dominates']} "
            f"dominated_by={c['dominated_by']}"
            for c in report.get("adaptive", [])
            if not c["on_frontier"]
        ]
        failures.append(
            "adaptive policy off the Pareto frontier: "
            + ("; ".join(bad) if bad else "no adaptive section")
        )
    for msg in failures:
        print(f"FAIL bench_serve floor: {msg}", file=sys.stderr)
    return 1 if failures else 0
