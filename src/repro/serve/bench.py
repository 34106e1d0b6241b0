"""The serve-layer bench: arrival rate × batching policy × key skew
(``python -m repro bench serve`` → ``BENCH_serve.json``).

Each sweep point builds a fresh resident index, generates a seeded
online trace, replays it through :class:`EpochServer` under one
scheduler policy, and records service metrics (latency percentiles,
throughput, IO rounds per op, batch occupancy, queue depth) next to the
PIM Model metrics — including the per-module traffic/work arrays, so
the balance *distribution* under each policy is preserved, not just the
max/mean ratio.

Two claims, each a gate (both computed on the simulated clock, so the
gates are deterministic and re-proved on every run), plus, on the
profiles that run overload points, a gate that each of them sheds load:

* **the batching trade-off** — for every (rate, skew) pair, eager vs a
  large max-wait deadline: amortization bought (fewer rounds/op) at a
  tail-latency cost (higher p99) — the continuous-batching bargain;
* **pipelined vs sequential** — the same loaded trace replayed with
  per-op host phase costs, sequential vs two-stage pipelined (host prep
  of epoch k+1 under module rounds of epoch k): answers must stay
  byte-identical (digest check) and the makespan must not grow.
"""

from __future__ import annotations

from typing import Any, Optional

from ..perf import fresh_trie
from ..workloads import uniform_keys
from .scheduler import policy_from_name
from .server import EpochServer
from .slo import answers_digest
from .trace import make_trace

__all__ = ["PROFILES", "run"]

#: The pair the trade-off is judged on.
TRADEOFF_PAIR = ("eager", "deadline:80")
#: One overload point per skew: arrivals outpace service capacity and a
#: bounded queue sheds load (admission control / backpressure).  The
#: full profile's saturated deadline:20 throughput c is ~1.20 ops/unit
#: (uniform) and ~0.86 (flood) since a write rides its matching's block
#: round; a trace of n ops at rate r leaves a backlog of about
#: n(1 - c/r), which exceeds the queue capacity only above
#: r = c / (1 - capacity/n) ≈ 1.60 for uniform.  Rate 2.0 clears that
#: for both skews with room to spare (at 1.5 the uniform queue never
#: filled).
OVERLOAD = {"rate": 2.0, "policy_spec": "deadline:20", "queue_capacity": 384}
#: Pipelined-vs-sequential comparison: per-op host-phase costs large
#: enough that hiding them matters (the profiles pick loaded rates where
#: epochs queue back-to-back — overlap needs a busy module).
PIPELINE = {"policy_spec": "deadline:20", "prep_time": 0.4, "asm_time": 0.1}

#: The full sweep's rates sit below the single-op service rate (an op
#: alone in an epoch costs a few simulated units), so the eager policy
#: degenerates to tiny epochs and a max-wait deadline has real rounds to
#: amortize — the regime where the batching trade-off is visible rather
#: than swamped by queueing.
PROFILES = {
    "smoke": {"P": 8, "resident": 192, "n_ops": 160, "length": 64,
              "rates": (0.25,), "skews": ("uniform",),
              "policies": TRADEOFF_PAIR, "pipeline_rates": (1.0,),
              "overload": False},
    "full": {"P": 16, "resident": 1024, "n_ops": 1536, "length": 64,
             "rates": (0.05, 0.25), "skews": ("uniform", "flood"),
             "policies": ("eager", "deadline:20", "deadline:80",
                          "affinity:80"),
             "pipeline_rates": (0.5, 1.0), "overload": True},
}


def _point(
    *,
    P: int,
    resident: int,
    n_ops: int,
    length: int,
    rate: float,
    skew: str,
    policy_spec: str,
    seed: int,
    queue_capacity: Optional[int] = None,
    pipelined: bool = False,
    prep_time: float = 0.0,
    asm_time: float = 0.0,
) -> dict[str, Any]:
    """Run one (rate, skew, policy) sweep point on a fresh index."""
    keys = uniform_keys(resident, length, seed=seed + 1)
    trie = fresh_trie(P, keys, keys)
    trace = make_trace(
        n_ops, length=length, rate=rate, skew=skew, seed=seed,
        name=f"{skew}-r{rate:g}",
    )
    policy = policy_from_name(policy_spec, queue_capacity=queue_capacity)
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


def run(cfg: dict[str, Any], seed: int) -> dict[str, Any]:
    """The sweep, the overload points, and the two claims."""
    rates, skews, policies = cfg["rates"], cfg["skews"], cfg["policies"]
    base = {k: cfg[k] for k in ("P", "resident", "n_ops", "length")}

    def point(**kw: Any) -> dict[str, Any]:
        return _point(seed=seed, **base, **kw)

    points = [
        point(rate=rate, skew=skew, policy_spec=spec)
        for skew in skews for rate in rates for spec in policies
    ]

    # overload: arrivals outpace service capacity, the bounded queue
    # sheds load, and the report records how many ops were rejected
    overload = [
        point(skew=skew, **OVERLOAD) for skew in skews if cfg["overload"]
    ]

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
    for skew in skews:
        for rate in cfg["pipeline_rates"]:
            seq = point(rate=rate, skew=skew, **PIPELINE)
            pip = point(rate=rate, skew=skew, pipelined=True, **PIPELINE)
            pipeline.append({
                "skew": skew,
                "rate": rate,
                **PIPELINE,
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
            })

    claims = {
        "tradeoff_shown_everywhere": bool(tradeoffs) and all(
            t["amortization_improved"] and t["tail_latency_degraded"]
            for t in tradeoffs
        ),
        "pipeline_answers_match_everywhere": bool(pipeline) and all(
            c["answers_match"] for c in pipeline
        ),
    }
    speedups = [c["makespan_speedup"] for c in pipeline]
    # an overload point that admits every arrival shows no shedding
    sheds = (
        {"overload_sheds_everywhere": all(p["dropped"] for p in overload)}
        if overload else {}
    )
    return {
        "points": points,
        "overload": overload,
        "tradeoffs": tradeoffs,
        "pipeline": pipeline,
        **claims,
        "headline": {
            "points": len(points),
            "min_makespan_speedup": min(speedups),
        },
        "gates": {
            **claims,
            "pipeline_never_slower": all(s >= 1.0 for s in speedups),
            **sheds,
        },
    }
