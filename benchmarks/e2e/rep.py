#!/usr/bin/env python3
"""One repetition in a fresh process: set-up, ``run(trace)``, check, read.

    python3 benchmarks/e2e/rep.py --workload NAME --seed N [--smoke]
                                  [--traced] [--dump-spans FILE]

generates the inputs from the seed, builds the stack, replays the trace
once, compares every reply with the oracle's and prints one JSON line of
readings.  ``run.py`` starts these one after another: uid counters, heap
state and ``ru_maxrss`` are clean in every repetition, which repeating
inside one process is not (a second in-process repetition ran ≈20 %
slower in sizing).

Every number says which clock it is on.  ``sim_*`` and the PIM-Model
counts are on the simulated clock and repeat bit-for-bit for a seed;
``wall_*``, ``setup_s`` and ``peak_rss_mb`` are on the host clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
try:
    import numpy as np

    from repro.perf import reset_id_counters
    from repro.serve import ServiceReport, percentile

    from oracle import Oracle, answers_digest, same_reply
    from spans import CORE_OPS, MAINT_OPS, ORDERED_OPS, RUN, Recorder, Row
    from workloads import LENGTH, SMOKE_DIVISOR, WORKLOADS, Inputs, Stack, Workload
except ModuleNotFoundError as e:
    sys.exit(f"e2e: nothing to measure here ({e}); run from a full checkout")


@dataclass
class Rep:
    """Set-up + run on fresh state, timed from outside."""

    inputs: Inputs
    stack: Stack
    report: ServiceReport
    tracegen_s: float
    build_s: float
    run_s: float
    recorder: Optional[Recorder] = None


def one_rep(workload: Workload, seed: int, *, traced: bool = False) -> Rep:
    """Generate the inputs, build the stack, replay the trace once."""
    # uid values feed placement draws; a fresh process starts them at
    # zero, and so does this for any other caller
    reset_id_counters()
    recorder = Recorder() if traced else None
    with recorder.installed() if recorder else nullcontext():
        t0 = time.perf_counter()
        with recorder.span("workloads.tracegen") if recorder else nullcontext():
            inputs = workload.generate(seed)
        t1 = time.perf_counter()
        stack = workload.build(inputs, traced=traced)
        t2 = time.perf_counter()
        report = stack.service.run(inputs.trace)
        t3 = time.perf_counter()
    return Rep(inputs, stack, report, t1 - t0, t2 - t1, t3 - t2, recorder)


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, rep: Rep) -> dict[str, float]:
    report = rep.report
    attempted = report.num_ops
    latencies = [c.latency for c in report.completed if c.ok]
    # back-to-back module time: what the modules alone would need
    module_time = sum(
        e.completion - e.rounds_start - e.asm for e in report.epochs
    )
    return {
        "setup_s": rep.tracegen_s + rep.build_s,
        "wall_ops_per_s": len(latencies) / rep.run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_p50_latency": percentile(latencies, 50),
        "sim_p99_latency": percentile(latencies, 99),
        "sim_capacity_ops_per_unit": len(latencies) / module_time,
        # dropped and failed ops are in the denominator only: they miss
        "slo_attainment": sum(
            1 for x in latencies if x <= workload.slo_limit
        ) / attempted,
        "io_rounds_per_op": report.metrics.io_rounds / attempted,
        "io_words_per_op": report.metrics.io_time / attempted,
        "pim_balance": report.metrics.work_imbalance(),
    }


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def _obs_counts(stack: Stack) -> dict[str, int]:
    """Exact simulated counts from ``repro.obs`` spans inside the run."""
    out = dict.fromkeys(
        ("spans", "rounds", "words", "maint_rounds", "repartitions",
         "hvm_rebuilds"), 0,
    )
    for tracer in stack.tracers():
        out["spans"] += len(tracer.spans)
        # sid -> (inside a rack's initial build, inside a maint.* span);
        # spans are in tree order, so a parent is always seen first
        flags: dict[int, tuple[bool, bool]] = {}
        for s in tracer.spans:
            building, maint = flags.get(s.parent, (False, False))
            building = building or s.name == "rack.build"
            maint = maint or s.cat == "maint"
            flags[s.sid] = (building, maint)
            if building:
                continue
            if s.cat == "round":
                out["rounds"] += 1
                out["words"] += s.words
                out["maint_rounds"] += maint
            elif s.name == "maint.repartition_blocks":
                out["repartitions"] += 1
            elif s.name == "maint.rebuild_hvm":
                out["hvm_rebuilds"] += 1
    return out


def ledger(rep: Rep, new_insert_share: float) -> tuple[dict[str, float], dict]:
    """The per-layer metrics of a traced repetition and the span rows
    they were read from (``obs.trace_overhead_share`` needs the untraced
    repetition too, so ``run.py`` adds it)."""
    report = rep.report
    setup, run = rep.recorder.rows()
    obs = _obs_counts(rep.stack)
    epochs = report.epochs
    epoch_walls = [e.wall_seconds for e in epochs]
    blank = Row()

    def row(name: str) -> Row:
        return run.get(name, blank)

    def total(names: Sequence[str], field: str = "total_s") -> float:
        return sum(getattr(row(n), field) for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    snapshot_calls = row("ordered.snapshot").calls
    snapshot_builds = row("ordered.snapshot_build").calls
    router_calls = row("cluster.execute").calls
    rack_calls = total(CORE_OPS + ORDERED_OPS, "calls") if router_calls else 0
    adapt = report.extra.get("adapt", {})
    sched = report.extra.get("sched", {})
    matchers = ("columnar.hash_match", "columnar.hash_match_many",
                "columnar.local_match")
    metrics = {
        "workloads.tracegen_s": setup["workloads.tracegen"].total_s,
        "core.build_s": setup["core.build"].total_s,
        "serve.loop_self_s": row(RUN).self_s,
        "serve.sched_s": total(("serve.decide_cut", "serve.take_epoch")),
        "serve.epochs": len(epochs),
        "serve.segments": sum(len(e.kinds) for e in epochs),
        "serve.epoch_wall_p50_ms": 1e3 * percentile(epoch_walls, 50),
        "serve.epoch_wall_p95_ms": 1e3 * percentile(epoch_walls, 95),
        "serve.mean_batch": sum(e.size for e in epochs) / len(epochs),
        "serve.mean_queue_depth": sum(e.queue_depth for e in epochs) / len(epochs),
        "serve.sched_retunes": len(sched.get("decisions", ())),
        "serve.dropped": report.dropped,
        "core.lcp_s": row("core.lcp").total_s,
        "core.lcp_ops": row("core.lcp").size,
        "core.subtree_s": row("core.subtree").total_s,
        "core.subtree_ops": row("core.subtree").size,
        "core.insert_s": row("core.insert").total_s,
        "core.insert_ops": row("core.insert").size,
        "core.insert_new_share": new_insert_share,
        "core.delete_s": row("core.delete").total_s,
        "core.delete_ops": row("core.delete").size,
        "core.repartitions": obs["repartitions"],
        "core.hvm_rebuilds": obs["hvm_rebuilds"],
        "core.maint_io_rounds_share": ratio(obs["maint_rounds"], obs["rounds"]),
        "core.maint_s": total(MAINT_OPS),
        "columnar.arena_s": total(("columnar.arena_build", "columnar.arena_fold")),
        "columnar.span_s": total(("columnar.span", "columnar.respan")),
        "columnar.match_s": total(matchers),
        "columnar.match_calls": total(matchers, "calls"),
        "columnar.warm_s": row("columnar.warm_table").total_s,
        "pim.round_self_s": row("pim.round").self_s,
        "pim.rounds": obs["rounds"],
        "pim.words": obs["words"],
        "pim.kernel_balance": report.metrics.work_imbalance(),
        "pim.comm_balance": report.metrics.traffic_imbalance(),
        "ordered.snapshot_s": row("ordered.snapshot").total_s,
        "ordered.snapshot_builds": snapshot_builds,
        "ordered.snapshot_hit_share": ratio(
            snapshot_calls - snapshot_builds, snapshot_calls
        ),
        "ordered.query_s": total(ORDERED_OPS, "self_s"),
        "ordered.query_ops": total(ORDERED_OPS, "size"),
        "cluster.route_self_s": row("cluster.execute").self_s,
        "cluster.router_calls": router_calls,
        "cluster.rack_calls": rack_calls,
        "cluster.fanout": ratio(rack_calls, router_calls),
        "cluster.shard_imbalance": rep.stack.shard_imbalance(),
        "cluster.rebalance_s": row("cluster.rebalance").total_s,
        "cluster.rebuilds": report.faults.get("rebuilds", 0),
        "adapt.step_self_s": total(("adapt.step", "adapt.cluster_step"), "self_s"),
        "adapt.actions": sum(
            adapt.get(k, 0)
            for k in ("split", "replicate", "dereplicate", "merge")
        ),
        "obs.spans": obs["spans"],
        "ledger.residual_share": abs(
            sum(r.self_s for r in run.values()) - rep.run_s
        ) / rep.run_s,
    }
    by_layer: dict[str, float] = {}
    for name, r in run.items():
        layer = name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + r.self_s / rep.run_s
    rows = {
        phase: {name: asdict(r) for name, r in sorted(named.items())}
        for phase, named in (("setup", setup), ("run", run))
    }
    return metrics, {"rows": rows, "layer_self_share": by_layer}


# ----------------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--dump-spans", metavar="FILE")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.scaled(SMOKE_DIVISOR)

    rep = one_rep(workload, args.seed, traced=args.traced)

    # everything below is outside the timed windows
    oracle = Oracle(rep.inputs.keys, rep.inputs.values, LENGTH)
    expected = oracle.replay(rep.inputs.trace.ops)
    answered = {c.seq: c.reply for c in rep.report.completed if c.ok}
    out: dict[str, Any] = {
        "attempted": rep.report.num_ops,
        "unanswered": rep.report.num_ops - len(answered),
        "mismatched": sum(
            not same_reply(reply, expected[seq]) for seq, reply in answered.items()
        ),
        "answers_digest": answers_digest(answered),
        "oracle_digest": answers_digest(expected),
        "run_s": rep.run_s,
        "epochs": len(rep.report.epochs),
        "sizes": {"resident": workload.resident, "n_ops": workload.n_ops},
        "numpy": np.__version__,
        "readings": end_to_end(workload, rep),
    }
    if args.traced:
        new_share = oracle.new_inserts / oracle.inserts if oracle.inserts else 0.0
        out["ledger"], detail = ledger(rep, new_share)
        out.update(detail)
        if args.dump_spans:
            Path(args.dump_spans).write_text(json.dumps(rep.recorder.chrome_trace()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
