"""Command-line experiment runner: ``python -m repro <command>``.

Gives downstream users a zero-setup way to watch the paper's claims
reproduce, without pytest:

* ``python -m repro demo``                — the Figure-1 example, annotated
* ``python -m repro table1 [--p 16]``     — the Table-1 LCP comparison
* ``python -m repro skew [--p 16]``       — the E10 load-balance contrast
* ``python -m repro scaling``             — O(log P) round growth + fit
* ``python -m repro bench-all``           — all of the above

* ``python -m repro bench <name> [--smoke] [--seed N] [--out PATH]
  [--check-floor RECORDED_JSON]`` — one of the six benches, each
  writing ``BENCH_<name>.json`` and exiting 1 on a false gate
  (:mod:`repro.perf`): ``wallclock`` (simulator ops/sec against
  recorded PIM Model counts), ``serve`` (E15 batching trade-off,
  overload shedding, pipelining), ``faults`` (E16 availability under
  crashes, stragglers, lossy transport, rack loss), ``cluster`` (E17
  hash vs range sharding, rack-loss failover), ``adapt`` (E18 adaptive
  vs static layout under drifting skew), ``ordered`` (E19 ordered-op
  answer parity across execution targets)
* ``python -m repro serve [--smoke]``     — online service simulation
  (continuous batching over a timestamped trace, latency percentiles)
* ``python -m repro trace [--smoke]``     — span tracing + phase
  profiling (repro.obs): runs a traced workload (batch ops plus a
  faulted serve leg) on a built trie, writes a Chrome trace-event
  JSON, prints the per-phase roll-up, and verifies span deltas sum to
  the run's metrics

All numbers are PIM Model counts from the simulator (IO rounds, words,
per-module balance), not wall-clock times — except ``bench
wallclock``, which times the simulator itself, the timed reads of
``bench ordered``, and the wall-clock section of ``serve``.
"""

from __future__ import annotations

import argparse
import sys

from . import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from .analysis import best_law, fit_law
from .baselines import DistributedRadixTree, DistributedXFastTrie, RangePartitionedIndex
from .perf import BENCHES, bench, fresh_trie
from .workloads import single_range_flood, uniform_keys

bs = BitString.from_str


def _measure(system, fn, *args):
    before = system.snapshot()
    out = fn(*args)
    return out, system.snapshot().delta(before)


# ----------------------------------------------------------------------
def cmd_demo(args: argparse.Namespace) -> int:
    print("PIM-trie demo — the paper's Figure 1 example\n")
    keys = ["000010", "00001101", "1010000", "1010111", "101011"]
    system = PIMSystem(args.p, seed=1)
    trie = PIMTrie(
        system, PIMTrieConfig(num_modules=args.p),
        keys=[bs(k) for k in keys], values=keys,
    )
    print(f"data trie: {len(keys)} keys -> {trie.num_blocks()} blocks on "
          f"{args.p} modules")
    queries = ["00001001", "101001", "101011"]
    lcps, m = _measure(system, trie.lcp_batch, [bs(q) for q in queries])
    for q, l in zip(queries, lcps):
        note = "  <- ends on hidden nodes (paper's example)" if l == 5 else ""
        print(f"  LCP({q!r}) = {l}{note}")
    print(f"\ncost: {m.io_rounds} IO rounds, {m.total_communication} words, "
          f"imbalance {m.traffic_imbalance():.2f}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    P = args.p
    print(f"Table 1 (LCP column), P={P}, batch=256\n")
    print(f"{'l (bits)':>9} {'structure':<14} {'rounds':>7} {'words/op':>9}")
    for length in (32, 64, 128, 256):
        keys = uniform_keys(256, length, seed=10)
        queries = keys[:128] + uniform_keys(128, length, seed=20)
        rows = []
        system = PIMSystem(P, seed=1)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys)
        _, m = _measure(system, trie.lcp_batch, queries)
        rows.append(("pim-trie", m))
        system = PIMSystem(P, seed=1)
        radix = DistributedRadixTree(system, span=4, keys=keys)
        _, m = _measure(system, radix.lcp_batch, queries)
        rows.append(("dist-radix", m))
        if length <= 128:
            system = PIMSystem(P, seed=1)
            xfast = DistributedXFastTrie(system, width=length, keys=keys)
            _, m = _measure(system, xfast.lcp_batch, queries)
            rows.append(("dist-xfast", m))
        for name, m in rows:
            print(f"{length:>9} {name:<14} {m.io_rounds:>7} "
                  f"{m.total_communication / 256:>9.1f}")
        print()
    print("shape: radix rounds = l/s; x-fast ~ log l (fixed-length only);")
    print("       pim-trie flat in l (O(log P)), words/op ~ l/w.")
    return 0


def cmd_skew(args: argparse.Namespace) -> int:
    P = args.p
    print(f"Skew resistance (E10), P={P}: traffic imbalance = max/mean "
          f"per-module words (1.0 perfect, {P}.0 serialized)\n")
    keys = uniform_keys(1024, 64, seed=200)
    workloads = {
        "uniform": uniform_keys(1024, 64, seed=201),
        "flood": single_range_flood(1024, 64, seed=203),
    }
    print(f"{'workload':<10} {'index':<18} {'imbalance':>10} {'io_time':>9}")
    for wname, queries in workloads.items():
        for iname in ("pim-trie", "range-partition"):
            system = PIMSystem(P, seed=1)
            if iname == "pim-trie":
                idx = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys)
            else:
                idx = RangePartitionedIndex(system, keys=keys)
            _, m = _measure(system, idx.lcp_batch, queries)
            print(f"{wname:<10} {iname:<18} {m.traffic_imbalance():>10.2f} "
                  f"{m.io_time:>9}")
        print()
    print("shape: the flood serializes range partitioning on one module;")
    print("       pim-trie stays near its uniform balance (Theorem 4.3).")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    print("IO rounds per LCP batch vs P (Theorem 4.3: O(log P))\n")
    keys = uniform_keys(512, 64, seed=300)
    xs, ys = [], []
    for P in (4, 8, 16, 32, 64):
        system = PIMSystem(P, seed=1)
        trie = PIMTrie(system, PIMTrieConfig(num_modules=P), keys=keys)
        _, m = _measure(system, trie.lcp_batch, keys[:256])
        xs.append(P)
        ys.append(m.io_rounds)
        print(f"  P={P:>3}: {m.io_rounds} rounds")
    fit = best_law(xs, ys)
    lin = fit_law(xs, ys, "linear")
    print(f"\nbest fit: {fit.law} (R²={fit.r2:.3f}); "
          f"linear slope would be {lin.b:.3f} rounds/module")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    return bench(
        args.name, smoke=args.smoke, seed=args.seed,
        out=args.out or f"BENCH_{args.name}.json",
        check_floor=args.check_floor,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import EpochServer, make_trace, policy_from_name
    from .serve.bench import PROFILES

    if args.smoke:  # the serve bench's smoke shape
        cfg = PROFILES["smoke"]
        P, resident, n_ops, length = (
            cfg[k] for k in ("P", "resident", "n_ops", "length")
        )
        (rate,) = cfg["rates"]
    else:
        P, resident, n_ops, length, rate = (
            args.p, args.resident, args.n, args.length, args.rate
        )
    keys = uniform_keys(resident, length, seed=args.seed + 1)
    trie = fresh_trie(P, keys, keys)
    trace = make_trace(
        n_ops, length=length, arrival=args.arrival, rate=rate,
        skew=args.skew, seed=args.seed,
    )
    policy = policy_from_name(
        args.policy, max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        degraded_capacity=args.degraded_capacity,
    )
    server = EpochServer(
        trie, policy, pipelined=args.pipelined,
        prep_time=args.prep_time, asm_time=args.asm_time,
    )
    report = server.run(trace)
    print(f"serve — continuous batching over PIM-trie (P={P}, "
          f"{resident} resident keys, {n_ops} ops)\n")
    # the smoke output is byte-deterministic for a fixed seed: print
    # only simulated quantities (wall-clock varies run to run)
    print(report.format_summary(deterministic_only=args.smoke))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .faults import FaultPlan
    from .obs import (
        Tracer,
        chrome_trace,
        format_rollup,
        rollup,
        root_metric_sums,
        validate_chrome_trace,
    )
    from .serve import EpochServer, make_trace, policy_from_name

    if args.smoke:
        P, resident, n_q, length = 8, 256, 96, 64
    else:
        P, resident, n_q, length = args.p, args.resident, args.n, args.length
    keys = uniform_keys(resident, length, seed=args.seed + 1)
    trie = fresh_trie(P, keys, keys)
    system = trie.system
    # traced from here on: the batch ops and the serve leg, not the build
    tracer = Tracer(system)
    before = system.snapshot()
    queries = uniform_keys(n_q, length, seed=args.seed + 2)
    # the trie records its own op/phase spans; these calls are the roots
    trie.lcp_batch(queries)
    trie.insert_batch(
        queries[: n_q // 2], [str(k) for k in queries[: n_q // 2]]
    )
    trie.delete_batch(queries[: n_q // 4])
    trie.subtree_batch([k.prefix(6) for k in queries[: n_q // 8]])

    # a short faulted serve leg: epochs, segments, and the recovery
    # rounds of the injected crash all land in distinct spans
    trace = make_trace(
        max(32, n_q // 2), length=length, rate=0.25, seed=args.seed + 3
    )
    server = EpochServer(trie, policy_from_name("deadline:20"))
    system.install_faults(FaultPlan(crashes={1: 2}))
    with tracer.span("serve", cat="op", ops=len(trace.ops)):
        report = server.run(trace)
    system.clear_faults()

    overall = system.snapshot().delta(before)
    want = {
        "io_rounds": overall.io_rounds,
        "io_time": overall.io_time,
        "words": overall.total_communication,
        "pim_time": overall.pim_time,
        "cpu_work": overall.cpu_work,
    }
    got = root_metric_sums(tracer.spans)
    doc = chrome_trace(tracer)
    problems = validate_chrome_trace(doc)

    print(f"trace — {len(tracer.spans)} spans over {overall.io_rounds} "
          f"IO rounds (P={P}, {resident} resident keys)\n")
    print(format_rollup(rollup(tracer)))
    degraded = [e for e in report.epochs if e.degraded]
    if degraded:
        links = ", ".join(f"epoch {e.index} -> span {e.span_id}"
                          for e in degraded)
        print(f"\ndegraded epochs traced: {links}")
    print(f"\nspan-sum check: root spans {got}")
    print(f"                overall    {want}")
    exact = got == want
    print(f"span deltas sum exactly to the run's metrics delta: {exact}")
    if problems:
        print("chrome-export schema problems:")
        for p in problems[:10]:
            print(f"  {p}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f)
        print(f"wrote {args.out} (load in chrome://tracing or Perfetto)")
    return 0 if exact and not problems else 1


def cmd_bench_all(args: argparse.Namespace) -> int:
    rc = 0
    for fn in (cmd_demo, cmd_table1, cmd_skew, cmd_scaling):
        print("=" * 64)
        rc |= fn(args)
        print()
    return rc


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIM-trie reproduction experiment runner",
    )
    parser.add_argument(
        "--p", type=int, default=16, help="number of PIM modules (default 16)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("demo", cmd_demo),
        ("table1", cmd_table1),
        ("skew", cmd_skew),
        ("scaling", cmd_scaling),
        ("bench-all", cmd_bench_all),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        # SUPPRESS keeps a ``--p`` given before the command
        p.add_argument("--p", type=int, default=argparse.SUPPRESS)
    p = sub.add_parser(
        "bench",
        help="run one bench: its gates, and with --check-floor its "
             "recorded report, decide the exit code (writes "
             "BENCH_<name>.json)",
    )
    p.set_defaults(fn=cmd_bench)
    p.add_argument("name", choices=BENCHES)
    p.add_argument("--smoke", action="store_true",
                   help="the small CI profile (seconds)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None,
                   help="output JSON path (default: BENCH_<name>.json)")
    p.add_argument("--check-floor", metavar="RECORDED_JSON", default=None,
                   help="also exit 1 unless the run passes the bench's "
                   "comparison with RECORDED_JSON (wallclock: equal PIM "
                   "Model counts and the LCP floor; ordered: the "
                   "naive-scan floor)")
    p = sub.add_parser(
        "serve", help="online service simulation (continuous batching)"
    )
    p.set_defaults(fn=cmd_serve)
    p.add_argument("--smoke", action="store_true",
                   help="small deterministic run (fixed P/n/rate)")
    p.add_argument("--p", type=int, default=16)
    p.add_argument("--resident", type=int, default=1024,
                   help="resident keys built before the trace")
    p.add_argument("--n", type=int, default=1024, help="trace length (ops)")
    p.add_argument("--length", type=int, default=64, help="key length (bits)")
    p.add_argument("--rate", type=float, default=0.25,
                   help="mean arrivals per simulated time unit")
    p.add_argument("--arrival", choices=("poisson", "burst"),
                   default="poisson")
    p.add_argument("--skew", choices=("uniform", "zipf", "flood"),
                   default="uniform")
    p.add_argument("--policy", default="deadline:20",
                   help="eager | deadline:<max_wait> | "
                        "affinity[:<max_wait>]; append @deg=<n> for a "
                        "degraded-mode queue bound")
    p.add_argument("--max-batch", type=int, default=256)
    p.add_argument("--queue-capacity", type=int, default=None,
                   help="bounded admission (rejects arrivals when full)")
    p.add_argument("--degraded-capacity", type=int, default=None,
                   help="tighter queue bound while the system is degraded "
                        "(same as the @deg=<n> policy suffix)")
    p.add_argument("--pipelined", action="store_true",
                   help="overlap host prep of epoch k+1 with module "
                        "rounds of epoch k (answers stay byte-identical)")
    p.add_argument("--prep-time", type=float, default=0.0,
                   help="host prep cost per op (simulated units)")
    p.add_argument("--asm-time", type=float, default=0.0,
                   help="host reply-assembly cost per op (simulated units)")
    p.add_argument("--seed", type=int, default=7)
    p = sub.add_parser(
        "trace",
        help="span tracing + phase profiling (writes a Chrome "
             "trace-event JSON; see repro.obs)",
    )
    p.set_defaults(fn=cmd_trace)
    p.add_argument("--smoke", action="store_true",
                   help="small run (fixed P/n)")
    p.add_argument("--out", default="TRACE.json")
    p.add_argument("--p", type=int, default=16)
    p.add_argument("--resident", type=int, default=1024,
                   help="resident keys built before the traced ops")
    p.add_argument("--n", type=int, default=256,
                   help="query batch size for the traced ops")
    p.add_argument("--length", type=int, default=64, help="key length (bits)")
    p.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
