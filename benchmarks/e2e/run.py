#!/usr/bin/env python3
"""The e2e benchmark: four workloads, two clocks, one ledger.

    python3 benchmarks/e2e/run.py [--seed 7] [--workload NAME] [--smoke]
                                  [--out DIR] [--dump-spans]

runs both passes of every workload, prints every metric of
``BENCHMARK.json`` by name with its unit, writes ``DIR/e2e.json``
(default ``.benchmarks/e2e/``) and exits non-zero if any reply disagrees
with the oracle.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

is one pass (what the driver runs): its last output line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``), and it
writes no file unless ``--dump-spans`` is given.

A pass is a sequence of repetitions, each a fresh ``rep.py`` process,
never two at once.  The untraced pass repeats set-up + run until
``--seconds`` of run time are measured (at least three times) and
reports medians; the traced pass runs one repetition plain and one with
spans on, over the same inputs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: end-to-end metrics on the simulated clock: identical whenever the
#: same traffic is replayed, traced or not, or the pass is not correct
SIM_METRICS = (
    "sim_p50_latency", "sim_p99_latency", "sim_capacity_ops_per_unit",
    "slo_attainment", "io_rounds_per_op", "io_words_per_op", "pim_balance",
)
#: every end-to-end reading is a median over at least this many
#: repetitions per untraced pass
MIN_REPS = 3


class Pass:
    """Repetitions of one (workload, seed), checked against each other.

    Repetition ``i`` draws its traffic from sub-seed ``i % MIN_REPS`` of
    the seed, so an untraced pass's medians range over three traffic
    draws, not one: in sizing that cut the seed-to-seed spread of the
    write-dependent metrics by about a third.
    """

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.seed = seed
        self.cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload]
        self.cmd += ["--smoke"] * smoke
        self.reps: list[dict] = []

    def rep(self, draw: int, *extra: str) -> dict:
        """One more repetition in its own process (waited for)."""
        seed = self.seed * MIN_REPS + draw % MIN_REPS
        child = subprocess.run(
            self.cmd + ["--seed", str(seed), *extra],
            stdout=subprocess.PIPE, text=True,
        )
        if child.returncode:  # its own message is already on stderr
            sys.exit(f"e2e: a repetition exited with {child.returncode}")
        rep = json.loads(child.stdout.splitlines()[-1])
        rep["draw"] = draw % MIN_REPS
        self.reps.append(rep)
        return rep

    def result(self, metrics: list[dict], values: dict[str, float]) -> dict:
        # the same traffic must land on the same simulated numbers,
        # repeated or traced
        first: dict[int, dict] = {}
        deterministic = all(
            r["readings"][k] == first.setdefault(r["draw"], r["readings"])[k]
            for r in self.reps for k in SIM_METRICS
        )
        return {
            "correct": deterministic
            and not any(r["mismatched"] for r in self.reps),
            "attempted": sum(r["attempted"] for r in self.reps),
            "failed": sum(r["unanswered"] for r in self.reps),
            # BENCHMARK.json's metrics, in its order; a missing one is a bug
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in metrics
            },
        }


def untraced_pass(p: Pass, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over repetitions with tracing off."""
    measured = 0.0
    while len(p.reps) < MIN_REPS or measured < seconds:
        measured += p.rep(len(p.reps))["run_s"]
    # simulated readings come from one repetition per draw, however many
    # more the host clock needed, so they do not depend on host speed
    samples = {
        m["name"]: [
            r["readings"][m["name"]]
            for r in (p.reps[:MIN_REPS] if m["name"] in SIM_METRICS else p.reps)
        ]
        for m in SPEC["end_to_end"]
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    detail = {
        "samples": samples,
        "sample_counts": {
            "repetitions": len(p.reps),
            "epochs_per_repetition": p.reps[0]["epochs"],
            "latencies_per_repetition": p.reps[0]["attempted"],
        },
        "measured_run_s": measured,
    }
    return p.result(SPEC["end_to_end"], values), detail


def traced_pass(p: Pass, dump: Path | None) -> tuple[dict, dict]:
    """Per-layer metrics: one repetition plain, then the same inputs traced."""
    plain = p.rep(0)
    traced = p.rep(0, "--traced", *(["--dump-spans", str(dump)] if dump else []))
    values = dict(traced["ledger"])
    values["obs.trace_overhead_share"] = (
        traced["run_s"] - plain["run_s"]
    ) / plain["run_s"]
    detail = {
        "layer_self_share": traced["layer_self_share"],
        "rows": traced["rows"],
        "run_wall_s": {"untraced": plain["run_s"], "traced": traced["run_s"]},
    }
    return p.result(SPEC["per_layer"], values), detail


def run_pass(workload: str, trace: int, args: argparse.Namespace) -> dict:
    """One pass; the driver's result plus what ``e2e.json`` records."""
    p = Pass(workload, args.seed, args.smoke)
    if trace:
        dump = None
        if args.dump_spans:
            dump = Path(args.out) / f"{workload}.spans.json"
            dump.parent.mkdir(parents=True, exist_ok=True)
        result, detail = traced_pass(p, dump)
    else:
        result, detail = untraced_pass(p, args.seconds)
    first = p.reps[0]
    detail.update(
        sizes=first["sizes"],
        numpy=first["numpy"],
        answers_digest=first["answers_digest"],
        oracle_digest=first["oracle_digest"],
    )
    return {**result, **detail}


# ----------------------------------------------------------------------
def _print_pass(name: str, title: str, part: dict) -> None:
    sizes = part["sizes"]
    print(
        f"\n== {name} · {title} · {sizes['resident']} resident keys, "
        f"{sizes['n_ops']} ops · correct={part['correct']} "
        f"attempted={part['attempted']} failed={part['failed']}"
    )
    for metric, reading in part["metrics"].items():
        print(f"  {metric:<30} {reading['value']:>14.6g} {reading['unit']}")
    if "layer_self_share" in part:
        shares = sorted(part["layer_self_share"].items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in shares
        ))


def run_all(args: argparse.Namespace) -> int:
    """Both passes of every chosen workload, one after the other."""
    names = [args.workload] if args.workload else WORKLOADS
    passes = [args.trace] if args.trace is not None else [0, 1]
    report: dict[str, Any] = {
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = report["workloads"][name] = {}
        for trace in passes:
            kind, title = (("untraced", "end to end"), ("traced", "per layer"))[trace]
            part = entry[kind] = run_pass(name, trace, args)
            report["numpy"] = part.pop("numpy")
            ok = ok and part["correct"] and part["failed"] == 0
            _print_pass(name, title, part)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "e2e.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"\nwrote {out / 'e2e.json'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                    help="repeat set-up + run until this much run time is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="all sizes ÷ 20, three repetitions")
    ap.add_argument("--out", default=str(ROOT / ".benchmarks" / "e2e"),
                    help="directory for e2e.json and Chrome traces")
    ap.add_argument("--dump-spans", action="store_true",
                    help="also write each traced pass's Chrome trace")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = 0.0
    if not (args.workload and args.trace is not None):
        return run_all(args)
    part = run_pass(args.workload, args.trace, args)
    result = {k: part[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
