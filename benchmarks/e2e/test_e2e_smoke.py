"""Smoke test of the e2e benchmark.

Not part of tier-1 (``testpaths`` stays ``tests/``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e

It runs ``run.py --smoke`` twice (≈45 s) and checks what a later perf
issue relies on: the names, the simulated clock repeating bit for bit,
the ledger adding up, and every wrapped function being exercised.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import SIM_METRICS, SPEC
from spans import TARGETS

HERE = Path(__file__).resolve().parent

_SERVER = {
    "serve.run", "serve.decide_cut", "serve.take_epoch", "core.build",
    "pim.round", "columnar.arena_build", "columnar.arena_fold",
    "columnar.span", "columnar.hash_match_many", "columnar.local_match",
    "workloads.tracegen",
}
_WRITES = {"core.insert", "core.delete", "columnar.warm_table"}
_ORDERED = {
    "ordered.pred", "ordered.succ", "ordered.range", "ordered.count",
    "ordered.topk", "ordered.snapshot", "ordered.snapshot_build",
}
#: the spans each workload exists to exercise
EXERCISES = {
    "read_point": _SERVER | {"core.lcp", "core.subtree"},
    "write_churn": _SERVER | _WRITES | {"core.lcp"},
    "ordered_scan": _SERVER | _WRITES | _ORDERED | {"core.lcp"},
    "cluster_drift": _SERVER | _WRITES | _ORDERED | {
        "core.lcp", "core.subtree", "cluster.execute", "cluster.rebalance",
        "adapt.step", "adapt.cluster_step", "columnar.hash_match",
        "core.split_block", "core.merge_block", "core.replicate_block",
        "core.dereplicate_block",
    },
}
#: wrapped but reached by none of the four workloads: respan_columnar
#: serves the pull path of ``_match_critical_blocks``, which needs a
#: query meta-block over the pull threshold
UNEXERCISED = {"columnar.respan"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> list[dict]:
    out = []
    for i in range(2):
        where = tmp_path_factory.mktemp(f"e2e{i}")
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(where)],
            check=True, stdout=subprocess.DEVNULL,
        )
        out.append(json.loads((where / "e2e.json").read_text()))
    return out


def _workloads(run: dict):
    assert set(run["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    return run["workloads"].items()


def test_every_reply_matches_the_oracle(runs):
    for run in runs:
        for name, entry in _workloads(run):
            for part in entry.values():
                assert part["correct"], name
                assert part["failed"] == 0, name
                assert part["answers_digest"] == part["oracle_digest"], name


def test_emitted_names_are_benchmark_json(runs):
    for name, entry in _workloads(runs[0]):
        for kind, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            got = {k: v["unit"] for k, v in entry[kind]["metrics"].items()}
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            assert got == want, (name, kind)


def test_simulated_clock_repeats_bit_for_bit(runs):
    first, second = (dict(_workloads(r)) for r in runs)
    for name in first:
        a, b = first[name]["untraced"], second[name]["untraced"]
        assert a["answers_digest"] == b["answers_digest"], name
        for metric in SIM_METRICS:
            assert a["metrics"][metric] == b["metrics"][metric], (name, metric)
        # counts read from repro.obs in the traced pass are simulated too
        ta, tb = first[name]["traced"]["metrics"], second[name]["traced"]["metrics"]
        for metric in ("pim.rounds", "pim.words", "core.repartitions", "obs.spans"):
            assert ta[metric] == tb[metric], (name, metric)


def test_ledger_rows_sum_to_the_run(runs):
    for name, entry in _workloads(runs[0]):
        traced = entry["traced"]
        assert traced["metrics"]["ledger.residual_share"]["value"] <= 0.01, name
        assert sum(traced["layer_self_share"].values()) == pytest.approx(1.0, abs=0.01)


def test_every_wrapped_function_is_exercised(runs):
    wrapped = {name for name, *_ in TARGETS} | {"workloads.tracegen"}
    assert set().union(*EXERCISES.values()) == wrapped - UNEXERCISED
    for name, entry in _workloads(runs[0]):
        rows = entry["traced"]["rows"]
        called = {n for phase in rows.values() for n, r in phase.items() if r["calls"]}
        assert EXERCISES[name] <= called, (name, EXERCISES[name] - called)
        assert not called & UNEXERCISED, name


def test_layers_show_only_where_the_table_says(runs):
    for name, entry in _workloads(runs[0]):
        metrics = entry["traced"]["metrics"]
        for metric, reading in metrics.items():
            if metric.startswith(("cluster.", "adapt.")) or metric == "core.maint_s":
                assert (reading["value"] > 0) == (name == "cluster_drift"), (name, metric)
        ordered = metrics["ordered.query_ops"]["value"] > 0
        assert ordered == (name in ("ordered_scan", "cluster_drift")), name
