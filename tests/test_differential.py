"""Differential tests: every index implementation vs the dict oracle.

Quick profile (CI): 200 seeded randomized op sequences replayed through
PIMTrie, two baselines, and the oracle — zero divergences allowed.  On
failure the sequence is shrunk to a minimal repro before asserting.

Also proven here, on a seed subset: **empty-plan inertness** —
installing an empty :class:`FaultPlan` leaves the metrics snapshot
byte-identical (JSON bytes) to running with no fault layer at all.
(Columnar-vs-object pipeline parity lives in ``tests/test_columnar.py``.)

The ``slow`` profile (deselected by default; ``pytest -m slow``) runs
200 more seeds with longer sequences and larger batches.
"""

import json

import pytest

from repro.faults import FaultPlan

from tests import harness

QUICK_SEEDS = range(200)
SLOW_SEEDS = range(200, 400)
GROUP = 10  # seeds per test item: compact output, still bisectable


def check_seeds(seeds, **gen_kw):
    for seed in seeds:
        ops = harness.gen_ops(seed, **gen_kw)
        bad = harness.divergences(ops)
        if bad:
            small = harness.shrink(
                ops, lambda o: bool(harness.divergences(o))
            )
            raise AssertionError(
                f"seed {seed} diverged:\n" + "\n".join(bad[:4])
                + "\nminimal repro:\n" + harness.format_ops(small)
                + "\n" + "\n".join(harness.divergences(small)[:4])
            )


class TestDifferentialQuick:
    @pytest.mark.parametrize(
        "start", list(QUICK_SEEDS)[::GROUP], ids=lambda s: f"seeds{s}"
    )
    def test_all_indexes_match_oracle(self, start):
        check_seeds(range(start, start + GROUP))


@pytest.mark.slow
class TestDifferentialSlow:
    @pytest.mark.parametrize(
        "start", list(SLOW_SEEDS)[::GROUP], ids=lambda s: f"seeds{s}"
    )
    def test_long_profile(self, start):
        check_seeds(range(start, start + GROUP), batches=12, batch_size=8)


# ----------------------------------------------------------------------
class TestEmptyPlanInert:
    def run_json(self, ops, install_empty):
        index = harness.make_pimtrie()
        if install_empty:
            index.system.install_faults(FaultPlan.empty())
        replies = [
            harness.apply_batch(index, kind, payload) for kind, payload in ops
        ]
        snap = index.system.snapshot().as_dict(include_per_module=True)
        return replies, json.dumps(snap, sort_keys=True)

    @pytest.mark.parametrize("seed", [0, 3, 7, 13, 19, 29])
    def test_empty_plan_byte_identical_metrics(self, seed):
        ops = harness.gen_ops(seed)
        bare_replies, bare_json = self.run_json(ops, install_empty=False)
        plan_replies, plan_json = self.run_json(ops, install_empty=True)
        assert bare_replies == plan_replies
        assert bare_json == plan_json  # byte-identical accounting
