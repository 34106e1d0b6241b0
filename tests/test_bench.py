"""The bench runner's one gate rule, and its independence from hash seeds.

``python -m repro bench <name>`` exits 1 when any gate a scenario
reports is false, or — with ``--check-floor RECORDED_JSON`` — when the
run fails the scenario's comparison with the recorded report.  The
second half pins that the simulated results — the smoke counts, the
ordered digest, the maintenance replay of
``tests/test_maintenance_pin.py`` and the baseline replays of
``tests/test_baseline_pin.py`` — do not depend on ``PYTHONHASHSEED``:
a ``set``-order dependence in the build path would change counts or
digests between interpreter runs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.ordered import bench as ordered_bench
from repro.perf import counts
from repro.serve import bench as serve_bench

from .test_baseline_pin import PIN as BASELINE_PIN
from .test_maintenance_pin import PIN

ROOT = Path(__file__).parent.parent


def _tampered(tmp_path, name, edit):
    recorded = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    edit(recorded)
    path = tmp_path / f"recorded_{name}.json"
    path.write_text(json.dumps(recorded))
    return str(path)


def _bump_count(recorded):
    recorded["headline"]["columnar"]["lcp"]["metrics"]["io_rounds"] += 1


def _raise_lcp_floor(recorded):
    recorded["headline"]["lcp_floor_ops_per_sec"] = 1e15


@pytest.mark.parametrize("edit, message", [
    (_bump_count, "PIM Model counts differ"),
    (_raise_lcp_floor, "below the recorded floor"),
])
def test_wallclock_check_floor_fails_on_a_tampered_record(
    tmp_path, capsys, edit, message
):
    recorded = _tampered(tmp_path, "wallclock", edit)
    argv = ["bench", "wallclock", "--smoke", "--out",
            str(tmp_path / "out.json"), "--check-floor", recorded]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "gate" not in err  # the run itself was sound


def test_ordered_check_floor_fails_on_a_raised_naive_floor(tmp_path, capsys):
    def raise_floor(recorded):
        recorded["headline"]["naive"]["ops_per_sec"] = 1e15

    recorded = _tampered(tmp_path, "ordered", raise_floor)
    argv = ["bench", "ordered", "--smoke", "--out",
            str(tmp_path / "out.json"), "--check-floor", recorded]
    assert main(argv) == 1
    assert "naive-scan floor" in capsys.readouterr().err


def test_a_false_gate_fails_the_run(tmp_path, capsys, monkeypatch):
    real = ordered_bench.run

    def forced(cfg, seed):
        report = real(cfg, seed)
        assert all(report["gates"].values())
        report["gates"]["all_digests_match"] = False
        return report

    monkeypatch.setattr(ordered_bench, "run", forced)
    out = tmp_path / "out.json"
    assert main(["bench", "ordered", "--smoke", "--out", str(out)]) == 1
    assert "gate all_digests_match is false" in capsys.readouterr().err
    # the report is still written, under the runner's header
    doc = json.loads(out.read_text())
    assert doc["gates"]["all_digests_match"] is False
    assert (doc["bench"], doc["profile"], doc["seed"]) == (
        "ordered", "smoke", 7
    )
    assert doc["config"] == ordered_bench.PROFILES["smoke"]


def test_serve_shedding_gate_is_judged_only_where_overload_points_run():
    """The serve bench gates that every overload point sheds load, on
    the profiles that run overload points: an overload point that
    admits every arrival turns the gate false."""
    smoke = serve_bench.PROFILES["smoke"]
    assert not smoke["overload"] and serve_bench.PROFILES["full"]["overload"]
    small = {**smoke, "resident": 64, "n_ops": 48}
    assert "overload_sheds_everywhere" not in serve_bench.run(small, 7)["gates"]
    # 48 ops cannot fill the 384-op queue
    report = serve_bench.run({**small, "overload": True}, 7)
    assert [p["dropped"] for p in report["overload"]] == [0]
    assert report["gates"]["overload_sheds_everywhere"] is False


_PROBE = """
import hashlib, json
from repro.ordered import bench as ordered
from repro.perf import PROFILES, counts, run
from tests.test_baseline_pin import BUILD, replay
from tests.test_maintenance_pin import drive
wall = counts(run(PROFILES["smoke"], 7)["headline"])
print(json.dumps({
    "wallclock": hashlib.sha256(
        json.dumps(wall, sort_keys=True).encode()
    ).hexdigest()[:16],
    "ordered": ordered.run(ordered.PROFILES["smoke"], 7)["headline"][
        "answer_digest"
    ],
    "maintenance_pin": drive()[0],
    "baseline_pin": {name: replay(name) for name in BUILD},
}))
"""


def test_smoke_results_do_not_depend_on_the_hash_seed():
    def probe(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(done.stdout)

    first, second = probe(0), probe(1)
    assert first == second
    recorded = json.loads((ROOT / "BENCH_wallclock.json").read_text())
    want = hashlib.sha256(
        json.dumps(counts(recorded["headline"]), sort_keys=True).encode()
    ).hexdigest()[:16]
    assert first["wallclock"] == want
    assert first["maintenance_pin"] == PIN
    assert first["baseline_pin"] == BASELINE_PIN
