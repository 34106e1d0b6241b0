#!/usr/bin/env python3
"""Compare two sets of e2e results against the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each an ``e2e.json`` or a
directory of them (several runs of one commit, one sample per run and
metric).  Per workload × end-to-end metric it prints both medians, how
much worse B is as a share of A, the metric's bound from
``BENCHMARK.json`` and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``worse`` — it is, and the spread of neither side explains it;
* ``unresolved`` — a side's own spread (first to third quartile, as a
  share of its median) is wider than the bound, so the medians settle
  nothing — unless every B sample beats every A sample (``ok``) or
  every B sample is worse than every A sample by more than the bound
  (``worse``).

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> samples`` pooled over the result files."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict[tuple[str, str], list[float]] = {}
    for f in files:
        doc = json.loads(f.read_text())
        for workload, entry in doc.get("workloads", {}).items():
            metrics = entry.get("untraced", {}).get("metrics", {})
            for metric, reading in metrics.items():
                out.setdefault((workload, metric), []).append(reading["value"])
    if not out:
        raise SystemExit(f"compare: no end-to-end metrics under {path}")
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / statistics.median(values))


def verdict(a: list[float], b: list[float], lower_is_better: bool, bound: float):
    """``(worse_by, status)``; ``worse_by`` > 0 means B reads worse."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = [sign * x for x in a], [sign * x for x in b]  # higher now reads worse
    scale = abs(statistics.median(a))
    worse_by = (statistics.median(b) - statistics.median(a)) / scale
    if max(spread(a), spread(b)) <= bound:
        return worse_by, "worse" if worse_by > bound else "ok"
    if min(b) - max(a) > bound * scale:
        return worse_by, "worse"
    return worse_by, "ok" if max(b) < min(a) else "unresolved"


def main() -> int:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<14} {'metric':<28} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for m in SPEC["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            worse_by, status = verdict(
                a[key], b[key], m["better"] == "lower", m["bound"]
            )
            counts[status] += 1
            print(
                f"{workload:<14} {m['name']:<28} "
                f"{statistics.median(a[key]):>12.6g} "
                f"{statistics.median(b[key]):>12.6g} "
                f"{worse_by:>+9.2%} {m['bound']:>6.0%}  {status}"
            )
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
