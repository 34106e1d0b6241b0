"""Wall-clock perf harness entry point (CI runs this with ``--smoke``).

Times the simulator itself — batched LCP / Insert / Delete / Subtree
and the E10 skew flood — writes ``BENCH_wallclock.json`` (ops/sec and
PIM Model counts per phase, P/n/l sweep), and with ``--check-floor``
holds the run to the committed file's counts and floor.  All logic lives in
:mod:`repro.perf`; this file exists so the harness sits alongside the
other benchmarks and can be invoked without installing the package
CLI:

    PYTHONPATH=src python benchmarks/perf/bench_wallclock.py [--smoke]

Not a pytest module: it defines no test functions and only runs under
``__main__``.
"""

from __future__ import annotations

import sys

from repro.perf import main

if __name__ == "__main__":
    sys.exit(main())
