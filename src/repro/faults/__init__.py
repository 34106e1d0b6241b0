"""repro.faults — deterministic fault injection and recovery.

Turns the PIM Model simulator into a failure testbed: a seed-driven
:class:`FaultPlan` describes *when* modules crash, straggle, drop or
duplicate round buffers, or suffer transient kernel errors; a
:class:`FaultInjector` installed on a :class:`repro.PIMSystem` fires
those events inside ``PIMSystem.round()`` (aborted rounds raise
:class:`RoundAborted`); and :mod:`repro.faults.recovery` rebuilds a
crashed module's trie shards from the host-retained replica log that
:class:`repro.PIMTrie` maintains, so callers can retry the aborted
batch against a healed system.

Accounting is untouched when no injector is installed, and an
*installed-but-empty* plan is byte-identical in every metric to no
fault layer at all (the differential tests assert this).

Entry point: ``python -m repro bench faults [--smoke]`` →
``BENCH_faults.json``.
"""

from .injector import FaultInjector, RoundAborted
from .plan import FaultPlan, FaultStats, StragglerSpec
from .recovery import recover, run_with_recovery

__all__ = [
    "FaultPlan",
    "FaultStats",
    "StragglerSpec",
    "FaultInjector",
    "RoundAborted",
    "recover",
    "run_with_recovery",
]
