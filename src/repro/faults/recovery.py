"""Recovery protocol: heal a faulted PIM system and retry the batch.

The host always holds enough to reconstruct any module: PIMTrie keeps
one host record per block and per meta piece (``PIMTrie.blocks`` /
``PIMTrie.pieces``: placement, parents, children, root strings) and, in
each block record, a write-through *replica log* (``items``: relative
key→value, updated at build/insert/delete/repartition time).  Recovery
therefore never needs the crashed memory:

* **clean recovery** (``PIMTrie.rebuild_modules``) — when the abort hit
  a non-structural round (plain insert/delete/match), every block and
  meta piece resident on a crashed module is rebuilt host-side from the
  replica log and re-shipped, and the master replica is re-broadcast to
  the restarted modules;
* **full rebuild** (``PIMTrie.rebuild_from_mirror``) — when the abort
  unwound a *structural* maintenance path (repartition, HVM
  rebuilds; flagged by ``PIMTrie._dirty_structure``), host records may be
  mid-transition, so the whole index is rebuilt from the union of the
  replica log — the one invariant every maintenance path preserves
  between rounds.  Maintenance writes are posted and ride the edit's
  rounds (``PIMSystem.post``), and only a structural frame posts, so an
  abort of any round that carries posted writes takes this path; the
  aborted round dropped its queue.

All recovery rounds run with the injector :meth:`~FaultInjector.suspended`
(a real deployment would recover over a control channel that the data
plane's failure schedule does not govern), and they still pass through
``PIMSystem.round`` so their cost lands in the PIM Model metrics;
``FaultStats.rebuild_rounds`` additionally tallies them separately.

Retries are safe because every PIMTrie batch op is idempotent:
``insert_batch`` is a last-write-wins upsert, ``delete_batch`` re-matches
and a key already gone is a no-op on its block (the retry still drops it
from the replica log), and reads are pure.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

from ..obs.tracer import maybe_span
from .injector import FaultInjector, RoundAborted

__all__ = ["recover", "run_with_recovery"]

T = TypeVar("T")


def recover(trie) -> int:
    """Heal ``trie``'s system after a :class:`RoundAborted`.

    Restarts every crashed module, rebuilds lost state from the host
    replica log (clean per-module rebuild, or a full rebuild if a
    structural maintenance path was interrupted), and returns the number
    of IO rounds the recovery consumed.  A no-op (returning 0) when
    nothing is crashed or dirty — e.g. after a transient kernel error,
    where retrying is all it takes.
    """
    system = trie.system
    inj: Optional[FaultInjector] = getattr(system, "faults", None)
    crashed = sorted(inj.crashed) if inj is not None else []
    dirty = bool(getattr(trie, "_dirty_structure", False))
    if not crashed and not dirty:
        return 0
    before = system.snapshot()
    # recovery gets its own span category so degraded epochs show the
    # rebuild rounds as distinct slices in the trace
    tier = "recovery.rebuild_from_mirror" if dirty else "recovery.rebuild_modules"
    with maybe_span(system, tier, cat="recovery", crashed=crashed):
        if inj is not None:
            with inj.suspended():
                for m in crashed:
                    inj.restart(m)
                if dirty:
                    trie.rebuild_from_mirror()
                else:
                    trie.rebuild_modules(crashed)
        else:
            if dirty:
                trie.rebuild_from_mirror()
    rounds = system.snapshot().delta(before).io_rounds
    if inj is not None:
        inj.stats.recoveries += 1
        inj.stats.rebuild_rounds += rounds
    return rounds


def run_with_recovery(
    trie,
    fn: Callable[..., T],
    *args: Any,
    max_retries: int = 4,
) -> T:
    """Run ``fn(*args)``, recovering and retrying on :class:`RoundAborted`.

    After ``max_retries`` failed retries the last abort propagates (the
    serve layer catches it and degrades gracefully instead).
    """
    inj: Optional[FaultInjector] = getattr(trie.system, "faults", None)
    attempt = 0
    while True:
        try:
            return fn(*args)
        except RoundAborted:
            attempt += 1
            if attempt > max_retries:
                raise
            if inj is not None:
                inj.stats.retries += 1
            recover(trie)
