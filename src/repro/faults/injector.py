"""The fault injector: fires a :class:`FaultPlan` inside ``round()``.

The injector hangs off a :class:`repro.PIMSystem` (``system.faults``)
and is consulted twice per BSP round:

* :meth:`begin_round` — advances the round counter, fires crash wipes
  scheduled for this round, and decides whether the round aborts before
  any kernel runs (a request addressed a crashed module, a transient
  kernel error, or a lost host→module buffer).  Aborted rounds are still
  *recorded*: the host wrote its buffers, so ``words_to`` is charged,
  with zero kernel work and zero reply words — then :class:`RoundAborted`
  propagates to the caller, whose host-side driver state unwinds.
* :meth:`end_round` — after the kernels ran: duplicated reply buffers
  double ``words_from`` for their module (transmitted twice, delivered
  once), and lost reply buffers turn the round into a *post*-abort —
  the full round is recorded (the work happened, crash-before-ack), and
  the caller must retry idempotently.

Round indices count *injected* rounds from 0 at install time, so plans
are relative to the moment the injector was installed and are immune to
however many rounds the build phase consumed.  Rounds executed under
:meth:`suspended` (the recovery path) neither advance the counter nor
fire events, so scheduled faults cannot re-fire mid-recovery.

With an installed-but-empty plan, ``begin_round`` returns after an
integer increment and one emptiness check — it never touches the
accounting arrays, which is what keeps the empty plan byte-identical to
no fault layer at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Collection, Iterator, Optional

from .plan import FaultPlan, FaultStats

__all__ = ["RoundAborted", "FaultInjector"]


class RoundAborted(RuntimeError):
    """A BSP round failed; the caller should recover and retry.

    ``cause`` is one of ``"crash"``, ``"transient"``, ``"request_lost"``,
    ``"reply_lost"``; ``modules`` names the modules involved and
    ``round_index`` the injected round that failed.  ``kernels_ran`` is
    True for post-kernel aborts (side effects landed on the modules —
    the retry must be idempotent, which every PIMTrie batch op is).
    """

    def __init__(self, cause: str, round_index: int, modules: tuple[int, ...],
                 *, kernels_ran: bool):
        self.cause = cause
        self.round_index = round_index
        self.modules = modules
        self.kernels_ran = kernels_ran
        super().__init__(
            f"round {round_index} aborted ({cause}) on modules {list(modules)}"
            f"{' after kernels ran' if kernels_ran else ''}"
        )


@dataclass(frozen=True)
class _RoundVerdict:
    """begin_round's instructions to ``PIMSystem.round``."""

    error: Optional[RoundAborted]  # abort before any kernel runs
    duplicate: tuple[int, ...] = ()  # modules whose reply ships twice
    drop_reply: tuple[int, ...] = ()  # modules whose reply is lost


class FaultInjector:
    """Stateful executor of one :class:`FaultPlan` on one system."""

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.plan = plan
        self.stats = FaultStats()
        #: modules currently down (wiped, unrecovered)
        self.crashed: set[int] = set()
        #: injected-round counter; -1 = no round seen yet
        self.round_index = -1
        self._suspend = 0
        self._straggle_pending = 0.0
        self._empty = plan.is_empty()
        self._crash_rounds: dict[int, list[int]] = {}
        for m, r in sorted(plan.crashes.items()):
            self._crash_rounds.setdefault(r, []).append(m)

    # ------------------------------------------------------------------
    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run rounds without advancing the clock or firing events
        (the recovery protocol rebuilds modules under this)."""
        self._suspend += 1
        try:
            yield
        finally:
            self._suspend -= 1

    # ------------------------------------------------------------------
    def begin_round(self, addressed: Collection[int]) -> Optional[_RoundVerdict]:
        """``addressed``: the modules the round sends anything to — its
        own requests and the posted writes it carries."""
        if self._suspend:
            return None
        self.round_index += 1
        if self._empty:
            return None
        r = self.round_index
        plan = self.plan
        # crashes fire at the start of their round whether or not the
        # round addresses the module: the memory is gone either way
        for m in self._crash_rounds.get(r, ()):
            if m not in self.crashed and m < self.system.num_modules:
                self.system.modules[m].wipe()
                self.crashed.add(m)
                self.stats.crashes += 1
        crashed_hit = tuple(sorted(m for m in addressed if m in self.crashed))
        if crashed_hit:
            self.stats.aborted_rounds += 1
            return _RoundVerdict(
                RoundAborted("crash", r, crashed_hit, kernels_ran=False)
            )
        transient = tuple(
            sorted(m for m in addressed if (r, m) in plan.transient_errors)
        )
        if transient:
            self.stats.transient_errors += len(transient)
            self.stats.aborted_rounds += 1
            return _RoundVerdict(
                RoundAborted("transient", r, transient, kernels_ran=False)
            )
        req_lost = tuple(
            sorted(m for m in addressed if (r, m) in plan.drop_requests)
        )
        if req_lost:
            self.stats.dropped_requests += len(req_lost)
            self.stats.aborted_rounds += 1
            return _RoundVerdict(
                RoundAborted("request_lost", r, req_lost, kernels_ran=False)
            )
        if plan.stragglers:
            for s in plan.stragglers:
                if s.module in addressed and s.active(r):
                    self._straggle_pending += s.factor - 1.0
                    self.stats.straggle_events += 1
        duplicate = tuple(
            sorted(m for m in addressed if (r, m) in plan.duplicate_replies)
        )
        drop_reply = tuple(
            sorted(m for m in addressed if (r, m) in plan.drop_replies)
        )
        if duplicate or drop_reply:
            return _RoundVerdict(None, duplicate, drop_reply)
        return None

    # ------------------------------------------------------------------
    def end_round(
        self,
        verdict: _RoundVerdict,
        ran: Collection[int],
        words_from: list[int],
    ) -> Optional[RoundAborted]:
        """Apply post-kernel events to the modules whose kernels ``ran``
        (each ships a reply buffer, empty or not); returns the abort to
        raise, if any."""
        for m in verdict.duplicate:
            if m in ran:
                words_from[m] *= 2
                self.stats.duplicated_replies += 1
        lost = tuple(m for m in verdict.drop_reply if m in ran)
        if lost:
            self.stats.dropped_replies += len(lost)
            self.stats.aborted_rounds += 1
            return RoundAborted(
                "reply_lost", self.round_index, lost, kernels_ran=True
            )
        return None

    # ------------------------------------------------------------------
    def restart(self, module: int) -> None:
        """Bring a crashed module back (empty-memoried); the caller is
        responsible for re-shipping its state (see repro.faults.recovery)."""
        if module in self.crashed:
            self.crashed.discard(module)
            self.stats.restarts += 1

    def take_straggle_penalty(self) -> float:
        """Consume the accumulated straggler round-time penalty (in
        round-equivalents); the serve layer folds it into service time."""
        p = self._straggle_pending
        self._straggle_pending = 0.0
        return p

    def __repr__(self) -> str:
        return (
            f"FaultInjector(round={self.round_index}, "
            f"crashed={sorted(self.crashed)}, plan={self.plan!r})"
        )
