"""The PIM Model executable simulator (paper §2).

A :class:`PIMSystem` consists of ``P`` :class:`PIMModule`s and a host
CPU.  Programs run in BSP-like synchronous rounds: in one round the host

1. performs local computation,
2. writes a buffer of data to each module's local memory,
3. launches a PIM kernel on each module and waits for completion,
4. reads a buffer of data from each module's local memory.

:meth:`PIMSystem.round` executes exactly one such round: it takes a list
of per-module request batches and a kernel, runs the kernel on every
module that received requests (sequentially in the simulation but
logically in parallel), and returns per-module reply batches.  Word
costs of requests and replies are measured by ``word_cost`` and recorded
in the metrics collector, which tracks IO rounds, IO time (max over
modules of a module's total round traffic, in + out), total
communication, and PIM time (max kernel work per round) — the
quantities bounded by the paper's theorems.

:meth:`PIMSystem.exchange` is the same round for callers that need each
reply matched to the request that caused it: it takes tagged
``(module, request, tag)`` sends and returns ``(tag, reply)`` pairs.

:meth:`PIMSystem.post` queues a write whose reply no caller reads.  The
next round — of any kernel, or :meth:`PIMSystem.flush` — carries every
queued write: each module runs its posted writes in post order, then
the round's own requests, and the round bills their words and kernel
work summed per module.  The PIM Model counts rounds, not kernel
launches, so several kernels' writes can share one round.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .metrics import MetricsCollector, MetricsSnapshot
from .module import ModuleContext, PIMModule

__all__ = ["PIMSystem", "default_word_cost"]

Kernel = Callable[[ModuleContext, list], list]


# Per-type dispatch kinds.  Dispatch depends only on
# the type (scalar-ness, presence of a word_cost method, container
# protocol), so resolving it once per type is exact.
_WC_SCALAR, _WC_METHOD, _WC_STR, _WC_BYTES = 0, 1, 2, 3
_WC_NDARRAY, _WC_MAPPING, _WC_SEQ, _WC_REFLECT = 4, 5, 6, 7

_wc_kind_cache: dict[type, int] = {}


def _wc_resolve(t: type) -> int:
    if t is type(None) or issubclass(t, (bool, int, float, np.integer, np.floating)):
        kind = _WC_SCALAR
    elif getattr(t, "word_cost", None) is not None:
        kind = _WC_METHOD
    elif issubclass(t, str):
        kind = _WC_STR
    elif issubclass(t, bytes):
        kind = _WC_BYTES
    elif issubclass(t, np.ndarray):
        kind = _WC_NDARRAY
    elif issubclass(t, Mapping):
        kind = _WC_MAPPING
    elif issubclass(t, (list, tuple, set, frozenset)):
        kind = _WC_SEQ
    else:
        kind = _WC_REFLECT
    _wc_kind_cache[t] = kind
    return kind


def default_word_cost(obj: Any) -> int:
    """Cost, in machine words, of shipping ``obj`` between CPU and PIM.

    Mirrors the paper's accounting: an l-bit string costs ceil(l/w)
    words (at least 1 for non-payload framing), a hash value or scalar
    costs 1 word, and containers cost the sum of their elements.
    Objects may declare their own cost via a ``word_cost()`` method;
    any other object costs the sum of its attribute values.

    Message word-costing runs for every request and reply of every BSP
    round, so the dispatch decision is memoized per concrete type
    (``word_cost`` must be a method, not an instance attribute — true of
    every message type in the repo).  ``tests/test_wordcost_fastpath.py``
    keeps it in lockstep with the uncached walk in
    ``tests/reference/wordcost.py``.
    """
    t = obj.__class__
    kind = _wc_kind_cache.get(t)
    if kind is None:
        kind = _wc_resolve(t)
    if kind == _WC_SCALAR:
        return 1
    if kind == _WC_METHOD:
        return int(obj.word_cost())
    if kind == _WC_STR:
        return max(1, -(-len(obj) * 8 // 64))
    if kind == _WC_BYTES:
        return max(1, -(-len(obj) // 8))
    if kind == _WC_NDARRAY:
        return max(1, -(-obj.nbytes // 8))
    if kind == _WC_MAPPING:
        return sum(
            default_word_cost(k) + default_word_cost(v) for k, v in obj.items()
        ) or 1
    if kind == _WC_SEQ:
        return sum(default_word_cost(x) for x in obj) or 1
    # dataclass-ish fallback: sum of public attribute costs
    d = getattr(obj, "__dict__", None)
    if d is None and hasattr(obj, "__slots__"):
        d = {s: getattr(obj, s) for s in obj.__slots__ if hasattr(obj, s)}
    if d:
        return sum(default_word_cost(v) for v in d.values()) or 1
    return 1


class PIMSystem:
    """``P`` PIM modules plus a host CPU, with PIM Model cost accounting.

    Parameters
    ----------
    num_modules:
        ``P`` in the paper.
    seed:
        Seed for the system RNG used for random block placement.
    """

    def __init__(
        self,
        num_modules: int,
        *,
        seed: int = 0,
    ):
        if num_modules < 1:
            raise ValueError("a PIM system needs at least one module")
        self.num_modules = num_modules
        self.modules = [PIMModule(m) for m in range(num_modules)]
        self.metrics = MetricsCollector(num_modules)
        #: message word-cost function (:func:`default_word_cost`)
        self.word_cost = default_word_cost
        self.rng = np.random.default_rng(seed)
        self._kernels: dict[str, Kernel] = {}
        #: posted writes the next round carries: (kernel, fn, requests)
        self._posted: list[tuple[str | Kernel, Kernel, Mapping[int, list]]] = []
        #: installed fault injector (repro.faults); None = no fault layer
        self.faults = None
        #: attached span tracer (repro.obs); None = tracing off
        self.obs = None

    # ------------------------------------------------------------------
    # kernel registry ("the host CPU can load programs to PIM modules")
    # ------------------------------------------------------------------
    def register_kernel(self, name: str, fn: Kernel) -> None:
        """Register ``fn`` under ``name``.

        Re-registering the *same* function object under its existing
        name is a no-op (idempotent loading, e.g. a PIMTrie re-running
        its kernel setup); registering a *different* function under a
        taken name raises.
        """
        if name in self._kernels:
            if self._kernels[name] is fn:
                return
            raise ValueError(
                f"kernel {name!r} already registered to a different function "
                f"({self._kernels[name]!r}); reloading is only a no-op for "
                f"the identical function object"
            )
        self._kernels[name] = fn

    def kernel(self, name: str) -> Callable[[Kernel], Kernel]:
        """Decorator form of :meth:`register_kernel`."""

        def deco(fn: Kernel) -> Kernel:
            self.register_kernel(name, fn)
            return fn

        return deco

    # ------------------------------------------------------------------
    # the BSP round
    # ------------------------------------------------------------------
    def _kernel_fn(self, kernel: str | Kernel) -> Kernel:
        if callable(kernel):
            return kernel
        try:
            return self._kernels[kernel]
        except KeyError:
            raise KeyError(f"no kernel registered under {kernel!r}") from None

    def _checked(
        self, requests: Mapping[int, list] | Sequence[list]
    ) -> Mapping[int, list]:
        """``requests`` as a module id -> list mapping (a sequence is
        dense per-module lists), every id validated.  Even ids with an
        empty list are checked before any kernel runs: a bad id is a
        programming error, and validating lazily inside the execution
        loop would let kernels on earlier modules run — leaving side
        effects behind with no round recorded — before the error
        surfaced."""
        if not isinstance(requests, Mapping):
            requests = {m: reqs for m, reqs in enumerate(requests)}
        for mid in requests:
            if not 0 <= mid < self.num_modules:
                raise IndexError(
                    f"module id {mid} out of range for P={self.num_modules}"
                )
        return requests

    @staticmethod
    def _name(kernel: str | Kernel, fn: Kernel) -> str:
        return kernel if isinstance(kernel, str) else getattr(
            fn, "__name__", "kernel"
        )

    def _replied(self, kernel: str | Kernel, fn: Kernel, mid: int) -> ValueError:
        return ValueError(
            f"posted kernel {self._name(kernel, fn)!r} replied on module "
            f"{mid}: a posted write replies with nothing"
        )

    def round(
        self,
        kernel: str | Kernel,
        requests: Mapping[int, list] | Sequence[list],
    ) -> dict[int, list]:
        """Execute one synchronous round.

        ``requests`` maps module id -> list of request messages (a
        sequence is treated as dense per-module lists).  The round first
        runs every write :meth:`post` queued, in post order on each
        module; then ``kernel`` runs once on every module with a
        non-empty request list and returns a list of reply messages
        (empty for writes nobody reads).  Returns module id -> replies
        to the round's own requests, in the order of ``requests``.  The
        round is recorded even when every list is empty;
        :meth:`exchange` pairs each reply with a caller tag and skips
        the round when there is nothing to send.

        The queue is taken whole at round entry, so an aborted round
        drops it: the posted writes ran (a lost reply) or never will.
        """
        obs = self.obs
        t0 = obs.clock() if obs is not None else 0.0
        fn = self._kernel_fn(kernel)
        requests = self._checked(requests)
        posted, self._posted = self._posted, []

        words_to = [0] * self.num_modules
        words_from = [0] * self.num_modules
        kernel_work = [0] * self.num_modules
        replies: dict[int, list] = {}
        wc = self.word_cost

        faults = self.faults
        verdict = None
        if faults is not None:
            # a module that only posted writes address counts as addressed
            addressed = {m for m, reqs in requests.items() if reqs}
            for _k, _f, reqs in posted:
                addressed.update(m for m, r in reqs.items() if r)
            verdict = faults.begin_round(addressed)
        if verdict is not None and verdict.error is not None:
            # the round dies before any kernel launches: the host still
            # wrote its buffers, so charge words_to and record the round
            # with zero kernel work and zero replies, then unwind
            for reqs_of in (*(r for _k, _f, r in posted), requests):
                for mid, reqs in reqs_of.items():
                    if reqs:
                        words_to[mid] += sum(map(wc, reqs))
            self.metrics.record_round(words_to, words_from, kernel_work)
            if obs is not None:
                obs.on_round(
                    self._name(kernel, fn), words_to, words_from,
                    kernel_work, t0, aborted=verdict.error.cause,
                    posted=[self._name(k, f) for k, f, _r in posted],
                )
            raise verdict.error

        for pkernel, pfn, preqs in posted:
            for mid, reqs in preqs.items():
                if not reqs:
                    continue
                words_to[mid] += sum(map(wc, reqs))
                ctx = self.modules[mid].context
                work_before = ctx.work
                if pfn(ctx, reqs):
                    raise self._replied(pkernel, pfn, mid)
                kernel_work[mid] += ctx.work - work_before

        for mid, reqs in requests.items():
            if not reqs:
                continue
            words_to[mid] += sum(map(wc, reqs))
            ctx = self.modules[mid].context
            work_before = ctx.work
            # the kernel gets the caller's list directly: kernels are
            # simulator-internal and must not mutate their request batch
            out = fn(ctx, reqs)
            if out is None:
                out = []
            kernel_work[mid] += ctx.work - work_before
            words_from[mid] += sum(map(wc, out))
            replies[mid] = out

        error = None
        if verdict is not None:
            error = faults.end_round(verdict, addressed, words_from)
        self.metrics.record_round(words_to, words_from, kernel_work)
        if obs is not None:
            obs.on_round(
                self._name(kernel, fn), words_to, words_from, kernel_work, t0,
                aborted=error.cause if error is not None else None,
                posted=[self._name(k, f) for k, f, _r in posted],
            )
        if error is not None:
            # post-kernel abort (lost reply buffer): the kernels ran and
            # the full round is on the books — crash-before-ack
            raise error
        return replies

    def post(
        self,
        kernel: str | Kernel,
        requests: Mapping[int, list] | Sequence[list],
    ) -> None:
        """Queue a write whose reply no caller reads for the next round.

        ``requests`` is shaped as for :meth:`round`.  Nothing runs now:
        the next :meth:`round` (or :meth:`flush`) carries the write.  A
        posted kernel must reply with nothing — the carrying round
        raises ``ValueError`` otherwise.
        """
        self._posted.append(
            (kernel, self._kernel_fn(kernel), self._checked(requests))
        )

    def flush(self) -> None:
        """Run every posted write in one round; no round if none is queued.

        The round goes through :meth:`round`: the last posted write is
        its own request batch, and the rest ride it as posted writes."""
        if not self._posted:
            return
        kernel, fn, requests = self._posted.pop()
        for mid, out in self.round(kernel, requests).items():
            if out:
                raise self._replied(kernel, fn, mid)

    def drop_posted(self) -> None:
        """Forget every posted write (its edit unwound, or every module
        is about to be wiped)."""
        self._posted.clear()

    @property
    def posted(self) -> int:
        """Number of posted writes the next round would carry."""
        return len(self._posted)

    def exchange(
        self, kernel: str | Kernel, sends: Iterable[tuple[int, Any, Any]]
    ) -> list[tuple[Any, Any]]:
        """One scatter/gather round with each reply matched to its request.

        ``sends`` yields ``(module, request, tag)`` triples.  The
        requests go out in one :meth:`round`, and the result pairs each
        request's ``tag`` with its reply: modules in order of their
        first send, then send order within a module.  No sends run no
        round and return ``[]``.  The kernel must reply once per
        request: a module that does not (a write that replies with
        nothing, sent here by mistake) raises ``ValueError`` rather
        than pair later replies with the wrong tags.
        """
        requests: dict[int, list] = defaultdict(list)
        tags: dict[int, list] = defaultdict(list)
        for m, request, tag in sends:
            requests[m].append(request)
            tags[m].append(tag)
        if not requests:
            return []
        replies = self.round(kernel, requests)
        for m, reply in replies.items():
            if len(reply) != len(tags[m]):
                raise ValueError(
                    f"module {m} sent {len(reply)} replies to "
                    f"{len(tags[m])} requests of {kernel!r}"
                )
        return [
            pair for m, reply in replies.items() for pair in zip(tags[m], reply)
        ]

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, plan) -> "Any":
        """Install a :class:`repro.faults.FaultPlan`; returns the injector.

        Plan rounds are numbered from 0 starting *now* (installing
        resets the injected-round clock), so plans are independent of
        whatever build phase ran before.  Replaces any prior injector.
        """
        from ..faults.injector import FaultInjector

        self.faults = FaultInjector(self, plan)
        return self.faults

    def clear_faults(self) -> None:
        """Remove the fault layer entirely (rounds run untouched)."""
        self.faults = None

    # ------------------------------------------------------------------
    # placement and bookkeeping helpers
    # ------------------------------------------------------------------
    def random_module(self) -> int:
        """Uniformly random module id (block placement, §4.2)."""
        return int(self.rng.integers(self.num_modules))

    def tick_cpu(self, n: int = 1) -> None:
        self.metrics.tick_cpu(n)

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def memory_words(self) -> list[int]:
        """Per-module local memory footprint in words (space experiments)."""
        return [m.context.memory_words(self.word_cost) for m in self.modules]

    def total_memory_words(self) -> int:
        return sum(self.memory_words())

    def __repr__(self) -> str:
        return f"PIMSystem(P={self.num_modules}, rounds={self.metrics.io_rounds})"
