"""Span-based tracer for the PIM simulator stack.

A :class:`Tracer` attaches to one :class:`~repro.pim.PIMSystem` as its
``obs`` hook and records a tree of spans:

* **op spans** — one per ``PIMTrie`` batch operation (``op.lcp``,
  ``op.insert``, ...);
* **phase spans** — trie-internal phases nested inside op spans (query
  folding/dedup, the three match phases, block splitting, maintenance);
* **round spans** — one leaf per BSP round, emitted by
  ``PIMSystem.round`` itself, carrying that round's exact
  ``RoundRecord``-derived costs (aborted rounds included — they stay on
  the metrics books, so they stay on the trace);
* **epoch / segment / recovery spans** — emitted by the serve layer's
  epoch loop and the fault-recovery path.

Every span carries the PIM-metric delta accumulated while it was open
(``io_rounds`` / ``io_time`` / ``words`` / ``pim_time`` / ``cpu_work``)
plus wall-clock start and duration.  Non-round spans measure their
delta by reading the system's ``MetricsCollector`` counters at
begin/end — tracing never writes to the collector, so a traced run's
``MetricsSnapshot``s are byte-identical to an untraced one.  Because
every metric is additive across rounds (``io_time`` is the per-round
max *summed* over rounds), sibling spans partition their parent's
delta and the root spans partition the whole run.

When no tracer is attached (``system.obs is None``) every
instrumentation site is a single attribute check plus, at batch-op
granularity, one shared ``nullcontext`` — the disabled path is a true
no-op.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..pim.metrics import RoundRecord

__all__ = [
    "METRIC_FIELDS",
    "Span",
    "Tracer",
    "maybe_span",
    "root_metric_sums",
]

#: span metric fields, in wire order (``words`` is the span-local name
#: for the snapshot's ``total_communication``)
METRIC_FIELDS = ("io_rounds", "io_time", "words", "pim_time", "cpu_work")

#: shared no-op context manager returned by :func:`maybe_span` when no
#: tracer is attached (``nullcontext`` is reusable and reentrant)
_NULL = nullcontext(None)


@dataclass
class Span:
    """One traced interval: a node in the span tree.

    ``t0``/``dur`` are wall-clock seconds relative to the tracer's
    origin; the five metric fields are the PIM-metric delta accumulated
    while the span was open (inclusive of children).
    """

    sid: int
    parent: Optional[int]
    name: str
    cat: str  # "op" | "phase" | "maint" | "round" | "epoch" | "segment" | "recovery"
    depth: int
    t0: float
    dur: float = 0.0
    io_rounds: int = 0
    io_time: int = 0
    words: int = 0
    pim_time: int = 0
    cpu_work: int = 0
    args: dict = field(default_factory=dict)
    #: collector counters at begin; ``None`` once the span is closed
    _m0: Optional[tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    def metric_deltas(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in METRIC_FIELDS}


class Tracer:
    """Records a span tree over one ``PIMSystem``'s activity.

    Usage::

        tracer = Tracer(system)          # sets system.obs = tracer
        with tracer.span("op.lcp", cat="op", batch=64):
            trie.lcp_batch(keys)         # rounds appear as child spans
        doc = chrome_trace(tracer)       # see repro.obs.export

    Spans follow strict stack discipline (begin/end are LIFO); the
    ``span()`` context manager guarantees it even when the body raises
    (e.g. ``RoundAborted`` unwinding out of a segment).
    """

    def __init__(
        self,
        system: Any = None,
        *,
        clock=time.perf_counter,
        tags: Optional[dict] = None,
    ):
        self.clock = clock
        self._origin = clock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_sid = 0
        #: constant args stamped onto every span this tracer records
        #: (e.g. ``{"shard": 2}`` so a cluster's per-rack traces stay
        #: attributable after merging); explicit span args win on clash
        self.tags: dict = dict(tags or {})
        self.system: Any = None
        if system is not None:
            self.attach(system)

    # ------------------------------------------------------------------
    def attach(self, system: Any) -> "Tracer":
        """Install this tracer as ``system.obs``; returns self."""
        if self.system is not None and self.system is not system:
            raise ValueError("tracer is already attached to another system")
        self.system = system
        system.obs = self
        return self

    def detach(self) -> None:
        """Remove this tracer from its system (spans are kept)."""
        if self.system is not None and getattr(self.system, "obs", None) is self:
            self.system.obs = None
        self.system = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock() - self._origin

    def _counters(self) -> tuple[int, int, int, int, int]:
        m = self.system.metrics
        return (
            m.io_rounds,
            m.io_time,
            m.total_communication,
            m.pim_time,
            m.cpu_work,
        )

    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "phase", **args: Any) -> Span:
        """Open a span; it must be closed with :meth:`end` (LIFO)."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            sid=self._next_sid,
            parent=parent.sid if parent is not None else None,
            name=name,
            cat=cat,
            depth=len(self._stack),
            t0=self._now(),
            args={**self.tags, **args},
            _m0=self._counters(),
        )
        self._next_sid += 1
        # appended at begin so self.spans is in tree order (parents
        # precede children), which the exporter and rollup rely on
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, span: Span) -> Span:
        """Close ``span``, filling in its metric delta and duration."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} ended out of order "
                f"(open: {[s.name for s in self._stack]})"
            )
        self._stack.pop()
        m0, m1 = span._m0, self._counters()
        span.io_rounds = m1[0] - m0[0]
        span.io_time = m1[1] - m0[1]
        span.words = m1[2] - m0[2]
        span.pim_time = m1[3] - m0[3]
        span.cpu_work = m1[4] - m0[4]
        span.dur = self._now() - span.t0
        span._m0 = None
        return span

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args: Any):
        """Context-managed span; yields the :class:`Span` object."""
        sp = self.begin(name, cat=cat, **args)
        try:
            yield sp
        finally:
            self.end(sp)

    # ------------------------------------------------------------------
    def on_round(
        self,
        kernel: str,
        words_to: Sequence[int],
        words_from: Sequence[int],
        kernel_work: Sequence[int],
        t_start: float,
        aborted: Optional[str] = None,
        posted: Sequence[str] = (),
    ) -> Span:
        """Record one BSP round as a closed leaf span.

        The span is named for the round's own kernel; ``posted`` names
        the kernels of the posted writes the round carried, in post
        order (``args["posted"]``, absent when there were none).

        Called by ``PIMSystem.round`` right after
        ``metrics.record_round`` (on the abort path too); ``t_start``
        is ``tracer.clock()`` taken at round entry.  Costs are computed
        through :class:`RoundRecord` — the same arithmetic the
        collector just applied — so round spans sum exactly to the
        enclosing span's delta.
        """
        rec = RoundRecord(tuple(words_to), tuple(words_from), tuple(kernel_work))
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            sid=self._next_sid,
            parent=parent.sid if parent is not None else None,
            name=f"round:{kernel}",
            cat="round",
            depth=len(self._stack),
            t0=t_start - self._origin,
            dur=self.clock() - t_start,
            io_rounds=1,
            io_time=rec.io_time,
            words=rec.total_words,
            pim_time=rec.pim_time,
            cpu_work=0,
            args={**self.tags, "modules": sum(1 for w in words_to if w)},
        )
        self._next_sid += 1
        if aborted is not None:
            sp.args["aborted"] = aborted
        if posted:
            sp.args["posted"] = list(posted)
        self.spans.append(sp)
        return sp


# ----------------------------------------------------------------------
def maybe_span(system: Any, name: str, cat: str = "phase", **args: Any):
    """A tracer span if ``system`` has one attached, else a shared no-op.

    The instrumentation idiom for optional tracing sites::

        with maybe_span(self.system, "match.master", cat="phase"):
            ...
    """
    obs = getattr(system, "obs", None)
    if obs is None:
        return _NULL
    return obs.span(name, cat=cat, **args)


def root_metric_sums(spans: Iterable[Span]) -> dict[str, int]:
    """Summed inclusive metric deltas over the root spans.

    When every round of a run happened inside some root span, this
    equals the run's overall ``MetricsSnapshot`` delta (with ``words``
    standing in for ``total_communication``) — the exactness property
    `python -m repro trace` verifies.
    """
    out = dict.fromkeys(METRIC_FIELDS, 0)
    for s in spans:
        if s.parent is None:
            for f in METRIC_FIELDS:
                out[f] += getattr(s, f)
    return out
