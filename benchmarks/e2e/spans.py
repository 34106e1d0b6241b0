"""Spans recorded from outside the program, one per call into a layer.

:class:`Recorder` wraps a layer's public functions — by rebinding every
``repro.*`` module global that *is* the original function, and class
attributes for methods — and records (name, start, end, parent, request,
size) per call.  The request identifier is the serve epoch index, bumped
on each ``decide_cut``.  Nothing under ``src/`` is edited; the wrappers
live only while :meth:`Recorder.installed` is active.

A span's self time is its duration minus the part its direct children
cover, so self times over a subtree sum to the subtree root's duration.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Iterator, Optional

import repro.adapt.controller as _adapt
import repro.cluster.cluster as _cluster
import repro.cluster.service as _service
import repro.columnar.arena as _arena
import repro.columnar.match as _match
import repro.columnar.span as _span
import repro.core.pimtrie as _pimtrie
import repro.ordered.snapshot as _snapshot
import repro.pim.system as _pim
import repro.serve.scheduler as _scheduler
import repro.serve.server as _server

#: the span every ledger is rooted at
RUN = "serve.run"


def _batch_len(args: tuple) -> int:
    return len(args[1])


#: (span name, owner, attribute, size-of-call or None); a module owner
#: means "the function defined there, wherever it was imported to"
TARGETS: list[tuple[str, Any, str, Optional[Callable[[tuple], int]]]] = [
    (RUN, _server.EpochServer, "run", None),
    (RUN, _service.ClusterService, "run", None),
    ("serve.decide_cut", _server, "decide_cut", None),
    ("serve.take_epoch", _scheduler.ContinuousBatchingScheduler, "take_epoch", None),
    # ClusterService drives the router through _execute, never through
    # the public *_batch wrappers, so that is the boundary to time
    ("cluster.execute", _cluster.PIMCluster, "_execute", None),
    ("cluster.rebalance", _cluster.PIMCluster, "rebalance", None),
    ("adapt.step", _adapt.AdaptiveController, "step", None),
    ("adapt.cluster_step", _adapt.ClusterAdaptiveController, "step", None),
    ("core.build", _pimtrie.PIMTrie, "__init__", None),
    ("core.lcp", _pimtrie.PIMTrie, "lcp_batch", _batch_len),
    ("core.subtree", _pimtrie.PIMTrie, "subtree_batch", _batch_len),
    ("core.insert", _pimtrie.PIMTrie, "insert_batch", _batch_len),
    ("core.delete", _pimtrie.PIMTrie, "delete_batch", _batch_len),
    ("core.split_block", _pimtrie.PIMTrie, "split_block", None),
    ("core.merge_block", _pimtrie.PIMTrie, "merge_block", None),
    ("core.replicate_block", _pimtrie.PIMTrie, "replicate_block", None),
    ("core.dereplicate_block", _pimtrie.PIMTrie, "dereplicate_block", None),
    ("ordered.pred", _pimtrie.PIMTrie, "predecessor_batch", _batch_len),
    ("ordered.succ", _pimtrie.PIMTrie, "successor_batch", _batch_len),
    ("ordered.range", _pimtrie.PIMTrie, "range_batch", _batch_len),
    ("ordered.count", _pimtrie.PIMTrie, "prefix_count_batch", _batch_len),
    ("ordered.topk", _pimtrie.PIMTrie, "topk_batch", _batch_len),
    ("ordered.snapshot", _pimtrie.PIMTrie, "ordered_snapshot", None),
    ("ordered.snapshot_build", _snapshot.OrderedSnapshot, "__init__", None),
    ("columnar.arena_build", _arena.QueryArena, "build", None),
    ("columnar.arena_fold", _arena.QueryArena, "fold", None),
    ("columnar.span", _span, "span_columnar", None),
    ("columnar.respan", _span, "respan_columnar", None),
    ("columnar.hash_match", _match, "hash_match_columnar", None),
    ("columnar.hash_match_many", _match, "hash_match_columnar_many", None),
    ("columnar.local_match", _match, "local_match_columnar", None),
    ("columnar.warm_table", _match, "warm_table", None),
    ("pim.round", _pim.PIMSystem, "round", None),
]

ORDERED_OPS = ("ordered.pred", "ordered.succ", "ordered.range",
               "ordered.count", "ordered.topk")
CORE_OPS = ("core.lcp", "core.subtree", "core.insert", "core.delete")
MAINT_OPS = ("core.split_block", "core.merge_block",
             "core.replicate_block", "core.dereplicate_block")


@dataclass
class Row:
    """Spans of one name, summed."""

    calls: int = 0
    total_s: float = 0.0  # inclusive
    self_s: float = 0.0
    size: int = 0


class Recorder:
    def __init__(self) -> None:
        # one column per field; spans are appended at begin, so a parent
        # always precedes its children
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.size: list[int] = []
        self._open: list[int] = []
        self._request = -1

    # -- recording ------------------------------------------------------
    def _begin(self, name: str, size: int) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self._request)
        self.size.append(size)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the harness opens itself (trace generation)."""
        i = self._begin(name, 0)
        try:
            yield
        finally:
            self._finish(i)

    def _wrap(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        new_request = name == "serve.decide_cut"

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_request:
                self._request += 1
            i = self._begin(name, size(args) if size is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(i)

        return wrapper

    # -- rebinding ------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the ``with`` block."""
        undo: list[tuple[Any, str, Any]] = []

        def rebind(owner: Any, attr: str, new: Any) -> None:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for name, owner, attr, size in TARGETS:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, size))
                    else:
                        new = self._wrap(name, raw, size)
                    rebind(owner, attr, new)
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, size)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("repro"):
                        continue
                    for glob, value in list(vars(mod).items()):
                        if value is original:
                            rebind(mod, glob, wrapper)
            yield
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    # -- aggregation ----------------------------------------------------
    def rows(self) -> tuple[dict[str, Row], dict[str, Row]]:
        """``(outside, inside)`` the :data:`RUN` span, summed by name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur[i]
        inside = [False] * n
        out: tuple[dict[str, Row], dict[str, Row]] = ({}, {})
        for i in range(n):
            p = self.parent[i]
            inside[i] = self.name[i] == RUN or (p >= 0 and inside[p])
            row = out[inside[i]].setdefault(self.name[i], Row())
            row.calls += 1
            row.total_s += dur[i]
            row.self_s += dur[i] - covered[i]
            row.size += self.size[i]
        return out

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace (``chrome://tracing`` / Perfetto)."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "traceEvents": [
                {
                    "name": self.name[i], "cat": self.name[i].partition(".")[0],
                    "ph": "X", "pid": 1, "tid": 1,
                    "ts": (self.start[i] - t0) * 1e6,
                    "dur": (self.end[i] - self.start[i]) * 1e6,
                    "args": {"id": i, "parent": self.parent[i],
                             "epoch": self.request[i], "size": self.size[i]},
                }
                for i in range(len(self.name))
            ],
            "displayTimeUnit": "ms",
        }
