"""Client/arrival model for the serve layer.

A :class:`Trace` is an ordered stream of :class:`Operation`s — the ops
logical clients would issue against a running index, each stamped with
a simulated arrival time.  Times live on an abstract clock whose unit
the server's service model shares (see :class:`repro.serve.EpochServer`:
one unit defaults to the cost of one IO round).

Key material and arrival processes come from
:func:`repro.workloads.operation_stream`, so traces inherit the same
seeded determinism and the same skew adversaries (uniform / zipf /
single-range flood) as the batch benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..bits import BitString
from ..workloads import OP_KINDS, operation_stream

__all__ = ["Operation", "Trace", "make_trace", "trace_from_stream"]


@dataclass(frozen=True)
class Operation:
    """One client operation with its simulated arrival time.

    ``seq`` is the global arrival rank and doubles as the reply
    demultiplexing handle: the server returns answers keyed by it.
    """

    seq: int
    client_id: int
    time: float
    kind: str  # one of repro.workloads.OP_KINDS
    key: BitString
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")


class Trace:
    """A time-sorted operation stream plus its generation metadata."""

    def __init__(
        self,
        ops: Sequence[Operation],
        *,
        name: str = "trace",
        params: Optional[dict] = None,
    ):
        self.ops: list[Operation] = sorted(ops, key=lambda o: (o.time, o.seq))
        self.name = name
        self.params = dict(params or {})

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def duration(self) -> float:
        """Span of the arrival process (time of the last arrival)."""
        return self.ops[-1].time if self.ops else 0.0

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, n={len(self.ops)}, "
            f"duration={self.duration():.3f})"
        )


def make_trace(
    n: int,
    *,
    num_clients: int = 16,
    length: int = 64,
    mix: Optional[dict[str, float]] = None,
    arrival: str = "poisson",
    rate: float = 2.0,
    burst_factor: float = 8.0,
    kind_corr: float = 0.5,
    skew: str = "uniform",
    subtree_prefix: int = 12,
    range_limit: Optional[int] = 16,
    topk_k: int = 8,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Generate a trace of ``n`` ops from ``num_clients`` logical clients.

    Thin wrapper over :func:`repro.workloads.operation_stream` that
    assigns client ids through :func:`trace_from_stream` and records the
    generation parameters on the trace for reports.
    """
    raw = operation_stream(
        n, length, mix=mix, arrival=arrival, rate=rate,
        burst_factor=burst_factor, kind_corr=kind_corr, skew=skew,
        subtree_prefix=subtree_prefix, range_limit=range_limit,
        topk_k=topk_k, seed=seed,
    )
    params = {
        "n": n, "num_clients": num_clients, "length": length,
        "arrival": arrival, "rate": rate, "skew": skew, "seed": seed,
    }
    return trace_from_stream(
        raw,
        num_clients=num_clients,
        seed=seed,
        name=name or f"{arrival}-{skew}-r{rate:g}-s{seed}",
        params=params,
    )


def trace_from_stream(
    timed: Sequence,
    *,
    num_clients: int = 16,
    seed: int = 0,
    name: str = "stream",
    params: Optional[dict] = None,
) -> Trace:
    """Wrap an already-generated :class:`~repro.workloads.TimedOp`
    stream (e.g. the time-varying skew generators
    ``drifting_zipf_stream`` / ``flash_crowd_stream`` /
    ``diurnal_stream``) as a :class:`Trace`, assigning client ids
    uniformly over ``num_clients``, seeded by ``seed``."""
    if num_clients < 1:
        raise ValueError("need at least one client")
    rng = np.random.default_rng(seed + 0x5EEDC)
    clients = rng.integers(num_clients, size=len(timed))
    ops = [
        Operation(
            seq=i, client_id=int(clients[i]), time=t.time,
            kind=t.kind, key=t.key, value=t.value,
        )
        for i, t in enumerate(timed)
    ]
    return Trace(ops, name=name, params=dict(params or {}))
