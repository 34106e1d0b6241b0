"""repro.serve — a continuous-batching index service over the PIM simulator.

Turns the batch-library :class:`repro.PIMTrie` into a simulated online
service: timestamped client operations (:mod:`~repro.serve.trace`)
queue at a host frontend, a continuous-batching scheduler
(:mod:`~repro.serve.scheduler`) coalesces them into mixed-op epochs
under a pluggable policy, an epoch executor
(:mod:`~repro.serve.server`) maps each epoch onto the existing batch
APIs and demultiplexes replies, and a service-metrics layer
(:mod:`~repro.serve.slo`) reports latency percentiles, throughput, and
queue behaviour alongside the PIM Model counters.

Entry points: ``python -m repro serve [--smoke]`` and
``python -m repro bench serve [--smoke]`` (→ ``BENCH_serve.json``).
"""

from .scheduler import (
    ContinuousBatchingScheduler,
    SchedulerPolicy,
    policy_from_name,
)
from .server import EpochServer, decide_cut, replay_direct
from .slo import (
    OP_FAILED,
    CompletedOp,
    EpochRecord,
    ServiceReport,
    answers_digest,
    latency_stats,
    percentile,
)
from .trace import Operation, Trace, make_trace, trace_from_stream

__all__ = [
    "ContinuousBatchingScheduler",
    "SchedulerPolicy",
    "policy_from_name",
    "EpochServer",
    "decide_cut",
    "replay_direct",
    "OP_FAILED",
    "CompletedOp",
    "EpochRecord",
    "ServiceReport",
    "answers_digest",
    "latency_stats",
    "percentile",
    "Operation",
    "Trace",
    "make_trace",
    "trace_from_stream",
]
