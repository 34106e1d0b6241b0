"""repro.obs — span tracing + phase profiling for the simulator stack.

Attach a :class:`Tracer` to a ``PIMSystem`` and every layer above it
(trie batch ops, serve epochs, fault recovery) records hierarchical
spans down to individual BSP rounds, each carrying its PIM-metric
delta and wall-clock timing.  Export with :func:`chrome_trace`
(``chrome://tracing`` / Perfetto) or summarize with :func:`rollup`.
Tracing is off by default (``system.obs is None``) and the disabled
path is a true no-op.  See ``python -m repro trace`` for the CLI.
"""

from .export import (
    chrome_trace,
    format_rollup,
    phase_self_times,
    rollup,
    rollup_index,
    validate_chrome_trace,
)
from .tracer import METRIC_FIELDS, Span, Tracer, maybe_span, root_metric_sums

__all__ = [
    "METRIC_FIELDS",
    "Span",
    "Tracer",
    "maybe_span",
    "root_metric_sums",
    "chrome_trace",
    "validate_chrome_trace",
    "rollup",
    "rollup_index",
    "phase_self_times",
    "format_rollup",
]
