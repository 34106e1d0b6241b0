"""Trace exporters: Chrome trace-event JSON and a per-phase roll-up.

``chrome_trace`` emits the Trace Event Format's JSON-object flavor —
``{"traceEvents": [...]}`` with complete ("X") events — loadable in
``chrome://tracing`` and Perfetto.  Spans nest on one track by time
containment, which holds by construction (spans are a stack).  Each
event's ``args`` carries the span's PIM-metric delta, so clicking a
slice in the viewer shows exactly where IO rounds, words, and PIM time
went.

``rollup`` aggregates spans by (name, category) into a profile table
with both *inclusive* metrics (span + descendants) and *self* metrics
(inclusive minus direct children) — self columns sum to the run total,
inclusive columns answer "what does this op cost end-to-end".
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .tracer import METRIC_FIELDS, Span

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "rollup",
    "rollup_index",
    "phase_self_times",
    "format_rollup",
]


def chrome_trace(tracer_or_spans: Any, *, pid: int = 1) -> dict:
    """Chrome trace-event JSON document for a tracer (or span list)."""
    spans: Sequence[Span] = getattr(tracer_or_spans, "spans", tracer_or_spans)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro PIM simulator"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "host"},
        },
    ]
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": round(s.t0 * 1e6, 3),  # microseconds
                "dur": round(s.dur * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {
                    "sid": s.sid,
                    "parent": s.parent,
                    **s.metric_deltas(),
                    **s.args,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Any) -> list[str]:
    """Schema check for :func:`chrome_trace` output; [] means valid."""
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        return ["document must be a dict with a 'traceEvents' list"]
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"{where}: unexpected phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(f"{where}: bad {key!r}: {v!r}")
            args = ev.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: 'X' event lacks args")
            else:
                for f in METRIC_FIELDS:
                    if not isinstance(args.get(f), int):
                        problems.append(
                            f"{where}: args[{f!r}] missing or non-int"
                        )
    return problems


# ----------------------------------------------------------------------
def rollup(tracer_or_spans: Any) -> list[dict]:
    """Per-(name, cat) profile rows, sorted by inclusive wall time.

    Each row has ``count``, ``wall_s``, inclusive metric sums (the
    METRIC_FIELDS), and ``self_<field>`` exclusive sums (inclusive
    minus direct children — self columns across all rows sum to the
    run's total).
    """
    spans: Sequence[Span] = getattr(tracer_or_spans, "spans", tracer_or_spans)
    child_sums: dict[int, list[int]] = {}
    for s in spans:
        if s.parent is not None:
            acc = child_sums.setdefault(s.parent, [0] * len(METRIC_FIELDS))
            for i, f in enumerate(METRIC_FIELDS):
                acc[i] += getattr(s, f)
    rows: dict[tuple[str, str], dict] = {}
    for s in spans:
        row = rows.setdefault(
            (s.name, s.cat),
            {
                "name": s.name,
                "cat": s.cat,
                "count": 0,
                "wall_s": 0.0,
                **{f: 0 for f in METRIC_FIELDS},
                **{f"self_{f}": 0 for f in METRIC_FIELDS},
            },
        )
        row["count"] += 1
        row["wall_s"] += s.dur
        sub = child_sums.get(s.sid)
        for i, f in enumerate(METRIC_FIELDS):
            v = getattr(s, f)
            row[f] += v
            row[f"self_{f}"] += v - (sub[i] if sub is not None else 0)
    return sorted(rows.values(), key=lambda r: -r["wall_s"])


def rollup_index(rows_or_tracer: Any) -> dict[tuple[str, str], dict]:
    """Rollup rows keyed by ``(name, cat)`` for point lookups.

    Accepts either the output of :func:`rollup` or a tracer/span list
    (which is rolled up first).
    """
    rows = (
        rows_or_tracer
        if isinstance(rows_or_tracer, list)
        and (not rows_or_tracer or isinstance(rows_or_tracer[0], dict))
        else rollup(rows_or_tracer)
    )
    return {(r["name"], r["cat"]): r for r in rows}


def phase_self_times(tracer_or_spans: Any) -> dict[str, dict]:
    """Per-phase *self* profile of the serve epoch pipeline.

    Returns ``{phase_name: row}`` for the ``cat == "phase"`` spans the
    epoch server emits (``epoch.prep`` / ``epoch.rounds`` /
    ``epoch.assemble``), each row being the rollup entry — ``count``,
    ``wall_s``, inclusive and ``self_*`` metric sums: the wall-clock
    and PIM-metric view of the phases whose simulated durations
    (``prep_time`` / ``asm_time`` per op, the round cost of the metrics
    delta) the serve loop bills each epoch with.
    """
    return {
        name: row
        for (name, cat), row in rollup_index(tracer_or_spans).items()
        if cat == "phase"
    }


def format_rollup(rows: Iterable[dict]) -> str:
    """Aligned text table for :func:`rollup` output."""
    headers = (
        "span", "cat", "n", "wall_ms",
        "io_rounds", "io_time", "words", "pim_time", "cpu_work",
        "self_io_time", "self_words",
    )
    table = [headers]
    for r in rows:
        table.append(
            (
                r["name"], r["cat"], str(r["count"]),
                f"{r['wall_s'] * 1e3:.2f}",
                str(r["io_rounds"]), str(r["io_time"]), str(r["words"]),
                str(r["pim_time"]), str(r["cpu_work"]),
                str(r["self_io_time"]), str(r["self_words"]),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
