"""Trace rollups: ``scwsc trace summarize`` and ``scwsc trace flamegraph``.

A trace file is a flat JSONL stream; this module turns it into the
questions an operator actually asks: *where did the time go per phase*,
*how many of each event happened*, and *how did budget rounds trend*.
The rollup is by span name — the instrumented phase names (``solve``,
``preprocess``, ``budget_round``, ``select``, ``lp_relaxation``, ...)
are stable and documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from typing import Any

from repro.experiments.ascii_chart import render_chart


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a JSONL trace, skipping blank lines. Raises on invalid JSON
    (run ``scwsc trace validate`` for a line-by-line diagnosis)."""
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def phase_rollups(records: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-span-name ``{count, total, self, mean, max}`` duration rollups.

    ``total`` is inclusive wall time; ``self`` subtracts the durations of
    each span's *direct* children, so a parent phase like ``solve`` stops
    double-counting the ``select`` calls nested inside it. ``self`` is
    clamped at zero per span — clock jitter can make children sum to a
    hair more than their parent.
    """
    child_durations: dict[Any, float] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        parent = record.get("parent_id")
        if parent is not None:
            child_durations[parent] = child_durations.get(parent, 0.0) + float(
                record.get("duration", 0.0)
            )
    rollups: dict[str, dict[str, float]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        name = record["name"]
        duration = float(record.get("duration", 0.0))
        self_time = max(
            0.0, duration - child_durations.get(record.get("span_id"), 0.0)
        )
        entry = rollups.get(name)
        if entry is None:
            rollups[name] = {
                "count": 1,
                "total": duration,
                "self": self_time,
                "max": duration,
            }
        else:
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += self_time
            if duration > entry["max"]:
                entry["max"] = duration
    for entry in rollups.values():
        entry["mean"] = entry["total"] / entry["count"]
    return rollups


def event_counts(records: list[dict[str, Any]]) -> dict[str, int]:
    """How many of each event name the trace contains."""
    tally: TallyCounter[str] = TallyCounter()
    for record in records:
        if record.get("type") == "event":
            tally[record["name"]] += 1
    return dict(tally)


def _budget_round_chart(records: list[dict[str, Any]]) -> str | None:
    """Duration per budget_round span, charted when there are >= 2."""
    rounds = [
        (record.get("attrs", {}).get("round", i), float(record["duration"]))
        for i, record in enumerate(records)
        if record.get("type") == "span" and record["name"] == "budget_round"
    ]
    if len(rounds) < 2:
        return None
    xs = [float(index) for index, _ in rounds]
    ys = [duration for _, duration in rounds]
    return render_chart(
        xs,
        {"duration_s": ys},
        width=48,
        height=10,
        y_label="seconds per budget round",
        x_label="budget round",
    )


def render_summary(records: list[dict[str, Any]]) -> str:
    """Human-readable per-phase rollup: table + optional round chart +
    event tallies + final metrics snapshot highlights."""
    lines: list[str] = []

    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is not None:
        attrs = meta.get("attrs") or {}
        described = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"trace: schema={meta.get('schema')} {described}".rstrip())
        lines.append("")

    rollups = phase_rollups(records)
    if rollups:
        lines.append("phase rollup (by span name):")
        header = (
            f"  {'phase':<16} {'count':>7} {'total_s':>10} {'self_s':>10} "
            f"{'mean_s':>10} {'max_s':>10}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for name, entry in sorted(
            rollups.items(), key=lambda item: -item[1]["total"]
        ):
            lines.append(
                f"  {name:<16} {int(entry['count']):>7} "
                f"{entry['total']:>10.4f} {entry.get('self', 0.0):>10.4f} "
                f"{entry['mean']:>10.6f} {entry['max']:>10.6f}"
            )
    else:
        lines.append("no spans in trace")

    chart = _budget_round_chart(records)
    if chart is not None:
        lines.append("")
        lines.append(chart)

    events = event_counts(records)
    if events:
        lines.append("")
        lines.append("events:")
        for name, count in sorted(events.items(), key=lambda item: -item[1]):
            lines.append(f"  {name:<24} {count:>7}")

    metrics_record = next(
        (r for r in reversed(records) if r.get("type") == "metrics"), None
    )
    if metrics_record is not None:
        lines.append("")
        lines.append("metrics snapshot (counters):")
        for name, metric in sorted(metrics_record.get("metrics", {}).items()):
            if metric.get("kind") != "counter":
                continue
            for sample in metric.get("values", []):
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(sample.get("labels", {}).items())
                )
                label_part = f"{{{labels}}}" if labels else ""
                lines.append(
                    f"  {name}{label_part} {sample.get('value', 0):g}"
                )
    return "\n".join(lines)


def summary_data(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The summarize rollup as plain data (``scwsc trace summarize
    --json``): same numbers as :func:`render_summary`, machine-readable.
    """
    meta = next((r for r in records if r.get("type") == "meta"), None)
    metrics_record = next(
        (r for r in reversed(records) if r.get("type") == "metrics"), None
    )
    counters: list[dict[str, Any]] = []
    if metrics_record is not None:
        for name, metric in sorted(metrics_record.get("metrics", {}).items()):
            if metric.get("kind") != "counter":
                continue
            for sample in metric.get("values", []):
                counters.append(
                    {
                        "name": name,
                        "labels": sample.get("labels", {}),
                        "value": sample.get("value", 0),
                    }
                )
    return {
        "schema": meta.get("schema") if meta else None,
        "meta": (meta.get("attrs") or {}) if meta else {},
        "records": len(records),
        "phases": phase_rollups(records),
        "events": event_counts(records),
        "counters": counters,
    }


def collapsed_stacks(records: list[dict[str, Any]]) -> list[str]:
    """Render a trace's span tree as collapsed-stack lines.

    One line per unique root-to-span path, ``a;b;c <value>``, where the
    value is the span's **self time** in microseconds summed over every
    occurrence of that path — the exact input format of ``flamegraph.pl``
    and speedscope. Paths with no self time are left out.
    """
    spans = {
        r["span_id"]: r
        for r in records
        if r.get("type") == "span" and r.get("span_id") is not None
    }
    child_durations: dict[Any, float] = {}
    for record in spans.values():
        parent = record.get("parent_id")
        if parent in spans:
            child_durations[parent] = child_durations.get(
                parent, 0.0
            ) + float(record.get("duration", 0.0))

    def path(record: dict[str, Any]) -> str:
        names = [record["name"]]
        seen = {record["span_id"]}
        parent = record.get("parent_id")
        while parent in spans and parent not in seen:
            seen.add(parent)
            names.append(spans[parent]["name"])
            parent = spans[parent].get("parent_id")
        return ";".join(reversed(names))

    totals: dict[str, int] = {}
    for span_id, record in spans.items():
        self_time = float(record.get("duration", 0.0)) - child_durations.get(
            span_id, 0.0
        )
        micros = int(round(max(0.0, self_time) * 1e6))
        if micros <= 0:
            continue
        key = path(record)
        totals[key] = totals.get(key, 0) + micros
    return [f"{key} {value}" for key, value in sorted(totals.items())]


def summarize_file(path: str, as_json: bool = False) -> str:
    records = load_trace(path)
    if as_json:
        return json.dumps(summary_data(records), indent=2, sort_keys=True)
    return render_summary(records)
