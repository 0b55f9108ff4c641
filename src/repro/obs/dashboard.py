"""Static HTML run dashboard: one trace, one file, no dependencies.

``scwsc report run.jsonl -o report.html`` renders a finished run's trace
(plus, optionally, flight-recorder bundles) into a single self-contained
HTML page — inline CSS, inline SVG, no JavaScript frameworks, no CDN —
so the file can be attached to a CI run or mailed around and still open
a year later. Panels:

* **span waterfall** — every span as a bar positioned on the run's
  monotonic clock, indented by tree depth, so pool retries and phase
  nesting are visible at a glance;
* **self-time table** — the :func:`repro.obs.report.phase_rollups`
  rollup including self time (duration minus direct children);
* **quality panel** — the ``quality`` trace records (approximation
  ratio vs. the LP bound, coverage slack, sets used vs. ``k``) next to
  the closing metrics snapshot;
* **postmortems** — trigger/reason/ring-occupancy summaries of
  ``scwsc-postmortem/1`` flight-recorder bundles passed via
  ``--postmortem``.

Everything here is string assembly over already-loaded records; the
heavy lifting (rollups, quality math) lives in the sibling modules.
"""

from __future__ import annotations

import html
from typing import Any

from repro.obs.report import event_counts, phase_rollups

_CSS = """
  body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
         sans-serif; margin: 1.5rem; color: #1a1a2e; background: #fafafa; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem;
       border-bottom: 1px solid #ddd; padding-bottom: 0.2rem; }
  table { border-collapse: collapse; font-size: 0.85rem; }
  th, td { padding: 0.25rem 0.7rem; text-align: right;
           border-bottom: 1px solid #eee; }
  th { background: #f0f0f5; } td.name, th.name { text-align: left;
       font-family: ui-monospace, 'SF Mono', Menlo, monospace; }
  .waterfall { position: relative; font-size: 0.75rem;
               font-family: ui-monospace, Menlo, monospace; }
  .lane { position: relative; height: 18px; margin: 1px 0; }
  .bar { position: absolute; height: 16px; border-radius: 3px;
         background: #4c72b0; color: #fff; overflow: hidden;
         white-space: nowrap; padding: 1px 4px; box-sizing: border-box;
         min-width: 2px; }
  .bar.d1 { background: #55a868; } .bar.d2 { background: #c44e52; }
  .bar.d3 { background: #8172b2; } .bar.d4 { background: #ccb974; }
  .muted { color: #888; font-size: 0.8rem; }
  .ok { color: #2e7d32; } .bad { color: #c62828; }
  svg.spark { vertical-align: middle; }
  .panel { background: #fff; border: 1px solid #e5e5ee; border-radius:
           6px; padding: 0.8rem 1rem; margin-top: 0.6rem; }
"""

_MAX_WATERFALL_SPANS = 400


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "–"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return html.escape(str(value))


def _span_depths(spans: list[dict[str, Any]]) -> dict[Any, int]:
    by_id = {s.get("span_id"): s for s in spans}
    depths: dict[Any, int] = {}

    def depth(span_id: Any) -> int:
        if span_id in depths:
            return depths[span_id]
        span = by_id.get(span_id)
        parent = span.get("parent_id") if span else None
        depths[span_id] = 0 if parent not in by_id else depth(parent) + 1
        return depths[span_id]

    for span in spans:
        depth(span.get("span_id"))
    return depths


def _waterfall(records: list[dict[str, Any]]) -> str:
    spans = [r for r in records if r.get("type") == "span"]
    if not spans:
        return '<p class="muted">no spans in trace</p>'
    spans.sort(key=lambda s: float(s.get("t_start", 0.0)))
    clipped = len(spans) > _MAX_WATERFALL_SPANS
    if clipped:
        spans = sorted(
            spans, key=lambda s: -float(s.get("duration", 0.0))
        )[:_MAX_WATERFALL_SPANS]
        spans.sort(key=lambda s: float(s.get("t_start", 0.0)))
    t0 = min(float(s.get("t_start", 0.0)) for s in spans)
    t1 = max(float(s.get("t_end", 0.0)) for s in spans)
    extent = max(t1 - t0, 1e-9)
    depths = _span_depths(spans)
    rows: list[str] = []
    for span in spans:
        start = float(span.get("t_start", 0.0))
        duration = float(span.get("duration", 0.0))
        left = 100.0 * (start - t0) / extent
        width = max(100.0 * duration / extent, 0.15)
        depth = depths.get(span.get("span_id"), 0)
        name = html.escape(str(span.get("name", "?")))
        title = html.escape(
            f"{span.get('name')} [{span.get('span_id')}] "
            f"{duration * 1000:.3f} ms "
            + " ".join(
                f"{k}={v}" for k, v in sorted((span.get("attrs") or {}).items())
            )
        )
        rows.append(
            f'<div class="lane"><div class="bar d{min(depth, 4)}" '
            f'style="left:{left:.3f}%;width:{width:.3f}%" '
            f'title="{title}">{name}</div></div>'
        )
    note = (
        f'<p class="muted">showing the {_MAX_WATERFALL_SPANS} longest '
        f"spans</p>"
        if clipped
        else ""
    )
    return (
        f'<p class="muted">{len(spans)} spans over {extent:.4f} s</p>'
        f'{note}<div class="waterfall">{"".join(rows)}</div>'
    )


def _self_time_table(records: list[dict[str, Any]]) -> str:
    rollups = phase_rollups(records)
    if not rollups:
        return '<p class="muted">no spans in trace</p>'
    rows = []
    for name, entry in sorted(
        rollups.items(), key=lambda item: -item[1].get("self", 0.0)
    ):
        rows.append(
            f'<tr><td class="name">{html.escape(name)}</td>'
            f"<td>{int(entry['count'])}</td>"
            f"<td>{entry['total']:.4f}</td>"
            f"<td>{entry.get('self', 0.0):.4f}</td>"
            f"<td>{entry['mean']:.6f}</td>"
            f"<td>{entry['max']:.6f}</td></tr>"
        )
    return (
        '<table><tr><th class="name">phase</th><th>count</th>'
        "<th>total_s</th><th>self_s</th><th>mean_s</th><th>max_s</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _ratio_bar(ratio: float | None, scale: float = 3.0) -> str:
    """A tiny inline bar chart: ratio 1.0 fills one third of the track."""
    if ratio is None:
        return ""
    frac = min(ratio / scale, 1.0)
    colour = "#55a868" if ratio <= 1.5 else "#c44e52"
    return (
        '<svg class="spark" width="90" height="10">'
        '<rect width="90" height="10" fill="#eee"/>'
        f'<rect width="{90 * frac:.1f}" height="10" fill="{colour}"/>'
        "</svg>"
    )


def _quality_panel(records: list[dict[str, Any]]) -> str:
    quality = [r for r in records if r.get("type") == "quality"]
    if not quality:
        return '<p class="muted">no quality records (older trace?)</p>'
    rows = []
    for record in quality:
        q = record.get("quality") or {}
        ratio = q.get("approx_ratio")
        slack = q.get("coverage_slack")
        slack_class = "bad" if (slack is not None and slack < 0) else "ok"
        feasible = q.get("feasible")
        rows.append(
            f'<tr><td class="name">{html.escape(str(record.get("algorithm")))}'
            f"</td><td>{_fmt(q.get('total_cost'))}</td>"
            f"<td>{_fmt(q.get('lp_bound'))}</td>"
            f"<td>{_fmt(ratio)} {_ratio_bar(ratio)}</td>"
            f'<td class="{slack_class}">{_fmt(slack)}</td>'
            f"<td>{_fmt(q.get('sets_used'))} / {_fmt(q.get('sets_budget'))}"
            f"</td><td class=\"{'ok' if feasible else 'bad'}\">"
            f"{_fmt(feasible)}</td></tr>"
        )
    return (
        '<table><tr><th class="name">algorithm</th><th>cost</th>'
        "<th>lp_bound</th><th>approx_ratio</th><th>coverage_slack</th>"
        "<th>sets k</th><th>feasible</th></tr>" + "".join(rows) + "</table>"
    )


def _postmortem_panel(bundles: list[dict[str, Any]]) -> str:
    if not bundles:
        return (
            '<p class="muted">no postmortem bundles — pass '
            "<code>--postmortem BUNDLE.json</code> (or a spool directory) "
            "to include flight-recorder dumps</p>"
        )
    parts: list[str] = []
    for bundle in bundles:
        trigger = html.escape(str(bundle.get("trigger", "?")))
        reason = html.escape(str(bundle.get("reason", "")))
        created = bundle.get("created_unix")
        created_s = _fmt(created, 3) if isinstance(created, (int, float)) else "–"
        source = bundle.get("_source")
        rings = bundle.get("rings") or {}
        occupancy = " · ".join(
            f"{html.escape(str(name))}×{len(ring.get('records') or [])}"
            for name, ring in sorted(rings.items())
            if isinstance(ring, dict)
        )
        workers = bundle.get("workers") or {}
        stacks = bundle.get("stacks") or {}
        samples = stacks.get("samples") or []
        context = bundle.get("context") or {}
        context_s = " ".join(
            f"{html.escape(str(k))}={html.escape(str(v))}"
            for k, v in sorted(context.items())
        )
        parts.append(
            f'<h3>{trigger} @ {created_s}</h3>'
            f'<p class="name">{reason}</p>'
            + (f'<p class="muted">{html.escape(str(source))}</p>' if source else "")
            + f'<p class="muted">rings: {occupancy or "empty"} · '
            f"worker rings: {len(workers)} · "
            f"stack samples: {len(samples)}</p>"
            + (f'<p class="muted">{context_s}</p>' if context_s else "")
        )
    return (
        f'<p class="muted">{len(bundles)} postmortem bundle(s)</p>'
        + "".join(parts)
    )


def _meta_line(records: list[dict[str, Any]]) -> str:
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is None:
        return ""
    attrs = meta.get("attrs") or {}
    described = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return (
        f'<p class="muted">schema {html.escape(str(meta.get("schema")))} '
        f"· {html.escape(described)}</p>"
    )


def _events_line(records: list[dict[str, Any]]) -> str:
    events = event_counts(records)
    if not events:
        return ""
    body = " · ".join(
        f"{html.escape(name)}×{count}"
        for name, count in sorted(events.items(), key=lambda kv: -kv[1])
    )
    return f'<p class="muted">events: {body}</p>'


def render_dashboard(
    records: list[dict[str, Any]] | None = None,
    title: str = "scwsc run report",
    postmortems: list[dict[str, Any]] | None = None,
) -> str:
    """The full dashboard page as one HTML string.

    ``records`` is a loaded trace (:func:`repro.obs.report.load_trace`);
    ``postmortems`` is a list of loaded ``scwsc-postmortem/1`` bundles.
    Either may be ``None``/empty — the
    matching panels degrade to a hint instead of disappearing, so the
    page shape is stable for tooling that greps for panel ids.
    """
    records = records or []
    postmortems = postmortems or []
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
{_meta_line(records)}
<h2>Span waterfall</h2>
<div id="waterfall" class="panel">{_waterfall(records)}</div>
<h2>Per-phase self time</h2>
<div id="self-time" class="panel">{_self_time_table(records)}
{_events_line(records)}</div>
<h2>Solution quality</h2>
<div id="quality" class="panel">{_quality_panel(records)}</div>
<h2>Postmortems</h2>
<div id="postmortems" class="panel">{_postmortem_panel(postmortems)}</div>
</body>
</html>
"""

