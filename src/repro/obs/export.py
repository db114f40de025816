"""Exporters: human span tree, Chrome ``trace_event`` JSON, Prometheus text.

Three consumers, three formats:

* :func:`render_span_tree` — what ``repro-assess --trace`` prints: an
  indented tree with total/self wall time and the count attributes.
* :func:`chrome_trace` — a list of Chrome ``trace_event`` complete
  events (load the written JSON in ``chrome://tracing`` / Perfetto).
* :func:`render_prometheus` — the text exposition format, one line per
  counter/gauge plus summary lines per histogram.

The profiling view (top-N slowest spans) lives in
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Union

from .metrics import MetricsRegistry
from .span import Span
from .tracer import Tracer

#: Attributes that name a span rather than count something.
_LABEL_KEYS = ("name", "path", "kernel", "module", "checker")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1000.0:8.3f}ms"


def _format_counts(span: Span) -> str:
    counts = []
    for key, value in span.attributes.items():
        if key in _LABEL_KEYS:
            continue
        counts.append(f"{key}={value}")
    return f"  [{', '.join(counts)}]" if counts else ""


def render_span_tree(source: Union[Tracer, List[Span]]) -> str:
    """The indented span tree with total and self wall times."""
    roots = source.roots if isinstance(source, Tracer) else list(source)
    header = f"{'total':>10} {'self':>10}  span"
    lines = [header, "-" * max(48, len(header))]

    def emit(span: Span, depth: int) -> None:
        lines.append(f"{_format_seconds(span.duration)} "
                     f"{_format_seconds(span.self_time)}  "
                     f"{'  ' * depth}{span.label()}{_format_counts(span)}")
        for child in span.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace_event


def _worker_tid(span: Span, base_tid: int) -> Union[int, None]:
    """The dedicated track for a grafted worker span forest, if any.

    Worker root spans (``parse_worker``) carry a ``worker`` chunk
    index; each gets its own ``tid`` so parallel chunks render as one
    row per worker in the trace viewer instead of interleaving on the
    main track.
    """
    if not span.name.endswith("_worker"):
        return None
    try:
        return base_tid + 1 + int(span.attributes["worker"])
    except (KeyError, TypeError, ValueError):
        return None


def chrome_trace(source: Union[Tracer, List[Span]],
                 pid: int = 1, tid: int = 1) -> List[Dict]:
    """Chrome ``trace_event`` complete ("X") events, one per span.

    Timestamps are microseconds relative to the earliest span start, so
    the document is stable across runs modulo durations.  Spans under a
    grafted worker forest get a per-worker ``tid`` (worker N renders on
    track ``tid + 1 + N``); everything else stays on ``tid``.
    """
    roots = source.roots if isinstance(source, Tracer) else list(source)
    spans = [span for root in roots for span in root.walk()]
    if not spans:
        return []
    epoch = min(span.start for span in spans)
    events: List[Dict] = []

    def emit(span: Span, track: int) -> None:
        worker_track = _worker_tid(span, tid)
        if worker_track is not None:
            track = worker_track
        events.append({
            "name": span.label(),
            "cat": span.name,
            "ph": "X",
            "ts": (span.start - epoch) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": track,
            "args": dict(span.attributes),
        })
        for child in span.children:
            emit(child, track)

    for root in roots:
        emit(root, tid)
    return events


def trace_document(tracer: Tracer) -> Dict:
    """The full JSON trace: span forest, metrics, and Chrome events."""
    return {
        "spans": [root.to_dict() for root in tracer.roots],
        "metrics": tracer.metrics.to_dict(),
        "traceEvents": chrome_trace(tracer),
    }


# ----------------------------------------------------------------------
# Prometheus text exposition


def _prometheus_name(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prometheus_labels(labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in labels) + "}"


def render_prometheus(source: Union[Tracer, MetricsRegistry]) -> str:
    """Prometheus text format for every registered metric."""
    registry = source.metrics if isinstance(source, Tracer) else source
    lines: List[str] = []
    typed = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for counter in registry.counters:
        name = _prometheus_name(counter.name)
        declare(name, "counter")
        lines.append(f"{name}{_prometheus_labels(counter.labels)} "
                     f"{_render_value(counter.value)}")
    for gauge in registry.gauges:
        name = _prometheus_name(gauge.name)
        declare(name, "gauge")
        lines.append(f"{name}{_prometheus_labels(gauge.labels)} "
                     f"{_render_value(gauge.value)}")
    for histogram in registry.histograms:
        name = _prometheus_name(histogram.name)
        declare(name, "summary")
        summary = histogram.summary()
        for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
            labels = histogram.labels + (("quantile", quantile),)
            lines.append(f"{name}{_prometheus_labels(labels)} "
                         f"{_render_value(summary[key])}")
        lines.append(f"{name}_sum{_prometheus_labels(histogram.labels)} "
                     f"{_render_value(summary['sum'])}")
        lines.append(f"{name}_count{_prometheus_labels(histogram.labels)} "
                     f"{summary['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _render_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
