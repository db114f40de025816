"""Profiling views over a recorded trace.

Three flat tables over the span forest, all printed by
``repro-assess --profile``:

* :func:`top_spans` / :func:`render_profile` — the individual spans
  with the most *self* time (time not explained by their children),
  which is where optimization effort should go;
* :func:`self_time_by_name` / :func:`render_self_time` — exclusive
  time *attributed per span name* (all ``parse_file`` spans together,
  all ``checker`` spans together), the stage-level answer to "where
  does the wall time actually go";
* :func:`hotspots` / :func:`render_hotspots` — the slowest files
  (``parse_file`` + ``sweep_unit`` spans by ``path``) crossed with the
  slowest checkers
  (``checker`` spans by ``name``); the top-K also lands in each
  :class:`~repro.obs.runlog.RunRecord` so the ledger remembers where
  past runs spent their time.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .span import Span
from .tracer import Tracer


def _all_spans(source: Union[Tracer, List[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return source.spans()
    return [span for root in source for span in root.walk()]


def top_spans(source: Union[Tracer, List[Span]], limit: int = 10,
              by_self_time: bool = True) -> List[Span]:
    """The ``limit`` slowest spans, by self time (default) or total."""
    spans = _all_spans(source)
    key = (lambda s: s.self_time) if by_self_time else (lambda s: s.duration)
    return sorted(spans, key=key, reverse=True)[:max(0, limit)]


def render_profile(source: Union[Tracer, List[Span]],
                   limit: int = 10) -> str:
    """The ``--profile`` table: top-N spans by self time."""
    from .export import _format_counts, _format_seconds
    spans = top_spans(source, limit)
    total = sum(span.self_time for span in _all_spans(source)) or 1.0
    header = f"{'self':>10} {'total':>10} {'share':>7}  span"
    lines = [f"Top {len(spans)} spans by self time", header,
             "-" * max(48, len(header))]
    for span in spans:
        share = 100.0 * span.self_time / total
        lines.append(f"{_format_seconds(span.self_time)} "
                     f"{_format_seconds(span.duration)} "
                     f"{share:6.1f}%  {span.label()}{_format_counts(span)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# self-time attribution per span name


def self_time_by_name(source: Union[Tracer, List[Span]]
                      ) -> Dict[str, Dict[str, float]]:
    """Exclusive time aggregated per span name.

    Returns ``{name: {"count": n, "seconds": s}}`` where ``seconds``
    is the summed *self* time of every span with that name — each
    wall-clock second is attributed to exactly one name, so the values
    add up to the total traced time.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span in _all_spans(source):
        entry = totals.setdefault(span.name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.self_time
    return totals


def render_self_time(source: Union[Tracer, List[Span]],
                     limit: int = 10) -> str:
    """The per-span-name exclusive-time table (biggest first)."""
    from .export import _format_seconds
    totals = self_time_by_name(source)
    overall = sum(entry["seconds"] for entry in totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: item[1]["seconds"],
                    reverse=True)[:max(0, limit)]
    header = f"{'self':>10} {'count':>7} {'share':>7}  span name"
    lines = ["Self time by span name", header,
             "-" * max(48, len(header))]
    for name, entry in ranked:
        share = 100.0 * entry["seconds"] / overall
        lines.append(f"{_format_seconds(entry['seconds'])} "
                     f"{int(entry['count']):>7} {share:6.1f}%  {name}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# hotspots: slowest files x slowest checkers


def hotspots(source: Union[Tracer, List[Span]],
             limit: int = 10) -> Dict[str, List[Dict]]:
    """The slowest files and checkers, by summed span time.

    Files aggregate ``parse_file`` plus ``sweep_unit`` spans (lex and
    model, then the fused checker sweep) per ``path`` attribute (a
    file parsed in several runs of one trace sums); checkers aggregate
    ``checker`` spans per ``name``.  Returns
    ``{"files": [{"path", "seconds"}...],
    "checkers": [{"checker", "seconds"}...]}``, each list sorted
    slowest-first and cut at ``limit`` — the shape stored in the run
    ledger's ``hotspots`` field.
    """
    files: Dict[str, float] = {}
    checkers: Dict[str, float] = {}
    for span in _all_spans(source):
        if span.name in ("parse_file", "sweep_unit"):
            path = str(span.attributes.get("path", "<unknown>"))
            files[path] = files.get(path, 0.0) + span.duration
        elif span.name == "checker":
            name = str(span.attributes.get("name", "<unknown>"))
            checkers[name] = checkers.get(name, 0.0) + span.duration
    cut = max(0, limit)
    return {
        "files": [{"path": path, "seconds": round(seconds, 6)}
                  for path, seconds in sorted(files.items(),
                                              key=lambda kv: -kv[1])[:cut]],
        "checkers": [{"checker": name, "seconds": round(seconds, 6)}
                     for name, seconds in sorted(checkers.items(),
                                                 key=lambda kv: -kv[1])
                     [:cut]],
    }


def render_hotspots(source: Union[Tracer, List[Span]],
                    limit: int = 10) -> str:
    """The "top slowest files x checkers" table under ``--profile``."""
    from .export import _format_seconds
    table = hotspots(source, limit=limit)
    lines = [f"Top {limit} slowest files x checkers"]
    header = f"{'time':>10}  file"
    lines.append(header)
    lines.append("-" * max(48, len(header)))
    for row in table["files"]:
        lines.append(f"{_format_seconds(row['seconds'])}  {row['path']}")
    if not table["files"]:
        lines.append("(no parse_file spans recorded)")
    header = f"{'time':>10}  checker"
    lines.append(header)
    lines.append("-" * max(48, len(header)))
    for row in table["checkers"]:
        lines.append(f"{_format_seconds(row['seconds'])}  "
                     f"{row['checker']}")
    if not table["checkers"]:
        lines.append("(no checker spans recorded)")
    return "\n".join(lines)
