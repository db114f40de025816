"""Tests for the trace/metrics exporters and the profile view."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    hotspots,
    render_hotspots,
    render_profile,
    render_prometheus,
    render_self_time,
    render_span_tree,
    self_time_by_name,
    top_spans,
    trace_document,
)
from .test_tracer import FakeClock


def _sample_tracer():
    tracer = Tracer(clock=FakeClock(step=0.5))
    with tracer.span("pipeline"):
        with tracer.span("parse") as parse:
            with tracer.span("parse_file", path="a.cc"):
                pass
            parse.set("files", 1)
        with tracer.span("checker", name="casts") as checker:
            checker.set("findings", 3)
    tracer.metrics.counter("pipeline.units_parsed").inc(1)
    tracer.metrics.counter("checker.findings", checker="casts").inc(3)
    tracer.metrics.gauge("gpu.bytes_allocated").set(64)
    tracer.metrics.histogram("pipeline.parse_seconds").observe(0.5)
    return tracer


class TestSpanTree:
    def test_contains_every_span_with_times(self):
        rendered = render_span_tree(_sample_tracer())
        assert "pipeline" in rendered
        assert "parse_file path=a.cc" in rendered
        assert "checker name=casts" in rendered
        assert "[findings=3]" in rendered
        assert "total" in rendered and "self" in rendered
        # every data line carries two time columns
        for line in rendered.splitlines()[2:]:
            assert line.count("ms") + line.count("s ") >= 2

    def test_indentation_reflects_depth(self):
        lines = render_span_tree(_sample_tracer()).splitlines()
        pipeline = next(l for l in lines if l.endswith("pipeline"))
        parse_file = next(l for l in lines if "parse_file" in l)
        assert parse_file.index("parse_file") > pipeline.index("pipeline")


class TestProfile:
    def test_top_spans_sorted_by_self_time(self):
        tracer = _sample_tracer()
        spans = top_spans(tracer, limit=3)
        assert len(spans) == 3
        assert spans[0].self_time >= spans[1].self_time \
            >= spans[2].self_time

    def test_limit_respected(self):
        assert len(top_spans(_sample_tracer(), limit=2)) == 2

    def test_render_profile(self):
        rendered = render_profile(_sample_tracer(), limit=2)
        assert rendered.startswith("Top 2 spans by self time")
        assert "share" in rendered
        assert "%" in rendered

    def test_self_time_by_name_attributes_every_second(self):
        tracer = _sample_tracer()
        totals = self_time_by_name(tracer)
        assert totals["parse_file"]["count"] == 1
        # exclusive attribution: per-name totals sum to the traced time
        assert sum(entry["seconds"] for entry in totals.values()) == \
            sum(span.self_time for span in tracer.spans())

    def test_render_self_time(self):
        rendered = render_self_time(_sample_tracer(), limit=3)
        assert rendered.startswith("Self time by span name")
        assert "parse_file" in rendered and "count" in rendered

    def test_hotspots_rank_files_and_checkers(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("pipeline"):
            with tracer.span("parse_file", path="slow.cc"):
                with tracer.span("parse_file", path="slow.cc"):
                    pass
            with tracer.span("parse_file", path="fast.cc"):
                pass
            with tracer.span("checker", name="style"):
                pass
        table = hotspots(tracer, limit=2)
        assert [row["path"] for row in table["files"]] == \
            ["slow.cc", "fast.cc"]
        assert table["files"][0]["seconds"] > \
            table["files"][1]["seconds"]
        assert table["checkers"] == [{"checker": "style",
                                      "seconds": 0.5}]
        rendered = render_hotspots(tracer, limit=2)
        assert "slowest files x checkers" in rendered
        assert "slow.cc" in rendered and "style" in rendered

    def test_hotspots_add_sweep_to_parse_time(self):
        # a file's cost is its lex+model time plus its checker sweep
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("pipeline"):
            with tracer.span("parse_file", path="swept.cc"):
                pass
            with tracer.span("sweep_unit", path="swept.cc"):
                with tracer.span("sweep_unit", path="swept.cc"):
                    pass
            with tracer.span("parse_file", path="parsed.cc"):
                with tracer.span("parse_file", path="parsed.cc"):
                    pass
        table = hotspots(tracer)
        assert [row["path"] for row in table["files"]] == \
            ["swept.cc", "parsed.cc"]
        assert table["files"][0]["seconds"] == pytest.approx(
            0.5 + 1.5 + 0.5)

    def test_hotspots_empty_trace(self):
        table = hotspots(Tracer())
        assert table == {"files": [], "checkers": []}
        rendered = render_hotspots(Tracer())
        assert "(no parse_file spans recorded)" in rendered
        assert "(no checker spans recorded)" in rendered


class TestChromeTrace:
    def test_events_match_spans(self):
        tracer = _sample_tracer()
        events = chrome_trace(tracer)
        assert len(events) == len(tracer.spans())
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        names = {event["name"] for event in events}
        assert "checker name=casts" in names

    def test_timestamps_relative_to_first_span(self):
        events = chrome_trace(_sample_tracer())
        assert min(event["ts"] for event in events) == 0

    def test_empty_tracer(self):
        assert chrome_trace(Tracer()) == []

    def test_grafted_worker_forests_get_own_tid(self):
        from repro.core.parallel import graft_worker_trace
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("pipeline"):
            with tracer.span("parse"):
                pass
        parse = tracer.find("parse")[0]
        for index in range(2):
            worker = Tracer(clock=FakeClock(step=0.5))
            with worker.span("parse_worker", worker=index):
                with worker.span("parse_file", path=f"{index}.cc"):
                    pass
            graft_worker_trace(tracer, parse, worker)
        events = chrome_trace(tracer)
        assert len(events) == len(tracer.spans())  # no metadata events
        by_cat = {}
        for event in events:
            by_cat.setdefault(event["cat"], []).append(event["tid"])
        # worker N renders on track tid + 1 + N ...
        assert sorted(by_cat["parse_worker"]) == [2, 3]
        # ... its children inherit that track ...
        assert sorted(by_cat["parse_file"]) == [2, 3]
        # ... and the main flow stays on the base track
        assert by_cat["pipeline"] == [1] and by_cat["parse"] == [1]

    def test_untagged_worker_span_stays_on_parent_track(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("checker_worker"):  # no worker attribute
            pass
        assert chrome_trace(tracer)[0]["tid"] == 1

    def test_document_is_json_serializable(self):
        document = trace_document(_sample_tracer())
        decoded = json.loads(json.dumps(document))
        assert decoded["spans"][0]["name"] == "pipeline"
        assert decoded["metrics"]["counters"]["pipeline.units_parsed"] == 1
        assert decoded["traceEvents"]


class TestPrometheus:
    def test_counters_gauges_histograms(self):
        text = render_prometheus(_sample_tracer())
        assert "# TYPE repro_pipeline_units_parsed counter" in text
        assert "repro_pipeline_units_parsed 1" in text
        assert 'repro_checker_findings{checker="casts"} 3' in text
        assert "# TYPE repro_gpu_bytes_allocated gauge" in text
        assert "repro_pipeline_parse_seconds_count 1" in text
        assert 'quantile="0.95"' in text
        assert text.endswith("\n")

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_metric_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-with/chars").inc()
        text = render_prometheus(registry)
        assert "repro_weird_name_with_chars 1" in text
