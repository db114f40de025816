"""The token-free ``UnitSummary`` stands in for the full model.

The per-file pass (lex, model, fused sweep) runs on a full
``TranslationUnit`` and keeps only its ``UnitSummary``: that is what
the store holds under the parse stage tag, what process workers ship
back, and all that module metrics, project-level checkers and report
routing see.  These tests pin that each of those consumers gives
byte-identical results on summaries and on full units, that stored
parse objects carry no tokens, and that the store's per-stage replay
(parse hit / check miss, and entries under an older parse tag) gives
the cold run's output with the old per-stage counters.
"""

import io
import json
import os
import pickle

import pytest

from repro.checkers.architecture import ArchitectureChecker
from repro.checkers.base import run_checkers
from repro.checkers.unitdesign import UnitDesignChecker
from repro.core import AssessmentPipeline, PipelineConfig
from repro.core.cache import PARSE_TAG
from repro.core.cli import main
from repro.core.parallel import ParseOutcome
from repro.corpus import apollo_spec, generate_corpus
from repro.lang.cppmodel import UnitSummary, parse_translation_unit
from repro.lang.tokens import Token
from repro.metrics.report import measure_module
from repro.obs import Tracer
from repro.store import ObjectStore

SCALE = 0.05

#: Deviations on the lines of project-level findings: the recursion
#: pass (unit design) and the scheduling check (architecture) must
#: route them the same way from summaries as from full units.
DEVIATED = {
    "planning/walk.cc": (
        "int walk(int n) { return n > 0 ? walk(n - 1) : 0; }"
        "  // DEVIATION(UD10.recursion: bounded by the tree depth)\n"
        "int loop_a(int n);\n"
        "int loop_b(int n) { return loop_a(n); }  // DEVIATION(UD10.recursion)\n"
        "int loop_a(int n) { return n ? loop_b(n - 1) : 0; }\n"),
    "control/spawn.cc": (
        "#include \"planning/walk.h\"\n"
        "void spawn() { pthread_create(0, 0, 0, 0); }"
        "  // DEVIATION(AR6.scheduling: one start-up thread)\n"
        "void alarm() { signal(2, 0); }\n"),
}


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=SCALE)).sources()


def parsed(sources):
    """``(full units, their summaries)`` in sorted-path order."""
    units = [parse_translation_unit(sources[path], path)
             for path in sorted(sources)]
    return units, [unit.summary(sources[unit.filename]) for unit in units]


def by_module(units):
    modules = {}
    for unit in units:
        modules.setdefault(unit.filename.split("/")[0], []).append(unit)
    return sorted(modules.items())


def pickled_types(value):
    """Every type the pickler visits while serializing ``value``."""
    seen = set()

    class Recorder(pickle.Pickler):
        def reducer_override(self, obj):
            seen.add(type(obj))
            return NotImplemented

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return seen


@pytest.mark.parametrize("fixture", ["corpus", "deviated"])
class TestSummaryEquivalence:
    @pytest.fixture
    def sources(self, fixture, corpus_sources):
        return corpus_sources if fixture == "corpus" else DEVIATED

    def test_measure_module(self, sources):
        units, summaries = parsed(sources)
        for (name, full), (_, short) in zip(by_module(units),
                                            by_module(summaries)):
            assert repr(measure_module(name, sources, short)) == \
                repr(measure_module(name, sources, full)), name

    def test_architecture_check_project(self, sources):
        units, summaries = parsed(sources)
        checker = ArchitectureChecker()
        assert repr(checker.check_project(summaries)) == \
            repr(checker.check_project(units))

    def test_unit_design_finish_from_units(self, sources):
        units, summaries = parsed(sources)
        checker = UnitDesignChecker()
        unit_reports = [checker.check_unit(unit) for unit in units]
        assert repr(checker.finish_from_units(summaries, unit_reports)) \
            == repr(checker.finish_from_units(units, unit_reports))

    def test_pipeline_matches_full_unit_checkers(self, sources):
        """The pipeline (summaries only past the per-file pass) reports
        exactly what every checker's ``check_project`` reports over
        full units."""
        pipeline = AssessmentPipeline()
        result = pipeline.run(sources)
        units, _ = parsed(sources)
        legacy = run_checkers(pipeline._checkers(sources), units)
        assert list(result.reports) == list(legacy)
        for name, report in legacy.items():
            assert repr(result.reports[name]) == repr(report), name


class TestSummaryContents:
    def test_deviations_route_project_findings(self):
        """The deviated fixture really exercises project-level routing:
        justified deviations suppress, a bare one is flagged."""
        _, summaries = parsed(DEVIATED)
        assert [len(summary.deviations) for summary in summaries] == [1, 2]
        design = UnitDesignChecker().finish_from_units(
            summaries, [UnitDesignChecker().check_unit(unit)
                        for unit in parsed(DEVIATED)[0]])
        assert [f.function for f in design.suppressed] == ["walk"]
        assert {f.function for f in design.findings
                if f.rule == "UD10.recursion"} == {"loop_a", "loop_b"}
        architecture = ArchitectureChecker().check_project(summaries)
        assert [f.rule for f in architecture.suppressed] == \
            ["AR6.scheduling"]

    def test_summary_drops_tokens_keeps_counts(self, corpus_sources):
        units, summaries = parsed(corpus_sources)
        for unit, summary in zip(units, summaries):
            assert not hasattr(summary, "tokens")
            assert not hasattr(summary, "code")
            assert summary.line_count == unit.line_count
            assert summary.functions == unit.functions
        assert Token not in pickled_types(summaries)

    def test_stored_parse_objects_hold_no_token(self, tmp_path,
                                                corpus_sources):
        area = ObjectStore(str(tmp_path))
        AssessmentPipeline(PipelineConfig(
            cache=area, jobs=2, executor="process")).run(corpus_sources)
        outcomes = [area.get(area.key_for(PARSE_TAG, path, source))
                    for path, source in sorted(corpus_sources.items())]
        assert all(isinstance(outcome, ParseOutcome)
                   and isinstance(outcome.unit, UnitSummary)
                   for outcome in outcomes)
        assert Token not in pickled_types(outcomes)


class TestStageReplay:
    @pytest.mark.parametrize("fanout", [[], ["--jobs", "2", "--executor",
                                             "process"]])
    def test_parse_hit_check_miss(self, tmp_path, corpus_sources, fanout):
        """A profile change invalidates the check entries only: parse
        keys hit, check keys miss, the whole per-file pass re-runs, and
        the output is the cold run's, byte for byte."""
        store = str(tmp_path / "store")
        assert main(["--corpus", str(SCALE), "--store", store]) == 0
        cold = tmp_path / "cold.json"
        replayed = tmp_path / "replayed.json"
        metrics_file = tmp_path / "metrics.json"
        profile = ["--disable", "SG.*"]
        assert main(["--corpus", str(SCALE), "--json", str(cold)]
                    + profile) == 0
        assert main(["--corpus", str(SCALE), "--store", store,
                     "--json", str(replayed),
                     "--metrics-json", str(metrics_file)]
                    + profile + fanout) == 0
        assert replayed.read_bytes() == cold.read_bytes()

        files = len(corpus_sources)
        counters = json.loads(metrics_file.read_text())["metrics"][
            "counters"]
        assert counters['cache.hits{stage="parse"}'] == files
        assert counters['cache.misses{stage="check"}'] == files
        assert 'cache.misses{stage="parse"}' not in counters
        assert 'cache.hits{stage="check"}' not in counters
        # only the missed check entries are written; parse entries stay
        assert counters["cache.puts"] == files

    def test_older_parse_tag_reads_as_miss(self, tmp_path, corpus_sources):
        """Parse objects under an older tag (full units, tokens and all)
        are never looked up: every parse key misses, the check entries
        still hit, and the output is the cold run's."""
        assert PARSE_TAG != "parse:3"
        root = str(tmp_path / "store")
        AssessmentPipeline(PipelineConfig(
            cache=ObjectStore(root))).run(corpus_sources)
        legacy = ObjectStore(root)
        for path, source in sorted(corpus_sources.items()):
            os.remove(legacy.entry_path(
                legacy.key_for(PARSE_TAG, path, source)))
            legacy.put(legacy.key_for("parse:3", path, source),
                       ParseOutcome(path, unit=parse_translation_unit(
                           source, path)))

        tracer = Tracer()
        area = ObjectStore(root)
        result = AssessmentPipeline(PipelineConfig(
            tracer=tracer, cache=area)).run(corpus_sources)
        files = len(corpus_sources)
        metrics = tracer.metrics
        assert metrics.counter_value("cache.misses", stage="parse") == files
        assert metrics.counter_value("cache.hits", stage="check") == files
        assert area.corrupt_entries == 0
        assert area.puts == files  # the parse:4 entries, nothing else
        reference = AssessmentPipeline().run(corpus_sources)
        assert result.to_dict() == reference.to_dict()
