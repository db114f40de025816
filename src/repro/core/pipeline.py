"""The assessment pipeline: sources in, ISO 26262 verdicts out.

This orchestrates the paper's whole methodology:

1. parse every translation unit into the fuzzy C++ model and run the
   per-unit checkers over it — one pass per file;
2. compute per-module size/complexity metrics (Figure 3);
3. finish every checker's project report;
4. assemble the evidence set;
5. apply the compliance engine to the three ISO 26262-6 tables;
6. derive the numbered observations.

Stage 1 runs through the execution engine in :mod:`repro.core.parallel`:
each file is lexed, modelled and swept once by the fused checker
engine, and only its token-free :class:`~repro.lang.cppmodel.
UnitSummary` and per-unit checker bundle survive.  With
:attr:`PipelineConfig.jobs` > 1 the pass fans out over a thread or
process pool in one round; with a :attr:`PipelineConfig.cache`
configured, a file whose summary (stored under ``parse:4``) and bundle
both hit is replayed, and any other file re-runs the whole pass.
Stages 2 and 3 see unit summaries only, never tokens.  Either way the
produced :class:`AssessmentResult` is identical to a serial, cold-cache
run: chunks are cut from the sorted path list and merged back in that
order, and only checkers whose project report is a pure per-unit merge
are distributed.
"""

from __future__ import annotations

import gc
import os
import shutil
from typing import Dict, List, Mapping, Optional, Tuple

from ..checkers.architecture import ArchitectureChecker
from ..checkers.base import (
    Checker,
    CheckerCrash,
    CheckerReport,
    crash_report,
    make_crash,
    require_unique_checker,
)
from ..checkers.casts import CastChecker
from ..checkers.defensive import DefensiveChecker
from ..checkers.globals_check import GlobalVariableChecker
from ..checkers.gpu_subset import GpuSubsetChecker
from ..checkers.misra import MisraChecker
from ..checkers.naming import NamingChecker
from ..checkers.style import StyleChecker
from ..checkers.unitdesign import UnitDesignChecker
from ..errors import ConfigError, ReproError
from ..iso26262.compliance import ComplianceEngine
from ..iso26262.evidence import EvidenceSet
from ..iso26262.observations import generate_observations
# ``fused_unit_bundle``, ``parse_translation_unit`` and
# ``run_check_task`` are not called here: the per-file pass calls them
# through repro.core.parallel.  They stay importable from this module
# because the benchmark's layer timers (perfbench/layers.py) patch the
# per-file entry points by name in both modules.
from ..engine.driver import fused_unit_bundle  # noqa: F401
from ..lang.cppmodel import UnitSummary
from ..lang.cppmodel import parse_translation_unit  # noqa: F401
from ..metrics.report import ModuleMetrics, measure_module
from ..obs import NULL_LOG, NULL_TRACER, EventLog, Span, Tracer
from ..store.layout import OBJECTS_DIRNAME, default_shard_name
from .assessment import AssessmentResult
from .cache import CACHE_MISS, CHECK_TAG, PARSE_TAG
from .config import PipelineConfig
from .parallel import (
    EXECUTOR_KINDS,
    Bundle,
    FileTask,
    ParseOutcome,
    chunk_evenly,
    graft_worker_trace,
    persist,
    run_check_task,  # noqa: F401
    run_parse_task,
    run_tasks,
    split_checkers,
    sweep_files,
    worker_count,
)


def parse_shard_spec(spec: Optional[str]) -> Optional[Tuple[int, int]]:
    """Validate a ``"K/N"`` shard slice into ``(K, N)``.

    ``K`` is 1-based; ``1 <= K <= N``.  ``None`` (and ``"1/1"``'s
    degenerate cousins) mean "the whole corpus".  Raises
    :class:`~repro.errors.ConfigError` on anything else, so a bad
    ``--shard`` fails before any work starts.
    """
    if spec is None:
        return None
    head, separator, tail = spec.partition("/")
    if (not separator or not head.strip().isdigit()
            or not tail.strip().isdigit()):
        raise ConfigError(
            f"shard must look like K/N (e.g. 2/4), got {spec!r}")
    index, count = int(head), int(tail)
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"shard K/N needs 1 <= K <= N, got {spec!r}")
    return index, count


def shard_slice(paths: List[str], shard: Optional[Tuple[int, int]]
                ) -> List[str]:
    """This shard's slice of the sorted path list.

    Round-robin (``sorted(paths)[K-1::N]``): every path lands in
    exactly one of the N shards, and the N slices concatenate —
    order aside — to the full corpus, so N shard runs plus a merge
    cover exactly what one full run covers.
    """
    if shard is None:
        return paths
    index, count = shard
    return paths[index - 1::count]


class AssessmentPipeline:
    """Runs the full assessment over a path -> source mapping.

    When :attr:`PipelineConfig.tracer` is set, every stage is traced:
    a ``pipeline`` root span with ``parse`` (one ``parse_file`` and one
    ``sweep_unit`` child per translation unit, grouped under
    ``parse_worker`` spans when ``jobs > 1``), ``metrics`` (one
    ``measure_module`` child per module), ``checkers`` (one ``checker``
    child per checker, with its finding count), ``evidence``,
    ``compliance``, and ``observations`` children —
    plus counters for units parsed, parse failures, findings per
    checker, and cache hits/misses per stage.  The default is the
    no-op NULL_TRACER.
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self.tracer: Tracer = (self.config.tracer
                               if self.config.tracer is not None
                               else NULL_TRACER)
        self.log: EventLog = (self.config.log
                              if self.config.log is not None
                              else NULL_LOG)
        #: Resolved worker count; jobs and executor are validated
        #: eagerly so a bad configuration fails before any work starts.
        self.jobs = worker_count(self.config.jobs)
        if self.config.executor not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor must be one of {EXECUTOR_KINDS}, "
                f"got {self.config.executor!r}")
        #: Validated ``(K, N)`` corpus slice, or ``None`` for all files.
        self.shard = parse_shard_spec(self.config.shard)
        if self.config.cache is not None:
            self.config.cache.attach(self.tracer.metrics, self.log)

    # ------------------------------------------------------------------

    def run(self, sources: Mapping[str, str]) -> AssessmentResult:
        """Assess a codebase given as ``{path: source_text}``.

        Unless :attr:`PipelineConfig.strict` is set, internal faults
        (a checker or the parser raising outside the
        :class:`~repro.errors.ReproError` hierarchy) are contained: the
        run completes with the surviving checkers and the result
        carries the :class:`~repro.checkers.base.CheckerCrash` records
        with :attr:`~repro.core.assessment.AssessmentResult.degraded`
        set.
        """
        tracer = self.tracer
        log = self.log
        if self.shard is not None:
            # The shard's slice IS its corpus: every stage, report, and
            # manifest below sees only these files, and the cache
            # entries it writes are exactly the ones a later merged
            # full run replays.
            sliced = shard_slice(sorted(sources), self.shard)
            sources = {path: sources[path] for path in sliced}
        crashes: List[CheckerCrash] = []
        log.info("run.start", files=len(sources), jobs=self.jobs,
                 executor=self.config.executor,
                 **({"shard": self.config.shard}
                    if self.shard is not None else {}))
        # A cold run allocates millions of long-lived tokens and model
        # objects; the cyclic collector re-scans them on every generation
        # sweep for no benefit (the object graph is acyclic by
        # construction).  Pause automatic collection for the batch and
        # restore the caller's setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(sources, crashes, tracer, log)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, sources: Mapping[str, str],
             crashes: List[CheckerCrash], tracer, log) -> AssessmentResult:
        with tracer.span("pipeline") as root:
            checkers = self._checkers(sources)
            per_unit, _ = split_checkers(checkers)
            units, bundles, unparseable = self._sweep_all(
                sources, per_unit, crashes)
            modules = self._measure_modules(sources, units)
            reports = self._finish_checkers(checkers, per_unit, units,
                                            bundles)
            for name in reports:
                crashes.extend(reports[name].crashes)
            if crashes:
                tracer.metrics.counter("pipeline.crashes").inc(
                    len(crashes))
                log.warning("run.degraded", crashes=len(crashes))
            with tracer.span("evidence"):
                evidence = self._assemble_evidence(modules, reports)
            with tracer.span("compliance"):
                engine = ComplianceEngine(
                    target_asil=self.config.target_asil,
                    thresholds=self.config.thresholds)
                tables = engine.assess_all(evidence)
            with tracer.span("observations") as span:
                observations = generate_observations(evidence)
                span.set("observations", len(observations))
            root.set("units", len(units))
            root.set("jobs", self.jobs)
        log.info("run.finish", units=len(units),
                 findings=sum(report.finding_count
                              for report in reports.values()),
                 degraded=bool(crashes))
        baseline = (self.config.baseline.compare(reports)
                    if self.config.baseline is not None else None)
        return AssessmentResult(
            modules=modules,
            reports=reports,
            evidence=evidence,
            tables=tables,
            observations=observations,
            unit_count=len(units),
            unparseable=unparseable,
            profile=self.config.rules,
            baseline=baseline,
            crashes=crashes,
        )

    # ------------------------------------------------------------------
    # stage 1: the per-file pass (parse + per-unit checks)

    def _sweep_all(self, sources: Mapping[str, str],
                   per_unit: List[Checker],
                   crashes: List[CheckerCrash]
                   ) -> Tuple[List[UnitSummary], Dict[str, Bundle],
                              List[str]]:
        """Every file's unit summary and per-unit checker bundle.

        A file whose parse *and* check entries both hit the store is
        replayed; any other file re-runs the whole per-file pass,
        serially or fanned out, and only its missed entries are
        written.  Returns ``(summaries of parsed files, {path: bundle},
        unparseable paths)``, all in sorted-path order.
        """
        tracer = self.tracer
        cache = self.config.cache
        metrics = tracer.metrics
        parsed = metrics.counter("pipeline.units_parsed")
        failed = metrics.counter("pipeline.parse_failures")
        units: List[UnitSummary] = []
        unparseable: List[str] = []
        with tracer.span("parse") as parse_span:
            paths = sorted(sources)
            outcomes, bundles, keys = (
                self._replay(paths, sources, per_unit)
                if cache is not None else ({}, {}, {}))
            pending = [path for path in paths if path not in outcomes]
            for outcome, bundle in self._sweep_pending(
                    pending, sources, per_unit, keys, parse_span):
                outcomes[outcome.path] = outcome
                if bundle is not None:
                    bundles[outcome.path] = bundle
            for path in paths:
                outcome = outcomes[path]
                if outcome.crash is not None:
                    failed.inc()
                    unparseable.append(path)
                    crashes.append(outcome.crash)
                    self.log.error(
                        "parse.crash", path=path, span=parse_span.id,
                        error=(f"{outcome.crash.exc_type}: "
                               f"{outcome.crash.message}"))
                elif outcome.error is not None:
                    if not self.config.skip_unparseable:
                        raise outcome.error
                    failed.inc()
                    unparseable.append(path)
                    self.log.warning("parse.failure", path=path,
                                     span=parse_span.id,
                                     error=str(outcome.error))
                else:
                    parsed.inc()
                    units.append(outcome.unit)
            parse_span.set("files", len(sources))
            parse_span.set("failures", len(unparseable))
        return units, bundles, unparseable

    def _replay(self, paths: List[str], sources: Mapping[str, str],
                per_unit: List[Checker]
                ) -> Tuple[Dict[str, ParseOutcome], Dict[str, Bundle],
                           Dict[str, Tuple[Optional[str], Optional[str]]]]:
        """What the store holds for ``paths``.

        Returns ``(outcomes, bundles, keys)``: the replayed files'
        outcomes and bundles, and for every other file its ``(parse
        key, check key)`` with ``None`` for a stage that hit.  Both
        stages are looked up and counted per file (``cache.hits`` /
        ``cache.misses`` with ``stage=parse|check``), except that a
        stored parse failure has no check entry to look up.
        """
        cache = self.config.cache
        counter = self.tracer.metrics.counter
        bundle_tag = "|".join(checker.fingerprint() for checker in per_unit)
        outcomes: Dict[str, ParseOutcome] = {}
        bundles: Dict[str, Bundle] = {}
        keys: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for path in paths:
            source = sources[path]
            parse_key = cache.key_for(PARSE_TAG, path, source)
            outcome = cache.get(parse_key)
            parse_missed = outcome is CACHE_MISS
            counter("cache.misses" if parse_missed else "cache.hits",
                    stage="parse").inc()
            if not parse_missed and outcome.unit is None:
                outcomes[path] = outcome  # a stored parse failure
                continue
            check_key = cache.key_for(CHECK_TAG, path, source, bundle_tag)
            bundle = cache.get(check_key)
            check_missed = bundle is CACHE_MISS
            counter("cache.misses" if check_missed else "cache.hits",
                    stage="check").inc()
            if parse_missed or check_missed:
                keys[path] = (parse_key if parse_missed else None,
                              check_key if check_missed else None)
            else:
                outcomes[path] = outcome
                bundles[path] = bundle
        return outcomes, bundles, keys

    def _sweep_pending(self, paths: List[str],
                       sources: Mapping[str, str],
                       per_unit: List[Checker],
                       keys: Dict[str, Tuple[Optional[str], Optional[str]]],
                       parse_span: Span
                       ) -> List[Tuple[ParseOutcome, Optional[Bundle]]]:
        """Run the per-file pass over ``paths``, fanned out when
        ``jobs > 1``, persisting each file's missed entries (``keys``,
        see :meth:`_replay`) when a store is configured."""
        if not paths:
            return []
        tracer = self.tracer
        cache = self.config.cache
        strict = self.config.strict

        def task_for(chunk: List[str], worker: int,
                     checkers: List[Checker]) -> FileTask:
            return FileTask(
                items=[(path, sources[path]) for path in chunk],
                checkers=checkers, worker=worker,
                traced=tracer.enabled, strict=strict,
                logged=self.log.enabled,
                keys=([keys[path] for path in chunk]
                      if cache is not None else None))

        if self.jobs <= 1 or len(paths) <= 1:
            # Serial: the same pass in-process, straight into the
            # parent's trace, log and store.
            return sweep_files(task_for(paths, 0, per_unit), tracer,
                               self.log, cache)
        tasks = [task_for(chunk, index,
                          [checker.for_paths(chunk) for checker in per_unit])
                 for index, chunk in enumerate(
                     chunk_evenly(paths, self.jobs))]
        shard_dirs = self._worker_shards(tasks)
        results: List[Tuple[ParseOutcome, Optional[Bundle]]] = []
        # Absorb-or-remove the worker shard areas even when the pool is
        # torn down mid-flight (KeyboardInterrupt, SIGTERM): whatever
        # the workers already persisted folds back into the parent's
        # write area instead of leaking shard-<host>-<pid>-w* dirs.
        try:
            for chunk_results, worker_tracer, worker_events in run_tasks(
                    run_parse_task, tasks, jobs=self.jobs,
                    executor=self.config.executor,
                    timeout=self.config.task_timeout,
                    metrics=tracer.metrics, log=self.log):
                results.extend(chunk_results)
                graft_worker_trace(tracer, parse_span, worker_tracer)
                self.log.graft(worker_events)
        finally:
            self._absorb_worker_shards(shard_dirs)
        if cache is not None and not shard_dirs:
            for outcome, bundle in results:
                persist(cache, keys[outcome.path], outcome, bundle)
        return results

    # ------------------------------------------------------------------
    # store-backed worker fan-out

    def _worker_shards(self, tasks: List[FileTask]) -> List[str]:
        """Arm pooled tasks with private object areas, when store-backed.

        With a :attr:`~repro.store.objects.ObjectStore.
        worker_shard_base` configured (a ``--store`` run), each task
        gets a ``shard-<host>-<pid>-w<index>/objects`` area under the
        store root: the worker persists its own results, the parent
        absorbs the areas on join, and a killed run leaves behind valid
        shard directories ``repro-store merge`` folds in.  Caches
        without a base (in-memory, or a bare :class:`~repro.store.
        objects.ObjectStore`) are untouched.  Returns the armed shard
        directories (empty when inactive).
        """
        cache = self.config.cache
        base = (getattr(cache, "worker_shard_base", None)
                if cache is not None else None)
        if base is None:
            return []
        for task in tasks:
            task.shard_dir = os.path.join(
                base, default_shard_name(f"w{task.worker}"),
                OBJECTS_DIRNAME)
        return [task.shard_dir for task in tasks]

    def _absorb_worker_shards(self, shard_dirs: List[str]) -> None:
        """Fold worker object areas back into the cache's write area."""
        cache = self.config.cache
        for shard_dir in shard_dirs:
            cache.absorb(shard_dir)
            shutil.rmtree(os.path.dirname(shard_dir),
                          ignore_errors=True)

    # ------------------------------------------------------------------
    # stage 2: metrics

    def _measure_modules(self, sources: Mapping[str, str],
                         units: List[UnitSummary]
                         ) -> List[ModuleMetrics]:
        by_module: Dict[str, List[UnitSummary]] = {}
        for unit in units:
            module = self.config.module_of(unit.filename)
            by_module.setdefault(module, []).append(unit)
        with self.tracer.span("metrics") as span:
            modules = [measure_module(name, sources, members,
                                      tracer=self.tracer)
                       for name, members in sorted(by_module.items())]
            span.set("modules", len(modules))
        self.tracer.metrics.counter("pipeline.modules_measured").inc(
            len(modules))
        return modules

    # ------------------------------------------------------------------
    # stage 3: checkers

    def _checkers(self, sources: Mapping[str, str]) -> List[Checker]:
        style = StyleChecker(self.config.style)
        for path, source in sources.items():
            style.add_source(path, source)
        checkers: List[Checker] = [
            MisraChecker(),
            CastChecker(),
            DefensiveChecker(),
            GlobalVariableChecker(),
            NamingChecker(),
            style,
            UnitDesignChecker(),
            ArchitectureChecker(self.config.architecture,
                                self.config.module_of),
            GpuSubsetChecker(),
        ]
        checkers.extend(self.config.extra_checkers)
        if self.config.rules is not None:
            for checker in checkers:
                checker.profile = self.config.rules
        return checkers

    def _finish_checkers(self, checkers: List[Checker],
                         per_unit: List[Checker],
                         units: List[UnitSummary],
                         bundles: Dict[str, Bundle]
                         ) -> Dict[str, CheckerReport]:
        """The project reports, from unit summaries only.

        Per-unit checkers replay their per-unit reports (from the
        per-file pass or the store), merged in sorted-unit order,
        through ``finish_from_units`` (for most, exactly the base
        ``check_project``: merge + finalize).  Project-level checkers
        run ``check_project`` over all summaries.
        """
        tracer = self.tracer
        strict = self.config.strict
        per_unit_names = {checker.name for checker in per_unit}
        reports: Dict[str, CheckerReport] = {}
        with tracer.span("checkers"):
            for checker in checkers:
                require_unique_checker(checker, reports)
                with tracer.span("checker", name=checker.name) as span:
                    try:
                        if checker.name in per_unit_names:
                            stage = "finalize"
                            report = checker.finish_from_units(
                                units,
                                [bundles[unit.filename][checker.name]
                                 for unit in units])
                        else:
                            stage = "check_project"
                            report = checker.check_project(units)
                    except ReproError:
                        raise
                    except Exception as error:
                        if strict:
                            raise
                        self.log.error(
                            "checker.crash", checker=checker.name,
                            stage=stage, span=span.id,
                            error=f"{type(error).__name__}: {error}")
                        report = crash_report(checker.name, make_crash(
                            checker.name, stage, error))
                        tracer.metrics.counter(
                            "pipeline.checker_crashes").inc()
                        span.set("crashed", 1)
                    span.set("findings", report.finding_count)
                tracer.metrics.counter("checker.findings",
                                       checker=checker.name).inc(
                    report.finding_count)
                reports[checker.name] = report
        return reports

    # ------------------------------------------------------------------
    # stage 4: evidence

    def _assemble_evidence(self, modules: List[ModuleMetrics],
                           reports: Dict[str, CheckerReport]
                           ) -> EvidenceSet:
        evidence = EvidenceSet()
        evidence.put("complexity", {
            "moderate_or_higher": sum(
                module.complexity.moderate_or_higher
                for module in modules),
            "functions": sum(module.function_count for module in modules),
            "max_complexity": max(
                (module.complexity.max_complexity for module in modules),
                default=0),
        }, source="metrics:complexity")
        checker_backed = (
            ("language_subset", "language_subset"),
            ("strong_typing", "casts"),
            ("defensive", "defensive"),
            ("design_principles", "globals"),
            ("globals", "globals"),
            ("style", "style"),
            ("naming", "naming"),
            ("unit_design", "unit_design"),
            ("architecture", "architecture"),
        )
        for key, checker in checker_backed:
            report = reports[checker]
            evidence.put(key, report.stats,
                         source=f"checker:{checker}",
                         rule_counts=report.count_by_rule())
        return evidence


def assess_sources(sources: Mapping[str, str],
                   config: Optional[PipelineConfig] = None
                   ) -> AssessmentResult:
    """One-call API: assess a ``{path: source}`` mapping."""
    return AssessmentPipeline(config).run(sources)


def assess_corpus(corpus, config: Optional[PipelineConfig] = None
                  ) -> AssessmentResult:
    """Assess a generated :class:`~repro.corpus.generator.Corpus`."""
    return AssessmentPipeline(config).run(corpus.sources())
