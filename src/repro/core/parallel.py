"""Parallel execution engine for the assessment pipeline.

The pipeline's per-file work — lex, fuzzy model, fused checker sweep —
is one pass per file (:func:`sweep_files`), and it is embarrassingly
parallel, so this module fans it out over a ``concurrent.futures``
pool in a single round: each worker chunk (:class:`FileTask`, run by
:func:`run_parse_task`) parses and checks its own files and ships back
only token-free :class:`~repro.lang.cppmodel.UnitSummary` objects and
per-unit checker bundles.  Serial runs take the same pass in-process.
The contract, relied on by the determinism tests, is that a parallel
run is *result-identical* to the serial run:

* work is chunked from the sorted path list and results are
  reassembled in that order, so checker reports merge in exactly the
  serial order;
* only checkers whose project report can be replayed from per-unit
  reports — the default per-unit
  :meth:`~repro.checkers.base.Checker.check_project`, or an explicit
  :meth:`~repro.checkers.base.Checker.finish_from_units` override (unit
  design) — run in the pass; genuinely project-level checkers
  (architecture) see all unit summaries at once in the parent, exactly
  as in a serial run.  No token stream reaches the parent.

Each unit is swept once by the fused engine
(:func:`repro.engine.driver.fused_unit_bundle`): one token walk
dispatches to every registered checker, byte-identical to running each
checker's ``check_unit`` in sequence.

Each worker chunk runs under its own :class:`~repro.obs.Tracer` (the
shared tracer's span stack is not thread-safe); the resulting span
forest and metrics are grafted back into the parent trace by
:func:`graft_worker_trace`, so ``--trace`` shows one ``parse_worker``
span per chunk with a ``parse_file`` and a ``sweep_unit`` child per
file.  Structured log events follow the same fan-in: worker chunks
record into a picklable :class:`~repro.obs.BufferLog` shipped back with
the results, and the parent replays it via
:meth:`~repro.obs.EventLog.graft` with the worker index stamped on
every event.

Worker task functions are module-level so the ``process`` executor can
pickle them; every payload (tasks, parse outcomes, checker reports,
worker tracers) is plain-dataclass picklable.

The engine is additionally *fault-isolated* (see :func:`run_tasks` and
:func:`~repro.engine.driver.fused_unit_bundle`): a dead or hung worker
costs one serial re-run of its chunk, and a crashing checker costs one
``internal.checker_crash`` finding on the unit it crashed on — never
the run.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checkers.base import (
    Checker,
    CheckerCrash,
    CheckerReport,
    crash_report,
    make_crash,
)
from ..engine.driver import fused_unit_bundle
from ..errors import ConfigError, ReproError, SourceError
from ..lang.cppmodel import (
    TranslationUnit,
    UnitSummary,
    parse_translation_unit,
)
from ..obs import NULL_LOG, NULL_TRACER, BufferLog, EventLog, Span, Tracer
from ..store.objects import ObjectStore

#: Recognized ``PipelineConfig.executor`` values.  ``thread`` has no
#: per-task pickling cost; ``process`` sidesteps the GIL for the
#: CPU-bound per-file pass at the price of shipping sources out and
#: unit summaries and checker bundles back.
EXECUTOR_KINDS = ("thread", "process")


def worker_count(jobs: int) -> int:
    """Resolve a ``jobs`` setting: 0 means one worker per CPU."""
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def chunk_evenly(items: Sequence, chunks: int) -> List[List]:
    """Split ``items`` into at most ``chunks`` balanced runs, in order.

    Concatenating the result reproduces ``items`` exactly — the order
    guarantee the deterministic merge builds on.
    """
    if chunks < 1:
        raise ConfigError(f"chunk count must be >= 1, got {chunks}")
    chunks = min(chunks, len(items))
    if chunks == 0:
        return []
    size, remainder = divmod(len(items), chunks)
    result: List[List] = []
    start = 0
    for index in range(chunks):
        stop = start + size + (1 if index < remainder else 0)
        result.append(list(items[start:stop]))
        start = stop
    return result


#: Internal sentinel for "this task has no pool result yet".
_PENDING = object()


def _count(metrics, name: str, **labels) -> None:
    if metrics is not None:
        metrics.counter(name, **labels).inc()


def run_tasks(function: Callable, tasks: Sequence, *, jobs: int,
              executor: str, timeout: Optional[float] = None,
              metrics=None, log: EventLog = NULL_LOG) -> List:
    """Run ``function`` over ``tasks`` on a pool; results in task order.

    ``jobs <= 1`` (or a single task) short-circuits to a plain loop —
    the serial path allocates no pool at all.

    The pooled path is fault-isolated: a task whose worker dies
    (``BrokenProcessPool`` — today that takes down the entire run),
    whose result cannot cross the process boundary (pickling errors),
    or that exceeds the per-task ``timeout`` is re-executed *serially*
    in the calling process — a bounded retry (one in-process re-run per
    failed task) that turns every worker-level fault into at worst a
    slow chunk instead of a lost run.  An exception from the serial
    re-run is genuine and propagates.

    Args:
        timeout: per-task result deadline in seconds; ``None`` waits
            forever.  A timed-out worker task is abandoned (its pool
            cannot interrupt it) and its chunk recomputed serially.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; failure
            handling is counted under ``parallel.task_timeouts``,
            ``parallel.worker_deaths``, ``parallel.task_errors``,
            ``parallel.task_retries``, and ``parallel.serial_fallbacks``.
        log: optional :class:`~repro.obs.EventLog`; the same failure
            handling is logged as ``parallel.task_timeout``,
            ``parallel.worker_death``, ``parallel.task_error``, and
            ``parallel.serial_fallback`` events.
    """
    if executor not in EXECUTOR_KINDS:
        raise ConfigError(
            f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}")
    if jobs <= 1 or len(tasks) <= 1:
        return [function(task) for task in tasks]
    pool_class = (futures.ThreadPoolExecutor if executor == "thread"
                  else futures.ProcessPoolExecutor)
    results: List = [_PENDING] * len(tasks)
    pool = pool_class(max_workers=min(jobs, len(tasks)))
    try:
        pending = [pool.submit(function, task) for task in tasks]
        for index, future in enumerate(pending):
            try:
                results[index] = future.result(timeout=timeout)
            except futures.TimeoutError:
                _count(metrics, "parallel.task_timeouts",
                       executor=executor)
                log.warning("parallel.task_timeout", task=index,
                            executor=executor, timeout=timeout)
                future.cancel()
            except futures.BrokenExecutor:
                _count(metrics, "parallel.worker_deaths",
                       executor=executor)
                log.error("parallel.worker_death", task=index,
                          executor=executor)
            except Exception:
                # Thread pools have no IPC layer: an exception here IS
                # the task's own, and re-running would repeat it (or,
                # worse, silently succeed against already-consumed
                # state) — propagate.  Process pools surface transport
                # faults the same way (e.g. the worker's result failed
                # to pickle), so there the serial re-run below — which
                # never crosses a process boundary — is the recovery;
                # a genuine task exception just re-raises from it.
                if executor == "thread":
                    raise
                _count(metrics, "parallel.task_errors",
                       executor=executor)
                log.error("parallel.task_error", task=index,
                          executor=executor)
    finally:
        # wait=False: a hung worker must not hang the parent too.  A
        # still-running abandoned task keeps its worker busy until it
        # finishes, but the run no longer depends on it.
        pool.shutdown(wait=False)
    for index, task in enumerate(tasks):
        if results[index] is _PENDING:
            _count(metrics, "parallel.task_retries", executor=executor)
            _count(metrics, "parallel.serial_fallbacks",
                   executor=executor)
            log.warning("parallel.serial_fallback", task=index,
                        executor=executor)
            results[index] = function(task)
    return results


# ----------------------------------------------------------------------
# the per-file pass: lex -> model -> fused sweep -> summary

#: One file's per-unit checker reports, keyed by checker name.
Bundle = Dict[str, CheckerReport]


@dataclass
class ParseOutcome:
    """What the per-file pass made of one file: a token-free unit
    summary, a parse error, or a contained parser-internal crash.

    This is the object stored under :data:`~repro.core.cache.PARSE_TAG`.
    """

    path: str
    unit: Optional[UnitSummary] = None
    error: Optional[SourceError] = None
    #: A non-``SourceError`` raised inside the parser, contained (unless
    #: the run is strict); the file counts as unparseable and the run
    #: as degraded.
    crash: Optional[CheckerCrash] = None


@dataclass
class FileTask:
    """One share of the per-file pass: lex, model and fused checker
    sweep for a batch of files.

    ``checkers`` are the per-unit checkers, pruned with
    :meth:`~repro.checkers.base.Checker.for_paths` so a process task
    ships only the per-file state its own files need.
    """

    items: List[Tuple[str, str]]
    checkers: List[Checker]
    worker: int = 0
    traced: bool = False
    #: Re-raise parser-internal errors and checker crashes instead of
    #: containing them.
    strict: bool = False
    #: Record structured events into a shipped-back worker buffer.
    logged: bool = False
    #: Store keys, aligned with ``items``: ``(parse key, check key)``
    #: for the stages that missed the store, ``None`` for a stage that
    #: hit (its entry is not rewritten).  ``None`` without a store.
    keys: Optional[List[Tuple[Optional[str], Optional[str]]]] = None
    #: Store-backed fan-out: the worker persists each result itself,
    #: into this private object area the parent absorbs on join (no
    #: second pickling in the parent, and a killed run leaves mergeable
    #: shards behind).
    shard_dir: Optional[str] = None


def parse_one(path: str, source: str, strict: bool = False
              ) -> Tuple[ParseOutcome, Optional[TranslationUnit]]:
    """Parse one file, containing both failure modes.

    Returns the outcome (its ``unit`` still unset) and the full unit,
    or ``None`` when the file did not parse.  An expected
    :class:`SourceError` (malformed input) lands in ``error``; any
    other exception is a parser bug, contained as a ``crash`` record
    unless ``strict``.
    """
    try:
        unit = parse_translation_unit(source, path)
    except SourceError as error:
        return ParseOutcome(path, error=error), None
    except Exception as error:
        if strict:
            raise
        return ParseOutcome(path, crash=make_crash(
            "parse", "parse", error, path=path)), None
    return ParseOutcome(path), unit


def persist(area: ObjectStore,
            keys: Tuple[Optional[str], Optional[str]],
            outcome: ParseOutcome, bundle: Optional[Bundle]) -> None:
    """Store one file's results under the keys that missed.

    Contained parser crashes and crashed bundles are never stored: the
    fault may be transient, and strict runs must reproduce it, not
    replay it.
    """
    parse_key, check_key = keys
    if parse_key is not None and outcome.crash is None:
        area.put(parse_key, outcome)
    if (check_key is not None and bundle is not None
            and not bundle_has_crash(bundle)):
        area.put(check_key, bundle)


def sweep_files(task: FileTask, tracer: Tracer, log: EventLog,
                area: Optional[ObjectStore]
                ) -> List[Tuple[ParseOutcome, Optional[Bundle]]]:
    """The per-file pass over ``task.items``, in order.

    Each file is lexed and modelled (one ``parse_file`` span), swept
    once by the fused engine (one ``sweep_unit`` span), and reduced to
    its :class:`~repro.lang.cppmodel.UnitSummary` before the next file
    starts, so no token stream outlives its file.  With an ``area``
    (and ``task.keys``), each result is persisted as it is made.

    Returns ``[(outcome, bundle)]``; ``bundle`` is ``None`` for a file
    that did not parse.
    """
    timings = tracer.metrics.histogram("pipeline.parse_seconds")
    results: List[Tuple[ParseOutcome, Optional[Bundle]]] = []
    for index, (path, source) in enumerate(task.items):
        with tracer.span("parse_file", path=path) as span:
            outcome, unit = parse_one(path, source, strict=task.strict)
            if unit is None:
                span.set("failed", 1)
        if tracer.enabled:
            timings.observe(span.duration)
        bundle = None
        if unit is not None:
            with tracer.span("sweep_unit", path=path):
                bundle = fused_unit_bundle(task.checkers, unit,
                                           strict=task.strict, log=log)
            outcome.unit = unit.summary(source)
        if area is not None and task.keys is not None:
            persist(area, task.keys[index], outcome, bundle)
        results.append((outcome, bundle))
    return results


def run_parse_task(task: FileTask
                   ) -> Tuple[List[Tuple[ParseOutcome, Optional[Bundle]]],
                              Optional[Tracer], Optional[List[Dict]]]:
    """Run the per-file pass over one worker's chunk.

    Per-file :class:`SourceError` (and, unless strict, parser and
    checker crashes) is caught, so a poisoned file never kills the
    pool.  Returns ``(results, worker tracer or None, worker events or
    None)``; the parent grafts the latter two back into its own trace
    and event log.
    """
    tracer = Tracer() if task.traced else NULL_TRACER
    log = BufferLog(worker=task.worker) if task.logged else NULL_LOG
    area = (ObjectStore(task.shard_dir)
            if task.shard_dir is not None else None)
    with tracer.span("parse_worker", worker=task.worker) as span:
        results = sweep_files(task, tracer, log, area)
        failures = sum(1 for _, bundle in results if bundle is None)
        span.set("files", len(task.items))
        span.set("failures", failures)
        span.set("checkers", len(task.checkers))
        log.debug("worker.parse", files=len(task.items),
                  failures=failures, checkers=len(task.checkers))
    return (results, tracer if task.traced else None,
            log.events if task.logged else None)


#: The per-file pass checks as it parses, so the check stage has no
#: task of its own; the name stays for callers that look it up.
run_check_task = run_parse_task


def check_unit_bundle(checkers: Sequence[Checker], unit: TranslationUnit,
                      strict: bool = False,
                      log: EventLog = NULL_LOG) -> Dict[str, CheckerReport]:
    """One unit's bundle the legacy way: each checker's ``check_unit``
    in turn — the reference :func:`~repro.engine.driver.
    fused_unit_bundle` is pinned byte-identical against.

    Containment is per checker *and* per unit: a checker that raises a
    non-:class:`~repro.errors.ReproError` on this unit contributes a
    :func:`~repro.checkers.base.crash_report` for it, and both the other
    checkers on this unit and this checker on other units are
    unaffected.  ``strict=True`` re-raises instead; a contained crash
    is logged as a ``checker.crash`` event.
    """
    bundle: Dict[str, CheckerReport] = {}
    for checker in checkers:
        try:
            bundle[checker.name] = checker.check_unit(unit)
        except ReproError:
            raise
        except Exception as error:
            if strict:
                raise
            log.error("checker.crash", checker=checker.name,
                      stage="check_unit", path=unit.filename,
                      error=f"{type(error).__name__}: {error}")
            bundle[checker.name] = crash_report(checker.name, make_crash(
                checker.name, "check_unit", error, path=unit.filename))
    return bundle


def bundle_has_crash(bundle: Dict[str, CheckerReport]) -> bool:
    """True when any report in a per-unit bundle contains a crash.

    Crashed bundles are kept out of the result cache: the fault may be
    transient (and, under ``--strict``, must reproduce, not replay)."""
    return any(report.crashes for report in bundle.values())


def split_checkers(checkers: Sequence[Checker]
                   ) -> Tuple[List[Checker], List[Checker]]:
    """Partition into (per-unit parallelizable, project-level) checkers.

    A checker that keeps the base class's :meth:`check_project` is a
    pure per-unit merge + finalize, which the engine can replay from
    distributed (or cached) per-unit reports.  A checker that overrides
    :meth:`finish_from_units` has declared its own replay: its per-unit
    portion distributes, and the override runs the project-wide
    remainder over the merged result (unit design's recursion pass).
    Anything else overriding :meth:`check_project` needs the whole unit
    set and stays on the serial path.
    """
    def distributable(checker: Checker) -> bool:
        return (type(checker).check_project is Checker.check_project
                or type(checker).finish_from_units
                is not Checker.finish_from_units)

    per_unit = [checker for checker in checkers if distributable(checker)]
    project = [checker for checker in checkers
               if not distributable(checker)]
    return per_unit, project


# ----------------------------------------------------------------------
# telemetry fan-in


def graft_worker_trace(tracer: Tracer, parent: Span,
                       worker_tracer: Optional[Tracer]) -> None:
    """Reattach a worker's span forest and metrics to the parent trace.

    Worker spans become children of ``parent`` (timestamps come from
    the worker's own monotonic clock, which is process-consistent on
    the platforms we run on), and the worker's counters and histograms
    fold into the parent registry.
    """
    if worker_tracer is None or not tracer.enabled:
        return
    for root in worker_tracer.roots:
        root.parent = parent
        parent.children.append(root)
    tracer.metrics.merge(worker_tracer.metrics)
