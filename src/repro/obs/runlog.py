"""Run manifests: one record per assessment run.

The tracer and metrics die with the process; the run history is the
cross-run memory.  Every ``--store`` assessment appends one
:class:`RunRecord` — a JSON line capturing *what was assessed, with
what configuration, how long each stage took, what faults were
absorbed, what was found, and which objects it read or wrote* — to
``<store>/runs.jsonl``.  The trend layer (:mod:`repro.obs.trends`)
reads the history back to plot finding counts per rule and stage
timings over time and to gate CI on regressions.

The table mechanics — appends, reads, shard unions, canonical merges —
live in :class:`repro.store.history.RunHistory`.  What stays here is
the *assembly*: :func:`build_run_record` knows the pipeline, tracer,
and cache shapes well enough to distill one finished assessment into a
schema-stable manifest.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from typing import Dict, List, Optional

from ..store.history import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    RunRecord,
    new_run_id,
)

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "RunRecord",
    "STAGE_NAMES",
    "build_run_record",
    "new_run_id",
]

#: The pipeline stages whose wall times a record carries, in order.
STAGE_NAMES = ("parse", "metrics", "checkers", "evidence", "compliance",
               "observations")

#: Parallel-engine fault counters folded into every record.
FAULT_COUNTERS = ("task_timeouts", "worker_deaths", "task_errors",
                  "task_retries", "serial_fallbacks")


# ----------------------------------------------------------------------
# record assembly


def _counter_total(metrics, name: str) -> int:
    """A counter's value summed over every label set."""
    return int(sum(counter.value for counter in metrics.counters
                   if counter.name == name))


def _config_fingerprint(config) -> str:
    """Digest of the assessment-relevant configuration.

    Covers what changes *verdicts or findings* for the same sources —
    ASIL target, thresholds, style/architecture limits, strictness,
    and the shard slice (a shard run assesses a different corpus, so
    its trends must never be compared against a full run's) — not what
    changes only the execution shape (jobs, executor, cache), which
    the record carries as plain fields instead.
    """
    material = repr((config.target_asil, config.thresholds, config.style,
                     config.architecture, config.strict,
                     config.skip_unparseable))
    shard = getattr(config, "shard", None)
    if shard:
        # Appended (rather than folded into the tuple) so full-run
        # fingerprints are byte-identical to pre-store releases and
        # existing trend windows survive the upgrade.
        material += f"|shard:{shard}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


def _rules_fingerprint(config) -> str:
    if config.rules is None:
        return ""
    from ..rules import REGISTRY
    return config.rules.fingerprint_for(list(REGISTRY))


def build_run_record(result, *, run_id: str, duration: float,
                     exit_code: int, config=None, tracer=None,
                     cache=None, files: Optional[int] = None,
                     timestamp: Optional[str] = None,
                     hotspot_limit: int = 5) -> RunRecord:
    """Assemble a :class:`RunRecord` from one finished assessment.

    Args:
        result: the :class:`~repro.core.assessment.AssessmentResult`.
        run_id: the run's correlation id.
        duration: end-to-end wall seconds.
        exit_code: what the CLI is about to return.
        config: the :class:`~repro.core.config.PipelineConfig` used
            (``None`` skips the fingerprints and fan-out fields).
        tracer: the run's :class:`~repro.obs.Tracer`; supplies stage
            times, fault counters, and hotspots when present.
        cache: the run's :class:`~repro.store.objects.ObjectStore`
            (or a per-request view of one), for its hit/miss/put/
            corruption accounting; the object keys it touched
            (``referenced``) are pinned into the manifest, for GC
            retention.
        files: input file count (defaults to units + unparseable).
        timestamp: ISO timestamp override for deterministic tests.
    """
    findings_by_rule: Dict[str, int] = {}
    findings_by_severity: Dict[str, int] = {}
    total_findings = 0
    for report in result.reports.values():
        for rule, count in report.count_by_rule().items():
            findings_by_rule[rule] = findings_by_rule.get(rule, 0) + count
        for finding in report.findings:
            name = finding.severity.name
            findings_by_severity[name] = \
                findings_by_severity.get(name, 0) + 1
        total_findings += report.finding_count

    stages: Dict[str, float] = {}
    faults: Dict[str, int] = {}
    hotspot_table: Dict[str, List] = {}
    if tracer is not None and tracer.enabled:
        for name in STAGE_NAMES:
            spans = tracer.find(name)
            if spans:
                stages[name] = round(
                    sum(span.duration for span in spans), 6)
        for name in FAULT_COUNTERS:
            faults[name] = _counter_total(tracer.metrics,
                                          f"parallel.{name}")
        from .profile import hotspots
        hotspot_table = hotspots(tracer, limit=hotspot_limit)

    cache_stats: Dict[str, int] = {}
    object_keys: List[str] = []
    if cache is not None:
        cache_stats = {
            "hits": cache.hits,
            "misses": cache.misses,
            "puts": getattr(cache, "puts", 0),
            "corrupt_entries": getattr(cache, "corrupt_entries", 0),
        }
        object_keys = sorted(cache.referenced)

    units = result.unit_count
    unparseable = len(result.unparseable)
    record = RunRecord(
        run_id=run_id,
        timestamp=timestamp if timestamp is not None else
        datetime.now(timezone.utc).isoformat(timespec="seconds"),
        corpus={
            "files": files if files is not None else units + unparseable,
            "units": units,
            "unparseable": unparseable,
            "loc": result.total_loc,
            "functions": result.total_functions,
        },
        stages=stages,
        total_seconds=round(duration, 6),
        faults=faults,
        cache=cache_stats,
        findings_by_rule=dict(sorted(findings_by_rule.items())),
        findings_by_severity=dict(sorted(findings_by_severity.items())),
        total_findings=total_findings,
        degradations=len(result.crashes),
        hotspots=hotspot_table,
        exit_code=exit_code,
        objects=object_keys,
    )
    if config is not None:
        record.config_fingerprint = _config_fingerprint(config)
        record.rules_fingerprint = _rules_fingerprint(config)
        record.jobs = config.jobs
        record.executor = config.executor
        record.shard = getattr(config, "shard", None) or ""
    return record
