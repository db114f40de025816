"""Checker framework: findings, reports, and the checker base class.

Each checker inspects the fuzzy model (:class:`~repro.lang.cppmodel.
TranslationUnit`) of one or more source files and produces a
:class:`CheckerReport` — a list of located :class:`Finding` objects plus a
dictionary of aggregate statistics.  The statistics are the *evidence* the
ISO 26262 compliance engine consumes (see
:mod:`repro.iso26262.compliance`); the findings are what a developer would
fix.

Findings flow through the rules layer (:mod:`repro.rules`): every rule id
a checker emits is registered in :data:`~repro.rules.REGISTRY`, and
reports created with :meth:`Checker.new_report` route each finding past
the active :class:`~repro.rules.RuleProfile` (enable/disable globs,
severity overrides) and any inline ``DEVIATION(...)`` comments before it
lands.  With no profile and no deviations the routing layer is not even
constructed, so the default path is byte-identical to the pre-rules
behavior.
"""

from __future__ import annotations

import abc
import traceback as traceback_module
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..engine.index import function_line_index
from ..errors import ReproError
from ..lang.cppmodel import TranslationUnit
from ..obs import NULL_LOG, NULL_TRACER
from ..rules import (
    CHECKER_CRASH,
    DEVIATION_RULES,
    DeviationIndex,
    MISSING_RATIONALE,
    REGISTRY,
    RuleProfile,
    Severity,
    UNKNOWN_RULE,
)

__all__ = [
    "Checker",
    "CheckerCrash",
    "CheckerReport",
    "Finding",
    "RuleView",
    "Severity",
    "crash_report",
    "enclosing_function_name",
    "make_crash",
    "require_unique_checker",
    "run_checkers",
]


@dataclass(frozen=True)
class Finding:
    """One located rule violation or noteworthy fact.

    Attributes:
        rule: stable rule identifier, e.g. ``"M15.1"`` or ``"UD9.goto"``.
        message: human-readable description.
        filename: source file of the finding.
        line: 1-based line number (0 for file-level findings).
        severity: blocking strength.
        function: qualified name of the enclosing function, when known.
    """

    rule: str
    message: str
    filename: str
    line: int = 0
    severity: Severity = Severity.MINOR
    function: str = ""

    def located(self) -> str:
        """``file:line rule message`` string for reports."""
        location = f"{self.filename}:{self.line}" if self.line else self.filename
        return f"{location}: [{self.rule}] {self.message}"


class RuleView:
    """The routing context a report's findings pass through.

    Built by :meth:`Checker.new_report` only when a rule profile is
    configured or the checked units declare deviations; carries no
    registry reference, only plain picklable state, so reports cross
    process pools and the result cache unchanged.
    """

    def __init__(self, checker: str,
                 profile: Optional[RuleProfile] = None,
                 deviations: Optional[DeviationIndex] = None) -> None:
        self.checker = checker
        self.profile = profile
        self.deviations = deviations

    def route(self, report: "CheckerReport", finding: Finding) -> bool:
        """File ``finding`` into ``report``; True when it was reported.

        Disabled rules drop the finding entirely; a matching justified
        deviation moves it to :attr:`CheckerReport.suppressed` (counted
        under the ``deviations`` stat); severity overrides rewrite it in
        place.
        """
        if self.profile is not None:
            if not self.profile.enabled(finding.rule):
                return False
            severity = self.profile.severity_for(finding.rule,
                                                 finding.severity)
            if severity is not finding.severity:
                finding = replace(finding, severity=severity)
        if self.deviations is not None and self.deviations.suppressing(
                finding.rule, finding.filename, finding.line):
            report.suppressed.append(finding)
            report.stats["deviations"] = \
                report.stats.get("deviations", 0) + 1
            return False
        report.findings.append(finding)
        return True


@dataclass(frozen=True)
class CheckerCrash:
    """One contained checker fault: what crashed, where, and how.

    Plain strings only, so crash records survive process-pool result
    queues, the result cache, and JSON serialization unchanged.

    Attributes:
        checker: name of the crashed checker (or ``"parse"`` for a
            parser-internal fault).
        stage: the call that raised — ``"check_unit"``,
            ``"check_project"``, ``"finalize"``, or ``"parse"``.
        exc_type: qualified exception class name.
        message: ``str(exception)``.
        path: file being processed when known, else ``""``.
        traceback: the formatted traceback, for the degradation report.
    """

    checker: str
    stage: str
    exc_type: str
    message: str
    path: str = ""
    traceback: str = ""

    def describe(self) -> str:
        where = f" on {self.path}" if self.path else ""
        return (f"checker {self.checker!r} crashed in {self.stage}"
                f"{where}: {self.exc_type}: {self.message}")


def make_crash(checker: str, stage: str, error: BaseException,
               path: str = "") -> CheckerCrash:
    """A :class:`CheckerCrash` record for a just-caught exception."""
    return CheckerCrash(
        checker=checker,
        stage=stage,
        exc_type=type(error).__name__,
        message=str(error),
        path=path,
        traceback="".join(traceback_module.format_exception(
            type(error), error, error.__traceback__)),
    )


@dataclass
class CheckerReport:
    """The outcome of running one checker over one or more units."""

    checker: str
    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    #: Findings reclassified by a justified ``DEVIATION(...)`` comment;
    #: kept out of :attr:`findings` but reported separately.
    suppressed: List[Finding] = field(default_factory=list)
    #: Contained faults this checker hit; a non-empty list marks the
    #: owning assessment as degraded.
    crashes: List[CheckerCrash] = field(default_factory=list)
    #: Routing context, or ``None`` for the direct (default) path.
    rules: Optional[RuleView] = field(default=None, repr=False,
                                      compare=False)

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    def count_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def emit(self, finding: Finding) -> bool:
        """Report ``finding``; True when it landed in :attr:`findings`.

        Checkers gate sibling counters on the return value so disabled
        or deviated findings vanish from the evidence statistics too.
        """
        if self.rules is None:
            self.findings.append(finding)
            return True
        return self.rules.route(self, finding)

    def merge(self, other: "CheckerReport") -> None:
        """Fold another report of the same checker into this one.

        Statistics are summed; derived ratios must be recomputed by the
        owning checker afterwards.
        """
        if other.checker != self.checker:
            raise ValueError(
                f"cannot merge report of {other.checker!r} into "
                f"{self.checker!r}")
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.crashes.extend(other.crashes)
        for key, value in other.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value

    def record_crash(self, crash: CheckerCrash) -> None:
        """Attach a contained fault: crash record plus a
        :data:`~repro.rules.CHECKER_CRASH` finding, bypassing profile
        routing so a degraded run can never silence its own evidence."""
        self.crashes.append(crash)
        self.findings.append(Finding(
            rule=CHECKER_CRASH,
            message=crash.describe(),
            filename=crash.path or "<internal>",
            severity=Severity.CRITICAL,
        ))


def crash_report(checker: str, crash: CheckerCrash) -> CheckerReport:
    """A fresh report carrying nothing but one contained crash."""
    report = CheckerReport(checker=checker)
    report.record_crash(crash)
    return report


class Checker(abc.ABC):
    """Base class for all static checkers.

    Subclasses implement :meth:`check_unit`; project-level checkers that
    need cross-file information (call graphs, include graphs) additionally
    override :meth:`check_project`.
    """

    #: Stable checker name, used as the report key.
    name: str = "checker"

    #: Cache-invalidation tag: bump whenever the checker's output for an
    #: unchanged unit can change (new rules, changed heuristics).
    version: str = "1"

    #: Active rule profile; ``None`` (the default) reports every
    #: registered rule at its default severity.  The pipeline assigns
    #: :attr:`PipelineConfig.rules` here before checking starts.
    profile: Optional[RuleProfile] = None

    #: Exactly one checker flags deviations naming unregistered rules
    #: (they have no owner, so per-owner flagging cannot reach them).
    audits_unknown_deviations: bool = False

    @abc.abstractmethod
    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        """Analyze one translation unit."""

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> bool:
        """Register this checker's interests on a fused ``sweep``.

        Called by :func:`repro.engine.driver.fused_unit_bundle` with a
        fresh ``report`` (from :meth:`new_report`) that the registered
        handlers emit into.  Return True when registered; the default
        False sends the checker down the legacy :meth:`check_unit`
        fallback, so external checkers keep working unchanged.

        The contract is byte-identical output: the handlers must emit
        exactly what :meth:`check_unit` emits, in the same order (the
        sweep's phase ordering — see :class:`~repro.engine.interests.
        UnitSweep` — plus buffering where the legacy order demands it).
        """
        return False

    def finish_from_units(self, units: List[TranslationUnit],
                          unit_reports: List[CheckerReport]
                          ) -> CheckerReport:
        """Assemble the project report from per-unit reports.

        ``unit_reports`` are this checker's per-unit reports in unit
        order — produced by :meth:`check_unit` or the fused engine, and
        possibly replayed from the result cache.  The default merge +
        :meth:`finalize` mirrors the base :meth:`check_project`; a
        checker with extra project-level work (e.g. unit design's
        call-graph recursion pass) overrides this so the pipeline can
        still distribute and cache its per-unit portion.

        In the pipeline, ``units`` are token-free :class:`~repro.lang.
        cppmodel.UnitSummary` objects, as are the units a project-level
        :meth:`check_project` override receives: the tokens are gone
        once the per-file pass has swept them.
        """
        report = CheckerReport(checker=self.name)
        for unit_report in unit_reports:
            report.merge(unit_report)
        self.finalize(report)
        return report

    def rules(self):
        """The :class:`~repro.rules.Rule` records this checker emits."""
        return REGISTRY.rules_for(self.name)

    def new_report(self, units: Iterable[TranslationUnit] = (),
                   flag_deviations: bool = True) -> CheckerReport:
        """A report wired to the rules layer for checking ``units``.

        With no profile and no ``DEVIATION(...)`` comments in ``units``
        this returns a bare report (no :class:`RuleView`), keeping the
        default path identical to the pre-rules behavior.  Otherwise the
        report routes findings through the view, and — unless
        ``flag_deviations`` is off, as in project-level reports whose
        per-unit reports already did it — malformed deviations owned by
        this checker are emitted as findings up front.
        """
        deviations: Optional[DeviationIndex] = None
        for unit in units:
            index = unit.deviations
            if index:
                if deviations is None:
                    deviations = DeviationIndex()
                deviations.extend(index)
        report = CheckerReport(checker=self.name)
        if self.profile is None and deviations is None:
            return report
        report.rules = RuleView(self.name, self.profile, deviations)
        if deviations is not None and flag_deviations:
            self._flag_malformed_deviations(deviations, report)
        return report

    def _flag_malformed_deviations(self, deviations: DeviationIndex,
                                   report: CheckerReport) -> None:
        """Report this checker's unjustified or unknown-rule deviations."""
        for deviation in deviations:
            owner = REGISTRY.checker_of(deviation.rule)
            if owner == self.name and not deviation.rationale:
                rule = REGISTRY.get(MISSING_RATIONALE)
                report.emit(Finding(
                    rule=MISSING_RATIONALE,
                    message=(f"deviation from {deviation.rule} states "
                             f"no rationale"),
                    filename=deviation.filename,
                    line=deviation.line,
                    severity=rule.severity,
                ))
            elif not owner and self.audits_unknown_deviations:
                rule = REGISTRY.get(UNKNOWN_RULE)
                report.emit(Finding(
                    rule=UNKNOWN_RULE,
                    message=(f"deviation names unregistered rule "
                             f"{deviation.rule!r}"),
                    filename=deviation.filename,
                    line=deviation.line,
                    severity=rule.severity,
                ))

    def fingerprint(self) -> str:
        """Key material for the per-unit result cache.

        Covers everything that can change this checker's per-unit
        output: the implementation identity, the :attr:`version` tag,
        a ``config`` dataclass's deterministic ``repr`` when present,
        and — when a rule profile is active — how the profile alters
        this checker's rule resolution.  A profile that leaves this
        checker's rules (and the deviation process rules) at their
        defaults contributes nothing, so unaffected cache entries
        survive profile changes targeting other checkers.
        """
        config = getattr(self, "config", None)
        suffix = f"/{config!r}" if config is not None else ""
        if self.profile is not None:
            tag = self.profile.fingerprint_for(
                list(REGISTRY.rules_for(self.name)) + list(DEVIATION_RULES))
            if tag:
                suffix += f"@rules:{tag}"
        return (f"{type(self).__module__}.{type(self).__qualname__}"
                f":{self.version}{suffix}")

    def for_paths(self, paths: Iterable[str]) -> "Checker":
        """A checker equivalent to ``self`` for checking exactly the
        units of ``paths``.

        Stateless checkers (the default) return ``self``.  Checkers
        holding per-file state (:class:`~repro.checkers.style.
        StyleChecker`'s registered sources) override this to prune that
        state, so process-pool tasks ship only their own chunk's data.
        """
        return self

    def check_project(self,
                      units: Iterable[TranslationUnit]) -> CheckerReport:
        """Analyze a set of translation units.

        The default implementation merges per-unit reports and then calls
        :meth:`finalize` so ratio statistics can be recomputed from the
        summed counters.
        """
        report = CheckerReport(checker=self.name)
        for unit in units:
            report.merge(self.check_unit(unit))
        self.finalize(report)
        return report

    def finalize(self, report: CheckerReport) -> None:
        """Recompute derived statistics after merging; default no-op."""

    @staticmethod
    def ratio(numerator: float, denominator: float) -> float:
        """A safe ratio: 0.0 when the denominator is zero."""
        if denominator == 0:
            return 0.0
        return numerator / denominator


def require_unique_checker(checker: Checker,
                           reports: Dict[str, CheckerReport]) -> None:
    """Reject a checker whose name already has a report.

    Two checkers sharing a ``name`` would silently shadow each other's
    report (and the evidence derived from it), so every checker-running
    loop calls this before filing a report.
    """
    if checker.name in reports:
        raise ValueError(
            f"duplicate checker name {checker.name!r}: its report "
            f"would silently overwrite an earlier checker's")


def run_checkers(checkers: Iterable[Checker],
                 units: Iterable[TranslationUnit],
                 tracer=None,
                 strict: bool = False,
                 log=None,
                 ) -> Dict[str, CheckerReport]:
    """Run several checkers over the same units; returns name -> report.

    Duplicate checker names are a :class:`ValueError` (see
    :func:`require_unique_checker`).

    A checker that raises a non-:class:`~repro.errors.ReproError` is
    *contained*: the crash becomes a :class:`CheckerCrash` record plus a
    ``internal.checker_crash`` finding in that checker's report, and the
    remaining checkers still run.  ``strict=True`` restores the old
    abort-on-first-crash behavior (the original exception propagates).

    Args:
        tracer: optional :class:`~repro.obs.Tracer`; each checker gets a
            ``checker`` span with its finding count, and findings are
            counted under ``checker.findings{checker=...}``.
        strict: re-raise checker crashes instead of containing them.
        log: optional :class:`~repro.obs.EventLog`; contained crashes
            are logged as ``checker.crash`` events.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    log = log if log is not None else NULL_LOG
    units = list(units)
    reports: Dict[str, CheckerReport] = {}
    for checker in checkers:
        require_unique_checker(checker, reports)
        with tracer.span("checker", name=checker.name) as span:
            try:
                report = checker.check_project(units)
            except ReproError:
                raise
            except Exception as error:
                if strict:
                    raise
                log.error("checker.crash", checker=checker.name,
                          stage="check_project",
                          error=f"{type(error).__name__}: {error}")
                report = crash_report(checker.name, make_crash(
                    checker.name, "check_project", error))
                tracer.metrics.counter("pipeline.checker_crashes").inc()
                span.set("crashed", 1)
            span.set("findings", report.finding_count)
        tracer.metrics.counter("checker.findings",
                               checker=checker.name).inc(
            report.finding_count)
        reports[checker.name] = report
    return reports


def enclosing_function_name(unit: TranslationUnit, line: int) -> str:
    """Qualified name of the innermost function containing ``line``.

    Backed by the memoized per-line index
    (:func:`repro.engine.index.function_line_index`): the first call on
    a unit flattens its function intervals, every further call is a
    list access — the legacy per-call function scan made this O(units ×
    findings × functions) across a run.
    """
    return function_line_index(unit).lookup(line)
