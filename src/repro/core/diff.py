"""Assessment diffing: quantify what a remediation campaign achieved.

Compares two :class:`~repro.core.assessment.AssessmentResult` objects
(e.g. baseline vs. remediated codebase) at two levels:

* **verdicts** — :func:`diff_assessments` and :func:`gap_reduction`
  walk the requirement tables technique by technique, reporting
  verdict transitions and residual gaps — the evidence a safety case
  would attach to a remediation milestone;
* **findings** — :func:`finding_diff` reports which individual
  findings appeared or disappeared, and which rules they belong to.

Two user-facing surfaces consume this module:

* ``repro-assess --diff-baseline FILE`` diffs the current run's
  verdicts against a previous run's ``--json`` document (rehydrated
  through :func:`assessment_view_from_dict`);
* the ``repro-serve`` ``diff`` verb and ``--watch`` stream diff each
  fresh assessment against the daemon's in-memory previous one, at
  both levels.

The verdict level accepts anything shaped like an assessment — a live
:class:`~repro.core.assessment.AssessmentResult` or the lightweight
view rebuilt from JSON — because it only walks ``tables -> assessments
-> technique``.  The finding level needs two live results: a saved
``--json`` document carries per-checker counts, not findings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..errors import BaselineError
from ..iso26262.compliance import GapSeverity, Verdict
from .assessment import AssessmentResult

#: Ordering used to decide whether a transition is an improvement.
_VERDICT_RANK: Dict[Verdict, int] = {
    Verdict.NON_COMPLIANT: 0,
    Verdict.UNKNOWN: 1,
    Verdict.PARTIAL: 2,
    Verdict.NOT_APPLICABLE: 3,
    Verdict.COMPLIANT: 3,
}


@dataclass(frozen=True)
class VerdictTransition:
    """One technique's verdict movement between two assessments."""

    table_key: str
    technique_key: str
    title: str
    before: Verdict
    after: Verdict

    @property
    def improved(self) -> bool:
        return _VERDICT_RANK[self.after] > _VERDICT_RANK[self.before]

    @property
    def regressed(self) -> bool:
        return _VERDICT_RANK[self.after] < _VERDICT_RANK[self.before]

    @property
    def unchanged(self) -> bool:
        return self.before is self.after

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready shape (what the serve ``diff`` verb replies)."""
        return {
            "table": self.table_key,
            "technique": self.technique_key,
            "title": self.title,
            "before": self.before.value,
            "after": self.after.value,
            "direction": ("improved" if self.improved
                          else "regressed" if self.regressed
                          else "unchanged"),
        }


@dataclass
class AssessmentDiff:
    """The full comparison."""

    transitions: List[VerdictTransition]

    @property
    def improved(self) -> List[VerdictTransition]:
        return [entry for entry in self.transitions if entry.improved]

    @property
    def regressed(self) -> List[VerdictTransition]:
        return [entry for entry in self.transitions if entry.regressed]

    @property
    def residual_gaps(self) -> List[VerdictTransition]:
        return [entry for entry in self.transitions
                if entry.after in (Verdict.NON_COMPLIANT, Verdict.PARTIAL)]

    def render(self) -> str:
        lines = ["Assessment diff (baseline -> remediated)",
                 "=" * 60]
        for entry in self.transitions:
            if entry.unchanged:
                continue
            marker = "+" if entry.improved else "-"
            lines.append(f" {marker} {entry.title}: "
                         f"{entry.before.value} -> {entry.after.value}")
        lines.append("")
        lines.append(f"improved: {len(self.improved)}  "
                     f"regressed: {len(self.regressed)}  "
                     f"residual gaps: {len(self.residual_gaps)}")
        if self.residual_gaps:
            lines.append("residual (need deeper/research effort):")
            for entry in self.residual_gaps:
                lines.append(f"  - {entry.title} ({entry.after.value})")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rollup: transitions plus the summary counts."""
        return {
            "transitions": [entry.to_dict()
                            for entry in self.transitions
                            if not entry.unchanged],
            "improved": len(self.improved),
            "regressed": len(self.regressed),
            "residual_gaps": [entry.to_dict()
                              for entry in self.residual_gaps],
        }


def diff_assessments(before: AssessmentResult,
                     after: AssessmentResult) -> AssessmentDiff:
    """Compare two assessments over the same requirement tables.

    Either side may be a live result or a JSON-rehydrated view
    (:func:`assessment_view_from_dict`); only the
    ``tables -> assessments -> technique`` shape is consulted.
    """
    transitions: List[VerdictTransition] = []
    for table_key, before_table in before.tables.items():
        after_table = after.tables[table_key]
        for entry in before_table.assessments:
            after_entry = after_table.assessment(entry.technique.key)
            transitions.append(VerdictTransition(
                table_key=table_key,
                technique_key=entry.technique.key,
                title=entry.technique.title,
                before=entry.verdict,
                after=after_entry.verdict,
            ))
    return AssessmentDiff(transitions=transitions)


def gap_reduction(before: AssessmentResult,
                  after: AssessmentResult) -> Dict[str, int]:
    """Weighted-gap totals before/after (minor=1, major=2, critical=3).

    ``reduction`` is signed: negative means the gaps *grew*.
    """
    def weighted(result: AssessmentResult) -> int:
        total = 0
        for table in result.tables.values():
            for entry in table.assessments:
                if entry.gap is GapSeverity.MINOR:
                    total += 1
                elif entry.gap is GapSeverity.MAJOR:
                    total += 2
                elif entry.gap is GapSeverity.CRITICAL:
                    total += 3
        return total

    before_total = weighted(before)
    after_total = weighted(after)
    return {"before": before_total, "after": after_total,
            "reduction": before_total - after_total}


def _located_counts(result: AssessmentResult) -> Counter:
    """Multiset of ``(checker, located-string, rule)`` across reports."""
    counts: Counter = Counter()
    for name, report in result.reports.items():
        for finding in report.findings:
            counts[(name, finding.located(), finding.rule)] += 1
    return counts


def finding_diff(before: AssessmentResult,
                 after: AssessmentResult) -> Dict[str, Any]:
    """Findings that appeared (``new``) or disappeared (``fixed``).

    Findings are compared as multisets of their :meth:`~repro.checkers.
    base.Finding.located` strings — two identical findings on different
    lines of the same file are distinct, two byte-identical ones
    collapse — so an identical-rewrite touch produces an empty diff by
    construction.  ``rules_changed`` names every rule on either side.
    """
    before_counts = _located_counts(before)
    after_counts = _located_counts(after)
    new: List[str] = []
    fixed: List[str] = []
    rules_changed = set()
    for key, count in (after_counts - before_counts).items():
        _, located, rule = key
        new.extend([located] * count)
        rules_changed.add(rule)
    for key, count in (before_counts - after_counts).items():
        _, located, rule = key
        fixed.extend([located] * count)
        rules_changed.add(rule)
    return {"new": sorted(new), "fixed": sorted(fixed),
            "rules_changed": sorted(rules_changed)}


# ----------------------------------------------------------------------
# JSON rehydration: diff against a saved ``--json`` document


@dataclass(frozen=True)
class _TechniqueView:
    """Just enough of a technique for :func:`diff_assessments`."""

    key: str
    title: str


@dataclass(frozen=True)
class _EntryView:
    """One rehydrated technique assessment (verdict + gap)."""

    technique: _TechniqueView
    verdict: Verdict
    gap: GapSeverity


@dataclass
class _TableView:
    """One rehydrated table: ordered entries plus keyed lookup."""

    assessments: List[_EntryView] = field(default_factory=list)

    def assessment(self, technique_key: str) -> _EntryView:
        for entry in self.assessments:
            if entry.technique.key == technique_key:
                return entry
        raise KeyError(technique_key)


@dataclass
class AssessmentView:
    """An assessment rebuilt from its ``--json`` document.

    Carries exactly what :func:`diff_assessments` and
    :func:`gap_reduction` consume, so a finished run can be diffed
    against a historical document without re-running the baseline.
    """

    tables: Dict[str, _TableView] = field(default_factory=dict)


def assessment_view_from_dict(document: Dict) -> AssessmentView:
    """Rebuild the diffable view of a saved assessment document.

    Accepts the object ``repro-assess --json`` writes (the
    :meth:`~repro.core.assessment.AssessmentResult.to_dict` shape).

    Raises:
        BaselineError: when the document is not such an object —
            missing ``tables``, a technique without key/verdict, or a
            verdict/gap value this version does not know.
    """
    tables = document.get("tables") if isinstance(document, dict) else None
    if not isinstance(tables, dict) or not tables:
        raise BaselineError(
            "diff baseline is not an assessment document "
            "(expected the repro-assess --json shape with a "
            "'tables' object)")
    view = AssessmentView()
    for table_key, table in tables.items():
        techniques = (table.get("techniques")
                      if isinstance(table, dict) else None)
        if not isinstance(techniques, list):
            raise BaselineError(
                f"diff baseline table {table_key!r} has no "
                f"'techniques' list")
        entries: List[_EntryView] = []
        for technique in techniques:
            try:
                entries.append(_EntryView(
                    technique=_TechniqueView(
                        key=technique["key"],
                        title=technique.get("title", technique["key"])),
                    verdict=Verdict(technique["verdict"]),
                    gap=GapSeverity[technique.get("gap", "NONE")],
                ))
            except (KeyError, TypeError, ValueError) as error:
                raise BaselineError(
                    f"diff baseline table {table_key!r} holds a "
                    f"malformed technique entry: {error}")
        view.tables[table_key] = _TableView(assessments=entries)
    return view


def load_assessment_view(path: str) -> AssessmentView:
    """Load a ``--json`` document from disk as a diffable view.

    Raises:
        BaselineError: unreadable file, invalid JSON, or a document
            that is not an assessment (see
            :func:`assessment_view_from_dict`).
    """
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise BaselineError(f"cannot read diff baseline: {error}")
    except ValueError as error:
        raise BaselineError(
            f"diff baseline {path!r} is not valid JSON: {error}")
    return assessment_view_from_dict(document)
