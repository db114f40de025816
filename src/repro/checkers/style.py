"""Style-guide conformance — Table 1 item 7, Observation 8.

The paper: "For Apollo source code, we used a style guide tool to process
the code, and it verifies that the proper coding style is very well
achieved" (Apollo mandates the Google C++ style guide, enforced by
cpplint).  This checker implements the mechanically verifiable cpplint
subset relevant at ASIL D review time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.cppmodel import TranslationUnit
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity

RULES = REGISTRY.register_many("style", (
    Rule("SG.line_length", "Lines shall fit the configured length limit",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.tab", "Tabs shall not be used for whitespace",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.trailing_ws", "Lines shall carry no trailing whitespace",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.brace_own_line", "Opening braces end the previous line",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.indent", "Indentation follows the configured width",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.final_newline", "Files shall end with a newline",
         Severity.INFO, table="modeling_coding", topic="style_guides"),
    Rule("SG.header_guard", "Headers shall have an include guard",
         Severity.MINOR, table="modeling_coding", topic="style_guides"),
))


@dataclass(frozen=True)
class StyleConfig:
    """Tunable limits; defaults match Google C++ style / cpplint."""

    max_line_length: int = 80
    indent_width: int = 2
    require_header_guard: bool = True


class StyleChecker(Checker):
    """Line-level and file-level Google-style checks.

    Needs the original source text, so callers must register sources with
    :meth:`add_source` (the assessment pipeline does this automatically).
    """

    name = "style"

    def __init__(self, config: StyleConfig = StyleConfig()) -> None:
        self.config = config
        self._sources = {}

    def add_source(self, filename: str, source: str) -> None:
        """Register the raw text of a file before checking its unit."""
        self._sources[filename] = source

    def for_paths(self, paths) -> "StyleChecker":
        """A copy carrying only the sources of ``paths`` (see base)."""
        pruned = StyleChecker(self.config)
        pruned.profile = self.profile
        for path in paths:
            source = self._sources.get(path)
            if source is not None:
                pruned.add_source(path, source)
        return pruned

    def check_unit(self, unit: TranslationUnit) -> CheckerReport:
        report = self.new_report((unit,))
        self._check_into(unit, report)
        return report

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> bool:
        """Style checks read the registered raw source, not the token
        stream, so the battery runs whole from the end hook."""
        sweep.at_end(lambda: self._check_into(unit, report))
        return True

    def _check_into(self, unit: TranslationUnit,
                    report: CheckerReport) -> None:
        source = self._sources.get(unit.filename)
        if source is None:
            # Reconstruct approximate lines from tokens is lossy; without
            # text we can only run token-level checks.
            source = ""
        lines = source.split("\n") if source else []
        violations = 0
        previous = ""
        for line_number, line in enumerate(lines, start=1):
            violations += self._check_line(unit, report, line_number, line,
                                           previous)
            if line.strip():
                previous = line
        if source and not source.endswith("\n"):
            if report.emit(Finding(
                    rule="SG.final_newline",
                    message="file does not end with a newline",
                    filename=unit.filename,
                    line=len(lines),
                    severity=Severity.INFO,
            )):
                violations += 1
        if (self.config.require_header_guard
                and unit.filename.endswith((".h", ".hpp", ".cuh"))
                and source and not self._has_header_guard(source)):
            if report.emit(Finding(
                    rule="SG.header_guard",
                    message="header lacks an include guard or #pragma once",
                    filename=unit.filename,
                    line=1,
                    severity=Severity.MINOR,
            )):
                violations += 1
        report.stats.update({
            "style_violations": violations,
            "checked_lines": len(lines),
        })
        self.finalize(report)

    def finalize(self, report: CheckerReport) -> None:
        lines = report.stats.get("checked_lines", 0)
        violations = report.stats.get("style_violations", 0)
        report.stats["violations_per_kloc"] = (
            0.0 if lines == 0 else 1000.0 * violations / lines)

    # ------------------------------------------------------------------

    def _check_line(self, unit: TranslationUnit, report: CheckerReport,
                    line_number: int, line: str, previous: str = "") -> int:
        violations = 0

        def flag(rule: str, message: str,
                 severity: Severity = Severity.INFO) -> None:
            nonlocal violations
            if report.emit(Finding(
                    rule=rule, message=message, filename=unit.filename,
                    line=line_number, severity=severity)):
                violations += 1

        if len(line) > self.config.max_line_length:
            flag("SG.line_length",
                 f"line is {len(line)} characters "
                 f"(limit {self.config.max_line_length})")
        if "\t" in line:
            flag("SG.tab", "tab character used for whitespace")
        if line != line.rstrip():
            flag("SG.trailing_ws", "trailing whitespace")
        stripped = line.strip()
        if stripped == "{":
            flag("SG.brace_own_line",
                 "opening brace should be at the end of the previous line")
        indent = len(line) - len(line.lstrip(" "))
        is_continuation = previous.rstrip().endswith(
            ("(", ",", "&&", "||", "+", "-", "*", "/", "="))
        if stripped and "\t" not in line and not is_continuation \
                and indent % self.config.indent_width != 0 \
                and not stripped.startswith(("*", "//", "public:",
                                             "private:", "protected:")):
            # Continuation lines (previous line left an expression or
            # argument list open) may align to the opening token; only
            # odd indents on fresh statements violate a 2-space standard.
            if indent % 2 != 0:
                flag("SG.indent",
                     f"indentation of {indent} is not a multiple of "
                     f"{self.config.indent_width}")
        return violations

    @staticmethod
    def _has_header_guard(source: str) -> bool:
        head = source[:2000]
        if "#pragma once" in head:
            return True
        return "#ifndef" in head and "#define" in head
