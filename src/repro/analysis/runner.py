"""The analysis driver: checkers × modules → findings.

:func:`analyze_paths` is both the CLI's engine and the pytest-importable
API.  It parses the tree once, runs every registered checker over every
module, and folds in ``parse-error`` findings for files that would not
parse, so one call yields the complete, final finding list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from repro.analysis.findings import Finding
from repro.analysis.source import SourceModule, collect_modules

__all__ = ["AnalysisResult", "Checker", "analyze_paths", "default_checkers"]


class Checker(Protocol):
    """A checker judges one module at a time.

    ``rules`` names every rule id the checker can emit — the CLI's
    ``--list-rules`` and the ``--rules`` selector are driven by it.
    """

    name: str
    rules: tuple[str, ...]

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        ...


@dataclass
class AnalysisResult:
    """The outcome of one analysis run."""

    findings: list[Finding]
    files_scanned: int
    wall_seconds: float
    checkers: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "wall_seconds": self.wall_seconds,
            "checkers": list(self.checkers),
            "counts": self.by_rule(),
            "findings": [finding.to_json() for finding in self.findings],
        }


def default_checkers() -> list[Checker]:
    """Fresh instances of every registered checker."""
    from repro.analysis.checkers import all_checkers

    return all_checkers()


def analyze_paths(
    paths: Sequence[str],
    *,
    checkers: Sequence[Checker] | None = None,
    rules: Sequence[str] | None = None,
) -> AnalysisResult:
    """Run the suite over ``paths`` and return the final findings.

    ``rules`` restricts reporting to the named rule ids.
    """
    started = time.perf_counter()
    if checkers is None:
        checkers = default_checkers()
    modules, findings = collect_modules(paths)
    for checker in checkers:
        for module in modules:
            findings.extend(checker.check_module(module))
    if rules is not None:
        wanted = set(rules)
        findings = [finding for finding in findings if finding.rule_id in wanted]
    return AnalysisResult(
        findings=sorted(findings),
        files_scanned=len(modules),
        wall_seconds=time.perf_counter() - started,
        checkers=tuple(checker.name for checker in checkers),
    )
