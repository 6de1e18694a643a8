"""Source-file model shared by every checker.

A :class:`SourceModule` owns the path and the parsed AST of one Python
file; :func:`collect_modules` parses a tree of them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding

__all__ = ["SourceModule", "collect_modules", "iter_python_files"]


@dataclass
class SourceModule:
    """One parsed Python file."""

    path: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: str | Path) -> "SourceModule":
        path = str(path)
        text = Path(path).read_text(encoding="utf-8")
        return cls(path, ast.parse(text, filename=path))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def collect_modules(
    paths: Iterable[str | Path],
) -> tuple[list[SourceModule], list[Finding]]:
    """Parse every Python file under ``paths``.

    Unparseable files become ``parse-error`` findings instead of
    aborting the run — the rest of the tree still gets checked.
    """
    modules: list[SourceModule] = []
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(SourceModule.parse(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            findings.append(
                Finding(
                    file=str(path),
                    line=line,
                    rule_id="parse-error",
                    message=f"cannot analyse file: {exc}",
                )
            )
    return modules, findings
