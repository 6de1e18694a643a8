"""Text and JSON reporters with CI-friendly exit codes.

Exit code contract: ``0`` — clean; ``1`` — at least one finding; ``2``
— the analyzer itself could not run (bad usage).
"""

from __future__ import annotations

import json
import sys
from typing import TextIO

from repro.analysis.runner import AnalysisResult

__all__ = ["render_text", "render_json", "report"]


def render_text(result: AnalysisResult) -> str:
    lines = [finding.render() for finding in result.findings]
    counts = result.by_rule()
    summary = (
        f"{len(result.findings)} finding(s)"
        f" ({', '.join(f'{rule}: {n}' for rule, n in counts.items())})"
        if counts
        else "clean"
    )
    lines.append(
        f"repro.analysis: {summary} — {result.files_scanned} file(s), "
        f"{result.wall_seconds:.2f}s [{', '.join(result.checkers)}]"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    return json.dumps(result.to_json(), indent=2, sort_keys=False)


def report(
    result: AnalysisResult,
    format: str = "text",
    stream: TextIO | None = None,
    json_output: str | None = None,
) -> int:
    """Write the report; return the process exit code."""
    stream = sys.stdout if stream is None else stream
    if json_output is not None:
        with open(json_output, "w", encoding="utf-8") as handle:
            handle.write(render_json(result) + "\n")
    if format == "json":
        stream.write(render_json(result) + "\n")
    else:
        stream.write(render_text(result) + "\n")
    return result.exit_code()
