"""Self-hosted static analysis for the repro codebase.

The suite is both a CLI (``python -m repro.analysis src/repro``) and a
pytest-importable API::

    from repro.analysis import analyze_paths
    result = analyze_paths(["src/repro"])
    assert result.clean, "\\n".join(f.render() for f in result.findings)

It keeps only the rules whose historical bugs no tier-1 test catches
(EXPERIMENTS.md, "Third verdict round: the analysis suite").  Two
checkers ride on a small framework (findings, reporters):

* ``locks`` — declared shared state is mutated only under its owning
  lock; no ``await`` under a held threading lock; ``*_locked`` helpers
  are called with a lock held.
* ``epochs`` — wherever an epoch is bumped, it is bumped after the
  change it stands for.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.runner import (
    AnalysisResult,
    Checker,
    analyze_paths,
    default_checkers,
)

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "analyze_paths",
    "default_checkers",
]
