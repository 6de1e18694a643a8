"""The registered checkers.

``all_checkers`` is the single registration point: the CLI, the CI gate
and the self-hosting test all run exactly this list, so adding a checker
here is the whole wiring step.
"""

from __future__ import annotations

from repro.analysis.checkers.epochs import CacheEpochChecker
from repro.analysis.checkers.locks import LockDisciplineChecker

__all__ = ["CacheEpochChecker", "LockDisciplineChecker", "all_checkers"]


def all_checkers() -> list:
    return [LockDisciplineChecker(), CacheEpochChecker()]
