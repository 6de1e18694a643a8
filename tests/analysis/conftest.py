"""Shared helpers for the repro.analysis fixture corpus.

Each checker test writes a small fixture module to ``tmp_path`` and runs
the real analysis pipeline over it, so the tests prove the end-to-end
behavior a CI run sees, not just a checker method in isolation.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


@pytest.fixture
def analyze(tmp_path):
    """Write one fixture module and analyse it with the given checkers."""

    def run(source, checkers, name="fixture.py", **kwargs):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return analyze_paths([str(path)], checkers=checkers, **kwargs)

    return run
