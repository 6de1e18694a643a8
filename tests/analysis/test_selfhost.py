"""Self-hosting: the committed tree passes its own static analysis."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, default_checkers

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestSelfHost:
    def test_committed_tree_is_clean_via_api(self):
        result = analyze_paths([str(SRC_REPRO)])
        assert result.clean, "\n".join(f.render() for f in result.findings)
        assert result.files_scanned > 50

    def test_committed_tree_is_clean_via_cli(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC_REPRO)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "clean" in completed.stdout

    def test_cli_json_artifact_matches_api(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        artifact = tmp_path / "findings.json"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.analysis", str(SRC_REPRO),
                "--format", "json", "--json-output", str(artifact),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        payload = json.loads(artifact.read_text())
        assert payload["clean"] is True
        assert payload["findings"] == []

    def test_default_checkers_are_the_two_tier1_cannot_replace(self):
        names = {checker.name for checker in default_checkers()}
        assert names == {"locks", "epochs"}

    def test_shared_state_declarations_exist_where_promised(self):
        """The runtime classes holding shared state carry declarations,
        and nothing else declares any: no module-level shared state."""
        import ast

        owners = set()
        for path in SRC_REPRO.rglob("*.py"):
            tree = ast.parse(path.read_text())
            parents = {
                child: node
                for node in ast.walk(tree)
                for child in ast.iter_child_nodes(node)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_shared_state_"
                    for t in node.targets
                ):
                    owner = parents[node]
                    owners.add(
                        (
                            path.relative_to(SRC_REPRO).as_posix(),
                            getattr(owner, "name", None),
                        )
                    )
        assert owners == {
            ("cache.py", "BoundedLRU"),
            ("cache.py", "CompilationCache"),
            ("engine/base.py", "PlanCache"),
            ("server/app.py", "QueryServer"),
        }
        from repro.engine.base import CompilationCache, PlanCache
        from repro.server.app import QueryServer
        from repro.server.statements import StatementCache

        for owner in (CompilationCache, PlanCache, StatementCache):
            assert "_lock" in owner._shared_state_
        assert "_counters_lock" in QueryServer._shared_state_


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
