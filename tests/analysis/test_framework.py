"""Framework-level behavior: findings, parse errors, reporters, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import Finding, analyze_paths
from repro.analysis.__main__ import main
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.report import render_json, render_text

CHECKERS = [LockDisciplineChecker()]

RACY = """\
import threading

class Counter:
    _shared_state_ = {"_lock": ("total",)}

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        self.total += 1
"""


def write_fixture(tmp_path, source=RACY, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestFindings:
    def test_findings_sort_by_location(self):
        a = Finding("a.py", 3, "rule-x", "m")
        b = Finding("a.py", 10, "rule-x", "m")
        c = Finding("b.py", 1, "rule-x", "m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_render_and_json(self):
        finding = Finding("a.py", 3, "rule-x", "watch out")
        assert finding.render() == "a.py:3: [rule-x] watch out"
        assert finding.to_json()["rule"] == "rule-x"


class TestParseErrors:
    def test_broken_file_becomes_parse_error_finding(self, tmp_path):
        good = write_fixture(tmp_path, "x = 1\n", name="good.py")
        bad = write_fixture(tmp_path, "def broken(:\n", name="bad.py")
        result = analyze_paths([str(tmp_path)], checkers=CHECKERS)
        assert [f.rule_id for f in result.findings] == ["parse-error"]
        assert result.findings[0].file == str(bad)
        assert result.files_scanned == 1  # the good file still parsed
        assert good.exists()


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path):
        path = write_fixture(tmp_path)
        result = analyze_paths([str(path)], checkers=CHECKERS)
        text = render_text(result)
        assert "race-unguarded-write" in text
        assert "1 finding(s)" in text
        assert result.exit_code() == 1

    def test_json_report_is_machine_readable(self, tmp_path):
        path = write_fixture(tmp_path)
        result = analyze_paths([str(path)], checkers=CHECKERS)
        payload = json.loads(render_json(result))
        assert payload["clean"] is False
        assert payload["counts"] == {"race-unguarded-write": 1}
        assert payload["findings"][0]["rule"] == "race-unguarded-write"


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_fixture(tmp_path, "x = 1\n")
        code = main([str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_fixture(tmp_path)
        code = main([str(tmp_path)])
        assert code == 1
        assert "race-unguarded-write" in capsys.readouterr().out

    def test_json_output_artifact(self, tmp_path, capsys):
        write_fixture(tmp_path)
        artifact = tmp_path / "findings.json"
        code = main([str(tmp_path), "--json-output", str(artifact)])
        assert code == 1
        payload = json.loads(artifact.read_text())
        assert payload["counts"] == {"race-unguarded-write": 1}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("race-unguarded-write", "cache-epoch", "parse-error"):
            assert rule in out

    def test_rules_filter(self, tmp_path, capsys):
        write_fixture(tmp_path)
        code = main([str(tmp_path), "--rules", "race-await-under-lock"])
        assert code == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
