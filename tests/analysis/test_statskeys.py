"""Fixture corpus for the stats/fingerprint key lint."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.checkers.statskeys import StatsKeyChecker
from repro.analysis.runner import AnalysisContext
from repro.analysis.source import SourceModule

CHECKERS = [StatsKeyChecker()]
OPTIONS = {"statskeys_include_all": True}
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

DECLARED = """\
    DETERMINISTIC_STAT_KEYS = frozenset({"rows", "samples"})
    VOLATILE_STAT_KEYS = frozenset({"wall_seconds", "workers"})
"""

#: The declarations plus one writer of all four keys, so fixtures about
#: the other rules are not also ``stats-unwritten`` findings.
DECLARATIONS = DECLARED + """
    def _emit_all(elapsed):
        stats = {"rows": 0, "samples": 0, "wall_seconds": elapsed}
        stats["workers"] = 1
        return stats
"""


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


class TestUndeclaredKey:
    def test_flags_undeclared_subscript_write(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(stats):
        stats["surprise"] = 1
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-undeclared-key"]
        assert "'surprise'" in result.findings[0].message

    def test_passes_declared_keys(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(elapsed, result_rows):
        stats = {"wall_seconds": elapsed, "rows": len(result_rows)}
        stats["samples"] = 100
        stats.setdefault("workers", 1)
        return stats
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert result.clean

    def test_flags_dict_literal_key(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(elapsed):
        info = {"wall_seconds": elapsed, "mystery": 0}
        return info
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-undeclared-key"]

    def test_flags_dict_call_keyword(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run():
        run_stats = dict(rows=1, mystery=2)
        return run_stats
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-undeclared-key"]

    def test_flags_update_with_literal(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(stats):
        stats.update({"mystery": 1})
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-undeclared-key"]

    def test_attribute_mappings_are_tracked(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    class Engine:
        def run(self):
            self.stats = {"samples": 10, "mystery": True}
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-undeclared-key"]

    def test_loop_over_literal_tuple_resolves_keys(self, analyze):
        flagged = analyze(
            DECLARATIONS
            + """
    def merge(stats, extra):
        for key in ("rows", "mystery"):
            stats[key] = extra[key]
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(flagged) == ["stats-undeclared-key"]

        clean = analyze(
            DECLARATIONS
            + """
    def merge(stats, extra):
        for key in ("rows", "samples"):
            stats[key] = extra[key]
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert clean.clean


class TestUnwrittenKey:
    def test_flags_declared_key_nobody_writes(self, analyze):
        result = analyze(
            DECLARED
            + """
    def run(stats, elapsed):
        stats["rows"] = 1
        stats.update({"samples": 2})
        stats.setdefault("wall_seconds", elapsed)
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-unwritten"]
        finding = result.findings[0]
        assert "'workers'" in finding.message
        assert finding.line == 2  # reported where it is declared

    def test_passes_when_every_declared_key_is_written(self, analyze):
        result = analyze(
            DECLARED
            + """
    def run(stats, extra):
        for key in ("rows", "samples", "wall_seconds"):
            stats[key] = extra[key]
        info = {"workers": 1}
        return info
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert result.clean

    def test_redeclaring_a_dead_key_in_the_shipped_registry_is_flagged(self):
        # ``rows_changed`` sat in VOLATILE_STAT_KEYS for four PRs with no
        # writer anywhere; put it back and the whole-tree run must object.
        from repro.analysis.source import collect_modules

        registry = SRC_REPRO / "engine" / "stats.py"
        text = registry.read_text().replace(
            '"db_generation",', '"db_generation",\n    "rows_changed",'
        )
        modules, _ = collect_modules([str(SRC_REPRO)])
        modules = [
            SourceModule.parse(registry, text=text)
            if module.path.endswith("engine/stats.py")
            else module
            for module in modules
        ]
        findings = list(
            StatsKeyChecker().check_project(AnalysisContext(modules=modules))
        )
        assert [(f.rule_id, "'rows_changed'" in f.message) for f in findings] == [
            ("stats-unwritten", True)
        ]


class TestDynamicKey:
    def test_flags_computed_key(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(stats, name):
        stats[name + "_seconds"] = 1.0
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert rule_ids(result) == ["stats-dynamic-key"]


class TestScope:
    def test_untracked_mappings_stay_silent(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(cache):
        cache["anything"] = 1
        options = {"whatever": True}
        return options
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert result.clean

    def test_path_filter_skips_unscanned_trees(self, analyze):
        # Without statskeys_include_all, a module outside engine/codegen/
        # server is exempt even when it writes wild keys.
        result = analyze(
            DECLARATIONS
            + """
    def run(stats):
        stats["surprise"] = 1
    """,
            CHECKERS,
        )
        assert result.clean

    def test_no_declarations_means_no_lint(self, analyze):
        result = analyze(
            """
    def run(stats):
        stats["surprise"] = 1
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert result.clean


class TestHygiene:
    def test_suppression(self, analyze):
        result = analyze(
            DECLARATIONS
            + """
    def run(stats):
        stats["surprise"] = 1  # repro: allow(stats-undeclared-key)
    """,
            CHECKERS,
            options=OPTIONS,
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == [
            "stats-undeclared-key"
        ]

    def test_baseline(self, analyze, tmp_path):
        source = DECLARATIONS + """
    def run(stats):
        stats["surprise"] = 1
    """
        flagged = analyze(source, CHECKERS, options=OPTIONS)
        assert len(flagged.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "findings": [
                        {
                            "file": flagged.findings[0].file,
                            "rule": flagged.findings[0].rule_id,
                            "message": flagged.findings[0].message,
                            "why": "fixture",
                        }
                    ]
                }
            )
        )
        result = analyze(source, CHECKERS, options=OPTIONS, baseline=str(baseline_path))
        assert result.clean
        assert len(result.baselined) == 1


class TestVolatileOmissionRedetection:
    """Remove ``batched`` from the real declarations; the lint must fire.

    This reproduces the PR-8 bug class that motivated the rule: the
    Monte-Carlo engine records ``batched`` (whether the vectorised
    evaluator ran — a function of numpy availability), and before this
    PR the key was declared in neither set, so fingerprints diverged
    between the with/without-numpy CI legs.
    """

    REGISTRY = SRC_REPRO / "engine" / "stats.py"

    def _modules(self, registry_text: str) -> list[SourceModule]:
        montecarlo_path = SRC_REPRO / "engine" / "montecarlo.py"
        return [
            SourceModule.parse(self.REGISTRY, text=registry_text),
            SourceModule.parse(montecarlo_path),
        ]

    def test_omitting_batched_is_flagged(self):
        registry_text = self.REGISTRY.read_text()
        assert '"batched",' in registry_text
        broken = registry_text.replace('"batched",', "")
        context = AnalysisContext(modules=self._modules(broken))
        findings = list(StatsKeyChecker().check_project(context))
        batched = [f for f in findings if "'batched'" in f.message]
        assert batched, "removing 'batched' from VOLATILE_STAT_KEYS must trip the lint"
        assert all(f.rule_id == "stats-undeclared-key" for f in batched)
        assert any(f.file.endswith("montecarlo.py") for f in batched)

    def test_committed_declarations_are_complete(self):
        context = AnalysisContext(modules=self._modules(self.REGISTRY.read_text()))
        findings = list(StatsKeyChecker().check_project(context))
        # Two modules are not the tree: most keys have their writer elsewhere.
        assert [f for f in findings if f.rule_id != "stats-unwritten"] == []

    def test_fingerprint_sets_are_disjoint(self):
        from repro.engine.stats import (
            DETERMINISTIC_STAT_KEYS,
            VOLATILE_STAT_KEYS,
        )

        assert not (DETERMINISTIC_STAT_KEYS & VOLATILE_STAT_KEYS)
        assert "batched" in VOLATILE_STAT_KEYS


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
