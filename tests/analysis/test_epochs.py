"""Fixture corpus for the epoch-order checker.

A seeded bump-before-store is flagged and the store-then-bump version
passes, for the registry's distributions and reassignment record and
for a table's rows — the table shapes are the ones no tier-1 test
catches.  The last tests prove the shipped classes keep the order.
"""

from __future__ import annotations

import pytest

from repro.analysis.checkers.epochs import CacheEpochChecker

CHECKERS = [CacheEpochChecker()]


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


CACHE_CLASS_HEADER = """\
    class Table:
        def __init__(self, rows):
            self.rows = list(rows)
            self._version = 0
            self._view_cache = None
"""


REGISTRY_HEADER = """\
    class Registry:
        def __init__(self):
            self._distributions = {}
            self._version = 0
"""


class TestAssignThenBumpRule:
    """The epoch is bumped after the change it stands for — in any class
    that keeps one, cache-bearing or not (the registry is not)."""

    def test_flags_bump_before_store(self, analyze):
        # VariableRegistry.reassign as it shipped until PR 20: a reader
        # between the two statements sees the new epoch with the old
        # distribution.
        result = analyze(
            REGISTRY_HEADER
            + """
        def reassign(self, name, distribution):
            self._version += 1
            self._distributions[name] = distribution
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]
        assert "after bumping the epoch" in result.findings[0].message

    def test_passes_store_then_bump(self, analyze):
        result = analyze(
            REGISTRY_HEADER
            + """
        def reassign(self, name, distribution):
            self._distributions[name] = distribution
            self._version += 1

        def declare(self, name, distribution):
            existing = self._distributions.get(name)
            self._distributions[name] = distribution
            if existing is None:
                self._version += 1
    """,
            CHECKERS,
        )
        assert result.clean

    def test_flags_bump_before_the_reassignment_record(self, analyze):
        # A cache reconciling between the two statements looks at the new
        # epoch, finds no name, and never looks at this epoch again.
        result = analyze(
            REGISTRY_HEADER
            + """
        def reassign(self, name, distribution):
            self._distributions[name] = distribution
            at = self._version + 1
            self._version = at
            self._reassigned[name] = at
            self._reassigned.move_to_end(name)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch", "cache-epoch"]
        assert "self._reassigned after bumping" in result.findings[0].message

    def test_passes_store_record_bump(self, analyze):
        # VariableRegistry.reassign as shipped.
        result = analyze(
            REGISTRY_HEADER
            + """
        def reassign(self, name, distribution):
            self._distributions[name] = distribution
            at = self._version + 1
            self._reassigned[name] = at
            self._reassigned.move_to_end(name)
            self._version = at
    """,
            CHECKERS,
        )
        assert result.clean

    def test_flags_conditional_bump_before_store(self, analyze):
        result = analyze(
            REGISTRY_HEADER
            + """
        def declare(self, name, distribution):
            if name not in self._distributions:
                self._version += 1
            self._distributions[name] = distribution
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]

    def test_flags_row_storage_mutated_after_bump_helper(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def invalidate_caches(self):
            self._version += 1
            self._view_cache = None

        def add(self, row):
            self.invalidate_caches()
            self.rows.append(row)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]

    def test_flags_bump_before_rebinding_rows(self, analyze):
        # PVCTable.update_rows with the bump moved up: tier-1 stays green.
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def update_rows(self, rewrite):
            new_rows = [rewrite(row) for row in self.rows]
            self._version += 1
            self._view_cache = None
            self.rows = new_rows
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]

    def test_locked_helpers_are_exempt(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def _add_locked(self, row):
            self._version += 1
            self.rows.append(row)
    """,
            CHECKERS,
        )
        assert result.clean

    def test_store_without_any_bump_is_not_this_rules_business(self, analyze):
        # No bump: nothing is stamped, nothing is owed.
        result = analyze(
            REGISTRY_HEADER
            + """
        def forget(self, name):
            self._distributions.pop(name, None)
    """,
            CHECKERS,
        )
        assert result.clean


class TestShippedClassesSatisfyTheDiscipline:
    def test_pvc_table_and_relation_are_clean(self, analyze):
        from pathlib import Path

        import repro.db.pvc_table as pvc_table
        import repro.db.relation as relation

        for module in (pvc_table, relation):
            source = Path(module.__file__).read_text(encoding="utf-8")
            result = analyze(source, CHECKERS)
            assert result.clean, result.findings

    def test_variable_registry_stores_then_bumps(self, analyze):
        from pathlib import Path

        import repro.prob.variables as variables

        source = Path(variables.__file__).read_text(encoding="utf-8")
        result = analyze(source, CHECKERS)
        assert result.clean, result.findings

    @pytest.mark.parametrize(
        "shipped, bump_first",
        [
            (  # declare
                "        self._distributions[name] = _pack(distribution)\n"
                "        self._version += 1\n",
                "        self._version += 1\n"
                "        self._distributions[name] = _pack(distribution)\n",
            ),
            (  # reassign
                "        self._distributions[name] = _pack(distribution)\n"
                "        at = self._version + 1\n",
                "        at = self._version + 1\n"
                "        self._version = at\n"
                "        self._distributions[name] = _pack(distribution)\n",
            ),
        ],
        ids=["declare", "reassign"],
    )
    def test_the_rule_reads_the_shipped_registrys_storage(
        self, analyze, shipped, bump_first
    ):
        """The shipped registry with a bump moved above its store must be
        flagged: renaming or re-shaping the storage would otherwise leave
        the rule silently watching nothing."""
        from pathlib import Path

        import repro.prob.variables as variables

        source = Path(variables.__file__).read_text(encoding="utf-8")
        assert source.count(shipped) == 1
        result = analyze(source.replace(shipped, bump_first), CHECKERS)
        assert "cache-epoch" in rule_ids(result)
        assert any(
            "self._distributions after bumping" in finding.message
            for finding in result.findings
        ), result.findings


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
