"""Fixture corpus for the cache-epoch checker.

Each rule gets the four-way treatment: a seeded violation is flagged,
the corrected version passes, an inline suppression silences it, and a
baseline entry grandfathers it.  The final tests re-introduce the
PR-10 staleness bug (an equal-size in-place update that leaves the
row-count unchanged, so count-keyed caches never notice) and prove the
shipped mutable-table classes satisfy the discipline.
"""

from __future__ import annotations

import json

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


class TestCacheEpochRule:
    def test_flags_append_without_bump(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def add(self, row):
            self.rows.append(row)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]
        assert "_view_cache" in result.findings[0].message

    def test_passes_append_with_bump(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def add(self, row):
            self.rows.append(row)
            self._version += 1
    """,
            CHECKERS,
        )
        assert result.clean

    def test_flags_equal_size_rebind_without_bump(self, analyze):
        # The PR-10 staleness shape: rewriting rows in place keeps
        # len(self.rows) identical, so a row-count cache guard never
        # fires — only an epoch bump invalidates the memoised views.
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def update_rows(self, rewrite):
            self.rows = [rewrite(row) for row in self.rows]
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]

    def test_passes_rebind_with_invalidate_call(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def invalidate_caches(self):
            self._version += 1
            self._view_cache = None

        def update_rows(self, rewrite):
            self.rows = [rewrite(row) for row in self.rows]
            self.invalidate_caches()
    """,
            CHECKERS,
        )
        assert result.clean

    def test_flags_subscript_store_and_clear(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def patch(self, i, row):
            self.rows[i] = row

        def wipe(self):
            self.rows.clear()
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch", "cache-epoch"]

    def test_tuples_storage_is_covered(self, analyze):
        result = analyze(
            """
    class Relation:
        def __init__(self):
            self._tuples = {}
            self._version = 0
            self._index_cache = {}

        def add(self, values, mult):
            self._tuples[values] = mult
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]

    def test_cacheless_class_is_ignored(self, analyze):
        # A plain row container owes nobody an epoch.
        result = analyze(
            """
    class Bag:
        def __init__(self):
            self.rows = []

        def add(self, row):
            self.rows.append(row)
    """,
            CHECKERS,
        )
        assert result.clean

    def test_init_family_is_exempt(self, analyze):
        result = analyze(CACHE_CLASS_HEADER, CHECKERS)
        assert result.clean

    def test_locked_helper_is_exempt(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def _add_locked(self, row):
            self.rows.append(row)
    """,
            CHECKERS,
        )
        assert result.clean

    def test_suppression_silences_and_is_marked_used(self, analyze):
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def add(self, row):
            self.rows.append(row)  # repro: allow(cache-epoch)
    """,
            CHECKERS,
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["cache-epoch"]

    def test_baseline_grandfathers_finding(self, analyze, tmp_path):
        source = CACHE_CLASS_HEADER + """
        def add(self, row):
            self.rows.append(row)
    """
        flagged = analyze(source, CHECKERS)
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
                            "why": "fixture: grandfathered on purpose",
                        }
                    ]
                }
            )
        )
        result = analyze(source, CHECKERS, baseline=str(baseline_path))
        assert result.clean
        assert [f.rule_id for f in result.baselined] == ["cache-epoch"]


FACTS_CLASS_HEADER = CACHE_CLASS_HEADER + """\
            self._facts = (0, Facts())
"""


class TestMaintainedFactsRule:
    """A mutator may maintain-and-re-stamp the facts or leave the stamp
    stale — never re-stamp what it did not maintain."""

    def test_flags_restamp_without_maintaining(self, analyze):
        result = analyze(
            FACTS_CLASS_HEADER
            + """
        def add(self, row):
            facts = self._facts
            self.rows.append(row)
            self._version += 1
            self._facts = (self._version, facts[1])
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]
        assert "without maintaining" in result.findings[0].message

    def test_passes_maintain_then_restamp(self, analyze):
        result = analyze(
            FACTS_CLASS_HEADER
            + """
        def add(self, row):
            facts = self._facts
            self.rows.append(row)
            self._version += 1
            facts[1].count_row(row, 1)
            self._facts = (self._version, facts[1])
    """,
            CHECKERS,
        )
        assert result.clean

    def test_passes_stale_stamp(self, analyze):
        # Bumping the epoch alone (or dropping the entry) leaves the facts
        # stale; readers reject the stamp and recount.
        result = analyze(
            FACTS_CLASS_HEADER
            + """
        def add(self, row):
            self.rows.append(row)
            self._version += 1

        def wipe(self):
            self.rows.clear()
            self._version += 1
            self._facts = None
    """,
            CHECKERS,
        )
        assert result.clean

    def test_lazy_recount_is_not_a_mutator(self, analyze):
        result = analyze(
            FACTS_CLASS_HEADER
            + """
        def facts(self):
            self._facts = (self._version, Facts(self.rows))
            return self._facts[1]
    """,
            CHECKERS,
        )
        assert result.clean



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

    def test_store_without_any_bump_is_not_this_rules_business(self, analyze):
        # No cache attribute, no bump: nothing is stamped, nothing is owed.
        result = analyze(
            REGISTRY_HEADER
            + """
        def forget(self, name):
            self._distributions.pop(name, None)
    """,
            CHECKERS,
        )
        assert result.clean

    def test_suppression_silences_the_order_finding(self, analyze):
        result = analyze(
            REGISTRY_HEADER
            + """
        def reassign(self, name, distribution):
            self._version += 1
            self._distributions[name] = distribution  # repro: allow(cache-epoch)
    """,
            CHECKERS,
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["cache-epoch"]


class TestStampCompareRule:
    """Whether a kept value is still valid is decided in ``repro/cache.py``
    alone.  The flagged fixtures are the four protocols PRs 13–20 wrote
    by hand, in miniature."""

    def test_flags_a_record_compared_by_hand(self, analyze):
        # query/executor.py's _AnswerSlot + _stamped.
        result = analyze(
            """
    def answer(slot, db, names):
        tables = [db.tables.get(name) for name in names]
        versions = [table.epoch for table in tables]
        record = slot.record
        if record is not None and record[2] == versions:
            return record[3]
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-stamp"]
        assert "record[2]" in result.findings[0].message

    def test_flags_a_memo_compared_before_and_after(self, analyze):
        # query/tractability.py's independence_record.
        result = analyze(
            """
    def independent(db):
        while True:
            epochs = db.table_epochs()
            memo = db.independence_memo
            if memo is not None and memo[0] == epochs:
                return memo
            answer = compute(db)
            if db.table_epochs() == epochs:
                memo = db.independence_memo = (epochs, answer)
                return memo
    """,
            CHECKERS,
        )
        # The re-read compares two fresh values; the reuse decision is the
        # finding.
        assert rule_ids(result) == ["cache-stamp"]
        assert "memo[0]" in result.findings[0].message

    def test_flags_a_stamp_attribute_compared_with_a_parameter(self, analyze):
        # server/statements.py's _Statement.stamp.
        result = analyze(
            """
    class Statements:
        def reply(self, key, options, stamp):
            statement = self.peek(key)
            if statement is None or statement.stamp != stamp:
                return None
            return statement.replies.get(options)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-stamp"]

    def test_flags_a_kept_epoch(self, analyze):
        # What CompilationCache does to reconcile — allowed in
        # repro/cache.py, where it lives, and nowhere else.
        result = analyze(
            """
    def kept(entry, registry):
        if entry.reconciled == registry.epoch:
            return entry.value
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-stamp"]

    def test_passes_capture_then_ask_the_slot(self, analyze):
        result = analyze(
            """
    def answer(prepared, db):
        stamp = capture_stamp(db, prepared.query.base_relations())
        rows = prepared.answer.get(stamp)
        if rows is None:
            rows = walk(prepared, db)
            prepared.answer.offer(stamp, rows)
        return rows
    """,
            CHECKERS,
        )
        assert result.clean

    def test_passes_a_guard_comparing_two_captures_whole(self, analyze):
        result = analyze(
            """
    def sweep(db, worlds):
        stamp = capture_stamp(db, registry=True)
        for world in worlds:
            if capture_stamp(db, registry=True) != stamp:
                raise RuntimeError("mutated")
            yield world
    """,
            CHECKERS,
        )
        assert result.clean

    def test_passes_the_per_object_version_compare(self, analyze):
        # PR 15's records: one int against the object's own counter.
        result = analyze(
            CACHE_CLASS_HEADER
            + """
        def views(self):
            version = self._version
            views = self._view_cache
            if views is not None and views[0] == self._version:
                return views
            self._view_cache = (version, build(self.rows))
            return self._view_cache
    """,
            CHECKERS,
        )
        assert result.clean

    def test_the_home_module_is_exempt(self, analyze):
        source = """
    class StampedSlot:
        def get(self, stamp):
            kept_at, value = self._record
            return value if self._record[0] == stamp else None
    """
        assert rule_ids(analyze(source, CHECKERS)) == ["cache-stamp"]
        assert analyze(source, CHECKERS, name="repro/cache.py").clean

    def test_suppression_silences_and_is_marked_used(self, analyze):
        result = analyze(
            """
    def kept(entry, registry):
        if entry.reconciled == registry.epoch:  # repro: allow(cache-stamp)
            return entry.value
    """,
            CHECKERS,
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["cache-stamp"]


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

    def test_reintroduced_countkeyed_staleness_is_flagged(self, analyze):
        # Strip the bump from a faithful miniature of PVCTable.update_rows
        # and the checker must notice.
        result = analyze(
            """
    class PVCTable:
        def __init__(self, schema):
            self.schema = schema
            self.rows = []
            self._version = 0
            self._view_cache = None

        def update_rows(self, predicate, rewrite):
            new_rows = []
            changed = 0
            for row in self.rows:
                if predicate(row):
                    new_rows.append(rewrite(row))
                    changed += 1
                else:
                    new_rows.append(row)
            self.rows = new_rows
            return changed
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["cache-epoch"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
