"""Tests for ``Session.explain`` — the step-I pipeline report."""

import pytest

from repro import connect
from repro.errors import QueryValidationError


def make_session():
    s = connect()
    items = s.table("items", ["name", "price", "cat"])
    items.insert(("inkjet", 99, 1), p=0.7)
    items.insert(("laser", 300, 1), p=0.5)
    cats = s.table("cats", ["cat_id", "label"])
    cats.insert((1, "printers"))
    return s


class TestExplain:
    def test_shows_logical_and_physical_sections(self):
        s = make_session()
        text = s.explain(
            "SELECT name, label FROM items, cats WHERE cat = cat_id"
        )
        assert "== logical plan ==" in text
        assert "== physical plan ==" in text
        assert "HashJoin" in text
        assert "Scan[items]" in text and "Scan[cats]" in text

    def test_reports_fired_rules(self):
        s = make_session()
        text = s.explain(
            "SELECT name FROM items WHERE price <= 100 AND price <= 100"
        )
        assert "rules fired:" in text
        assert "merge-selections" in text or "pushdown-projections" in text

    def test_optimize_false_skips_rules(self):
        s = make_session()
        text = s.explain("SELECT name FROM items", optimize=False)
        assert "rules fired: (none)" in text

    def test_accepts_builders_and_ast(self):
        s = make_session()
        builder = s.table("items").select("name")
        text = s.explain(builder)
        assert "Scan[items]" in text

    def test_explain_does_not_evaluate(self):
        s = make_session()
        # 10^6-row cross products would hang if explain executed the plan;
        # here we simply check explain leaves the tables untouched.
        before = {name: len(t) for name, t in s.tables.items()}
        s.explain("SELECT name, label FROM items, cats WHERE cat = cat_id")
        assert {name: len(t) for name, t in s.tables.items()} == before

    @pytest.mark.parametrize("format", ["assembly", "code"])
    def test_unknown_format_rejected(self, format):
        with pytest.raises(QueryValidationError, match="explain format"):
            make_session().explain("SELECT name FROM items", format=format)
