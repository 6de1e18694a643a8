"""Tests for the mini SQL front-end."""

import pytest

from repro.db.schema import Schema
from repro.errors import ParseError
from repro.query.ast import GroupAgg, Product, Project, Select
from repro.query.sql import bind_template, lift_literals, parse_sql, parse_template
from repro.query.validate import validate_query

CATALOG = {
    "R": Schema(["a", "b", "c"]),
    "S": Schema(["d", "e"]),
}


class TestBasicSelect:
    def test_projection(self):
        query = parse_sql("SELECT a, b FROM R")
        assert isinstance(query, Project)
        assert query.attributes == ("a", "b")

    def test_where(self):
        query = parse_sql("SELECT a FROM R WHERE b = 5")
        assert isinstance(query.child, Select)

    def test_string_literal(self):
        query = parse_sql("SELECT a FROM R WHERE b = 'M&S x'")
        atom = query.child.predicate.atoms()[0]
        assert atom.right.value == "M&S x"

    def test_join(self):
        query = parse_sql("SELECT a FROM R, S WHERE b = d")
        assert isinstance(query.child.child, Product)
        validate_query(query, CATALOG)

    def test_multiple_conditions(self):
        query = parse_sql("SELECT a FROM R WHERE b = 5 AND c <= 10")
        assert len(query.child.predicate.atoms()) == 2

    def test_keywords_case_insensitive(self):
        query = parse_sql("select a from R where b = 5")
        assert isinstance(query, Project)


class TestAggregates:
    def test_group_by(self):
        query = parse_sql("SELECT a, SUM(b) AS total FROM R GROUP BY a")
        assert isinstance(query, GroupAgg)
        assert query.groupby == ("a",)
        assert query.aggregations[0].output == "total"
        assert query.aggregations[0].monoid.name == "SUM"

    def test_implicit_group_by(self):
        query = parse_sql("SELECT a, MAX(b) AS m FROM R")
        assert query.groupby == ("a",)

    def test_count_star(self):
        query = parse_sql("SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        assert query.aggregations[0].attribute is None

    def test_global_aggregate(self):
        query = parse_sql("SELECT MIN(b) AS m FROM R")
        assert isinstance(query, GroupAgg)
        assert query.groupby == ()

    def test_default_output_name(self):
        query = parse_sql("SELECT MIN(b) FROM R")
        assert query.aggregations[0].output == "min_b"

    def test_group_by_mismatch_rejected(self):
        with pytest.raises(ParseError, match="must match"):
            parse_sql("SELECT a, SUM(b) AS t FROM R GROUP BY c")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(ParseError, match="without aggregates"):
            parse_sql("SELECT a FROM R GROUP BY a")


class TestScalarSubqueries:
    def test_example_3_shape(self):
        # SELECT A FROM R WHERE B = (SELECT MIN(C) FROM S)
        query = parse_sql("SELECT a FROM R WHERE b = (SELECT MIN(d) FROM S)")
        assert isinstance(query, Project)
        select = query.child
        assert isinstance(select, Select)
        assert isinstance(select.child, Product)
        inner = select.child.right
        assert isinstance(inner, GroupAgg)
        assert inner.groupby == ()

    def test_subquery_comparison_operator_preserved(self):
        query = parse_sql("SELECT a FROM R WHERE b <= (SELECT MAX(d) FROM S)")
        atom = query.child.predicate.atoms()[-1]
        assert atom.op.symbol == "<="

    def test_grouped_subquery_rejected(self):
        with pytest.raises(ParseError, match="ungrouped"):
            parse_sql(
                "SELECT a FROM R WHERE b = "
                "(SELECT d, MIN(e) AS m FROM S GROUP BY d)"
            )


class TestErrors:
    def test_trailing_tokens(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_sql("SELECT a FROM R extra")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a")

    def test_plain_alias_rejected(self):
        with pytest.raises(ParseError, match="aliasing"):
            parse_sql("SELECT a AS x FROM R")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM R WHERE b ~ 5")


class TestOneLiteralGrammar:
    """The statement cache lifts literals with the parser's own tokenizer,
    so whatever it keeps as one literal the parser reads as one value."""

    def test_a_doubled_quote_is_one_quote_inside_the_literal(self):
        query = parse_sql("SELECT a FROM R WHERE b = 'it''s'")
        assert query.child.predicate.atoms()[0].right.value == "it's"
        assert parse_sql("SELECT a FROM R WHERE b = ''''").child.predicate.atoms()[
            0
        ].right.value == "'"

    def test_spaces_inside_a_literal_survive(self):
        query = parse_sql("SELECT a FROM R WHERE b = 'x   y'")
        assert query.child.predicate.atoms()[0].right.value == "x   y"

    def test_an_unterminated_literal_is_still_an_error(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM R WHERE b = 'it''s")


class TestShapes:
    def test_lifting_reads_values_as_the_parser_does(self):
        shape, values = lift_literals(
            "SELECT a FROM R WHERE b >= 1.50 AND c = 'it''s' AND b <= 7"
        )
        assert shape == "SELECT a FROM R WHERE b >= ? AND c = ? AND b <= ?"
        assert values == (1.5, "it's", 7)
        assert [type(v) for v in values] == [float, str, int]

    def test_texts_differing_in_literals_share_a_shape(self):
        one = lift_literals("SELECT a FROM R WHERE b >= 1.50")
        two = lift_literals("select a from R where b >= 'x'")
        assert one[0] == two[0] and one[1] != two[1]

    def test_a_bound_template_equals_the_parsed_text(self):
        text = "SELECT a FROM R WHERE b = (SELECT MIN(d) FROM S WHERE e = 'q') AND c <= 2"
        template = parse_template(text)
        assert template != parse_sql(text)
        bound = bind_template(template, lift_literals(text)[1])
        assert bound == parse_sql(text)
        assert bound.shape == (template, ("q", 2))

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM R WHERE b = 5 AND c = 5",       # equal values
            "SELECT a FROM R WHERE b = 5 AND c = 5.0",     # equal across types
            "SELECT a FROM R WHERE 1 < 2 AND b = 3",       # folds to true
            "SELECT a FROM R WHERE 'x' = 'y'",             # folds to false
        ],
    )
    def test_a_text_whose_plan_reads_its_values_has_no_shape(self, text):
        bound = bind_template(parse_template(text), lift_literals(text)[1])
        assert bound == parse_sql(text)
        assert bound.shape is None
