"""A small SQL front-end for the query language ``Q`` (Example 3).

Supports the fragment the paper's examples and TPC-H queries use::

    SELECT A, SUM(B) AS total FROM R WHERE A = 'x' GROUP BY A
    SELECT A FROM R, S WHERE B = C AND D <= 5
    SELECT A FROM R WHERE B = (SELECT MIN(C) FROM S)

* comma-separated FROM lists become products (attribute names must be
  disjoint, as in the algebra);
* scalar subqueries must be ungrouped single aggregates; they translate to
  a product with ``$_∅`` and a θ-comparison, exactly like Example 3's
  ``π_A σ_{B=γ}(R × $_{∅;γ←MIN(C)}(S))``;
* aggregates in the SELECT list group by the plain attributes listed
  (explicit GROUP BY must match them).

This front-end is a convenience for the examples and tests; the algebra in
:mod:`repro.query.ast` is the primary API.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.query.ast import (
    AggSpec,
    GroupAgg,
    Product,
    Project,
    Query,
    Select,
    bind_query,
    relation,
)
from repro.query.predicates import Comparison, Literal, Param, attr, conj, lit

__all__ = ["parse_sql", "lift_literals", "parse_template", "bind_template"]

_AGG_NAMES = {"SUM", "COUNT", "MIN", "MAX", "PROD"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<op><=|>=|!=|<>|=|<|>)"
    r"|(?P<punct>[(),*]))"
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND"}
_RESERVED = _KEYWORDS | _AGG_NAMES

_LITERALS = ("number", "string")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "name" and value.upper() in _RESERVED:
            tokens.append(("keyword", value.upper(), match.start(kind)))
        else:
            tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    return tokens


def _literal_value(kind: str, text: str):
    """The value of a literal token: an int, a float, or the string
    between the quotes with each doubled ``''`` read as one quote."""
    if kind == "number":
        return float(text) if "." in text else int(text)
    return text[1:-1].replace("''", "'")


class _SqlParser:
    def __init__(self, text: str, lift: bool = False):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        #: The number of literals lifted so far, or ``None`` when every
        #: literal stays a value (see :func:`parse_template`).
        self.lifted = 0 if lift else None

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, None, len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.advance()
            return True
        return False

    def expect(self, value: str):
        kind, got, pos = self.advance()
        if got != value:
            raise ParseError(f"expected {value!r}, got {got!r}", pos)

    # -- grammar -------------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect("SELECT")
        items = self.parse_select_list()
        self.expect("FROM")
        tables = self.parse_from_list()
        predicates, subqueries = [], []
        if self.accept("WHERE"):
            predicates, subqueries = self.parse_condition()
        groupby = None
        if self.accept("GROUP"):
            self.expect("BY")
            groupby = self.parse_name_list()
        return self.build(items, tables, predicates, subqueries, groupby)

    def parse_select_list(self):
        items = [self.parse_select_item()]
        while self.accept(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self):
        kind, value, pos = self.advance()
        if kind == "keyword" and value in _AGG_NAMES:
            self.expect("(")
            if value == "COUNT" and self.accept("*"):
                source = None
            else:
                source = self.parse_attr_name()
            self.expect(")")
            output = f"{value.lower()}_{source or 'all'}"
            if self.accept("AS"):
                output = self.parse_attr_name()
            return ("agg", AggSpec.of(output, value, source))
        if kind == "name":
            target = value
            if self.accept("AS"):
                target = self.parse_attr_name()
                if target != value:
                    raise ParseError(
                        "column aliasing of plain attributes is not "
                        "supported; use the algebra's Extend operator",
                        pos,
                    )
            return ("attr", value)
        raise ParseError(f"unexpected token {value!r} in SELECT list", pos)

    def parse_from_list(self):
        tables = [self.parse_attr_name()]
        while self.accept(","):
            tables.append(self.parse_attr_name())
        return tables

    def parse_attr_name(self) -> str:
        kind, value, pos = self.advance()
        if kind != "name":
            raise ParseError(f"expected an identifier, got {value!r}", pos)
        return value

    def parse_name_list(self):
        names = [self.parse_attr_name()]
        while self.accept(","):
            names.append(self.parse_attr_name())
        return names

    def parse_condition(self):
        predicates: list[Comparison] = []
        subqueries: list[tuple] = []
        while True:
            self.parse_atom(predicates, subqueries)
            if not self.accept("AND"):
                break
        return predicates, subqueries

    def parse_atom(self, predicates, subqueries):
        left = self.parse_operand()
        kind, op, pos = self.advance()
        if kind != "op":
            raise ParseError(f"expected a comparison operator, got {op!r}", pos)
        if self.peek()[1] == "(" and self.tokens[self.index + 1][1] == "SELECT":
            self.expect("(")
            subquery = self.parse_query()
            self.expect(")")
            subqueries.append((left, op, subquery))
        else:
            right = self.parse_operand()
            predicates.append(Comparison(left, op, right))

    def parse_operand(self):
        kind, value, pos = self.advance()
        if kind == "name":
            return attr(value)
        if kind in _LITERALS:
            if self.lifted is None:
                return lit(_literal_value(kind, value))
            self.lifted += 1
            return lit(Param(self.lifted - 1))
        raise ParseError(f"unexpected operand {value!r}", pos)

    # -- translation -----------------------------------------------------------

    def build(self, items, tables, predicates, subqueries, groupby) -> Query:
        query: Query = relation(tables[0])
        for name in tables[1:]:
            query = Product(query, relation(name))

        # Scalar subqueries: product with $∅ aggregates plus θ-comparison.
        for left, op, subquery in subqueries:
            if not isinstance(subquery, GroupAgg) or subquery.groupby:
                raise ParseError(
                    "scalar subqueries must be single ungrouped aggregates"
                )
            query = Product(query, subquery)
            predicates.append(
                Comparison(left, op, attr(subquery.aggregations[0].output))
            )

        if predicates:
            query = Select(query, conj(*predicates))

        plain = [value for tag, value in items if tag == "attr"]
        aggs = [value for tag, value in items if tag == "agg"]
        if aggs:
            keys = groupby if groupby is not None else plain
            if set(plain) != set(keys):
                raise ParseError(
                    f"non-aggregated SELECT attributes {plain} must match "
                    f"GROUP BY {keys}"
                )
            # GroupAgg exposes group-by attributes first, then aggregates.
            return GroupAgg(query, tuple(keys), tuple(aggs))
        if groupby is not None:
            raise ParseError("GROUP BY without aggregates in SELECT")
        return Project(query, plain)


def parse_sql(text: str) -> Query:
    """Parse a SQL string into a ``Q``-algebra query.

    >>> q = parse_sql("SELECT shop, MAX(price) AS p FROM PS GROUP BY shop")
    >>> type(q).__name__
    'GroupAgg'
    """
    return _parse(_SqlParser(text))


def _parse(parser: _SqlParser) -> Query:
    query = parser.parse_query()
    kind, value, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"unexpected trailing token {value!r}", pos)
    return query


# -- statement shapes ------------------------------------------------------------
#
# Step I's rewriting and the tractability classes depend on a query's
# structure, never on its constants.  A statement's *shape* is its token
# stream with every literal lifted into a positional parameter: the texts
# of one shape parse to one template, and binding a text's literal values
# into that template's plan replaces parsing and planning the text.


def lift_literals(text: str) -> tuple[str, tuple]:
    """``(shape, values)``: the key of the statement's shape — its tokens
    with each literal replaced by ``?`` — and the literal values in text
    order, read as :func:`parse_sql` reads them.

    >>> lift_literals("SELECT a FROM R WHERE b >= 1.50 AND c = 'it''s'")
    ('SELECT a FROM R WHERE b >= ? AND c = ?', (1.5, "it's"))
    """
    parts, values = [], []
    for kind, value, _ in _tokenize(text):
        if kind in _LITERALS:
            parts.append("?")
            values.append(_literal_value(kind, value))
        else:
            parts.append(value)
    return " ".join(parts), tuple(values)


def parse_template(text: str) -> Query:
    """:func:`parse_sql` with the ``i``-th literal of ``text`` parsed as
    ``Literal(Param(i))``: the template every text of its shape binds."""
    return _parse(_SqlParser(text, lift=True))


def bind_template(template: Query, values: tuple) -> Query:
    """The query of the text whose literals are ``values``, built from its
    shape's ``template`` without parsing — equal to :func:`parse_sql` of
    that text.

    The query carries ``shape = (template, values)``, which tells the plan
    memo to plan the template once and bind each text into its plan
    (:meth:`~repro.engine.sprout.SproutEngine.prepare`), unless the plan
    would depend on the values.  Two rewrites read them: an atom comparing
    two literals folds to true or false (``fold-constants``, and the
    planner's constant verdicts), and two atoms that are equal merge into
    one (``merge-selections``, the join planner's atom pool) — which two
    atoms over distinct parameters become only when their values are
    equal.  Such a text is planned on its own, as any query is.
    """
    query = bind_query(template, values)
    if len(set(values)) == len(values) and not any(
        isinstance(atom.left, Literal) and isinstance(atom.right, Literal)
        for node in template.walk()
        if isinstance(node, Select)
        for atom in node.predicate.atoms()
    ):
        object.__setattr__(query, "shape", (template, values))
    return query
