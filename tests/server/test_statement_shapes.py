"""A never-seen text binds its shape's kept plan.

The statement cache lifts every literal of a text into a parameter; the
texts of one *shape* parse to one template, and the plan memo plans the
template once per row counts and binds each text's values into its plan.
Whatever a text is served from must be what a cold session makes of the
text itself: the same plan, structurally, and the same answer.
"""

from __future__ import annotations

import asyncio
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from benchmarks.perf import data
from repro.engine import base as engine_base
from repro.engine import sprout as sprout_module
from repro.errors import QueryValidationError, SchemaError
from repro.query import executor as executor_module
from repro.query.executor import prepare
from repro.query.sql import _tokenize, parse_sql
from repro.server import QueryServer, ServerConfig, StatementCache, demo_database, fingerprint
from repro.server import statements as statements_module
from repro.session import Session


def serve(scenario):
    async def main():
        server = QueryServer(demo_database(), ServerConfig(port=0))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def ask(server, sql, tenant="t") -> dict:
    return await server.execute({"sql": sql, "tenant": tenant})


def cold(server, sql) -> str:
    return fingerprint(Session(database=server.db).run(parse_sql(sql), engine="auto"))


class TestTextsAndShapes:
    def test_two_spellings_of_one_value_are_two_texts_sharing_one_plan(self):
        texts = ("SELECT kind FROM R WHERE value >= 1.50", "SELECT kind FROM R WHERE value >= 1.5")

        async def scenario(server):
            replies = [await ask(server, sql) for sql in texts]
            return replies, server.statements.stats(), server.plans.stats(), cold(server, texts[0])

        replies, statements, plans, oracle = serve(scenario)
        assert statements["entries"] == statements["misses"] == 2
        # The second text's bound query equals the first's: its plan lookup hits.
        assert (plans["misses"], plans["hits"]) == (1, 1)
        assert plans["entries"] == 2  # the shape's template and the one bound plan
        assert [fingerprint(r["result"]) for r in replies] == [oracle, oracle]

    def test_texts_of_one_shape_keep_their_own_replies(self):
        texts = ("SELECT kind FROM R WHERE kind = 'a'", "SELECT kind FROM R WHERE kind = 'b'")

        async def scenario(server):
            replies = {sql: [await ask(server, sql) for _ in range(3)] for sql in texts}
            return replies, {sql: cold(server, sql) for sql in texts}

        replies, oracle = serve(scenario)
        assert oracle[texts[0]] != oracle[texts[1]]
        for sql in texts:
            assert [r["reply_reused"] for r in replies[sql]] == [False, False, True]
            assert all(fingerprint(r["result"]) == oracle[sql] for r in replies[sql])


class TestOncePerShape:
    def test_the_front_end_runs_once_per_shape_and_row_counts(self, monkeypatch):
        """Validation, optimisation + planning and classification run once
        per (shape, row-count fingerprint); parsing once per shape."""
        calls: Counter = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(executor_module, "validate_query")  # what prepare() validates with
        count(sprout_module, "prepare")  # the plan memo's planner
        count(engine_base, "classify_query")
        count(statements_module, "parse_template")
        count(statements_module, "parse_sql")
        texts = data.adhoc_statements(7, 0, 1)  # the three ad-hoc shapes in turn

        async def scenario(server):
            seen = []
            for _ in range(30):
                seen.append(dict(calls))
                await ask(server, next(texts))
            seen.append(dict(calls))
            # An insert moves R's row count: every shape reads R.
            await server.mutate({"table": "R", "action": "insert", "values": ["a", 33], "p": 0.5})
            for _ in range(30):
                await ask(server, next(texts))
            seen.append(dict(calls))
            return seen

        seen = serve(scenario)
        once = {"validate_query": 3, "prepare": 3, "classify_query": 3, "parse_template": 3}
        assert seen[3] == once  # each shape's first text did the work ...
        assert seen[30] == once  # ... and 27 more texts did none of it
        assert seen[31] == {**{name: 6 for name in once}, "parse_template": 3}

    def test_a_schema_error_surfaces_before_engine_selection(self, monkeypatch):
        """Planning validates, so ``auto`` raises what validation raises
        (the errors and messages of the parent commit) and classifies
        nothing."""
        classified = []
        monkeypatch.setattr(engine_base, "classify_query", lambda *a: classified.append(a))
        session = Session(database=demo_database())
        cases = (
            ("SELECT nope FROM R", SchemaError, "attribute 'nope' not in schema ('kind', 'value')"),
            ("SELECT kind FROM R WHERE nope >= 3", SchemaError, "attribute 'nope' not in schema"),
            ("SELECT kind FROM Nope", QueryValidationError, "query references unknown relation 'Nope'"),
        )
        for sql, error, message in cases:
            for engine in ("auto", "sprout", "naive"):
                with pytest.raises(error, match=re.escape(message)):
                    session.sql(sql, engine=engine)
        assert classified == []


# -- differential: the bound plan is the plan of the text ---------------------

_LITERAL_KINDS = ("number", "string")
_COLD = tuple(
    (("star" if s.name == "star_join" else "tpch"), s.query)
    for s in data.TPCH_JOINS_STATEMENTS + data.AGG_COMPILE_STATEMENTS
    if isinstance(s.query, str)
)
POOL = tuple(("demo", text) for text in data.TRAFFIC_SHAPES) + _COLD

_literals = st.one_of(
    st.integers(0, 60).map(str),
    st.integers(0, 60_000).map(lambda n: f"{n / 1000:.3f}"),
    st.sampled_from(["'a'", "'b'", "'BUILDING'", "'ASIA'", "'it''s'", "'x  y'"]),
)
_ops = st.sampled_from(["=", "<", "<=", ">=", "!="])
_sometimes = st.integers(0, 3).map(lambda n: n == 0)


@st.composite
def statements(draw):
    """A text of one of the pool's shapes: fresh literal values (ints,
    floats, strings, or a value repeated from an earlier position), maybe
    an extra atom repeating the first ``attribute θ literal`` atom with a
    drawn value, maybe a literal-only atom that folds to true or false."""
    database, text = draw(st.sampled_from(POOL))
    tokens = _tokenize(text)
    drawn: list[str] = []
    pieces, last = [], 0
    for kind, value, pos in tokens:
        if kind in _LITERAL_KINDS:
            repeat = drawn and draw(_sometimes)
            literal = draw(st.sampled_from(drawn)) if repeat else draw(_literals)
            drawn.append(literal)
            pieces += [text[last:pos], literal]
            last = pos + len(value)
    text = "".join(pieces) + text[last:]
    extras = []
    first = next((i for i, t in enumerate(tokens) if t[0] in _LITERAL_KINDS), None)
    if first is not None and tokens[first - 2][0] == "name" and draw(_sometimes):
        again = draw(st.sampled_from(drawn)) if draw(st.booleans()) else draw(_literals)
        extras.append(f"{tokens[first - 2][1]} {tokens[first - 1][1]} {again}")
    if draw(_sometimes):
        extras.append(f"{draw(_literals)} {draw(_ops)} {draw(_literals)}")
    for extra in extras:
        if " WHERE " in text:
            text = text.replace(" WHERE ", f" WHERE {extra} AND ", 1)
        elif " GROUP BY " in text:
            text = text.replace(" GROUP BY ", f" WHERE {extra} GROUP BY ", 1)
        else:
            text = f"{text} WHERE {extra}"
    return database, text


@pytest.fixture(scope="module")
def served():
    """One long-lived statement cache and session per database, as a
    server has them: shapes planned by earlier examples stay kept."""
    databases = {
        "demo": demo_database(),
        "tpch": data.micro_tpch(7),
        "star": data.micro_star(7),
    }
    return StatementCache(), {name: Session(database=db) for name, db in databases.items()}


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # both sides must fail alike
        return None, (type(exc), str(exc))


class TestBoundPlansAreThePlansOfTheirTexts:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(statements())
    @example(("demo", "SELECT kind FROM R WHERE value >= 20 AND value >= 20"))
    @example(("demo", "SELECT kind FROM R WHERE 3 < 5 AND value >= 20"))
    @example(("demo", "SELECT kind FROM R WHERE 5 < 3 AND value >= 20"))
    @example(("demo", "SELECT kind FROM R WHERE 4 = 4 AND value >= 20"))
    @example(("demo", "SELECT kind FROM R WHERE 1 = 1.0 AND value >= 2.5"))
    @example(("tpch", "SELECT o_orderkey, c_name FROM customer, orders, nation "
              "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey "
              "AND n_regionkey = 2 AND o_orderdate < 2"))
    def test_plan_and_answer_equal_a_cold_sessions(self, served, case):
        statements, sessions = served
        database, text = case
        session = sessions[database]
        db = session.db
        query, _ = statements.get_or_parse(text)
        assert query == parse_sql(text)
        bound, bound_error = _outcome(lambda: session.engine("sprout").prepare(query))
        expected, expected_error = _outcome(
            lambda: prepare(parse_sql(text), db.catalog(), db.cardinalities())
        )
        assert bound_error == expected_error
        if expected is not None:
            assert bound == expected
            assert (bound.optimized, bound.plan, bound.trace) == (
                expected.optimized, expected.plan, expected.trace,
            )
        answer, answer_error = _outcome(lambda: fingerprint(session.run(query, engine="auto")))
        oracle, oracle_error = _outcome(
            lambda: fingerprint(Session(database=db).run(parse_sql(text), engine="auto"))
        )
        assert (answer, answer_error) == (oracle, oracle_error)

