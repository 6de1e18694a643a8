"""Property: a warm plan's kept step-I answer never outlives its rows.

The machine interleaves runs of a few fixed queries with inserts, value
updates, deletes and ``p=`` reassignments over two tables.  Plans stay
warm across the whole example (one session, one ``PlanCache``), so runs
land on every state of the answer slot — first sight, admission, reuse,
stale stamp — and every answer must fingerprint like a session rebuilt
from scratch over the current rows, row order included.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro import connect, count_, sum_
from repro.query.sql import parse_sql
from tests.property.test_mutation_conformance import rebuilt_from_scratch

KINDS = ("a", "b", "c")
TABLES = ("items", "extras")

kinds = st.sampled_from(KINDS)
tables = st.sampled_from(TABLES)
values = st.integers(min_value=1, max_value=9)
probabilities = st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9))


def fingerprint(result):
    return result.engine, [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


class WarmPlans(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.session = connect()
        items = self.session.table("items", ["kind", "value"])
        extras = self.session.table("extras", ["ekind", "evalue"])
        for handle in (items, extras):
            handle.insert(("a", 1), p=0.5)
            handle.insert(("b", 2), p=0.25)
        self.queries = (
            items.select("kind").build(),
            items.group_by("kind").agg(total=sum_("value")).build(),
            extras.group_by().agg(n=count_()).build(),
            parse_sql("SELECT kind, evalue FROM items, extras WHERE kind = ekind"),
        )

    @rule(index=st.integers(min_value=0, max_value=3), repeats=st.integers(1, 4))
    def run(self, index, repeats):
        query = self.queries[index]
        expected = fingerprint(rebuilt_from_scratch(self.session).run(query))
        for _ in range(repeats):
            assert fingerprint(self.session.run(query)) == expected

    @rule(name=tables, kind=kinds, value=values, p=probabilities)
    def insert(self, name, kind, value, p):
        self.session.table(name).insert((kind, value), p=p)

    @rule(name=tables, kind=kinds, value=values)
    def update_values(self, name, kind, value):
        key, column = self.session.table(name).schema.attributes
        self.session.table(name).update({key: kind}, {column: value})

    @rule(name=tables, kind=kinds, p=probabilities)
    def update_probability(self, name, kind, p):
        key = self.session.table(name).schema.attributes[0]
        self.session.table(name).update({key: kind}, p=p)

    @rule(name=tables, kind=kinds)
    def delete(self, name, kind):
        key = self.session.table(name).schema.attributes[0]
        self.session.table(name).delete({key: kind})


WarmPlans.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestWarmPlans = WarmPlans.TestCase
