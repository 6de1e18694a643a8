"""Property: what a table keeps about its rows equals a fresh look at them.

``tuple_independent_relations`` and ``PVCTable.variables`` no longer read
rows — each table's write path keeps the counts they need.  The state
machine below drives every way rows get into, change in, or leave a
table (including writes that bypass the database, tables registered
pre-filled, aliases sharing variables, and in-place edits followed by
``invalidate_caches``) and after every step compares both with the old
row-scanning implementations, kept here verbatim as oracles.

The same steps, interleaved with ``scan_rows()``/``hash_index(k)`` reads,
check the other thing a table derives from its rows: after every step
the scan/index record answers like ``PVCTable(schema, list(rows))``, and
``facts()`` equals a recount.
"""

from __future__ import annotations

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.algebra.conditions import compare
from repro.algebra.expressions import ONE, ZERO, Var, sprod, ssum
from repro.algebra.monoid import SUM
from repro.algebra.semimodule import MConst, ModuleExpr, tensor
from repro.algebra.semiring import NATURALS
from repro.db.pvc_table import PVCDatabase, PVCRow, PVCTable, TableFacts
from repro.db.schema import Schema
from repro.errors import DistributionError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.query.tractability import tuple_independent_relations


# -- the oracles: the pre-facts implementations, verbatim ----------------------


def scanned_tuple_independent_relations(db: PVCDatabase) -> set[str]:
    usage: dict[str, int] = {}
    candidates: set[str] = set()
    for name, table in db.tables.items():
        independent = True
        for row in table:
            if not isinstance(row.annotation, Var) and row.annotation.variables:
                independent = False
            if any(isinstance(v, ModuleExpr) for v in row.values):
                independent = False
            for variable in row.annotation.variables:
                usage[variable] = usage.get(variable, 0) + 1
        if independent:
            candidates.add(name)
    return {
        name
        for name in candidates
        if all(
            usage[row.annotation.name] == 1
            for row in db.tables[name]
            if isinstance(row.annotation, Var)
        )
    }


def scanned_variables(table: PVCTable) -> frozenset:
    names: frozenset = frozenset()
    for row in table.rows:
        names |= row.annotation.variables
        for value in row.values:
            if isinstance(value, ModuleExpr):
                names |= value.variables
    return names


# -- the machine ---------------------------------------------------------------

POOL = tuple(f"v{i}" for i in range(6))  # few names: reuse is the point
keys = st.integers(min_value=0, max_value=3)
pool_vars = st.sampled_from(POOL).map(Var)
annotations = st.one_of(
    st.just(ONE),
    st.just(ZERO),
    pool_vars,
    st.tuples(pool_vars, pool_vars).map(sprod),
    st.tuples(pool_vars, pool_vars).map(ssum),
    pool_vars.map(lambda var: compare(var, "=", 1)),
)
payloads = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=9).map(lambda n: MConst(SUM, n)),
    st.tuples(pool_vars, st.integers(min_value=1, max_value=9)).map(
        lambda pair: tensor(pair[0], MConst(SUM, pair[1]))
    ),
)
probabilities = st.sampled_from((0.25, 0.5, 1.0))
KEY_SETS = ((0,), (1,), (0, 1), ())


class IndependenceFacts(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        registry = VariableRegistry()
        for name in POOL:
            registry.bernoulli(name, 0.5)
        self.db = PVCDatabase(registry=registry, semiring=NATURALS)
        self.db.create_table("t0", ["k", "v"])
        self.created = 1

    def _fresh_name(self) -> str:
        self.created += 1
        return f"t{self.created - 1}"

    tables = st.runner().flatmap(
        lambda self: st.sampled_from(sorted(self.db.tables))
    )

    @rule()
    def create_table(self):
        self.db.create_table(self._fresh_name(), ["k", "v"])

    @rule(name=tables, k=keys, v=payloads, annotation=annotations)
    def add_directly(self, name, k, v, annotation):
        self.db[name].add((k, v), annotation)

    @rule(name=tables, k=keys, v=payloads, p=st.none() | probabilities)
    def insert(self, name, k, v, p):
        self.db.insert(name, (k, v), p=p)

    @rule(name=tables, k=keys, v=payloads, annotation=annotations)
    def insert_annotated(self, name, k, v, annotation):
        self.db.insert(name, (k, v), annotation=annotation)

    @rule(name=tables, k=keys)
    def insert_block(self, name, k):
        self.db.insert_block(name, [((k, 1), 0.3), ((k, 2), 0.4)])

    @rule(name=tables, k=keys, v=payloads)
    def update_values(self, name, k, v):
        self.db.update(name, {"k": k}, {"v": v})

    @rule(name=tables, k=keys, annotation=annotations)
    def update_annotation(self, name, k, annotation):
        self.db[name].update_rows(
            lambda row: row.values[0] == k,
            lambda row: PVCRow(row.values, annotation),
        )

    @rule(name=tables, k=keys, p=probabilities)
    def update_probability(self, name, k, p):
        try:
            self.db.update(name, {"k": k}, p=p)
        except DistributionError:
            pass  # a matched row is not annotated with one variable

    @rule(name=tables, k=keys)
    def delete(self, name, k):
        self.db.delete(name, {"k": k})

    @rule(variable=st.sampled_from(POOL), p=probabilities)
    def reassign(self, variable, p):
        self.db.registry.reassign(variable, Distribution.bernoulli(p))

    @rule(rows=st.lists(st.tuples(keys, payloads, annotations), max_size=3))
    def add_prefilled_table(self, rows):
        table = PVCTable(
            Schema(["k", "v"]),
            [PVCRow((k, v), annotation) for k, v, annotation in rows],
        )
        self.db.add_table(self._fresh_name(), table)

    @rule(name=tables)
    def add_alias_sharing_variables(self, name):
        # prepare_q2_aliases' shape: the same rows under another name.
        self.db.add_table(
            self._fresh_name(),
            PVCTable(Schema(["k", "v"]), list(self.db[name].rows)),
        )

    @rule(name=tables, annotation=annotations)
    def edit_in_place_then_invalidate(self, name, annotation):
        table = self.db[name]
        if table.rows:
            table.rows[0] = PVCRow(table.rows[0].values, annotation)
            table.invalidate_caches()

    @rule(name=tables)
    def read_scan(self, name):
        self.db[name].scan_rows()

    @rule(name=tables, key_indices=st.sampled_from(KEY_SETS))
    def read_index(self, name, key_indices):
        self.db[name].hash_index(key_indices)

    @invariant()
    def views_and_facts_equal_a_fresh_table(self):
        for table in self.db.tables.values():
            fresh = PVCTable(table.schema, list(table.rows))
            # Read through a shallow copy: it serves the record ``table``
            # holds but never builds one into it, so whether the next
            # write finds a record to carry is decided by the rules alone.
            probe = copy.copy(table)
            assert probe.scan_rows() == fresh.scan_rows()
            for key_indices in KEY_SETS:
                assert probe.hash_index(key_indices) == (
                    fresh.hash_index(key_indices)
                )
            kept, recount = table.facts(), TableFacts(table.rows)
            for field in TableFacts.__slots__:
                assert getattr(kept, field) == getattr(recount, field)

    @invariant()
    def facts_equal_a_row_scan(self):
        assert tuple_independent_relations(self.db) == (
            scanned_tuple_independent_relations(self.db)
        )
        for table in self.db.tables.values():
            assert table.variables == scanned_variables(table)
        assert self.db.variables == frozenset().union(
            *(scanned_variables(t) for t in self.db.tables.values())
        )


IndependenceFacts.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestIndependenceFacts = IndependenceFacts.TestCase
