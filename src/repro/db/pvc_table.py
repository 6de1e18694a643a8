"""pvc-tables: probabilistic value-conditioned tables (Section 3, Def. 6).

A pvc-table is a relation with an annotation column ``Φ`` holding semiring
expressions over the random variables, in which tuple *values* may be
either constants or semimodule expressions.  A pvc-database is a set of
pvc-tables over the same induced probability space.

pvc-tables are a complete representation system (Theorem 1): any finite
probability distribution over relational databases is representable, and —
unlike pc-tables — results of aggregate queries stay polynomial in size
because annotations and aggregated values can be intertwined in semimodule
expressions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.algebra.conditions import compare
from repro.algebra.expressions import ONE, SemiringExpr, Var, ssum
from repro.algebra.semimodule import ModuleExpr
from repro.algebra.semiring import BOOLEAN, Semiring
from repro.algebra.valuation import Valuation
from repro.cache import StampedSlot
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.errors import DistributionError, QueryValidationError, SchemaError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry

__all__ = [
    "PVCRow",
    "PVCTable",
    "PVCDatabase",
    "TableFacts",
    "merge_annotated_rows",
    "tuple_getter",
]


def tuple_getter(indices):
    """``values -> tuple(values[i] for i in indices)`` without a genexpr.

    ``operator.itemgetter`` builds the tuple in C; the empty and
    single-index cases (where itemgetter is unusable or returns a scalar)
    are wrapped to stay tuples.  Shared by the physical executor's
    project/join/group key paths and the table hash indexes.
    """
    if not indices:
        return lambda values: ()  # π_∅ and $_∅ keys
    if len(indices) == 1:
        index = indices[0]
        return lambda values: (values[index],)
    return operator.itemgetter(*indices)


def merge_annotated_rows(rows) -> list:
    """Group identical value tuples, summing their annotations in ``K``.

    ``rows`` is an iterable of ``(values, annotation)`` pairs; the result
    is the merged set-of-tuples view (Definition 6) with zero-annotated
    rows dropped, preserving first-occurrence order.  The single merge
    implementation behind base-table scans and the executor's π/∪.
    """
    merged: dict[tuple, SemiringExpr] = {}
    duplicates: dict[tuple, list] = {}
    for values, annotation in rows:
        if annotation.is_zero():
            continue
        if values not in merged:
            merged[values] = annotation
        else:
            bucket = duplicates.get(values)
            if bucket is None:
                duplicates[values] = bucket = [merged[values]]
            bucket.append(annotation)
    if duplicates:
        for values, annotations in duplicates.items():
            merged[values] = ssum(annotations)
    return list(merged.items())


@dataclass(frozen=True, slots=True)
class PVCRow:
    """One tuple of a pvc-table: values plus the annotation ``Φ``."""

    values: tuple
    annotation: SemiringExpr

    def value_dict(self, schema: Schema) -> dict:
        return dict(zip(schema.attributes, self.values))

    def module_values(self, schema: Schema) -> dict:
        """The semimodule-valued (aggregation) entries of this row."""
        return {
            name: value
            for name, value in zip(schema.attributes, self.values)
            if isinstance(value, ModuleExpr)
        }


class TableFacts:
    """What a table's rows say about independence, kept by its write path.

    :func:`repro.query.tractability.tuple_independent_relations` and
    :attr:`PVCTable.variables` read these instead of scanning rows:

    * ``dependent`` — rows that disqualify the table outright: a
      non-:class:`Var` annotation with variables, or a semimodule value;
    * ``annotation_rows`` — variable → number of rows whose annotation
      mentions it, and ``mentions``, the sum of those counts (so "some
      variable annotates two rows" is ``mentions != len(annotation_rows)``
      and cross-table reuse is a test on the key sets);
    * ``value_rows`` — the same count for variables inside semimodule
      values (they matter to ``variables`` only);
    * ``module_rows`` — rows storing a semimodule value, constant ones
      included (Monte-Carlo cannot valuate those tables in batch).
    """

    __slots__ = (
        "dependent", "mentions", "annotation_rows", "value_rows", "module_rows"
    )

    def __init__(self, rows: Iterable["PVCRow"] = ()):
        self.dependent = 0
        self.mentions = 0
        self.annotation_rows: dict[str, int] = {}
        self.value_rows: dict[str, int] = {}
        self.module_rows = 0
        for row in rows:
            self.count_row(row, 1)

    def count_row(self, row: "PVCRow", sign: int) -> None:
        """Account for ``row`` entering (``sign=1``) or leaving (``-1``)."""
        annotation = row.annotation
        names = annotation.variables
        dependent = False
        if names:
            dependent = not isinstance(annotation, Var)
            self.mentions += sign * len(names)
            _adjust(self.annotation_rows, names, sign)
        modules = False
        for value in row.values:
            if isinstance(value, ModuleExpr):
                modules = True
                _adjust(self.value_rows, value.variables, sign)
        if modules:
            self.module_rows += sign
        if dependent or modules:
            self.dependent += sign


def _adjust(counts: dict, names, sign: int) -> None:
    for name in names:
        count = counts.get(name, 0) + sign
        if count:
            counts[name] = count
        else:
            del counts[name]


class PVCTable:
    """A pvc-table: schema, rows, annotations.

    >>> from repro.algebra import Var
    >>> table = PVCTable(Schema(["sid", "shop"]))
    >>> table.add((1, "M&S"), Var("x1"))
    >>> len(table)
    1
    """

    __slots__ = ("schema", "rows", "_version", "_view_cache", "_facts")

    def __init__(self, schema: Schema, rows: Iterable[PVCRow] = ()):
        self.schema = schema
        self.rows: list[PVCRow] = list(rows)
        #: Monotonic epoch (the :class:`~repro.db.relation.Relation`
        #: ``_version`` discipline): bumped by every mutation, and the
        #: validity key of everything derived from ``rows``.  The row
        #: *count* is not a safe key — an equal-size in-place update leaves
        #: it unchanged while changing the data, which used to serve stale
        #: scans.
        self._version = 0
        #: ``(epoch, scan, indexes)`` — everything the physical executor
        #: derives lazily from ``rows``, as one record under one stamp:
        #: the merged set-of-tuples scan and the hash indexes over it by
        #: key set.  Only :meth:`_views` builds a record, and nothing edits
        #: one once it is published: every writer (:meth:`add`,
        #: :meth:`update_rows`, :meth:`delete_rows`) drops it and the next
        #: read rebuilds it, so a reader holding a scan or a bucket keeps
        #: the rows it read.  Any other in-place edit of ``rows`` must call
        #: :meth:`invalidate_caches` after it (the ``cache-epoch`` checker
        #: of :mod:`repro.analysis` holds every bump to after the change).
        self._view_cache = None
        #: ``(epoch, TableFacts)``, stamped like the record above but kept
        #: apart from it: the facts must exist before any scan does.  The
        #: mutators *maintain* a current entry instead of dropping it:
        #: they read it before touching ``rows``, bump the epoch, adjust
        #: the facts for exactly the rows that changed and only then
        #: re-stamp, so a concurrent reader sees either a current stamp
        #: with finished facts or a stale stamp (and counts the rows
        #: itself, see :meth:`facts`).  A table created with rows starts
        #: without an entry.
        self._facts = None if self.rows else (0, TableFacts())

    @property
    def epoch(self) -> int:
        """The table's monotonic mutation counter."""
        return self._version

    def invalidate_caches(self) -> None:
        """Bump the epoch and drop the scan/index record and the facts."""
        self._version += 1
        self._view_cache = None
        self._facts = None

    def facts(self) -> TableFacts:
        """The table's independence facts; shared — callers must not
        mutate them.  O(1) when the write path kept them current, one
        pass over this table's rows otherwise (built from rows, or
        edited in place and then :meth:`invalidate_caches`)."""
        version = self._version  # read first: writers change rows, then bump
        cached = self._facts
        if cached is not None and cached[0] == version:
            return cached[1]
        facts = TableFacts(self.rows)
        self._facts = (version, facts)
        return facts

    def add(self, values: Sequence, annotation: SemiringExpr = ONE):
        """Append a row; the default annotation ``1_K`` means "certain"."""
        values = tuple(values)
        if len(values) != len(self.schema.attributes):
            raise SchemaError(
                f"tuple of arity {len(values)} does not match schema "
                f"{self.schema!r}"
            )
        row = PVCRow(values, annotation)
        facts = self._facts
        self.rows.append(row)
        previous = self._version
        self._version += 1
        self._view_cache = None
        if facts is not None and facts[0] == previous:
            facts = facts[1]
            plain = type(annotation) is Var
            if plain:
                for value in values:
                    if isinstance(value, ModuleExpr):
                        plain = False
                        break
            if plain:
                # ``facts.count_row(row, 1)`` for a tuple-independent row,
                # inline: bulk loads spend their time in this method.
                counts = facts.annotation_rows
                name = annotation.name
                counts[name] = counts.get(name, 0) + 1
                facts.mentions += 1
            else:
                facts.count_row(row, 1)
            self._facts = (self._version, facts)

    def update_rows(self, predicate, rewrite) -> int:
        """Rewrite every row matching ``predicate`` via ``rewrite(row)``.

        ``rewrite`` returns the replacement :class:`PVCRow`.  The rows
        list is rebuilt and swapped atomically (concurrent readers keep a
        consistent pre-mutation snapshot), the epoch is bumped and the
        scan/index record is dropped — the next read rebuilds it from
        the rows, like a fresh table.  Returns the number of rows matched.
        """
        rows = self.rows
        facts = self._facts
        new_rows: list[PVCRow] = []
        replaced: list[tuple[PVCRow, PVCRow]] = []
        matched = 0
        for row in rows:
            if predicate(row):
                matched += 1
                new_row = rewrite(row)
                if (
                    new_row.values != row.values
                    or new_row.annotation is not row.annotation
                ):
                    replaced.append((row, new_row))
                    row = new_row
            new_rows.append(row)
        if replaced:
            previous = self._version
            self.rows = new_rows
            self._version += 1
            self._view_cache = None
            self._maintain_facts(facts, previous, replaced)
        return matched

    def delete_rows(self, predicate) -> int:
        """Remove every row matching ``predicate`` and drop the scan/index
        record.  Returns the number of rows removed."""
        rows = self.rows
        facts = self._facts
        kept: list[PVCRow] = []
        removed: list[PVCRow] = []
        for row in rows:
            if predicate(row):
                removed.append(row)
            else:
                kept.append(row)
        if removed:
            previous = self._version
            self.rows = kept
            self._version += 1
            self._view_cache = None
            self._maintain_facts(
                facts, previous, [(row, None) for row in removed]
            )
        return len(removed)

    def _maintain_facts(self, cached, previous: int, replaced) -> None:
        """Carry the facts entry ``cached`` (read before the mutation)
        across it: ``replaced`` lists ``(old row, new row or None)``.
        An entry that was not current at ``previous`` stays stale."""
        if cached is not None and cached[0] == previous:
            facts = cached[1]
            for old_row, new_row in replaced:
                facts.count_row(old_row, -1)
                if new_row is not None:
                    facts.count_row(new_row, 1)
            self._facts = (self._version, facts)

    def add_block(
        self,
        alternatives: Sequence[tuple],
        registry: VariableRegistry,
        name: str,
    ) -> None:
        """Append mutually exclusive row alternatives driven by variable
        ``name`` (the BID encoding shared by :func:`bid_table` and
        :meth:`PVCDatabase.insert_block`).

        ``alternatives`` is a sequence of ``(values, probability)`` pairs
        summing to at most 1; the remainder is the probability that no
        alternative is chosen.  Alternative ``i`` gets the conditional
        annotation ``[name = i+1]`` over one integer block variable.
        """
        alternatives = list(alternatives)
        total = sum(probability for _, probability in alternatives)
        if total > 1.0 + 1e-9:
            raise DistributionError(
                f"block {name!r} probabilities sum to {total} > 1"
            )
        support = {
            i + 1: probability
            for i, (_, probability) in enumerate(alternatives)
            if probability > 0
        }
        remainder = 1.0 - total
        if remainder > 1e-12:
            support[0] = remainder
        registry.declare(name, Distribution(support))
        for i, (values, probability) in enumerate(alternatives):
            if probability <= 0:
                continue
            self.add(tuple(values), compare(Var(name), "=", i + 1))

    def _views(self) -> tuple:
        """The current ``(epoch, scan, indexes)`` record, built from the
        rows when there is none — the one place a record is made and the
        one place its stamp is compared with the epoch.

        The stamp is the epoch read *before* the rows (writers change
        rows, then bump), so a write landing mid-build leaves a record
        stamped older than its content: the next call rejects and
        rebuilds it, and a stale view can never be stamped current.
        """
        views = self._view_cache
        version = self._version
        if views is None or views[0] != version:
            scan = merge_annotated_rows(
                (row.values, row.annotation) for row in self.rows
            )
            views = self._view_cache = (version, scan, {})
        return views

    def scan_rows(self) -> list:
        """The merged set-of-tuples view as ``(values, annotation)`` pairs.

        A pvc-table represents a *set* of tuples (Definition 6): rows
        stored with identical values are alternatives for one tuple and
        merge by annotation summation; zero-annotated rows are dropped.
        The result is cached (keyed on the epoch, which every mutator
        bumps) and shared — callers must not mutate it.
        """
        return self._views()[1]

    def hash_index(self, key_indices: tuple) -> dict:
        """Buckets of :meth:`scan_rows` keyed on the given value positions.

        Built once per key set and kept in the record of the scan it was
        built from; the physical executor uses it so repeated hash joins
        against a base table never rebuild the table's hash index.
        """
        _, scan, indexes = self._views()
        buckets = indexes.get(key_indices)
        if buckets is None:
            key_of = tuple_getter(key_indices)
            buckets = {}
            for row in scan:
                key = key_of(row[0])
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(row)
            indexes[key_indices] = buckets
        return buckets

    def __iter__(self) -> Iterator[PVCRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def variables(self) -> frozenset:
        """All variables mentioned by annotations or semimodule values
        (read from the maintained :meth:`facts`, not from the rows)."""
        facts = self.facts()
        return frozenset(facts.annotation_rows).union(facts.value_rows)

    def instantiate(self, valuation: Valuation, semiring: Semiring) -> Relation:
        """The possible world of this table under ``valuation`` (Def. 6).

        Annotations become multiplicities; semimodule values evaluate to
        monoid values; constants stay as they are.
        """
        world = Relation(self.schema, semiring)
        for row in self.rows:
            multiplicity = valuation(row.annotation)
            if multiplicity == semiring.zero:
                continue
            values = tuple(
                valuation(v) if isinstance(v, ModuleExpr) else v
                for v in row.values
            )
            world.add(values, multiplicity)
        return world

    def pretty(self, max_rows: int = 20) -> str:
        """A plain-text rendering in the style of the paper's figures."""
        header = list(self.schema.attributes) + ["Φ"]
        body = [
            [str(v) for v in row.values] + [repr(row.annotation)]
            for row in self.rows[:max_rows]
        ]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body), 1)
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(name.ljust(widths[i]) for i, name in enumerate(header))
        ]
        for line in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self):
        return f"PVCTable({self.schema!r}, {len(self.rows)} rows)"


class PVCDatabase:
    """A set of pvc-tables over one induced probability space (Def. 6)."""

    def __init__(
        self,
        tables: Mapping[str, PVCTable] | None = None,
        registry: VariableRegistry | None = None,
        semiring: Semiring = BOOLEAN,
    ):
        self.tables: dict[str, PVCTable] = dict(tables or {})
        self.registry = registry if registry is not None else VariableRegistry()
        self.semiring = semiring
        self._variable_counters: dict[str, int] = {}
        #: Applied mutations by kind — diagnostics (the server's
        #: ``/stats``); a call that matched no row counts nothing.  Nobody
        #: is notified of a mutation: every cache validates what it kept
        #: where it is read (:mod:`repro.cache`).
        self.mutations = {"insert": 0, "update": 0, "delete": 0}
        #: :func:`repro.query.tractability.tuple_independent_relations`'s
        #: memo, shared by every session; stamped with the tables alone
        #: (a ``p=`` update cannot change which are independent).
        self.independence_memo = StampedSlot()

    @property
    def generation(self) -> int:
        """Monotonic database generation: any mutation increases it.

        Derived from the table epochs plus the registry epoch, so it
        moves for row changes *and* for probability reassignments (which
        leave every table untouched), including mutations applied
        directly on a :class:`PVCTable`.  Diagnostic only: a sum misses
        a prebuilt table registered or one swapped for another, so
        nothing keys on it (see :func:`repro.cache.capture_stamp`).
        """
        generation = self.registry.epoch
        for table in self.tables.values():
            generation += table.epoch
        return generation

    def __getitem__(self, name: str) -> PVCTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r} in the database") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def add_table(self, name: str, table: PVCTable) -> PVCTable:
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        self.tables[name] = table
        return table

    def create_table(
        self,
        name: str,
        attributes: Sequence[str],
        aggregation_attributes: Iterable[str] = (),
    ) -> PVCTable:
        """Create and register an empty pvc-table."""
        return self.add_table(
            name, PVCTable(Schema(attributes, aggregation_attributes))
        )

    def catalog(self) -> dict[str, Schema]:
        """Mapping of table names to schemas (for validation/planning)."""
        return {name: table.schema for name, table in self.tables.items()}

    def cardinalities(self) -> dict[str, int]:
        """Row counts per table — the planner's base-table statistics."""
        return {name: len(table) for name, table in self.tables.items()}

    def _coerce_values(self, table: PVCTable, values) -> tuple:
        """Accept positional tuples or attribute dictionaries."""
        if isinstance(values, Mapping):
            missing = set(table.schema.attributes) - set(values)
            extra = set(values) - set(table.schema.attributes)
            if missing or extra:
                raise SchemaError(
                    f"row keys {sorted(values)} do not match schema "
                    f"{table.schema!r}"
                )
            return tuple(values[name] for name in table.schema.attributes)
        return tuple(values)

    def fresh_variable(self, stem: str) -> str:
        """Mint a variable name ``{stem}{i}`` unused by the registry."""
        index = self._variable_counters.get(stem, 0)
        while f"{stem}{index}" in self.registry:
            index += 1
        self._variable_counters[stem] = index + 1
        return f"{stem}{index}"

    def insert(
        self,
        table_name: str,
        values,
        p: float | None = None,
        annotation: SemiringExpr | None = None,
        var: str | None = None,
    ) -> SemiringExpr:
        """Insert one row, auto-minting a Bernoulli variable for ``p``.

        * ``p=None`` (default) inserts a certain row (annotation ``1_K``);
        * ``0 <= p < 1`` declares a fresh Boolean variable with
          ``P[⊤] = p`` (named ``var`` if given, else ``{table}_{i}``) and
          annotates the row with it; ``p = 1`` is treated as certain —
          unless ``var`` is given, which forces the named variable to be
          declared (with ``P[⊤] = 1``) so later rows can reference it;
        * an explicit ``annotation`` bypasses variable minting entirely.

        Returns the row's annotation, so callers can correlate further
        rows with the same event.
        """
        table = self[table_name]
        values = self._coerce_values(table, values)
        if annotation is not None:
            if p is not None or var is not None:
                raise DistributionError(
                    "an explicit annotation cannot be combined with p= or var="
                )
            expr = annotation
        elif p is None:
            if var is not None:
                raise DistributionError(
                    f"naming variable {var!r} requires a probability p"
                )
            expr = ONE
        elif not 0.0 <= p <= 1.0:
            raise DistributionError(f"probability {p} is not in [0, 1]")
        elif p >= 1.0 and var is None:
            expr = ONE  # certain row: no variable to mint
        else:
            name = var if var is not None else self.fresh_variable(f"{table_name}_")
            self.registry.bernoulli(name, p)
            expr = Var(name)
        table.add(values, expr)
        self.mutations["insert"] += 1
        return expr

    def insert_block(
        self,
        table_name: str,
        alternatives: Sequence[tuple],
        var: str | None = None,
    ) -> str:
        """Insert a block of mutually exclusive row alternatives (BID).

        ``alternatives`` is a sequence of ``(values, probability)`` pairs
        whose probabilities sum to at most 1 (the remainder is "no row").
        One integer block variable drives the block, and alternative ``i``
        is annotated ``[x_b = i]`` — which requires the **naturals**
        semiring, as with :func:`repro.db.tuple_independent.bid_table`.

        Returns the name of the block variable.
        """
        table = self[table_name]
        alternatives = [
            (self._coerce_values(table, values), probability)
            for values, probability in alternatives
        ]
        name = var if var is not None else self.fresh_variable(f"{table_name}_blk")
        table.add_block(alternatives, self.registry, name)
        self.mutations["insert"] += 1
        return name

    def _row_predicate(self, table: PVCTable, where):
        """Compile ``where`` into a row predicate.

        ``where`` is either a mapping of attribute → value (conjunctive
        equality) or a callable over the row's attribute dictionary.
        """
        if callable(where):
            schema = table.schema
            return lambda row: bool(where(row.value_dict(schema)))
        if isinstance(where, Mapping):
            attributes = list(table.schema.attributes)
            unknown = set(where) - set(attributes)
            if unknown:
                raise SchemaError(
                    f"where-clause attributes {sorted(unknown)} are not in "
                    f"schema {table.schema!r}"
                )
            tests = [
                (attributes.index(name), value) for name, value in where.items()
            ]
            return lambda row: all(
                row.values[index] == value for index, value in tests
            )
        raise QueryValidationError(
            f"cannot use {where!r} as a where-clause; expected an "
            f"attribute mapping or a callable over a row dict"
        )

    def update(
        self,
        table_name: str,
        where,
        set_values=None,
        p: float | None = None,
    ) -> int:
        """Update rows in place: new attribute values and/or probability.

        ``where`` selects rows (mapping = conjunctive equality, or a
        callable over the attribute dict).  ``set_values`` is a mapping
        of attribute → new value, or a callable over the attribute dict
        returning such a mapping.  ``p`` reassigns the Bernoulli
        probability of the matched rows' annotation variables — each
        matched row must be annotated with a single variable (the
        tuple-independent encoding); the registry records the names, and
        exactly the compiled distributions that depend on them recompile
        on their next read.  Returns the number of matched rows.
        """
        table = self[table_name]
        if set_values is None and p is None:
            raise QueryValidationError(
                "update() needs set_values= and/or p="
            )
        predicate = self._row_predicate(table, where)
        names: set = set()
        if p is not None:
            # Resolve the annotation variables against the *pre-update*
            # rows: a set_values that rewrites the matched attributes
            # must not make the probability reassignment miss them.
            if not 0.0 <= p <= 1.0:
                raise DistributionError(f"probability {p} is not in [0, 1]")
            for row in table.rows:
                if predicate(row):
                    if not isinstance(row.annotation, Var):
                        raise DistributionError(
                            f"p= updates require rows annotated with a "
                            f"single variable, got {row.annotation!r}"
                        )
                    names.add(row.annotation.name)
        if set_values is not None:
            attributes = list(table.schema.attributes)
            if not callable(set_values):
                unknown = set(set_values) - set(attributes)
                if unknown:
                    raise SchemaError(
                        f"update attributes {sorted(unknown)} are not in "
                        f"schema {table.schema!r}"
                    )
            schema = table.schema

            def rewrite(row: PVCRow) -> PVCRow:
                changes = (
                    set_values(row.value_dict(schema))
                    if callable(set_values)
                    else set_values
                )
                unknown = set(changes) - set(attributes)
                if unknown:
                    raise SchemaError(
                        f"update attributes {sorted(unknown)} are not in "
                        f"schema {schema!r}"
                    )
                values = list(row.values)
                for name, value in changes.items():
                    values[attributes.index(name)] = value
                return PVCRow(tuple(values), row.annotation)

            matched = table.update_rows(predicate, rewrite)
        else:
            matched = sum(1 for row in table.rows if predicate(row))
        if matched:
            for name in sorted(names):
                self.registry.reassign(name, Distribution.bernoulli(p))
            self.mutations["update"] += 1
        return matched

    def delete(self, table_name: str, where) -> int:
        """Delete rows matching ``where``; returns the number removed.

        Removing rows never changes any compiled distribution (lineage
        is untouched), so only the table's own scan/index record is
        dropped and plans re-key on the new cardinality.
        """
        table = self[table_name]
        predicate = self._row_predicate(table, where)
        removed = table.delete_rows(predicate)
        if removed:
            self.mutations["delete"] += 1
        return removed

    @property
    def variables(self) -> frozenset:
        names: set = set()
        for table in self.tables.values():
            facts = table.facts()
            names.update(facts.annotation_rows, facts.value_rows)
        return frozenset(names)

    def __repr__(self):
        inner = ", ".join(
            f"{name}({len(table)})" for name, table in sorted(self.tables.items())
        )
        return f"PVCDatabase[{self.semiring.name}]({inner})"
